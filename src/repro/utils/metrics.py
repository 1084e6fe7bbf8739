"""Ranking metrics used throughout the evaluation protocol.

The paper evaluates entity link prediction with mean reciprocal rank (MRR)
and Hits@N, and relation link prediction with mean average precision (MAP).
These helpers operate on plain ranks / score arrays so they can be shared by
the embedding models, the RL agent, and every baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence

import numpy as np


@dataclass
class RankingResult:
    """Accumulates ranks of ground-truth answers and derives metrics.

    A rank of ``1`` means the correct answer was ranked first.  Ranks are
    collected per query; the summary metrics follow the standard filtered
    link-prediction protocol (the caller is responsible for filtering).
    """

    ranks: List[int] = field(default_factory=list)

    def add(self, rank: int) -> None:
        if rank < 1:
            raise ValueError(f"ranks are 1-based, got {rank}")
        self.ranks.append(int(rank))

    def extend(self, ranks: Iterable[int]) -> None:
        for rank in ranks:
            self.add(rank)

    def __len__(self) -> int:
        return len(self.ranks)

    @property
    def mrr(self) -> float:
        return mean_reciprocal_rank(self.ranks)

    def hits(self, k: int) -> float:
        return hits_at_k(self.ranks, k)

    def summary(self, hits_at: Sequence[int] = (1, 5, 10)) -> Dict[str, float]:
        """Return the metric dictionary used by every results table."""
        result = {"mrr": self.mrr}
        for k in hits_at:
            result[f"hits@{k}"] = self.hits(k)
        return result

    def merge(self, other: "RankingResult") -> "RankingResult":
        merged = RankingResult()
        merged.ranks = list(self.ranks) + list(other.ranks)
        return merged


def mean_reciprocal_rank(ranks: Sequence[int]) -> float:
    """Mean reciprocal rank of 1-based ranks; 0.0 for an empty collection."""
    if not ranks:
        return 0.0
    ranks_arr = np.asarray(list(ranks), dtype=np.float64)
    if np.any(ranks_arr < 1):
        raise ValueError("ranks must be 1-based and positive")
    return float(np.mean(1.0 / ranks_arr))


def hits_at_k(ranks: Sequence[int], k: int) -> float:
    """Fraction of queries whose correct answer ranks within the top ``k``."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if not ranks:
        return 0.0
    ranks_arr = np.asarray(list(ranks), dtype=np.int64)
    return float(np.mean(ranks_arr <= k))


def average_precision(relevance: Sequence[int]) -> float:
    """Average precision of a ranked list of binary relevance labels.

    ``relevance`` is ordered from the highest-scored item to the lowest; a
    value of 1 marks a correct answer.  Returns 0.0 when there is no relevant
    item at all.
    """
    relevant_seen = 0
    precision_sum = 0.0
    for position, rel in enumerate(relevance, start=1):
        if rel:
            relevant_seen += 1
            precision_sum += relevant_seen / position
    if relevant_seen == 0:
        return 0.0
    return precision_sum / relevant_seen


def mean_average_precision(ranked_relevances: Iterable[Sequence[int]]) -> float:
    """MAP over a collection of ranked relevance lists (one per query)."""
    scores = [average_precision(rel) for rel in ranked_relevances]
    if not scores:
        return 0.0
    return float(np.mean(scores))


def rank_of_target(scores: np.ndarray, target_index: int) -> int:
    """1-based rank of ``target_index`` under descending ``scores``.

    Ties are broken pessimistically (the target is placed after equal-scored
    competitors), matching the conservative convention used in link
    prediction evaluation.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not 0 <= target_index < scores.shape[0]:
        raise IndexError(f"target index {target_index} out of range")
    target_score = scores[target_index]
    better = int(np.sum(scores > target_score))
    equal = int(np.sum(scores == target_score)) - 1
    return better + equal + 1


def percentile(sample: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile over ``sample`` (NumPy's default method).

    Interpolating between the two straddling order statistics keeps small
    windows smooth, where a nearest-rank percentile with Python's banker's
    rounding would jump between neighbouring samples: one sample returns
    itself, two samples return their ``fraction``-weighted blend, and an
    empty sample returns 0.0.
    """
    if not sample:
        return 0.0
    ordered = sorted(sample)
    position = fraction * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * weight


def summarize_results(results: Mapping[str, RankingResult]) -> Dict[str, Dict[str, float]]:
    """Summarise a ``{model name: RankingResult}`` mapping into metric dicts."""
    return {name: result.summary() for name, result in results.items()}
