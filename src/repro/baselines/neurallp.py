"""NeuralLP (Yang et al., 2017): differentiable learning of logical rules.

NeuralLP learns weighted chain rules of the form
``query(x, y) ← r_1(x, z_1) ∧ r_2(z_1, z_2) ∧ ...`` and answers queries by
soft rule application (sparse matrix products over relation adjacency
matrices).  It is a multi-hop but non-RL baseline — the rule weights are the
multi-hop evidence — and, like the other traditional-KG baselines, it uses no
multi-modal features.

Implementation: chain rules up to a maximum length are mined from the
training graph with confidence = (# of (h, t) pairs connected by both the
rule body and the query relation) / (# of pairs connected by the rule body);
inference scores a candidate tail by the confidence-weighted count of rule
bodies connecting the query head to it, computed with boolean adjacency
matrix products (the discrete equivalent of NeuralLP's TensorLog operators).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.baselines.mtrl import forward_relations
from repro.baselines.registry import register_baseline
from repro.core.config import ExperimentPreset, fast_preset
from repro.kg.datasets import MKGDataset
from repro.kg.graph import KnowledgeGraph, Triple
from repro.serve.reasoner import RuleReasonerAdapter
from repro.utils.rng import SeedLike


@dataclass(frozen=True)
class ChainRule:
    """A weighted chain rule ``head_relation(x, y) ← body[0] ∧ body[1] ∧ ...``."""

    head_relation: int
    body: Tuple[int, ...]
    confidence: float
    support: int


class RuleReasoner:
    """Mines and applies chain rules over a training graph."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        max_rule_length: int = 2,
        min_support: int = 2,
        min_confidence: float = 0.1,
        max_rules_per_relation: int = 20,
    ):
        if max_rule_length < 1:
            raise ValueError("max_rule_length must be >= 1")
        self.graph = graph
        self.max_rule_length = max_rule_length
        self.min_support = min_support
        self.min_confidence = min_confidence
        self.max_rules_per_relation = max_rules_per_relation
        self._adjacency = self._build_adjacency()
        self.rules: Dict[int, List[ChainRule]] = {}

    def _build_adjacency(self) -> Dict[int, sparse.csr_matrix]:
        """Boolean adjacency matrix per relation (including inverse relations)."""
        n = self.graph.num_entities
        rows: Dict[int, List[int]] = {}
        cols: Dict[int, List[int]] = {}
        for entity in range(n):
            for relation, neighbor in self.graph.outgoing_edges(entity):
                rows.setdefault(relation, []).append(entity)
                cols.setdefault(relation, []).append(neighbor)
        adjacency = {}
        for relation, row_indices in rows.items():
            data = np.ones(len(row_indices), dtype=np.float64)
            adjacency[relation] = sparse.csr_matrix(
                (data, (row_indices, cols[relation])), shape=(n, n)
            )
        return adjacency

    def _body_matrix(self, body: Sequence[int]) -> Optional[sparse.csr_matrix]:
        matrix: Optional[sparse.csr_matrix] = None
        for relation in body:
            adjacency = self._adjacency.get(relation)
            if adjacency is None:
                return None
            matrix = adjacency if matrix is None else (matrix @ adjacency)
        if matrix is not None:
            matrix = matrix.minimum(1.0)
        return matrix

    # -------------------------------------------------------------------- mine
    def mine(self, target_relations: Sequence[int]) -> Dict[int, List[ChainRule]]:
        """Mine chain rules for every relation in ``target_relations``."""
        candidate_relations = [
            relation for relation in self._adjacency if self._adjacency[relation].nnz > 0
        ]
        bodies: List[Tuple[int, ...]] = [(r,) for r in candidate_relations]
        if self.max_rule_length >= 2:
            bodies += [
                (r1, r2)
                for r1 in candidate_relations
                for r2 in candidate_relations
            ]
        if self.max_rule_length >= 3:
            # Length-3 bodies are restricted to extensions of frequent pairs to
            # keep mining tractable on larger graphs.
            frequent = candidate_relations[: min(len(candidate_relations), 8)]
            bodies += [
                (r1, r2, r3) for r1 in frequent for r2 in frequent for r3 in frequent
            ]

        body_matrices = {}
        for body in bodies:
            matrix = self._body_matrix(body)
            if matrix is not None and matrix.nnz > 0:
                body_matrices[body] = matrix

        for target in target_relations:
            target_matrix = self._adjacency.get(target)
            if target_matrix is None or target_matrix.nnz == 0:
                self.rules[target] = []
                continue
            rules: List[ChainRule] = []
            for body, matrix in body_matrices.items():
                if body == (target,):
                    continue
                overlap = matrix.multiply(target_matrix)
                support = int(overlap.nnz)
                if support < self.min_support:
                    continue
                confidence = support / matrix.nnz
                if confidence < self.min_confidence:
                    continue
                rules.append(
                    ChainRule(
                        head_relation=target, body=body, confidence=confidence, support=support
                    )
                )
            rules.sort(key=lambda rule: (rule.confidence, rule.support), reverse=True)
            self.rules[target] = rules[: self.max_rules_per_relation]
        return self.rules

    # ------------------------------------------------------------------- apply
    def score_tails(self, head: int, relation: int) -> np.ndarray:
        """Confidence-weighted rule-application scores for every candidate tail."""
        scores = np.zeros(self.graph.num_entities)
        for rule in self.rules.get(relation, []):
            matrix = self._body_matrix(rule.body)
            if matrix is None:
                continue
            reachable = np.asarray(matrix.getrow(head).todense()).ravel()
            scores += rule.confidence * reachable
        return scores

    def score_triple(self, head: int, relation: int, tail: int) -> float:
        return float(self.score_tails(head, relation)[tail])


@register_baseline
class NeuralLPBaseline:
    """Rule-mining multi-hop baseline (no RL, no multi-modal features)."""

    name = "NeuralLP"

    def __init__(self, max_rule_length: int = 2):
        self.max_rule_length = max_rule_length

    def fit(
        self,
        dataset: MKGDataset,
        preset: Optional[ExperimentPreset] = None,
        rng: SeedLike = None,
    ) -> RuleReasonerAdapter:
        reasoner = RuleReasoner(dataset.train_graph, max_rule_length=self.max_rule_length)
        reasoner.mine(forward_relations(dataset.graph))
        return RuleReasonerAdapter(reasoner, name=self.name, filter_graph=dataset.graph)
