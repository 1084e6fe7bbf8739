"""GAATs (Wang et al., 2019): graph attenuated attention networks.

GAATs enrich entity embeddings by attending over neighbouring entities with
attention weights that attenuate along relation paths, and score triples with
a translation-style decoder on top of the enriched representations.  It is a
multi-hop-*aware* (message-passing) model but not an RL walker, so it is not
affected by sparse rewards — the distinction Table VII relies on.

Implementation: TransE embeddings are pre-trained, then refined by ``L``
rounds of attenuated neighbourhood attention (each round mixes an entity's
embedding with an attention-weighted sum of its neighbours through the
relation translation, scaled by an attenuation factor per hop); scoring uses
the enriched entity embeddings with the TransE relation vectors.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.baselines.registry import register_baseline
from repro.core.config import ExperimentPreset, fast_preset
from repro.embeddings.base import KGEmbeddingModel
from repro.embeddings.trainer import EmbeddingTrainer
from repro.serve.reasoner import EmbeddingReasoner
from repro.embeddings.transe import TransE
from repro.kg.datasets import MKGDataset
from repro.kg.graph import KnowledgeGraph
from repro.utils.rng import SeedLike, new_rng


class AttenuatedAttentionModel(KGEmbeddingModel):
    """Neighbourhood-attention refinement on top of pretrained TransE vectors."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        base: TransE,
        rounds: int = 1,
        attenuation: float = 0.5,
        mixing: float = 0.25,
    ):
        super().__init__(graph, base.embedding_dim)
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0.0 < attenuation <= 1.0 or not 0.0 <= mixing <= 1.0:
            raise ValueError("attenuation must be in (0, 1] and mixing in [0, 1]")
        self.base = base
        self.rounds = rounds
        self.attenuation = attenuation
        self.mixing = mixing
        self._entities = self._propagate(base.entity_embeddings.copy())
        self._relations = base.relation_embeddings

    def _propagate(self, embeddings: np.ndarray) -> np.ndarray:
        """Apply ``rounds`` of attenuated attention over graph neighbourhoods."""
        current = embeddings
        decay = 1.0
        for _ in range(self.rounds):
            updated = current.copy()
            decay *= self.attenuation
            for entity in range(self.graph.num_entities):
                edges = self.graph.outgoing_edges(entity)
                if not edges:
                    continue
                messages = np.stack(
                    [current[neighbor] - self._relation_vector(relation) for relation, neighbor in edges]
                )
                scores = messages @ current[entity]
                scores = scores - scores.max()
                weights = np.exp(scores)
                weights = weights / weights.sum()
                aggregated = weights @ messages
                updated[entity] = (1.0 - self.mixing * decay) * current[entity] + (
                    self.mixing * decay
                ) * aggregated
            norms = np.linalg.norm(updated, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            current = updated / norms
        return current

    def _relation_vector(self, relation: int) -> np.ndarray:
        return self.base.relation_embeddings[relation]

    # ---------------------------------------------------------------- scoring
    def score_triple(self, head: int, relation: int, tail: int) -> float:
        diff = self._entities[head] + self._relations[relation] - self._entities[tail]
        return -float(np.linalg.norm(diff))

    def score_tails(self, head: int, relation: int) -> np.ndarray:
        translated = self._entities[head] + self._relations[relation]
        return -np.linalg.norm(self._entities - translated, axis=1)

    def train_step(self, positives, negatives, lr):  # pragma: no cover - not trained directly
        raise NotImplementedError("GAATs refines a pretrained TransE; train the base model instead")

    @property
    def entity_embeddings(self) -> np.ndarray:
        return self._entities

    @property
    def relation_embeddings(self) -> np.ndarray:
        return self._relations


@register_baseline
class GAATsBaseline:
    """Graph attenuated attention baseline (non-RL, structure-only)."""

    name = "GAATs"

    def fit(
        self,
        dataset: MKGDataset,
        preset: Optional[ExperimentPreset] = None,
        rng: SeedLike = None,
    ) -> EmbeddingReasoner:
        preset = preset or fast_preset()
        rng = new_rng(rng)
        transe = TransE(
            dataset.train_graph, embedding_dim=preset.model.structural_dim, rng=rng
        )
        EmbeddingTrainer(transe, preset.embedding, rng=rng).fit(dataset.splits.train)
        model = AttenuatedAttentionModel(dataset.train_graph, transe, rounds=1)
        return EmbeddingReasoner(model, name=self.name, filter_graph=dataset.graph)
