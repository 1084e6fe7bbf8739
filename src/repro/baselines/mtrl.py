"""MTRL (Sergieh et al., 2018): multi-modal translation-based embeddings.

MTRL is the strongest *single-hop* multi-modal baseline in the paper: it
concatenates structural and multi-modal (text + image) features of each
entity and learns a TransE-style translation model over the concatenated
space.  Because it scores one-step triples only, it cannot exploit
compositional multi-hop evidence — the structural disadvantage the paper's
Table III illustrates.

Implementation: entity vectors are the concatenation of a trainable
structural part and a *fixed* linear projection of the entity's multi-modal
features (playing the role of the frozen encoders in the original work);
relations are trainable over the full concatenated dimension; training uses
the standard margin-ranking objective.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.registry import register_baseline
from repro.core.config import ExperimentPreset, fast_preset
from repro.embeddings.base import KGEmbeddingModel
from repro.embeddings.trainer import EmbeddingTrainer
from repro.serve.reasoner import EmbeddingReasoner
from repro.kg.datasets import MKGDataset
from repro.kg.graph import KnowledgeGraph, Triple
from repro.utils.metrics import average_precision
from repro.utils.rng import SeedLike, new_rng


class MultiModalTransE(KGEmbeddingModel):
    """TransE over [structural ; projected multi-modal] entity vectors."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        multimodal_features: np.ndarray,
        structural_dim: int = 24,
        multimodal_dim: int = 16,
        margin: float = 1.0,
        rng: SeedLike = None,
    ):
        super().__init__(graph, structural_dim + multimodal_dim)
        rng = new_rng(rng)
        self.margin = margin
        self.structural_dim = structural_dim
        self.multimodal_dim = multimodal_dim
        bound = 6.0 / np.sqrt(structural_dim)
        self._structural = rng.uniform(
            -bound, bound, size=(graph.num_entities, structural_dim)
        )
        multimodal_features = np.asarray(multimodal_features, dtype=np.float64)
        if multimodal_features.shape[0] != graph.num_entities:
            raise ValueError("multimodal feature matrix must have one row per entity")
        projection = rng.normal(
            0.0,
            1.0 / np.sqrt(multimodal_features.shape[1]),
            size=(multimodal_features.shape[1], multimodal_dim),
        )
        projected = multimodal_features @ projection
        norms = np.linalg.norm(projected, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        self._multimodal = projected / norms  # fixed (frozen encoders)
        self._relations = rng.uniform(
            -bound, bound, size=(graph.num_relations, self.embedding_dim)
        )
        self._normalize_structural()

    # ------------------------------------------------------------------ views
    def _entity_vector(self, entity: int) -> np.ndarray:
        return np.concatenate([self._structural[entity], self._multimodal[entity]])

    def _entity_matrix(self) -> np.ndarray:
        return np.concatenate([self._structural, self._multimodal], axis=1)

    # ---------------------------------------------------------------- scoring
    def score_triple(self, head: int, relation: int, tail: int) -> float:
        diff = self._entity_vector(head) + self._relations[relation] - self._entity_vector(tail)
        return -float(np.linalg.norm(diff))

    def score_tails(self, head: int, relation: int) -> np.ndarray:
        translated = self._entity_vector(head) + self._relations[relation]
        distances = np.linalg.norm(self._entity_matrix() - translated, axis=1)
        return -distances

    # --------------------------------------------------------------- training
    def train_step(
        self, positives: Sequence[Triple], negatives: Sequence[Triple], lr: float
    ) -> float:
        total_loss = 0.0
        structural_grads = np.zeros_like(self._structural)
        relation_grads = np.zeros_like(self._relations)
        for positive, negative in zip(positives, negatives):
            pos_diff = (
                self._entity_vector(positive.head)
                + self._relations[positive.relation]
                - self._entity_vector(positive.tail)
            )
            neg_diff = (
                self._entity_vector(negative.head)
                + self._relations[negative.relation]
                - self._entity_vector(negative.tail)
            )
            pos_dist = np.linalg.norm(pos_diff)
            neg_dist = np.linalg.norm(neg_diff)
            violation = self.margin + pos_dist - neg_dist
            if violation <= 0:
                continue
            total_loss += violation
            pos_grad = pos_diff / (pos_dist + 1e-12)
            neg_grad = neg_diff / (neg_dist + 1e-12)
            # Only the structural half of the entity vector is trainable.
            structural_grads[positive.head] += pos_grad[: self.structural_dim]
            structural_grads[positive.tail] -= pos_grad[: self.structural_dim]
            relation_grads[positive.relation] += pos_grad
            structural_grads[negative.head] -= neg_grad[: self.structural_dim]
            structural_grads[negative.tail] += neg_grad[: self.structural_dim]
            relation_grads[negative.relation] -= neg_grad
        self._structural -= lr * structural_grads
        self._relations -= lr * relation_grads
        self._normalize_structural()
        return total_loss / max(1, len(positives))

    def _normalize_structural(self) -> None:
        norms = np.linalg.norm(self._structural, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        self._structural /= norms

    # ------------------------------------------------------------- embeddings
    @property
    def entity_embeddings(self) -> np.ndarray:
        return self._entity_matrix()

    @property
    def relation_embeddings(self) -> np.ndarray:
        return self._relations


def relation_map_for_embedding_model(
    model: KGEmbeddingModel,
    test_triples: Sequence[Triple],
    candidate_relations: Sequence[int],
    graph: KnowledgeGraph,
) -> Dict[str, float]:
    """Relation link prediction MAP for any embedding model.

    Each candidate relation is scored with the model's triple score for the
    fixed (head, tail) pair; MAP follows from the gold relation's rank.
    """
    per_relation: Dict[int, List[float]] = {}
    all_aps: List[float] = []
    for triple in test_triples:
        scored = [
            (relation, model.score_triple(triple.head, relation, triple.tail))
            for relation in candidate_relations
        ]
        scored.sort(key=lambda item: item[1], reverse=True)
        relevance = [1 if relation == triple.relation else 0 for relation, _ in scored]
        ap = average_precision(relevance)
        per_relation.setdefault(triple.relation, []).append(ap)
        all_aps.append(ap)
    result = {
        graph.relations.symbol(relation): float(np.mean(values))
        for relation, values in per_relation.items()
    }
    result["overall"] = float(np.mean(all_aps)) if all_aps else 0.0
    return result


def forward_relations(graph: KnowledgeGraph) -> List[int]:
    """Relation ids excluding inverses and NO_OP (shared by several baselines)."""
    from repro.kg.graph import NO_OP_RELATION, is_inverse_relation

    return [
        index
        for index in range(graph.num_relations)
        if graph.relations.symbol(index) != NO_OP_RELATION
        and not is_inverse_relation(graph.relations.symbol(index))
    ]


@register_baseline
class MTRLBaseline:
    """Single-hop multi-modal translation baseline."""

    name = "MTRL"

    def fit(
        self,
        dataset: MKGDataset,
        preset: Optional[ExperimentPreset] = None,
        rng: SeedLike = None,
    ) -> EmbeddingReasoner:
        preset = preset or fast_preset()
        rng = new_rng(rng)
        multimodal = np.concatenate(
            [dataset.mkg.text_matrix(), dataset.mkg.image_matrix()], axis=1
        )
        model = MultiModalTransE(
            dataset.train_graph,
            multimodal_features=multimodal,
            structural_dim=preset.model.structural_dim,
            multimodal_dim=max(8, preset.model.structural_dim // 2),
            rng=rng,
        )
        trainer = EmbeddingTrainer(model, preset.embedding, rng=rng)
        trainer.fit(dataset.splits.train)
        return EmbeddingReasoner(model, name=self.name, filter_graph=dataset.graph)
