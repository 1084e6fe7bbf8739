"""TransAE (Wang et al., 2019): multi-modal autoencoder + TransE.

TransAE is the other single-hop multi-modal family member the paper discusses
alongside IKRL and MTRL: entity representations are produced by an
*autoencoder* over the entity's multi-modal features (text + image), and a
TransE translation objective is trained on top of the encoded vectors.  The
encoder is shared across entities, so multi-modal information flows into the
structural score — but, like every single-hop model, TransAE cannot use
compositional multi-hop evidence.

Implementation: a one-layer linear encoder/decoder pair trained jointly with

* the TransE margin-ranking loss on encoded entities plus trainable relation
  vectors, and
* a reconstruction loss ``‖decode(encode(x)) − x‖²`` that keeps the encoding
  faithful to the multi-modal input.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.baselines.registry import register_baseline
from repro.core.config import ExperimentPreset, fast_preset
from repro.embeddings.base import KGEmbeddingModel
from repro.embeddings.trainer import EmbeddingTrainer
from repro.serve.reasoner import EmbeddingReasoner
from repro.kg.datasets import MKGDataset
from repro.kg.graph import KnowledgeGraph, Triple
from repro.utils.rng import SeedLike, new_rng


class TransAE(KGEmbeddingModel):
    """TransE over autoencoded multi-modal entity representations."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        multimodal_features: np.ndarray,
        embedding_dim: int = 24,
        margin: float = 1.0,
        reconstruction_weight: float = 0.1,
        rng: SeedLike = None,
    ):
        super().__init__(graph, embedding_dim)
        multimodal_features = np.asarray(multimodal_features, dtype=np.float64)
        if multimodal_features.shape[0] != graph.num_entities:
            raise ValueError("multimodal feature matrix must have one row per entity")
        self.margin = margin
        self.reconstruction_weight = reconstruction_weight
        rng = new_rng(rng)
        feature_dim = multimodal_features.shape[1]
        # Standardise the inputs so the reconstruction loss is well scaled.
        centred = multimodal_features - multimodal_features.mean(axis=0, keepdims=True)
        scale = centred.std(axis=0, keepdims=True)
        scale[scale == 0] = 1.0
        self._features = centred / scale
        self._encoder = rng.normal(0.0, 1.0 / np.sqrt(feature_dim), size=(feature_dim, embedding_dim))
        self._decoder = rng.normal(0.0, 1.0 / np.sqrt(embedding_dim), size=(embedding_dim, feature_dim))
        bound = 6.0 / np.sqrt(embedding_dim)
        self._relations = rng.uniform(-bound, bound, size=(graph.num_relations, embedding_dim))

    # ------------------------------------------------------------------ views
    def encode(self, entity: int) -> np.ndarray:
        """The entity's multi-modal embedding (the encoder output)."""
        return self._features[entity] @ self._encoder

    def _entity_matrix(self) -> np.ndarray:
        return self._features @ self._encoder

    def reconstruction_error(self) -> float:
        """Mean squared reconstruction error of the autoencoder over all entities."""
        reconstructed = self._entity_matrix() @ self._decoder
        return float(np.mean((reconstructed - self._features) ** 2))

    # ---------------------------------------------------------------- scoring
    def score_triple(self, head: int, relation: int, tail: int) -> float:
        diff = self.encode(head) + self._relations[relation] - self.encode(tail)
        return -float(np.linalg.norm(diff))

    def score_tails(self, head: int, relation: int) -> np.ndarray:
        translated = self.encode(head) + self._relations[relation]
        distances = np.linalg.norm(self._entity_matrix() - translated, axis=1)
        return -distances

    # --------------------------------------------------------------- training
    def train_step(
        self, positives: Sequence[Triple], negatives: Sequence[Triple], lr: float
    ) -> float:
        """Joint margin-ranking + reconstruction update."""
        total_loss = 0.0
        encoder_grads = np.zeros_like(self._encoder)
        relation_grads = np.zeros_like(self._relations)
        for positive, negative in zip(positives, negatives):
            pos_diff = (
                self.encode(positive.head)
                + self._relations[positive.relation]
                - self.encode(positive.tail)
            )
            neg_diff = (
                self.encode(negative.head)
                + self._relations[negative.relation]
                - self.encode(negative.tail)
            )
            pos_dist = np.linalg.norm(pos_diff)
            neg_dist = np.linalg.norm(neg_diff)
            violation = self.margin + pos_dist - neg_dist
            if violation <= 0:
                continue
            total_loss += violation
            pos_grad = pos_diff / (pos_dist + 1e-12)
            neg_grad = neg_diff / (neg_dist + 1e-12)
            relation_grads[positive.relation] += pos_grad
            relation_grads[negative.relation] -= neg_grad
            # d dist / d encoder flows through both entities of each triple.
            encoder_grads += np.outer(self._features[positive.head], pos_grad)
            encoder_grads -= np.outer(self._features[positive.tail], pos_grad)
            encoder_grads -= np.outer(self._features[negative.head], neg_grad)
            encoder_grads += np.outer(self._features[negative.tail], neg_grad)

        # Reconstruction term on the entities touched this step keeps the
        # encoder anchored to the multi-modal input (the "AE" in TransAE).
        touched = sorted(
            {t.head for t in positives}
            | {t.tail for t in positives}
            | {t.head for t in negatives}
            | {t.tail for t in negatives}
        )
        if touched and self.reconstruction_weight > 0:
            features = self._features[touched]
            encoded = features @ self._encoder
            reconstructed = encoded @ self._decoder
            error = reconstructed - features
            total_loss += self.reconstruction_weight * float(np.mean(error**2))
            decoder_grad = encoded.T @ error * (2.0 / error.size)
            encoder_grad = features.T @ (error @ self._decoder.T) * (2.0 / error.size)
            self._decoder -= lr * self.reconstruction_weight * decoder_grad
            encoder_grads += self.reconstruction_weight * encoder_grad

        count = max(1, len(positives))
        self._encoder -= lr * encoder_grads / count
        self._relations -= lr * relation_grads / count
        return total_loss / count

    # ------------------------------------------------------------- embeddings
    @property
    def entity_embeddings(self) -> np.ndarray:
        return self._entity_matrix()

    @property
    def relation_embeddings(self) -> np.ndarray:
        return self._relations


@register_baseline
class TransAEBaseline:
    """Single-hop multi-modal autoencoder baseline."""

    name = "TransAE"

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
        model = TransAE(
            dataset.train_graph,
            multimodal_features=multimodal,
            embedding_dim=preset.model.structural_dim,
            rng=rng,
        )
        trainer = EmbeddingTrainer(model, preset.embedding, rng=rng)
        trainer.fit(dataset.splits.train)
        reasoner = EmbeddingReasoner(model, name=self.name, filter_graph=dataset.graph)
        reasoner.extras = {"reconstruction_error": model.reconstruction_error()}
        return reasoner
