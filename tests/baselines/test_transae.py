"""Tests for the TransAE single-hop multi-modal baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.registry import (
    available_baselines,
    fit_baseline,
    result_from_reasoner,
)
from repro.baselines.transae import TransAE, TransAEBaseline
from repro.kg.sampling import NegativeSampler


@pytest.fixture
def multimodal_features(tiny_dataset):
    return np.concatenate(
        [tiny_dataset.mkg.text_matrix(), tiny_dataset.mkg.image_matrix()], axis=1
    )


class TestTransAEModel:
    def test_score_tails_matches_score_triple(self, tiny_dataset, multimodal_features):
        model = TransAE(
            tiny_dataset.train_graph, multimodal_features, embedding_dim=8, rng=0
        )
        triple = tiny_dataset.splits.train[0]
        tails = model.score_tails(triple.head, triple.relation)
        assert tails.shape == (tiny_dataset.graph.num_entities,)
        assert tails[triple.tail] == pytest.approx(
            model.score_triple(triple.head, triple.relation, triple.tail)
        )

    def test_scores_are_negative_distances(self, tiny_dataset, multimodal_features):
        model = TransAE(
            tiny_dataset.train_graph, multimodal_features, embedding_dim=8, rng=0
        )
        triple = tiny_dataset.splits.train[0]
        assert model.score_triple(triple.head, triple.relation, triple.tail) <= 0.0

    def test_feature_row_count_validated(self, tiny_dataset, multimodal_features):
        with pytest.raises(ValueError):
            TransAE(tiny_dataset.train_graph, multimodal_features[:-1], embedding_dim=8)

    def test_training_improves_margin_objective(self, tiny_dataset, multimodal_features):
        graph = tiny_dataset.train_graph
        model = TransAE(graph, multimodal_features, embedding_dim=8, rng=0)
        sampler = NegativeSampler(graph, rng=0)
        triples = tiny_dataset.splits.train
        losses = []
        for _ in range(10):
            negatives = [sampler.corrupt(t) for t in triples]
            losses.append(model.train_step(triples, negatives, lr=0.05))
        assert losses[-1] <= losses[0]

    def test_reconstruction_error_decreases_with_training(
        self, tiny_dataset, multimodal_features
    ):
        graph = tiny_dataset.train_graph
        model = TransAE(
            graph, multimodal_features, embedding_dim=8, reconstruction_weight=1.0, rng=0
        )
        sampler = NegativeSampler(graph, rng=0)
        triples = tiny_dataset.splits.train
        before = model.reconstruction_error()
        for _ in range(10):
            negatives = [sampler.corrupt(t) for t in triples]
            model.train_step(triples, negatives, lr=0.05)
        assert model.reconstruction_error() <= before

    def test_entity_embeddings_are_encoded_features(self, tiny_dataset, multimodal_features):
        model = TransAE(
            tiny_dataset.train_graph, multimodal_features, embedding_dim=8, rng=0
        )
        embeddings = model.entity_embeddings
        assert embeddings.shape == (tiny_dataset.graph.num_entities, 8)
        np.testing.assert_allclose(embeddings[3], model.encode(3))


class TestTransAEBaseline:
    def test_registered(self):
        assert "TransAE" in available_baselines()

    def test_run_reports_metrics(self, tiny_dataset, tiny_preset):
        reasoner = fit_baseline("TransAE", tiny_dataset, preset=tiny_preset, rng=0)
        result = result_from_reasoner(reasoner, tiny_dataset, tiny_preset, rng=0)
        assert result.name == "TransAE"
        assert set(result.entity_metrics) == {"mrr", "hits@1", "hits@5", "hits@10"}
        assert 0.0 <= result.entity_metrics["mrr"] <= 1.0
        assert "reconstruction_error" in result.extras

    def test_relation_metrics_on_request(self, tiny_dataset, tiny_preset):
        reasoner = TransAEBaseline().fit(tiny_dataset, preset=tiny_preset, rng=0)
        result = result_from_reasoner(
            reasoner, tiny_dataset, tiny_preset, evaluate_relations=True, rng=0
        )
        assert "overall" in result.relation_metrics
        assert 0.0 <= result.relation_metrics["overall"] <= 1.0
