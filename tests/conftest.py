"""Shared fixtures: tiny graphs, datasets, and presets sized for fast tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import (
    EvaluationConfig,
    ExperimentPreset,
    MMKGRConfig,
)
from repro.embeddings.trainer import EmbeddingTrainingConfig
from repro.kg.datasets import SyntheticMKGConfig, build_dataset
from repro.kg.graph import KnowledgeGraph, Triple
from repro.rl.imitation import ImitationConfig
from repro.rl.reinforce import ReinforceConfig
from repro.rl.rewards import RewardConfig


@pytest.fixture(scope="session")
def tiny_graph() -> KnowledgeGraph:
    """A hand-built graph with an obvious 2-hop composition.

    ``works_for`` composed with ``located_in`` implies ``lives_in``:
    alice -works_for-> acme -located_in-> berlin, and (alice, lives_in, berlin)
    is a fact, so a 2-hop path explains it.
    """
    graph = KnowledgeGraph()
    facts = [
        ("alice", "works_for", "acme"),
        ("bob", "works_for", "acme"),
        ("carol", "works_for", "globex"),
        ("acme", "located_in", "berlin"),
        ("globex", "located_in", "paris"),
        ("alice", "lives_in", "berlin"),
        ("bob", "lives_in", "berlin"),
        ("carol", "lives_in", "paris"),
        ("berlin", "in_country", "germany"),
        ("paris", "in_country", "france"),
        ("alice", "friend_of", "bob"),
        ("bob", "friend_of", "carol"),
    ]
    for head, relation, tail in facts:
        graph.add_triple_by_name(head, relation, tail)
    return graph


@pytest.fixture(scope="session")
def tiny_dataset_config() -> SyntheticMKGConfig:
    return SyntheticMKGConfig(
        name="tiny-mkg",
        num_entities=40,
        num_base_relations=4,
        num_composed_relations=2,
        avg_degree=3.0,
        latent_dim=8,
        image_dim=12,
        text_dim=10,
        images_per_entity=3,
        modality_informativeness=0.85,
        irrelevant_noise_dim=4,
        num_entity_types=3,
        seed=5,
    )


@pytest.fixture(scope="session")
def tiny_dataset(tiny_dataset_config):
    return build_dataset(tiny_dataset_config)


@pytest.fixture(scope="session")
def tiny_preset() -> ExperimentPreset:
    """A preset small enough for per-test training runs."""
    return ExperimentPreset(
        name="test",
        model=MMKGRConfig(
            structural_dim=8,
            history_dim=8,
            auxiliary_dim=8,
            attention_dim=8,
            joint_dim=8,
            policy_hidden_dim=16,
            max_steps=3,
            max_actions=16,
            seed=3,
        ),
        reward=RewardConfig(),
        reinforce=ReinforceConfig(epochs=1, batch_size=32, learning_rate=3e-3),
        imitation=ImitationConfig(epochs=2, batch_size=16, learning_rate=8e-3),
        embedding=EmbeddingTrainingConfig(epochs=5, batch_size=32, learning_rate=0.1),
        evaluation=EvaluationConfig(beam_width=4, max_queries=10),
        dataset_scale=0.2,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def pruned_reasoner_of():
    """Factory: a fitted reasoner's agent over FIRE's query-dependent pruned
    environment — the action spaces that still go through the LRU cache."""
    from repro.baselines.fire import PrunedEnvironment
    from repro.core.trainer import MMKGRPipeline
    from repro.serve import Reasoner

    def build(reasoner):
        pipeline = reasoner.pipeline
        environment = PrunedEnvironment(
            pipeline.dataset.train_graph,
            max_steps=pipeline.environment.max_steps,
            max_actions=pipeline.environment.max_actions,
            entity_embeddings=pipeline.features.entity_embeddings,
            relation_embeddings=pipeline.features.relation_embeddings,
            prune_to=4,
        )
        return Reasoner.from_pipeline(
            MMKGRPipeline.from_components(
                pipeline.dataset,
                agent=pipeline.agent,
                environment=environment,
                features=pipeline.features,
                preset=pipeline.preset,
            )
        )

    return build
