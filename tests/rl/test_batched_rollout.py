"""Seed parity and fallback behaviour of the vectorized rollout engine.

The central guarantee: with per-episode RNG streams spawned from one parent
seed, ``BatchedRolloutEngine.sample_episodes`` and a loop of scalar
``sample_episode`` calls produce *identical* episodes — same paths, same
rewards, same log-probabilities.  This pins down the RNG-ordering bug class
where lockstep execution reorders draws across queries and silently changes
every training run.

The trainers take the engine whenever ``BatchedRolloutEngine.supports`` says
it can drive the agent; the parity tests select the per-query reference loop
by patching that capability check (see :func:`_build`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.rlh import HierarchicalAgent
from repro.core.config import MMKGRConfig
from repro.core.model import MMKGRAgent
from repro.features.extraction import FeatureStore
from repro.fusion.variants import FusionVariant
from repro.rl.batched_rollout import BatchedRolloutEngine
from repro.rl.environment import MKGEnvironment, Query
from repro.rl.imitation import ImitationConfig, ImitationTrainer
from repro.rl.reinforce import ReinforceConfig, ReinforceTrainer
from repro.rl.rewards import ZeroOneReward
from repro.rl.rollout import sample_episode
from repro.utils.rng import spawn_rngs


@pytest.fixture(scope="module")
def setup(request):
    tiny_dataset = request.getfixturevalue("tiny_dataset")
    features = FeatureStore(tiny_dataset.mkg, structural_dim=8, rng=np.random.default_rng(0))
    return tiny_dataset, features


def _config(variant=FusionVariant.FULL) -> MMKGRConfig:
    return MMKGRConfig(
        structural_dim=8,
        history_dim=8,
        auxiliary_dim=8,
        attention_dim=8,
        joint_dim=8,
        policy_hidden_dim=16,
        max_steps=3,
        max_actions=16,
        seed=0,
        fusion_variant=variant,
    )


def _queries(dataset, count=20):
    return [Query(t.head, t.relation, t.tail) for t in dataset.splits.train[:count]]


def _assert_identical_episodes(batched, scalar):
    assert len(batched) == len(scalar)
    for batched_episode, scalar_episode in zip(batched, scalar):
        assert batched_episode.state.path == scalar_episode.state.path
        assert batched_episode.state.current_entity == scalar_episode.state.current_entity
        assert len(batched_episode.log_probs) == len(scalar_episode.log_probs)
        np.testing.assert_allclose(
            [float(t.data) for t in batched_episode.log_probs],
            [float(t.data) for t in scalar_episode.log_probs],
            atol=1e-9,
        )


class TestSeedParity:
    @pytest.mark.parametrize(
        "variant", [FusionVariant.FULL, FusionVariant.STRUCTURE_ONLY]
    )
    def test_identical_episodes_under_same_seed(self, setup, variant):
        dataset, features = setup
        agent = MMKGRAgent(features, config=_config(variant), rng=0)
        environment = MKGEnvironment(dataset.train_graph, max_steps=3, max_actions=16)
        queries = _queries(dataset)

        engine = BatchedRolloutEngine(agent, environment)
        batched = engine.sample_episodes(queries, rngs=spawn_rngs(7, len(queries)))
        scalar = [
            sample_episode(agent, environment, query, rng=episode_rng)
            for query, episode_rng in zip(queries, spawn_rngs(7, len(queries)))
        ]
        _assert_identical_episodes(batched, scalar)

    def test_greedy_matches_scalar_greedy(self, setup):
        dataset, features = setup
        agent = MMKGRAgent(features, config=_config(), rng=0)
        environment = MKGEnvironment(dataset.train_graph, max_steps=3, max_actions=16)
        queries = _queries(dataset, count=8)
        engine = BatchedRolloutEngine(agent, environment)
        batched = engine.sample_episodes(queries, greedy=True)
        scalar = [
            sample_episode(agent, environment, query, rng=0, greedy=True)
            for query in queries
        ]
        _assert_identical_episodes(batched, scalar)

    def test_rng_seed_spawns_are_deterministic(self, setup):
        dataset, features = setup
        agent = MMKGRAgent(features, config=_config(), rng=0)
        environment = MKGEnvironment(dataset.train_graph, max_steps=3, max_actions=16)
        queries = _queries(dataset, count=10)
        engine = BatchedRolloutEngine(agent, environment)
        first = engine.sample_episodes(queries, rng=123)
        second = engine.sample_episodes(queries, rng=123)
        _assert_identical_episodes(first, second)

    def test_rng_count_mismatch_rejected(self, setup):
        dataset, features = setup
        agent = MMKGRAgent(features, config=_config(), rng=0)
        environment = MKGEnvironment(dataset.train_graph, max_steps=3, max_actions=16)
        engine = BatchedRolloutEngine(agent, environment)
        with pytest.raises(ValueError):
            engine.sample_episodes(_queries(dataset, count=4), rngs=spawn_rngs(0, 3))

    def test_empty_batch_returns_empty(self, setup):
        dataset, features = setup
        agent = MMKGRAgent(features, config=_config(), rng=0)
        environment = MKGEnvironment(dataset.train_graph, max_steps=3, max_actions=16)
        assert BatchedRolloutEngine(agent, environment).sample_episodes([]) == []


class _EarlyStopEnvironment(MKGEnvironment):
    """Stops even-source episodes after one step: exercises ragged termination."""

    def step(self, state, action):
        state = super().step(state, action)
        if state.query.source % 2 == 0 and state.step >= 1:
            state.stopped = True
        return state


class TestPerQueryTermination:
    def test_ragged_termination_matches_scalar(self, setup):
        dataset, features = setup
        agent = MMKGRAgent(features, config=_config(), rng=0)
        environment = _EarlyStopEnvironment(dataset.train_graph, max_steps=3, max_actions=16)
        queries = _queries(dataset, count=16)
        engine = BatchedRolloutEngine(agent, environment)
        batched = engine.sample_episodes(queries, rngs=spawn_rngs(5, len(queries)))
        scalar = [
            sample_episode(agent, environment, query, rng=episode_rng)
            for query, episode_rng in zip(queries, spawn_rngs(5, len(queries)))
        ]
        _assert_identical_episodes(batched, scalar)
        lengths = {len(e.state.path) for e in batched}
        assert len(lengths) > 1, "workload should mix early and full-length episodes"


def _build(engine: bool, monkeypatch, build):
    """``build()``, with the rollout engine available or, for the reference
    loop, with its capability check patched to refuse every agent."""
    if engine:
        return build()
    with monkeypatch.context() as patch:
        patch.setattr(BatchedRolloutEngine, "supports", staticmethod(lambda agent: False))
        return build()


class TestTrainerIntegration:
    def _trainer(self, setup, engine, monkeypatch, agent=None):
        dataset, features = setup
        if agent is None:
            agent = MMKGRAgent(features, config=_config(), rng=0)
        environment = MKGEnvironment(dataset.train_graph, max_steps=3, max_actions=16)
        config = ReinforceConfig(epochs=2, batch_size=16, learning_rate=1e-3)
        trainer = _build(
            engine,
            monkeypatch,
            lambda: ReinforceTrainer(agent, environment, ZeroOneReward(), config, rng=0),
        )
        return agent, trainer

    def test_vectorized_flag_controls_engine(self, setup, monkeypatch):
        # The read-only ``vectorized`` flag reports the capability check.
        _, fast = self._trainer(setup, True, monkeypatch)
        _, slow = self._trainer(setup, False, monkeypatch)
        assert fast.vectorized
        assert not slow.vectorized

    def test_both_paths_train_identically(self, setup, monkeypatch):
        dataset, _ = setup
        agent_fast, fast = self._trainer(setup, True, monkeypatch)
        agent_slow, slow = self._trainer(setup, False, monkeypatch)
        history_fast = fast.fit(dataset.splits.train[:32])
        history_slow = slow.fit(dataset.splits.train[:32])
        np.testing.assert_allclose(
            history_fast.epoch_rewards, history_slow.epoch_rewards, atol=1e-9
        )
        np.testing.assert_allclose(
            history_fast.epoch_success_rates, history_slow.epoch_success_rates, atol=1e-9
        )
        for fast_param, slow_param in zip(agent_fast.parameters(), agent_slow.parameters()):
            np.testing.assert_allclose(fast_param.data, slow_param.data, atol=1e-9)

    def test_rollouts_per_query_expansion_matches(self, setup, monkeypatch):
        dataset, features = setup
        agents = []
        histories = []
        for engine in (True, False):
            agent = MMKGRAgent(features, config=_config(), rng=0)
            environment = MKGEnvironment(dataset.train_graph, max_steps=3, max_actions=16)
            config = ReinforceConfig(
                epochs=1, batch_size=8, learning_rate=1e-3, rollouts_per_query=2
            )
            trainer = _build(
                engine,
                monkeypatch,
                lambda: ReinforceTrainer(agent, environment, ZeroOneReward(), config, rng=1),
            )
            assert trainer.vectorized is engine
            histories.append(trainer.fit(dataset.splits.train[:16]))
            agents.append(agent)
        np.testing.assert_allclose(
            histories[0].epoch_rewards, histories[1].epoch_rewards, atol=1e-9
        )
        for fast_param, slow_param in zip(agents[0].parameters(), agents[1].parameters()):
            np.testing.assert_allclose(fast_param.data, slow_param.data, atol=1e-9)

    def test_imitation_paths_train_identically(self, setup, monkeypatch):
        dataset, features = setup
        results = {}
        for engine in (True, False):
            agent = MMKGRAgent(features, config=_config(), rng=0)
            environment = MKGEnvironment(dataset.train_graph, max_steps=3, max_actions=16)
            config = ImitationConfig(
                epochs=4, batch_size=8, learning_rate=8e-3, max_demonstrations=20
            )
            trainer = _build(
                engine,
                monkeypatch,
                lambda: ImitationTrainer(agent, environment, config, rng=0),
            )
            assert trainer.vectorized is engine
            losses = trainer.fit(dataset.splits.train[:30])
            results[engine] = (losses, agent)
        np.testing.assert_allclose(results[True][0], results[False][0], atol=1e-9)
        for fast_param, slow_param in zip(
            results[True][1].parameters(), results[False][1].parameters()
        ):
            np.testing.assert_allclose(fast_param.data, slow_param.data, atol=1e-8)
        assert results[True][0][-1] < results[True][0][0]

    def test_hierarchical_agent_falls_back_to_scalar(self, setup, monkeypatch):
        dataset, features = setup
        agent = HierarchicalAgent(
            features, config=_config(FusionVariant.STRUCTURE_ONLY), rng=0
        )
        assert not BatchedRolloutEngine.supports(agent)
        with pytest.raises(ValueError):
            BatchedRolloutEngine(
                agent, MKGEnvironment(dataset.train_graph, max_steps=3, max_actions=16)
            )
        _, trainer = self._trainer(setup, True, monkeypatch, agent=agent)
        assert not trainer.vectorized  # unsupported -> per-query loop
        history = trainer.fit(dataset.splits.train[:8])
        assert len(history.epoch_rewards) == 2
        environment = MKGEnvironment(dataset.train_graph, max_steps=3, max_actions=16)
        imitation = ImitationTrainer(
            agent, environment, ImitationConfig(epochs=1, max_demonstrations=8), rng=0
        )
        assert not imitation.vectorized
        assert imitation.fit(dataset.splits.train[:16])
