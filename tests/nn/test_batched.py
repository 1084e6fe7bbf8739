"""Equivalence tests for the shared batched primitives (repro.nn.batched).

The serving engine exercised these only indirectly (batched beam search vs
sequential beam search); here every primitive is compared directly against
the per-query module path it replaces: batched LSTM vs ``LSTMCell``, batched
fusion (both the no-grad and the differentiable variant) vs
``MMKGRAgent.complementary_features``, and the masked batched policy head vs
``PolicyNetwork.forward`` row by row.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import MMKGRConfig
from repro.core.model import MMKGRAgent
from repro.features.extraction import FeatureStore
from repro.fusion.variants import FusionVariant
from repro.nn.batched import (
    BatchedFusion,
    BatchedLSTM,
    DifferentiableBatchedFusion,
    grouped_top_k,
    pad_action_matrices,
    segment_rows,
    segment_softmax,
    segment_top_k,
    stable_sigmoid,
    stable_softmax,
)
from repro.nn.tensor import Tensor
from repro.rl.environment import MKGEnvironment, Query
from repro.rl.policy import stack_action_embeddings

VARIANTS = [
    FusionVariant.FULL,
    FusionVariant.NO_ATTENTION,
    FusionVariant.NO_FILTRATION,
    FusionVariant.STRUCTURE_ONLY,
    FusionVariant.CONCATENATION,
]


@pytest.fixture(scope="module")
def store(request):
    tiny_dataset = request.getfixturevalue("tiny_dataset")
    return tiny_dataset, FeatureStore(
        tiny_dataset.mkg, structural_dim=8, rng=np.random.default_rng(0)
    )


def _agent(store, variant: FusionVariant) -> MMKGRAgent:
    _, features = store
    config = MMKGRConfig(
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
    return MMKGRAgent(features, config=config, rng=0)


def _walk_states(store, agent, count=12, steps=1, seed=3):
    """Per-query states + history snapshots after ``steps`` random hops."""
    dataset, features = store
    environment = MKGEnvironment(dataset.train_graph, max_steps=3, max_actions=16)
    rng = np.random.default_rng(seed)
    states, hiddens = [], []
    for triple in dataset.splits.train[:count]:
        query = Query(triple.head, triple.relation, triple.tail)
        state = environment.reset(query)
        agent.begin_episode(query)
        for _ in range(steps):
            actions = environment.available_actions(state)
            relation, entity = actions[rng.integers(len(actions))]
            agent.observe_step(relation, entity)
            state = environment.step(state, (relation, entity))
        states.append(state)
        hiddens.append(agent.history_encoder.snapshot()[0])
    return states, np.concatenate(hiddens, axis=0)


def _batched_inputs(features, states, hiddens):
    sources = np.array([s.query.source for s in states])
    currents = np.array([s.current_entity for s in states])
    relations = np.array([s.query.relation for s in states])
    return dict(
        source=features.entity_embeddings[sources],
        current=features.entity_embeddings[currents],
        relation=features.relation_embeddings[relations],
        history=hiddens,
        source_text=features.text_features[sources],
        source_image=features.image_features[sources],
        current_text=features.text_features[currents],
        current_image=features.image_features[currents],
    )


class TestStableActivations:
    def test_sigmoid_matches_tensor(self, rng):
        x = rng.normal(scale=50, size=(5, 7))
        np.testing.assert_allclose(stable_sigmoid(x), Tensor(x).sigmoid().data, atol=1e-12)

    def test_softmax_matches_tensor(self, rng):
        x = rng.normal(scale=10, size=(4, 9))
        np.testing.assert_allclose(stable_softmax(x), Tensor(x).softmax().data, atol=1e-12)


class TestBatchedLSTM:
    def test_matches_cell_forward(self, store, rng):
        agent = _agent(store, FusionVariant.FULL)
        cell_module = agent.history_encoder.cell
        batch = 17
        inputs = rng.normal(size=(batch, cell_module.input_size))
        hidden0 = rng.normal(size=(batch, cell_module.hidden_size))
        cell0 = rng.normal(size=(batch, cell_module.hidden_size))

        fast = BatchedLSTM(agent)
        h_fast, c_fast = fast.step(inputs, hidden0, cell0)
        h_mod, c_mod = cell_module(Tensor(inputs), (Tensor(hidden0), Tensor(cell0)))
        np.testing.assert_allclose(h_fast, h_mod.data, atol=1e-6)
        np.testing.assert_allclose(c_fast, c_mod.data, atol=1e-6)

    def test_matches_per_row_evaluation(self, store, rng):
        agent = _agent(store, FusionVariant.FULL)
        cell_module = agent.history_encoder.cell
        inputs = rng.normal(size=(6, cell_module.input_size))
        hidden0 = rng.normal(size=(6, cell_module.hidden_size))
        cell0 = rng.normal(size=(6, cell_module.hidden_size))
        h_fast, _ = BatchedLSTM(agent).step(inputs, hidden0, cell0)
        for i in range(6):
            h_row, _ = cell_module(
                Tensor(inputs[i : i + 1]), (Tensor(hidden0[i : i + 1]), Tensor(cell0[i : i + 1]))
            )
            np.testing.assert_allclose(h_fast[i : i + 1], h_row.data, atol=1e-6)


class TestBatchedFusionEquivalence:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_no_grad_fusion_matches_agent_forward(self, store, variant):
        agent = _agent(store, variant)
        fusion = BatchedFusion(agent)
        assert fusion.supported
        states, hiddens = _walk_states(store, agent)
        fused = fusion.fuse(**_batched_inputs(store[1], states, hiddens))
        for i, state in enumerate(states):
            agent.restore((hiddens[i : i + 1], np.zeros_like(hiddens[i : i + 1])))
            expected = agent.complementary_features(state)
            np.testing.assert_allclose(fused[i], expected.data, atol=1e-6)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_differentiable_fusion_matches_agent_forward(self, store, variant):
        agent = _agent(store, variant)
        fusion = DifferentiableBatchedFusion(agent)
        assert fusion.supported
        states, hiddens = _walk_states(store, agent)
        inputs = _batched_inputs(store[1], states, hiddens)
        inputs["history"] = Tensor(inputs["history"])
        fused = fusion.fuse(**inputs)
        for i, state in enumerate(states):
            agent.restore((hiddens[i : i + 1], np.zeros_like(hiddens[i : i + 1])))
            expected = agent.complementary_features(state)
            np.testing.assert_allclose(fused.data[i], expected.data, atol=1e-6)

    def test_differentiable_fusion_propagates_gradients(self, store):
        agent = _agent(store, FusionVariant.FULL)
        fusion = DifferentiableBatchedFusion(agent)
        states, hiddens = _walk_states(store, agent, count=6)
        inputs = _batched_inputs(store[1], states, hiddens)
        inputs["history"] = Tensor(inputs["history"])
        fusion.fuse(**inputs).sum().backward()
        fuser_params = agent.fuser.parameters()
        assert fuser_params
        assert all(p.grad is not None for p in fuser_params)

    def test_conventional_attention_fuser_is_unsupported(self, store):
        agent = _agent(store, FusionVariant.CONVENTIONAL_ATTENTION)
        assert not BatchedFusion(agent).supported
        assert not DifferentiableBatchedFusion(agent).supported


class TestPolicyLogProbsBatch:
    def _action_batch(self, store, agent, count=9):
        dataset, features = store
        environment = MKGEnvironment(dataset.train_graph, max_steps=3, max_actions=16)
        action_lists = []
        for triple in dataset.splits.train[:count]:
            state = environment.reset(Query(triple.head, triple.relation, triple.tail))
            action_lists.append(environment.available_actions(state))
        return environment, action_lists

    def test_matches_per_row_forward(self, store, rng):
        agent = _agent(store, FusionVariant.FULL)
        _, action_lists = self._action_batch(store, agent)
        features = store[1]
        fused = rng.normal(size=(len(action_lists), agent.policy.fusion_dim))
        padded, mask = pad_action_matrices(
            action_lists, features.relation_embeddings, features.entity_embeddings
        )
        log_probs = agent.policy.log_probs_batch(Tensor(fused), padded, mask)
        for i, actions in enumerate(action_lists):
            matrix = stack_action_embeddings(
                actions, features.relation_embeddings, features.entity_embeddings
            )
            expected = agent.policy(Tensor(fused[i]), matrix)
            np.testing.assert_allclose(
                log_probs.data[i, : len(actions)], expected.data, atol=1e-9
            )
            assert np.all(np.isneginf(log_probs.data[i, len(actions) :]))

    def test_padded_positions_get_no_probability_mass(self, store, rng):
        agent = _agent(store, FusionVariant.FULL)
        _, action_lists = self._action_batch(store, agent)
        features = store[1]
        fused = rng.normal(size=(len(action_lists), agent.policy.fusion_dim))
        padded, mask = pad_action_matrices(
            action_lists, features.relation_embeddings, features.entity_embeddings
        )
        log_probs = agent.policy.log_probs_batch(Tensor(fused), padded, mask)
        probabilities = np.exp(log_probs.data)
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0, atol=1e-9)
        assert probabilities[~mask].sum() == 0.0

    def test_gradient_flows_through_masked_rows(self, store, rng):
        agent = _agent(store, FusionVariant.FULL)
        _, action_lists = self._action_batch(store, agent, count=4)
        features = store[1]
        fused = Tensor(
            rng.normal(size=(len(action_lists), agent.policy.fusion_dim)),
            requires_grad=True,
        )
        padded, mask = pad_action_matrices(
            action_lists, features.relation_embeddings, features.entity_embeddings
        )
        log_probs = agent.policy.log_probs_batch(fused, padded, mask)
        log_probs[0, 0].backward()
        assert fused.grad is not None
        assert np.isfinite(fused.grad).all()
        assert np.abs(fused.grad[0]).sum() > 0
        # Other rows' features do not influence row 0's log-probability.
        assert np.abs(fused.grad[1:]).sum() == 0


class TestPadActionMatrices:
    def test_rows_match_stack_action_embeddings(self, store):
        features = store[1]
        action_lists = [
            [(0, 1), (1, 2), (2, 3)],
            [(1, 0)],
            [(2, 4), (0, 5)],
        ]
        padded, mask = pad_action_matrices(
            action_lists, features.relation_embeddings, features.entity_embeddings
        )
        assert padded.shape == (3, 3, 2 * features.structural_dim)
        assert mask.tolist() == [[True, True, True], [True, False, False], [True, True, False]]
        for i, actions in enumerate(action_lists):
            expected = stack_action_embeddings(
                actions, features.relation_embeddings, features.entity_embeddings
            )
            np.testing.assert_array_equal(padded[i, : len(actions)], expected)
            assert np.all(padded[i, len(actions) :] == 0.0)

    def test_empty_inputs_are_rejected(self, store):
        features = store[1]
        with pytest.raises(ValueError):
            pad_action_matrices([], features.relation_embeddings, features.entity_embeddings)
        with pytest.raises(ValueError):
            pad_action_matrices(
                [[(0, 1)], []], features.relation_embeddings, features.entity_embeddings
            )


class TestSegmentOps:
    """The flat-frontier helpers equal their per-row counterparts."""

    INDPTR = np.array([0, 3, 3, 8, 9, 26])

    @pytest.fixture
    def values(self):
        rng = np.random.default_rng(4)
        # Mixed ties: a few distinct values, repeated within and across rows.
        return rng.integers(0, 4, size=int(self.INDPTR[-1])).astype(float) / 10

    def _rows(self, values):
        return [values[a:b] for a, b in zip(self.INDPTR[:-1], self.INDPTR[1:])]

    def test_segment_rows(self):
        rows, positions = segment_rows(self.INDPTR)
        assert rows.tolist() == [0] * 3 + [2] * 5 + [3] + [4] * 17
        assert positions.tolist() == [0, 1, 2, 0, 1, 2, 3, 4, 0] + list(range(17))

    def test_segment_softmax_matches_rowwise(self, values):
        got = segment_softmax(values, self.INDPTR)
        expected = np.concatenate([stable_softmax(row) for row in self._rows(values) if len(row)])
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 5, 30])
    def test_segment_top_k_matches_reversed_stable_argsort(self, values, k):
        expected = [
            start + index
            for start, row in zip(self.INDPTR[:-1], self._rows(values))
            for index in np.argsort(row, kind="stable")[::-1][:k]
        ]
        assert segment_top_k(values, self.INDPTR, k).tolist() == expected

    def test_grouped_top_k_keeps_index_order_on_ties(self):
        groups = np.array([1, 0, 1, 1, 0, 1, 0])
        scores = np.array([0.5, 0.2, 0.9, 0.5, 0.2, 0.5, 0.1])
        assert grouped_top_k(groups, scores, 2).tolist() == [1, 4, 2, 0]
