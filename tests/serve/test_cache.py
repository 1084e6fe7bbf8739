"""Tests for the serving-layer LRU caches."""

from __future__ import annotations

import numpy as np
import pytest

from repro.rl.environment import MKGEnvironment, Query
from repro.serve.cache import ActionSpaceCache
from repro.utils.lru import LRUCache


class TestLRUCache:
    def test_get_or_compute_caches(self):
        cache = LRUCache(maxsize=4)
        calls = []
        assert cache.get_or_compute("a", lambda: calls.append(1) or "va") == "va"
        assert cache.get_or_compute("a", lambda: calls.append(1) or "vb") == "va"
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_least_recently_used_is_evicted(self):
        cache = LRUCache(maxsize=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: 1)  # refresh a
        cache.get_or_compute("c", lambda: 3)  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)

    def test_clear_resets_statistics(self):
        cache = LRUCache(maxsize=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("a", lambda: 1)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0
        assert cache.hit_rate == 0.0


class TestActionSpaceCache:
    @pytest.fixture
    def environment(self, tiny_graph):
        return MKGEnvironment(tiny_graph, max_steps=3)

    @pytest.fixture
    def cache(self, tiny_graph, environment):
        rng = np.random.default_rng(0)
        return ActionSpaceCache(
            environment,
            rng.normal(size=(tiny_graph.num_relations, 4)),
            rng.normal(size=(tiny_graph.num_entities, 4)),
        )

    def test_actions_match_environment(self, environment, cache):
        state = environment.reset(Query(0, 0, -1))
        assert cache.actions(state) == environment.available_actions(state)

    def test_repeat_lookup_hits(self, environment, cache):
        state = environment.reset(Query(0, 0, -1))
        cache.actions(state)
        cache.actions(state)
        assert cache.actions_cache.hits == 1
        assert cache.actions_cache.misses == 1

    def test_matrix_rows_stack_relation_and_entity(self, environment, cache):
        state = environment.reset(Query(0, 0, -1))
        actions = cache.actions(state)
        matrix = cache.action_matrix(state, actions)
        assert matrix.shape == (len(actions), 8)
        relation, entity = actions[0]
        expected = np.concatenate(
            [cache._relation_embeddings[relation], cache._entity_embeddings[entity]]
        )
        np.testing.assert_allclose(matrix[0], expected)

    def test_gold_answer_masking_bypasses_cache(self, environment, cache, tiny_graph):
        # A training-style query with a known gold answer masks the direct
        # edge at step 0; that lookup must not pollute the per-entity cache.
        alice = tiny_graph.entity_id("alice")
        lives_in = tiny_graph.relation_id("lives_in")
        berlin = tiny_graph.entity_id("berlin")
        masked_state = environment.reset(Query(alice, lives_in, berlin))
        masked = cache.actions(masked_state)
        assert (lives_in, berlin) not in masked
        assert len(cache.actions_cache) == 0

        serving_state = environment.reset(Query(alice, lives_in, -1))
        unmasked = cache.actions(serving_state)
        assert (lives_in, berlin) in unmasked
        assert len(cache.actions_cache) == 1
