"""The action-space LRU for query-dependent environments.

Stock action spaces are a function of the graph alone, and the beam-search
engine expands them for a whole frontier in one gather over the graph's CSR
arrays — no cache involved.  Environments that override
``available_actions`` (e.g. FIRE's embedding-pruned environment) compute an
action space per branch in Python; serving traffic is skewed towards popular
heads, so a per-reasoner LRU over those results removes most of that cost.
``fit`` and checkpoint loading invalidate the cache by constructing a fresh
one.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.rl.environment import EpisodeState, MKGEnvironment, Query

# The generic structure moved to repro.utils.lru so the CSR graph backend can
# bound its adjacency-row materialization with the same cache; re-exported
# here because serving code has always imported it from this module.
from repro.utils.lru import LRUCache

__all__ = ["ActionSpaceCache", "LRUCache"]


class ActionSpaceCache:
    """Caches action spaces per entity (and per query when they depend on it).

    The cache respects environment subclasses that override
    ``available_actions`` (e.g. FIRE's embedding-pruned environment): their
    action space may depend on the query, so the key widens to
    ``(entity, query source, query relation)``.  Step-0 answer-edge masking is
    applied *after* retrieval so the cache never mixes masked and unmasked
    spaces.
    """

    def __init__(
        self,
        environment: MKGEnvironment,
        relation_embeddings: np.ndarray,
        entity_embeddings: np.ndarray,
        maxsize: int = 4096,
    ):
        self.environment = environment
        self._relation_embeddings = relation_embeddings
        self._entity_embeddings = entity_embeddings
        self._query_dependent = (
            type(environment).available_actions is not MKGEnvironment.available_actions
        )
        self.actions_cache: LRUCache[tuple, List[Tuple[int, int]]] = LRUCache(maxsize)

    # ------------------------------------------------------------------- keys
    def _key(self, entity: int, query: Query) -> tuple:
        if self._query_dependent:
            return (entity, query.source, query.relation)
        return (entity,)

    def _cache_key(self, state: EpisodeState) -> Optional[tuple]:
        """The cache key for ``state``, or ``None`` when it must not be cached.

        Step-0 answer-edge masking depends on the (training-only) gold
        answer; those lookups bypass the cache rather than key on it.
        """
        if (
            self.environment.mask_answer_edge
            and state.step == 0
            and state.query.answer >= 0
        ):
            return None
        return self._key(state.current_entity, state.query)

    # ---------------------------------------------------------------- lookups
    def actions(self, state: EpisodeState) -> List[Tuple[int, int]]:
        """The action space at ``state`` (masking applied on top of the cache)."""
        env = self.environment
        key = self._cache_key(state)
        if key is None:
            return env.available_actions(state)
        return self.actions_cache.get_or_compute(
            key, lambda: env.available_actions(state)
        )

    def action_matrix(
        self, state: EpisodeState, actions: List[Tuple[int, int]]
    ) -> np.ndarray:
        """The stacked ``[relation ; entity]`` rows for ``actions`` at ``state``.

        Gathered on every call: one fancy index per embedding table costs
        less than keeping a matrix per entity alive in an LRU.
        """
        relations = np.fromiter((r for r, _ in actions), dtype=np.intp, count=len(actions))
        entities = np.fromiter((e for _, e in actions), dtype=np.intp, count=len(actions))
        return np.concatenate(
            [self._relation_embeddings[relations], self._entity_embeddings[entities]],
            axis=1,
        )

    # ------------------------------------------------------------------ stats
    def stats(self) -> dict:
        return {
            "actions_hits": self.actions_cache.hits,
            "actions_misses": self.actions_cache.misses,
        }

    def clear(self) -> None:
        self.actions_cache.clear()
