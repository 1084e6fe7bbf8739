"""Vectorized lockstep beam search across many queries.

The evaluation-time :func:`repro.rl.rollout.beam_search` answers one query at
a time: every branch expansion runs its own fusion, policy, and LSTM forward
pass on ``(1, d)``-shaped tensors, so the cost is dominated by per-op NumPy
dispatch overhead rather than arithmetic.  This engine advances *all* queries
of a batch depth-by-depth and keeps the beam as parallel arrays — query,
entity, log-probability, LSTM hidden and cell state per entry — so a step
costs a fixed number of array operations, whatever the beam holds:

* the action spaces of the whole frontier come from one ``indptr``-driven
  gather over the graph's CSR arrays
  (:meth:`~repro.rl.environment.MKGEnvironment.expand_frontier`), laid out
  flat with one row per branch;
* the fusion forward pass runs on ``(B, ...)`` arrays for the gate-attention
  family and the structure-only / concatenation fusers (exact same weights
  and activation numerics as the module path), and the policy head projects
  every branch in one matrix product;
* action scores are one row-wise product over the flat frontier, normalised
  per branch with a segment softmax (:func:`repro.nn.batched.segment_softmax`);
* one padded row-wise sort picks each branch's best ``beam_width`` actions
  (:func:`repro.nn.batched.segment_top_k`) and one lexicographic sort keeps
  each query's best ``beam_width`` expansions
  (:func:`repro.nn.batched.grouped_top_k`);
* the path-history LSTM folds all surviving expansions in one batched cell
  evaluation.

Paths are not carried along: every step records one ``(parent, relation,
entity)`` triple per beam entry and the paths of the final beam are rebuilt
from those parent pointers once, at the end.

Two slow paths feed the same frontier arrays.  Environments that override
``available_actions`` (FIRE's query-dependent pruning) fill the frontier from
per-branch :meth:`~repro.serve.cache.ActionSpaceCache.actions` lookups, and
agents that override ``action_log_probs`` (e.g. the hierarchical RLH agent)
or use a fuser without a batched implementation are scored branch by branch
through the agent itself — so every ``ReasoningAgent`` stays servable; the
batch engine is an optimisation, not a new contract.

The same primitives power :class:`repro.rl.batched_rollout.BatchedRolloutEngine`
on the training side; this module keeps only the beam-search-specific parts.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.model import MMKGRAgent
from repro.nn.batched import (
    BatchedFusion,
    BatchedLSTM,
    grouped_top_k,
    segment_offsets,
    segment_rows,
    segment_softmax,
    segment_top_k,
)
from repro.nn.tensor import no_grad
from repro.rl.environment import EpisodeState, MKGEnvironment, Query
from repro.rl.policy import PolicyNetwork
from repro.rl.rollout import BeamSearchResult
from repro.serve.cache import ActionSpaceCache

_LOG_EPS = 1e-12

# The slow-path scorer mutates transient agent state (current query, LSTM
# snapshot); engines on different serving workers can share one agent, so
# each agent gets exactly one lock, held only around slow-path scoring.
_AGENT_LOCKS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_AGENT_LOCKS_GUARD = threading.Lock()

# One step of the beam's history: for every entry after the step, the index
# of its parent entry before it, and the (relation, entity) it moved along.
# A relation of -1 marks an entry carried over without a move.
_Step = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _lock_for(agent) -> threading.Lock:
    with _AGENT_LOCKS_GUARD:
        lock = _AGENT_LOCKS.get(agent)
        if lock is None:
            lock = threading.Lock()
            _AGENT_LOCKS[agent] = lock
        return lock


def _paths(history: Sequence[_Step], entries: np.ndarray) -> List[List[Tuple[int, int]]]:
    """The ``(relation, entity)`` path of each beam entry, from parent pointers."""
    steps = len(history)
    relations = np.empty((len(entries), steps), dtype=np.int64)
    entities = np.empty((len(entries), steps), dtype=np.int64)
    index = np.asarray(entries, dtype=np.int64)
    for step in range(steps - 1, -1, -1):
        parent, relation, entity = history[step]
        relations[:, step] = relation[index]
        entities[:, step] = entity[index]
        index = parent[index]
    return [
        [(r, e) for r, e in zip(rel_row, ent_row) if r >= 0]
        for rel_row, ent_row in zip(relations.tolist(), entities.tolist())
    ]


class BatchBeamSearch:
    """Lockstep beam search over a batch of queries against one trained agent."""

    def __init__(
        self,
        agent: MMKGRAgent,
        environment: MKGEnvironment,
        cache: Optional[ActionSpaceCache] = None,
        beam_width: int = 8,
    ):
        if beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        self.agent = agent
        self.environment = environment
        self.beam_width = beam_width
        self.cache = cache or self.build_cache(agent, environment)
        self._lstm = BatchedLSTM(agent)
        self._fusion = BatchedFusion(agent)
        # The fast path requires the stock scoring pipeline; subclasses that
        # reinterpret action scores (e.g. hierarchical policies) go through
        # the agent itself, branch by branch.
        self._fast_policy = (
            type(agent).action_log_probs is MMKGRAgent.action_log_probs
            and isinstance(agent.policy, PolicyNetwork)
            and self._fusion.supported
        )
        # Stock action spaces are a function of the graph alone and expand in
        # one gather; overridden ones go through the query-keyed cache.
        self._stock_actions = (
            type(environment).available_actions is MKGEnvironment.available_actions
        )

    @staticmethod
    def build_cache(
        agent: MMKGRAgent, environment: MKGEnvironment, maxsize: int = 4096
    ) -> ActionSpaceCache:
        """The action-space cache an engine over ``agent`` would use.

        Only environments that override ``available_actions`` consult it;
        evaluation and the serving reasoner build shared caches through this
        one place.
        """
        features = agent.features
        return ActionSpaceCache(
            environment,
            features.relation_embeddings,
            features.entity_embeddings,
            maxsize=maxsize,
        )

    @staticmethod
    def supports(agent) -> bool:
        """Whether the lockstep engine can drive ``agent`` at all.

        Deliberately broader than ``BatchedRolloutEngine.supports``: an agent
        overriding ``action_log_probs`` or using an un-vectorized fuser (e.g.
        the hierarchical RLH baseline) still advances through the engine via
        per-branch slow-path scoring.  What the engine cannot relax is the
        episode-state contract — the stock feature store, the
        ``(hidden, cell)`` LSTM snapshot layout, and the stock episode
        bookkeeping it re-implements in lockstep.  Protocol-only agents fail
        this check and must go through the scalar
        :func:`repro.rl.rollout.beam_search` instead.
        """
        from repro.rl.history import PathHistoryEncoder

        return (
            isinstance(agent, MMKGRAgent)
            and isinstance(getattr(agent, "history_encoder", None), PathHistoryEncoder)
            and type(agent).begin_episode is MMKGRAgent.begin_episode
            and type(agent).observe_step is MMKGRAgent.observe_step
            and type(agent).snapshot is MMKGRAgent.snapshot
            and type(agent).restore is MMKGRAgent.restore
        )

    # ---------------------------------------------------------------- helpers
    def _states(
        self,
        queries: Sequence[Query],
        history: Sequence[_Step],
        branches: np.ndarray,
        query: np.ndarray,
        entity: np.ndarray,
    ) -> List[EpisodeState]:
        """Per-branch episode states, for the slow paths."""
        no_op_ids = self.environment.no_op_relation_ids
        states = []
        for branch, path in zip(branches.tolist(), _paths(history, branches)):
            state = EpisodeState(
                query=queries[query[branch]],
                current_entity=int(entity[branch]),
                step=len(history),
                path=path,
            )
            state._no_op_ids = no_op_ids
            states.append(state)
        return states

    def _frontier(
        self,
        queries: Sequence[Query],
        history: Sequence[_Step],
        branches: np.ndarray,
        query: np.ndarray,
        entity: np.ndarray,
        query_relations: np.ndarray,
        query_answers: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, relations, tails)``: the action spaces of ``branches``."""
        if self._stock_actions:
            rows = query[branches]
            return self.environment.expand_frontier(
                entity[branches], len(history), query_relations[rows], query_answers[rows]
            )
        spaces = [
            self.cache.actions(state)
            for state in self._states(queries, history, branches, query, entity)
        ]
        indptr = segment_offsets([len(actions) for actions in spaces])
        flat = np.array(
            [action for actions in spaces for action in actions], dtype=np.int64
        ).reshape(-1, 2)
        return indptr, flat[:, 0], flat[:, 1]

    def _score_fast(
        self,
        sources: np.ndarray,
        query_relations: np.ndarray,
        currents: np.ndarray,
        history: np.ndarray,
        rows: np.ndarray,
        relations: np.ndarray,
        tails: np.ndarray,
    ) -> np.ndarray:
        """Raw action scores of the flat frontier (one branch per fused row)."""
        features = self.agent.features
        if self._fusion.needs_modalities:
            source_text = features.text_features[sources]
            source_image = features.image_features[sources]
            current_text = features.text_features[currents]
            current_image = features.image_features[currents]
        else:
            # Structure-only fusers never read the modality slots; skip the
            # four per-round feature gathers entirely.
            source_text = source_image = current_text = current_image = None
        fused = self._fusion.fuse(
            features.entity_embeddings[sources],
            features.entity_embeddings[currents],
            features.relation_embeddings[query_relations],
            history,
            source_text,
            source_image,
            current_text,
            current_image,
        )
        projected = self.agent.policy.project_batch(fused)
        # An action row is [relation ; entity]: its score splits into a lookup
        # in the (small) table of every relation's score and an entity dot.
        dim = features.relation_embeddings.shape[1]
        relation_scores = projected[:, :dim] @ features.relation_embeddings.T
        return relation_scores[rows, relations] + np.einsum(
            "ij,ij->i",
            np.take(features.entity_embeddings, tails, axis=0),
            np.take(projected[:, dim:], rows, axis=0),
        )

    def _score_via_agent(
        self,
        states: Sequence[EpisodeState],
        hidden: np.ndarray,
        cell: np.ndarray,
        indptr: np.ndarray,
        relations: np.ndarray,
        tails: np.ndarray,
    ) -> np.ndarray:
        """Action probabilities of the flat frontier, branch by branch."""
        probabilities = []
        relations, tails = relations.tolist(), tails.tolist()
        with _lock_for(self.agent), no_grad():
            for i, state in enumerate(states):
                start, end = int(indptr[i]), int(indptr[i + 1])
                self.agent._query = state.query
                self.agent.restore((hidden[i : i + 1], cell[i : i + 1]))
                actions = list(zip(relations[start:end], tails[start:end]))
                probabilities.append(self.agent.action_probabilities(state, actions))
        return np.concatenate(probabilities)

    # -------------------------------------------------------------------- run
    def run(self, queries: Sequence[Query]) -> List[BeamSearchResult]:
        """Beam-search every query in lockstep; one result per query."""
        queries = list(queries)
        if not queries:
            return []
        features = self.agent.features
        count = len(queries)
        sources = np.fromiter((q.source for q in queries), dtype=np.int64, count=count)
        query_relations = np.fromiter(
            (q.relation for q in queries), dtype=np.int64, count=count
        )
        query_answers = np.fromiter((q.answer for q in queries), dtype=np.int64, count=count)

        # The beam, query-major and best-first within each query.  Histories
        # start with one batched LSTM step on [0 ; source].
        query = np.arange(count)
        entity = sources
        log_prob = np.zeros(count)
        dead = np.zeros(count, dtype=bool)  # no actions: carried, never expanded
        zeros = np.zeros((count, self._lstm.hidden_size))
        hidden, cell = self._lstm.step(
            np.concatenate(
                [np.zeros((count, features.structural_dim)), features.entity_embeddings[sources]],
                axis=1,
            ),
            zeros,
            zeros,
        )
        history: List[_Step] = []

        for _ in range(self.environment.max_steps):
            live = np.flatnonzero(~dead)
            indptr, relations, tails = self._frontier(
                queries, history, live, query, entity, query_relations, query_answers
            )
            counts = np.diff(indptr)
            dead[live[counts == 0]] = True
            if not len(relations):
                break
            # Only branches with actions are scored (and only they own rows).
            scored = live[counts > 0]
            indptr = np.concatenate([[0], indptr[1:][counts > 0]])
            rows, _ = segment_rows(indptr)
            if self._fast_policy:
                scores = self._score_fast(
                    sources[query[scored]],
                    query_relations[query[scored]],
                    entity[scored],
                    hidden[scored],
                    rows,
                    relations,
                    tails,
                )
                probabilities = segment_softmax(scores, indptr)
            else:
                probabilities = self._score_via_agent(
                    self._states(queries, history, scored, query, entity),
                    hidden[scored],
                    cell[scored],
                    indptr,
                    relations,
                    tails,
                )

            # Each branch offers its best `beam_width` actions (ties: the later
            # action first).  One pool per query: branches carried over without
            # a move, then those offers in parent beam order; the best
            # `beam_width` survive, equal log-probabilities in pool order.
            offers = segment_top_k(probabilities, indptr, self.beam_width)
            parents = scored[rows[offers]]
            carried = np.flatnonzero(dead)
            pool_parent = np.concatenate([carried, parents])
            pool_log_prob = np.concatenate(
                [log_prob[carried], log_prob[parents] + np.log(probabilities[offers] + _LOG_EPS)]
            )
            keep = grouped_top_k(query[pool_parent], pool_log_prob, self.beam_width)

            parent = pool_parent[keep]
            moved = keep >= len(carried)
            action = offers[keep[moved] - len(carried)]
            step_relations = np.full(len(keep), -1, dtype=np.int64)
            step_relations[moved] = relations[action]
            entity = entity[parent]
            entity[moved] = tails[action]
            hidden, cell = hidden[parent], cell[parent]
            if moved.any():
                hidden[moved], cell[moved] = self._lstm.step(
                    np.concatenate(
                        [
                            features.relation_embeddings[relations[action]],
                            features.entity_embeddings[tails[action]],
                        ],
                        axis=1,
                    ),
                    hidden[moved],
                    cell[moved],
                )
            history.append((parent, step_relations, entity))
            query, log_prob, dead = query[parent], pool_log_prob[keep], ~moved

        return self._results(queries, history, query, entity, log_prob)

    def _results(
        self,
        queries: Sequence[Query],
        history: Sequence[_Step],
        query: np.ndarray,
        entity: np.ndarray,
        log_prob: np.ndarray,
    ) -> List[BeamSearchResult]:
        """Max-pool the final beam per reached entity.

        Each query's entries are best-first, so the first entry reaching an
        entity carries its best log-probability (and, on ties, the entry the
        per-branch search would keep).
        """
        no_op_ids = self.environment.no_op_relation_ids
        first: Dict[Tuple[int, int], int] = {}
        for index, key in enumerate(zip(query.tolist(), entity.tolist())):
            first.setdefault(key, index)
        entries = np.fromiter(first.values(), dtype=np.int64, count=len(first))
        results = [
            BeamSearchResult(
                query=q,
                entity_log_probs={},
                entity_hops={},
                paths={},
                num_entities=self.environment.graph.num_entities,
            )
            for q in queries
        ]
        for (qi, reached), score, path in zip(
            first, log_prob[entries].tolist(), _paths(history, entries)
        ):
            result = results[qi]
            result.entity_log_probs[reached] = score
            result.entity_hops[reached] = sum(
                1 for relation, _ in path if relation not in no_op_ids
            )
            result.paths[reached] = path
        return results
