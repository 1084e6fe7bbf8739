"""Tests for the MKG environment (MDP)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kg.csr import CSRKnowledgeGraph
from repro.kg.graph import KnowledgeGraph
from repro.rl.environment import EpisodeState, MKGEnvironment, Query


@pytest.fixture()
def environment(tiny_graph) -> MKGEnvironment:
    return MKGEnvironment(tiny_graph, max_steps=3)


@pytest.fixture()
def query(tiny_graph) -> Query:
    return Query(
        source=tiny_graph.entity_id("alice"),
        relation=tiny_graph.relation_id("lives_in"),
        answer=tiny_graph.entity_id("berlin"),
    )


class TestReset:
    def test_reset_starts_at_source(self, environment, query):
        state = environment.reset(query)
        assert state.current_entity == query.source
        assert state.step == 0 and not state.stopped

    def test_reset_out_of_range_raises(self, environment):
        with pytest.raises(IndexError):
            environment.reset(Query(source=999, relation=0, answer=0))

    def test_invalid_max_steps(self, tiny_graph):
        with pytest.raises(ValueError):
            MKGEnvironment(tiny_graph, max_steps=0)


class TestActions:
    def test_actions_include_no_op(self, environment, query, tiny_graph):
        state = environment.reset(query)
        actions = environment.available_actions(state)
        assert (tiny_graph.no_op_relation_id, query.source) in actions

    def test_direct_answer_edge_masked_at_first_step(self, environment, query):
        state = environment.reset(query)
        actions = environment.available_actions(state)
        assert (query.relation, query.answer) not in actions

    def test_direct_edge_not_masked_later(self, environment, query, tiny_graph):
        state = environment.reset(query)
        no_op = tiny_graph.no_op_relation_id
        environment.step(state, (no_op, query.source))
        actions = environment.available_actions(state)
        assert (query.relation, query.answer) in actions

    def test_unmasked_environment_keeps_direct_edge(self, tiny_graph, query):
        environment = MKGEnvironment(tiny_graph, max_steps=3, mask_answer_edge=False)
        state = environment.reset(query)
        assert (query.relation, query.answer) in environment.available_actions(state)

    def test_max_actions_truncates(self, tiny_graph, query):
        environment = MKGEnvironment(tiny_graph, max_steps=3, max_actions=1)
        state = environment.reset(query)
        actions = environment.available_actions(state)
        # 1 graph edge + the NO_OP self-loop
        assert len(actions) == 2


class TestTransitions:
    def test_step_updates_state(self, environment, query, tiny_graph):
        state = environment.reset(query)
        works = tiny_graph.relation_id("works_for")
        acme = tiny_graph.entity_id("acme")
        environment.step(state, (works, acme))
        assert state.current_entity == acme
        assert state.step == 1
        assert state.path == [(works, acme)]

    def test_episode_terminates_at_max_steps(self, environment, query, tiny_graph):
        state = environment.reset(query)
        no_op = tiny_graph.no_op_relation_id
        for _ in range(3):
            environment.step(state, (no_op, state.current_entity))
        assert environment.is_terminal(state)
        with pytest.raises(RuntimeError):
            environment.step(state, (no_op, state.current_entity))

    def test_hops_ignore_no_op(self, environment, query, tiny_graph):
        state = environment.reset(query)
        no_op = tiny_graph.no_op_relation_id
        works = tiny_graph.relation_id("works_for")
        acme = tiny_graph.entity_id("acme")
        environment.step(state, (works, acme))
        environment.step(state, (no_op, acme))
        assert state.hops == 1
        assert state.step == 2

    def test_reached_answer(self, environment, query, tiny_graph):
        state = environment.reset(query)
        works = tiny_graph.relation_id("works_for")
        located = tiny_graph.relation_id("located_in")
        environment.step(state, (works, tiny_graph.entity_id("acme")))
        environment.step(state, (located, tiny_graph.entity_id("berlin")))
        assert environment.reached_answer(state)

    def test_visited_entities_and_relation_path(self, environment, query, tiny_graph):
        state = environment.reset(query)
        works = tiny_graph.relation_id("works_for")
        acme = tiny_graph.entity_id("acme")
        environment.step(state, (works, acme))
        assert state.visited_entities() == [query.source, acme]
        assert state.relation_path() == [works]


class TestExpandFrontier:
    """The vectorised frontier equals ``available_actions`` branch by branch."""

    NO_ANSWER = -1

    @staticmethod
    def _branches(graph):
        """Every entity without an answer, and once per edge with that edge as the answer."""
        branches = []
        for entity in range(graph.num_entities):
            branches.append((entity, 0, TestExpandFrontier.NO_ANSWER))
            branches.extend((entity, r, t) for r, t in graph.outgoing_edges(entity))
        return [np.asarray(column) for column in zip(*branches)]

    @staticmethod
    def _assert_parity(environment, step):
        entities, relations, answers = TestExpandFrontier._branches(environment.graph)
        indptr, frontier_relations, frontier_tails = environment.expand_frontier(
            entities, step, relations, answers
        )
        assert len(indptr) == len(entities) + 1
        for i, (entity, relation, answer) in enumerate(zip(entities, relations, answers)):
            state = EpisodeState(
                query=Query(int(entity), int(relation), int(answer)),
                current_entity=int(entity),
                step=step,
            )
            start, end = indptr[i], indptr[i + 1]
            got = list(
                zip(frontier_relations[start:end].tolist(), frontier_tails[start:end].tolist())
            )
            assert got == environment.available_actions(state), (entity, relation, answer)

    @pytest.fixture(params=["dict", "csr"])
    def graph(self, request, tiny_graph):
        if request.param == "dict":
            return tiny_graph
        return CSRKnowledgeGraph.from_graph(tiny_graph)

    @pytest.mark.parametrize("step", [0, 1])
    @pytest.mark.parametrize("max_actions", [None, 2])
    def test_matches_available_actions(self, graph, step, max_actions):
        degrees = [graph.degree(e) for e in range(graph.num_entities)]
        assert max_actions is None or max_actions < max(degrees)
        environment = MKGEnvironment(graph, max_steps=3, max_actions=max_actions)
        self._assert_parity(environment, step)

    def test_graph_without_no_op_has_empty_rows(self, tiny_graph):
        graph = KnowledgeGraph(add_no_op=False)
        for triple in tiny_graph.triples():
            graph.add_triple_by_name(
                tiny_graph.entities.symbol(triple.head),
                tiny_graph.relations.symbol(triple.relation),
                tiny_graph.entities.symbol(triple.tail),
            )
        graph.add_entity("isolated")
        for backend in (graph, CSRKnowledgeGraph.from_graph(graph)):
            environment = MKGEnvironment(backend, max_steps=3, max_actions=2)
            self._assert_parity(environment, 0)
            self._assert_parity(environment, 1)
            indptr, _, _ = environment.expand_frontier(
                np.array([backend.entity_id("isolated")]), 1, np.array([0]), np.array([-1])
            )
            assert indptr.tolist() == [0, 0]

    def test_dict_snapshot_is_rebuilt_after_add_triple(self, tiny_graph):
        graph = tiny_graph.subgraph(tiny_graph.triples())  # the fixture is shared
        environment = MKGEnvironment(graph, max_steps=3)
        self._assert_parity(environment, 0)
        snapshot = graph.adjacency_arrays()
        assert graph.adjacency_arrays() is snapshot  # cached between calls
        graph.add_triple_by_name("alice", "friend_of", "carol")
        assert graph.adjacency_arrays() is not snapshot
        self._assert_parity(environment, 0)
        self._assert_parity(environment, 1)
