"""Tied scores must rank the same on every host.

NumPy's default ``argsort`` picks a sorting kernel at run time (introsort,
or a SIMD sort on CPUs that have one), and those kernels order equal keys
differently.  The scalar beam search and FIRE's pruning sort with
``kind="stable"``: among equal scores the later action ranks first.  The
17-action row below has mixed ties; on an AVX-512 host the default sort
breaks them in another order than the stable one, so there these tests fail
without ``kind="stable"``.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.fire import PrunedEnvironment
from repro.kg.graph import KnowledgeGraph
from repro.rl.environment import MKGEnvironment, Query
from repro.rl.rollout import beam_search

# Sixteen edges plus the NO_OP action: 17 actions at the hub.
PATTERN = [0.3, 0.2, 0.2, 0.1, 0.1, 0.0, 0.0, 0.0, 0.0, 0.3, 0.2, 0.3, 0.2, 0.2, 0.3, 0.2, 0.2]


def _star_graph() -> KnowledgeGraph:
    graph = KnowledgeGraph()
    for index in range(len(PATTERN) - 1):
        graph.add_triple_by_name("hub", "r", f"t{index}")
    return graph


class _FixedAgent:
    """Scores the hub's actions by ``PATTERN`` (protocol-only agent)."""

    def begin_episode(self, query):
        pass

    def observe_step(self, relation, entity):
        pass

    def snapshot(self):
        return None

    def restore(self, snapshot):
        pass

    def action_probabilities(self, state, actions):
        weights = np.asarray(PATTERN[: len(actions)])
        return weights / weights.sum()


def test_beam_search_breaks_ties_towards_the_later_action():
    graph = _star_graph()
    hub = graph.entity_id("hub")
    environment = MKGEnvironment(graph, max_steps=1, mask_answer_edge=False)
    actions = environment.available_actions(environment.reset(Query(hub, 0, -1)))
    assert len(actions) == len(PATTERN)

    result = beam_search(_FixedAgent(), environment, Query(hub, 0, -1), beam_width=6)

    # Four 0.3 actions, then the two *last* of the seven 0.2 actions.
    expected = {actions[i][1] for i in (0, 9, 11, 14, 15, 16)}
    assert set(result.entity_log_probs) == expected


def test_fire_pruning_keeps_the_later_of_tied_targets():
    graph = _star_graph()
    hub = graph.entity_id("hub")
    # Query translation e_s + r_q = 0, so an action's score is minus the
    # distance of its target to 0: tail t_i sits at 1 - PATTERN[i], the hub
    # (the NO_OP target) at 0.
    entity_embeddings = np.zeros((graph.num_entities, 1))
    for index, weight in enumerate(PATTERN[:-1]):
        entity_embeddings[graph.entity_id(f"t{index}")] = 1.0 - weight
    environment = PrunedEnvironment(
        graph,
        max_steps=1,
        mask_answer_edge=False,
        entity_embeddings=entity_embeddings,
        relation_embeddings=np.zeros((graph.num_relations, 1)),
        prune_to=8,
    )
    state = environment.reset(Query(hub, 0, -1))
    full = MKGEnvironment.available_actions(environment, state)

    kept = environment.available_actions(state)

    # NO_OP, the four 0.3 targets, then the three *last* 0.2 targets — in
    # their original order.
    assert kept == [full[i] for i in (0, 9, 11, 12, 13, 14, 15, 16)]
