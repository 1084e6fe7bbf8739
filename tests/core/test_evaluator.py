"""Engine-vs-reference evaluation parity and the ranking-determinism fixes.

The lockstep evaluation engine must be an optimisation, not a protocol
change: under the same seed, the engine and the per-query ``beam_search``
reference loop have to return byte-identical metric dictionaries for every
protocol (entity MRR/Hits, relation MAP, hop distribution) — for MMKGR
(fast-path batched scoring), for a baseline the engine drives through
per-branch slow-path scoring (RLH), and for protocol-only agents that take
the per-query loop entirely.  The evaluator picks the engine whenever
``BatchBeamSearch.supports`` accepts the agent, so the reference run patches
that capability check (see :func:`_engine_and_reference`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import EvaluationConfig
from repro.core.evaluator import (
    beam_search_results,
    evaluate_entity_prediction,
    evaluate_relation_prediction,
    hop_distribution,
)
from repro.core.trainer import MMKGRPipeline
from repro.kg.graph import KnowledgeGraph, Triple
from repro.rl.environment import MKGEnvironment, Query
from repro.serve.engine import BatchBeamSearch


@pytest.fixture(scope="module")
def trained_pipeline(request):
    tiny_dataset = request.getfixturevalue("tiny_dataset")
    tiny_preset = request.getfixturevalue("tiny_preset")
    pipeline = MMKGRPipeline(tiny_dataset, preset=tiny_preset, rng=3)
    pipeline.train()
    return tiny_dataset, pipeline


def _config(beam_width: int = 4, **kwargs):
    return EvaluationConfig(beam_width=beam_width, **kwargs)


def _engine_and_reference(monkeypatch, evaluate):
    """``evaluate()`` through the lockstep engine, then through the per-query
    reference loop (the engine's capability check patched to refuse)."""
    engine = evaluate()
    with monkeypatch.context() as patch:
        patch.setattr(BatchBeamSearch, "supports", staticmethod(lambda agent: False))
        reference = evaluate()
    return engine, reference


class TestScalarVectorizedParity:
    """The lockstep engine against the per-query reference loop."""

    def test_entity_metrics_identical(self, trained_pipeline, monkeypatch):
        dataset, pipeline = trained_pipeline
        config = _config()
        results = _engine_and_reference(
            monkeypatch,
            lambda: evaluate_entity_prediction(
                pipeline.agent,
                pipeline.environment,
                dataset.splits.test,
                filter_graph=dataset.graph,
                config=config,
                rng=7,
            ),
        )
        assert results[0] == results[1]

    def test_relation_metrics_identical(self, trained_pipeline, monkeypatch):
        dataset, pipeline = trained_pipeline
        config = _config()
        results = _engine_and_reference(
            monkeypatch,
            lambda: evaluate_relation_prediction(
                pipeline.agent,
                pipeline.environment,
                dataset.splits.test[:6],
                config=config,
                rng=7,
            ),
        )
        assert results[0] == results[1]
        assert "overall" in results[0]

    def test_hop_distribution_identical(self, trained_pipeline, monkeypatch):
        dataset, pipeline = trained_pipeline
        config = _config()
        results = _engine_and_reference(
            monkeypatch,
            lambda: hop_distribution(
                pipeline.agent,
                pipeline.environment,
                dataset.splits.test,
                filter_graph=dataset.graph,
                config=config,
                rng=7,
            ),
        )
        assert results[0] == results[1]

    def test_parity_survives_chunked_batches(self, trained_pipeline, monkeypatch):
        # Chunking the lockstep engine must not change any ranking: a
        # batch_size smaller than the query count exercises the chunk loop.
        dataset, pipeline = trained_pipeline
        config = _config(batch_size=3)
        results = _engine_and_reference(
            monkeypatch,
            lambda: evaluate_entity_prediction(
                pipeline.agent,
                pipeline.environment,
                dataset.splits.test,
                filter_graph=dataset.graph,
                config=config,
                rng=7,
            ),
        )
        assert results[0] == results[1]

    def test_subsampling_draws_identical_queries(self, trained_pipeline, monkeypatch):
        # max_queries subsampling happens before the path split, so both
        # paths must evaluate the same subset under the same rng.
        dataset, pipeline = trained_pipeline
        config = _config(max_queries=5)
        results = _engine_and_reference(
            monkeypatch,
            lambda: evaluate_entity_prediction(
                pipeline.agent,
                pipeline.environment,
                dataset.splits.test,
                filter_graph=dataset.graph,
                config=config,
                rng=11,
            ),
        )
        assert results[0] == results[1]


class TestBaselineParity:
    @pytest.fixture(scope="class")
    def rlh_reasoner(self, request):
        from repro.baselines.registry import fit_baseline

        tiny_dataset = request.getfixturevalue("tiny_dataset")
        tiny_preset = request.getfixturevalue("tiny_preset")
        return tiny_dataset, fit_baseline("RLH", tiny_dataset, preset=tiny_preset, rng=3)

    def test_rlh_agent_is_batchable_via_slow_path(self, rlh_reasoner):
        _, reasoner = rlh_reasoner
        # RLH overrides action_log_probs, so the engine scores its branches
        # through the agent — but it still advances in lockstep.
        assert BatchBeamSearch.supports(reasoner.pipeline.agent)

    def test_rlh_entity_metrics_identical(self, rlh_reasoner, monkeypatch):
        dataset, reasoner = rlh_reasoner
        config = _config()
        results = _engine_and_reference(
            monkeypatch,
            lambda: reasoner.entity_metrics(
                dataset.splits.test, filter_graph=dataset.graph, config=config, rng=7
            ),
        )
        assert results[0] == results[1]

    def test_rlh_relation_metrics_identical(self, rlh_reasoner, monkeypatch):
        dataset, reasoner = rlh_reasoner
        config = _config()
        results = _engine_and_reference(
            monkeypatch,
            lambda: reasoner.relation_metrics(dataset.splits.test[:4], config=config, rng=7),
        )
        assert results[0] == results[1]


class TestDeadBranches:
    """Without NO_OP a branch can run out of actions: it stays in the beam
    with its log-probability and keeps competing for the ``beam_width``
    slots."""

    @pytest.fixture
    def fork(self, trained_pipeline):
        """``s -r-> a -r-> c`` and ``s -r-> b``, where ``b`` is a dead end."""
        dataset, pipeline = trained_pipeline
        train = dataset.splits.train_graph
        graph = KnowledgeGraph(
            entity_vocab=train.entities,
            relation_vocab=train.relations,
            add_inverse=False,
            add_no_op=False,
        )
        s, a, b, c, r = 0, 1, 2, 3, 0
        for head, tail in ((s, a), (s, b), (a, c)):
            graph.add_triple(Triple(head, r, tail))
        environment = MKGEnvironment(graph, max_steps=2)
        query = Query(s, r, -1)
        pipeline.agent.begin_episode(query)
        probabilities = pipeline.agent.action_probabilities(
            environment.reset(query), [(r, a), (r, b)]
        )
        return pipeline.agent, environment, query, np.log(probabilities + 1e-12)

    def test_dead_branch_stays_in_the_beam(self, fork):
        agent, environment, query, (to_a, to_b) = fork
        result = BatchBeamSearch(agent, environment, beam_width=2).run([query])[0]
        assert result.paths == {3: [(0, 1), (0, 3)], 2: [(0, 2)]}
        assert result.entity_hops == {3: 2, 2: 1}
        assert result.entity_log_probs[2] == pytest.approx(to_b, abs=1e-9)
        assert result.entity_log_probs[3] == pytest.approx(to_a, abs=1e-9)

    def test_dead_branch_competes_for_the_slots(self, fork):
        agent, environment, query, (to_a, to_b) = fork
        result = BatchBeamSearch(agent, environment, beam_width=1).run([query])[0]
        assert list(result.entity_log_probs) == [3 if to_a > to_b else 2]


class _UniformAgent:
    """A protocol-only agent the batch engine cannot drive (no MMKGR innards)."""

    def begin_episode(self, query) -> None:
        pass

    def observe_step(self, relation: int, entity: int) -> None:
        pass

    def action_log_probs(self, state, actions):
        from repro.nn.tensor import Tensor

        return Tensor(np.full(len(actions), -np.log(len(actions))))

    def action_probabilities(self, state, actions) -> np.ndarray:
        return np.full(len(actions), 1.0 / len(actions))

    def snapshot(self):
        return None

    def restore(self, snapshot) -> None:
        pass


class TestScalarFallback:
    def test_engine_rejects_protocol_only_agent(self):
        assert not BatchBeamSearch.supports(_UniformAgent())

    def test_vectorized_config_falls_back_to_scalar(self, trained_pipeline, monkeypatch):
        # The engine refuses a protocol-only agent, so even unpatched the
        # evaluator takes the per-query loop: same metrics, no crash.
        dataset, pipeline = trained_pipeline
        agent = _UniformAgent()
        config = _config()
        results = _engine_and_reference(
            monkeypatch,
            lambda: evaluate_entity_prediction(
                agent,
                pipeline.environment,
                dataset.splits.test[:6],
                filter_graph=dataset.graph,
                config=config,
                rng=7,
            ),
        )
        assert results[0] == results[1]

    def test_beam_search_results_order_and_length(self, trained_pipeline, monkeypatch):
        dataset, pipeline = trained_pipeline
        queries = [
            Query(t.head, t.relation, t.tail) for t in dataset.splits.test[:5]
        ]
        fast, slow = _engine_and_reference(
            monkeypatch,
            lambda: beam_search_results(
                pipeline.agent, pipeline.environment, queries, _config()
            ),
        )
        assert len(fast) == len(slow) == len(queries)
        for query, fast_result, slow_result in zip(queries, fast, slow):
            assert fast_result.query == query
            # Raw log-probs may differ at float-noise level between the
            # batched and per-row BLAS paths; the ranking (what every metric
            # consumes) must match exactly.
            fast_ranked = fast_result.ranked_entities()
            slow_ranked = slow_result.ranked_entities()
            assert [e for e, _ in fast_ranked] == [e for e, _ in slow_ranked]
            np.testing.assert_allclose(
                [score for _, score in fast_ranked],
                [score for _, score in slow_ranked],
                rtol=1e-9,
            )
            assert fast_result.entity_hops == slow_result.entity_hops


class TestRelationRankingDeterminism:
    def test_map_independent_of_candidate_order(self, trained_pipeline):
        # Ties (every relation whose beam misses the tail scores -inf) used
        # to be broken by candidate iteration order; they must now rank by
        # ascending relation id regardless of how candidates are listed.
        dataset, pipeline = trained_pipeline
        candidates = list(range(min(6, dataset.graph.num_relations)))
        config = _config()
        forward = evaluate_relation_prediction(
            pipeline.agent,
            pipeline.environment,
            dataset.splits.test[:5],
            candidate_relations=candidates,
            config=config,
            rng=7,
        )
        backward = evaluate_relation_prediction(
            pipeline.agent,
            pipeline.environment,
            dataset.splits.test[:5],
            candidate_relations=list(reversed(candidates)),
            config=config,
            rng=7,
        )
        assert forward == backward


class TestHopDistributionFilteredProtocol:
    @pytest.fixture()
    def duplicate_answer_setup(self):
        """A graph where (head, relation) has two correct tails.

        With a uniform policy the beam reaches both answers with identical
        scores, so the deterministic tie-break top-ranks the *other* correct
        answer (lower entity id) for the query asking about the second one.
        """
        # No no-op self-loop: it would put the (lower-id) source entity into
        # the tie pool and obscure the duplicate-answer scenario under test.
        graph = KnowledgeGraph(add_no_op=False)
        graph.add_triple_by_name("h", "r", "t1")
        graph.add_triple_by_name("h", "r", "t2")
        graph.add_triple_by_name("x", "r", "t1")
        environment = MKGEnvironment(graph, max_steps=1, mask_answer_edge=False)
        return graph, environment

    def test_success_matches_filtered_hits_at_1(self, duplicate_answer_setup):
        graph, environment = duplicate_answer_setup
        agent = _UniformAgent()
        t2 = graph.entities.index("t2")
        triple = next(t for t in graph.triples() if t.tail == t2)
        config = EvaluationConfig(beam_width=4, hits_at=(1,))

        metrics = evaluate_entity_prediction(
            agent, environment, [triple], filter_graph=graph, config=config
        )
        distribution = hop_distribution(
            agent, environment, [triple], filter_graph=graph, config=config
        )
        # Both correct tails tie, t1 (lower id) ranks first unfiltered — yet
        # the query counts as solved under the filtered protocol, and the
        # hop distribution must agree with Table III's Hits@1 on that.
        assert metrics["hits@1"] == 1.0
        assert distribution["success_count"] == 1.0
        assert distribution["1_hops"] == 1.0

    def test_unreached_answer_never_counts_as_solved(self, duplicate_answer_setup):
        # With beam_width=1 the uniform beam keeps a single branch, so one of
        # the two answers goes unreached.  Filtering the reached duplicate
        # empties the candidate list, and rank_of's expected-rank convention
        # then yields rank 1 for the *unreached* answer on this tiny graph —
        # but a query without a real path must not enter the hop counts.
        graph, environment = duplicate_answer_setup
        agent = _UniformAgent()
        t1 = graph.entities.index("t1")
        t2 = graph.entities.index("t2")
        config = EvaluationConfig(beam_width=1)
        unreached = None
        for triple in graph.triples():
            if triple.tail not in (t1, t2):
                continue
            (search,) = beam_search_results(
                agent,
                environment,
                [Query(triple.head, triple.relation, triple.tail)],
                config,
            )
            if triple.tail not in search.entity_log_probs:
                other = t1 if triple.tail == t2 else t2
                assert search.rank_of(triple.tail, filtered_out={other}) == 1
                unreached = triple
        assert unreached is not None, "expected one answer to fall off the beam"
        distribution = hop_distribution(
            agent, environment, [unreached], filter_graph=graph, config=config
        )
        assert distribution["success_count"] == 0.0

    def test_unfiltered_best_entity_would_have_missed_it(self, duplicate_answer_setup):
        graph, environment = duplicate_answer_setup
        agent = _UniformAgent()
        t1 = graph.entities.index("t1")
        t2 = graph.entities.index("t2")
        triple = next(t for t in graph.triples() if t.tail == t2)
        config = EvaluationConfig(beam_width=4)
        (search,) = beam_search_results(
            agent,
            environment,
            [Query(triple.head, triple.relation, triple.tail)],
            config,
        )
        # Pin the scenario: the unfiltered top-1 is the duplicate answer, so
        # the old success definition (best_entity() == tail) under-counted.
        assert search.best_entity() == t1
        assert search.best_entity() != t2
        assert search.rank_of(t2, filtered_out={t1}) == 1
