"""ReasoningServer tests: coalescing, error isolation, stats, both front ends.

One tiny MMKGR reasoner is trained per module; every test drives it through
the serving daemon and cross-checks against direct ``query``/``query_batch``
calls, which the serving layer must reproduce exactly (same engine, same
caches).
"""

from __future__ import annotations

import io
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve import Reasoner, ReasoningServer, ServeConfig, ServerStats
from repro.utils.metrics import percentile


@pytest.fixture(scope="module")
def fitted_reasoner(request):
    tiny_dataset = request.getfixturevalue("tiny_dataset")
    tiny_preset = request.getfixturevalue("tiny_preset")
    return Reasoner(preset=tiny_preset, rng=0).fit(tiny_dataset)


@pytest.fixture(scope="module")
def test_queries(request):
    tiny_dataset = request.getfixturevalue("tiny_dataset")
    return [(t.head, t.relation) for t in tiny_dataset.splits.test[:8]]


def _ranking(predictions):
    return [(p.entity, round(p.score, 10)) for p in predictions]


class TestSubmit:
    def test_served_results_match_direct_queries(self, fitted_reasoner, test_queries):
        direct = fitted_reasoner.query_batch(test_queries, k=5)
        with ReasoningServer(
            fitted_reasoner,
            config=ServeConfig(max_batch_size=8, max_wait_ms=20),
        ) as server:
            futures = [server.submit(h, r, k=5) for h, r in test_queries]
            served = [f.result(timeout=30) for f in futures]
        for direct_one, served_one in zip(direct, served):
            assert _ranking(direct_one) == _ranking(served_one)

    def test_burst_traffic_forms_micro_batches(self, fitted_reasoner, test_queries):
        with ReasoningServer(
            fitted_reasoner,
            config=ServeConfig(max_batch_size=8, max_wait_ms=100),
        ) as server:
            futures = [server.submit(h, r, k=3) for h, r in test_queries * 2]
            for future in futures:
                future.result(timeout=30)
            stats = server.stats_dict()
        assert stats["requests_total"] == len(test_queries) * 2
        assert stats["batches_total"] < stats["requests_total"], (
            "a burst of concurrent queries must coalesce into micro-batches"
        )
        assert max(int(size) for size in stats["batch_size_histogram"]) > 1

    def test_error_isolation_across_batchmates(self, fitted_reasoner, test_queries):
        head, relation = test_queries[0]
        with ReasoningServer(
            fitted_reasoner,
            config=ServeConfig(max_batch_size=4, max_wait_ms=50),
        ) as server:
            good = server.submit(head, relation, k=3)
            bad = server.submit("no-such-entity", relation, k=3)
            also_good = server.submit(head, relation, k=3)
            assert good.result(timeout=30)
            assert also_good.result(timeout=30)
            with pytest.raises(KeyError, match="no-such-entity"):
                bad.result(timeout=30)
        assert server.stats.errors_total == 1

    def test_mixed_k_requests_are_grouped(self, fitted_reasoner, test_queries):
        head, relation = test_queries[0]
        with ReasoningServer(
            fitted_reasoner,
            config=ServeConfig(max_batch_size=8, max_wait_ms=50),
        ) as server:
            three = server.submit(head, relation, k=3).result(timeout=30)
            five = server.submit(head, relation, k=5).result(timeout=30)
        assert len(three) <= 3
        assert len(five) <= 5
        assert _ranking(three) == _ranking(five)[: len(three)]

    def test_worker_pool_replicas_share_caches(
        self, fitted_reasoner, test_queries, pruned_reasoner_of
    ):
        # FIRE's pruned environment is the path that still fills the cache.
        pruned = pruned_reasoner_of(fitted_reasoner)
        with ReasoningServer(
            pruned,
            config=ServeConfig(max_batch_size=4, max_wait_ms=10, workers=3),
        ) as server:
            futures = [server.submit(h, r, k=3) for h, r in test_queries * 4]
            results = [f.result(timeout=30) for f in futures]
        assert all(results)
        stats = server.stats_dict()
        # Replicas share one action-space cache, so repeated traffic hits it.
        assert stats["cache"]["actions_hits"] > 0

    def test_submit_before_start_raises(self, fitted_reasoner):
        server = ReasoningServer(fitted_reasoner)
        with pytest.raises(RuntimeError, match="not running"):
            server.submit(0, 0)


class TestStats:
    def test_latency_percentiles_and_histogram(self):
        stats = ServerStats()
        for latency_ms in range(1, 101):
            stats.record_request(latency_ms / 1000.0)
        stats.record_batch(4)
        stats.record_batch(4)
        stats.record_batch(2)
        payload = stats.to_dict(queue_depth=7)
        assert payload["requests_total"] == 100
        assert payload["queue_depth"] == 7
        assert payload["batch_size_histogram"] == {"2": 1, "4": 2}
        assert payload["mean_batch_size"] == pytest.approx(10 / 3)
        assert 45 <= payload["latency_p50_ms"] <= 55
        assert 95 <= payload["latency_p99_ms"] <= 100

    def test_empty_stats_are_all_zero(self):
        payload = ServerStats().to_dict()
        assert payload["latency_p50_ms"] == 0.0
        assert payload["mean_batch_size"] == 0.0


class TestPercentile:
    """Regression tests for the linear-interpolation percentile.

    The previous nearest-rank implementation used ``int(round(...))``, whose
    banker's rounding made small-window p50/p99 jump between neighbouring
    samples (round-half-to-even: a 2-sample window reported p50 as the lower
    sample, a 4-sample window as the upper-middle one).
    """

    def test_single_sample_window_returns_the_sample(self):
        for fraction in (0.0, 0.5, 0.99, 1.0):
            assert percentile([0.042], fraction) == 0.042

    def test_two_sample_window_interpolates(self):
        sample = [0.010, 0.020]
        assert percentile(sample, 0.50) == pytest.approx(0.015)
        assert percentile(sample, 0.99) == pytest.approx(0.0199)
        assert percentile(sample, 0.0) == 0.010
        assert percentile(sample, 1.0) == 0.020

    def test_hundred_sample_window_matches_numpy(self):
        import numpy as np

        sample = [float(value) for value in range(1, 101)]
        for fraction in (0.50, 0.90, 0.99):
            assert percentile(sample, fraction) == pytest.approx(
                float(np.percentile(sample, 100 * fraction))
            )
        assert percentile(sample, 0.50) == pytest.approx(50.5)
        assert percentile(sample, 0.99) == pytest.approx(99.01)

    def test_order_independence(self):
        shuffled = [0.03, 0.01, 0.05, 0.02, 0.04]
        assert percentile(shuffled, 0.5) == 0.03


class TestParseQueryObject:
    """Regression tests: booleans must not pass as entity/relation ids or k.

    ``bool`` subclasses ``int``, so ``True`` used to sail through ``int(k)``
    and resolve as entity id 1 — a silently wrong answer instead of a 400.
    """

    def test_boolean_head_and_relation_rejected(self):
        from repro.serve.server import _parse_query_object

        with pytest.raises(ValueError, match="'head' must not be a boolean"):
            _parse_query_object({"head": True, "relation": 1}, default_k=10)
        with pytest.raises(ValueError, match="'relation' must not be a boolean"):
            _parse_query_object({"head": 0, "relation": False}, default_k=10)
        with pytest.raises(ValueError, match="'head' must not be a boolean"):
            _parse_query_object([True, 1], default_k=10)

    def test_boolean_k_rejected(self):
        from repro.serve.server import _parse_query_object

        with pytest.raises(ValueError, match="'k' must not be a boolean"):
            _parse_query_object({"head": 0, "relation": 1, "k": True}, default_k=10)

    def test_integer_payloads_still_parse(self):
        from repro.serve.server import _parse_query_object

        assert _parse_query_object({"head": 0, "relation": 1, "k": 3}, 10) == (0, 1, 3)
        assert _parse_query_object([2, 1], 10) == (2, 1, 10)

    def test_boolean_query_is_a_400_over_http(self, fitted_reasoner, test_queries):
        import threading
        import urllib.request

        server = ReasoningServer(
            fitted_reasoner,
            config=ServeConfig(max_batch_size=4, max_wait_ms=10),
        )
        httpd = server.http_server("127.0.0.1", 0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        try:
            request = urllib.request.Request(
                f"{base}/query",
                data=json.dumps({"head": True, "relation": 1}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 400
            assert "boolean" in json.loads(excinfo.value.read())["error"]
        finally:
            httpd.shutdown()
            httpd.server_close()
            server.close()
            thread.join(timeout=5)


class TestHTTPFrontEnd:
    @pytest.fixture()
    def http_server(self, fitted_reasoner):
        server = ReasoningServer(
            fitted_reasoner,
            config=ServeConfig(max_batch_size=4, max_wait_ms=10),
        )
        httpd = server.http_server("127.0.0.1", 0)  # ephemeral port
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        try:
            yield base
        finally:
            httpd.shutdown()
            httpd.server_close()
            server.close()
            thread.join(timeout=5)

    def _post(self, url, payload):
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())

    def test_query_roundtrip(self, http_server, fitted_reasoner, test_queries):
        head, relation = test_queries[0]
        status, payload = self._post(
            f"{http_server}/query", {"head": head, "relation": relation, "k": 3}
        )
        assert status == 200
        direct = fitted_reasoner.query(head, relation, k=3)
        assert [p["entity"] for p in payload["predictions"]] == [p.entity for p in direct]

    def test_pair_payload_accepted(self, http_server, test_queries):
        head, relation = test_queries[0]
        status, payload = self._post(f"{http_server}/query", [head, relation])
        assert status == 200
        assert payload["predictions"]

    def test_bad_query_is_a_400_not_a_crash(self, http_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(f"{http_server}/query", {"head": "nope"})
        assert excinfo.value.code == 400
        assert "error" in json.loads(excinfo.value.read())

    def test_unknown_entity_is_a_400(self, http_server, test_queries):
        _, relation = test_queries[0]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(f"{http_server}/query", {"head": "no-such-entity", "relation": relation})
        assert excinfo.value.code == 400

    def test_stats_and_healthz(self, http_server, test_queries):
        head, relation = test_queries[0]
        self._post(f"{http_server}/query", {"head": head, "relation": relation})
        with urllib.request.urlopen(f"{http_server}/stats", timeout=30) as response:
            stats = json.loads(response.read())
        assert stats["requests_total"] >= 1
        assert "latency_p99_ms" in stats and "batch_size_histogram" in stats
        with urllib.request.urlopen(f"{http_server}/healthz", timeout=30) as response:
            payload = json.loads(response.read())
        assert payload["status"] == "ok"
        assert all(model["ready"] for model in payload["models"].values())

    def test_unknown_path_is_a_404(self, http_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{http_server}/nope", timeout=30)
        assert excinfo.value.code == 404


class TestHealthz:
    """Regression: /healthz must flip to 503 the moment a drain starts.

    The endpoint used to answer ``{"status": "ok"}`` unconditionally — load
    balancers kept routing to daemons that were already shutting down.
    """

    def test_unstarted_server_is_unready(self, fitted_reasoner):
        server = ReasoningServer(
            fitted_reasoner,
            config=ServeConfig(max_batch_size=4, max_wait_ms=10),
        )
        healthy, payload = server.healthz_dict()
        assert healthy is False and payload["status"] == "unready"
        server.close()

    def test_running_server_reports_per_model_readiness(self, fitted_reasoner):
        with ReasoningServer(
            fitted_reasoner,
            config=ServeConfig(max_batch_size=4, max_wait_ms=10),
        ) as server:
            server.add_model(reasoner=fitted_reasoner.replicate(), name="replica")
            healthy, payload = server.healthz_dict()
            assert healthy is True and payload["status"] == "ok"
            assert set(payload["models"]) == {fitted_reasoner.name, "replica"}
            assert all(model["ready"] for model in payload["models"].values())

    def test_drain_flips_healthz_before_workers_finish(self, fitted_reasoner):
        server = ReasoningServer(
            fitted_reasoner,
            config=ServeConfig(max_batch_size=4, max_wait_ms=10),
        ).start()
        server.close()
        healthy, payload = server.healthz_dict()
        assert healthy is False
        assert payload["status"] == "draining"
        assert all(model["ready"] is False for model in payload["models"].values())

    def test_http_healthz_returns_503_while_draining(self, fitted_reasoner):
        server = ReasoningServer(
            fitted_reasoner,
            config=ServeConfig(max_batch_size=4, max_wait_ms=10),
        )
        httpd = server.http_server("127.0.0.1", 0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        try:
            with urllib.request.urlopen(f"{base}/healthz", timeout=30) as response:
                assert response.status == 200
            server.close()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{base}/healthz", timeout=30)
            assert excinfo.value.code == 503
            body = json.loads(excinfo.value.read())
            assert body["status"] == "draining"
            assert body["models"] and all(
                model["ready"] is False for model in body["models"].values()
            )
        finally:
            httpd.shutdown()
            httpd.server_close()
            server.close()
            thread.join(timeout=5)


class TestStdioFrontEnd:
    def test_json_lines_roundtrip(self, fitted_reasoner, test_queries):
        (h0, r0), (h1, r1) = test_queries[0], test_queries[1]
        lines = [
            json.dumps({"head": h0, "relation": r0, "k": 3}),
            json.dumps([h1, r1]),
            "not json at all",
            json.dumps({"head": "no-such-entity", "relation": r0}),
        ]
        output = io.StringIO()
        with ReasoningServer(
            fitted_reasoner,
            config=ServeConfig(max_batch_size=4, max_wait_ms=10),
        ) as server:
            failures = server.serve_stdio(io.StringIO("\n".join(lines) + "\n"), output)
        records = [json.loads(line) for line in output.getvalue().splitlines()]
        assert failures == 2
        assert len(records) == 4
        ok = [r for r in records if "predictions" in r]
        failed = [r for r in records if "error" in r]
        assert len(ok) == 2 and len(failed) == 2
        assert ok[0]["head"] == h0 and len(ok[0]["predictions"]) <= 3

    def test_mixed_stream_exit_counts_and_output_order(
        self, fitted_reasoner, test_queries
    ):
        """Satellite: valid, malformed, and unknown-entity lines interleaved.

        Contract: answered lines (including unknown-entity failures, which
        fail at execution time) come back in input order relative to each
        other; lines that cannot even be submitted (malformed JSON, boolean
        fields) are answered immediately with an ``"input"`` echo; the return
        value counts every failed line of either kind.
        """
        (h0, r0), (h1, r1), (h2, r2) = test_queries[0], test_queries[1], test_queries[2]
        lines = [
            json.dumps({"head": h0, "relation": r0, "k": 3}),
            "{broken json",
            json.dumps({"head": "no-such-entity", "relation": r0}),
            json.dumps([h1, r1]),
            json.dumps({"head": True, "relation": r0}),  # boolean: submit-time reject
            json.dumps({"head": h2, "relation": r2, "k": 2}),
        ]
        output = io.StringIO()
        with ReasoningServer(
            fitted_reasoner,
            config=ServeConfig(max_batch_size=4, max_wait_ms=10),
        ) as server:
            failures = server.serve_stdio(io.StringIO("\n".join(lines) + "\n"), output)
        records = [json.loads(line) for line in output.getvalue().splitlines()]
        # 3 failures: broken JSON + unknown entity + boolean head.
        assert failures == 3
        assert len(records) == len(lines)
        # Submitted lines (valid + unknown-entity) are emitted in input order.
        submitted = [r for r in records if "input" not in r]
        assert [r["head"] for r in submitted] == [h0, "no-such-entity", h1, h2]
        assert "error" in submitted[1]
        assert all("predictions" in r for r in (submitted[0], submitted[2], submitted[3]))
        # Unsubmittable lines echo their raw input for correlation.
        unsubmitted = [r for r in records if "input" in r]
        assert [r["input"] for r in unsubmitted] == [lines[1], lines[4]]
        assert all("error" in r for r in unsubmitted)

    def test_all_failures_stream_returns_every_error(self, fitted_reasoner):
        lines = ["nonsense", json.dumps({"head": "ghost", "relation": "ghost-rel"})]
        output = io.StringIO()
        with ReasoningServer(
            fitted_reasoner,
            config=ServeConfig(max_batch_size=2, max_wait_ms=5),
        ) as server:
            failures = server.serve_stdio(io.StringIO("\n".join(lines) + "\n"), output)
        records = [json.loads(line) for line in output.getvalue().splitlines()]
        assert failures == 2
        assert len(records) == 2
        assert all("error" in r for r in records)
