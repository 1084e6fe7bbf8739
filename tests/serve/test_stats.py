"""ServerStats: window rollover, error accounting, queue depth, stage breakdown."""

from __future__ import annotations

import time

import pytest

from repro.serve.batcher import DynamicBatcher
from repro.serve.server import (
    _LATENCY_WINDOW,
    STAGES,
    ReasoningServer,
    ServeConfig,
    ServerStats,
)


class TestLatencyWindowRollover:
    def test_window_drops_oldest_at_boundary(self):
        stats = ServerStats()
        overflow = 10
        for i in range(_LATENCY_WINDOW + overflow):
            stats.record_request(float(i))
        # Counters are cumulative; the percentile window is sliding.
        assert stats.requests_total == _LATENCY_WINDOW + overflow
        assert len(stats._latencies) == _LATENCY_WINDOW
        # p0 == the oldest surviving sample: the first `overflow` rolled out.
        assert stats.latency_percentile_ms(0.0) == pytest.approx(1000.0 * overflow)
        assert stats.latency_percentile_ms(1.0) == pytest.approx(
            1000.0 * (_LATENCY_WINDOW + overflow - 1)
        )

    def test_stage_windows_roll_independently(self):
        stats = ServerStats()
        for i in range(_LATENCY_WINDOW + 5):
            stats.record_stage_times(float(i), 0.0, 0.0)
        samples = stats.stage_samples()
        assert len(samples["queue_wait"]) == _LATENCY_WINDOW
        assert samples["queue_wait"][0] == 5.0
        # The other stages saw the same number of records, all zero.
        assert len(samples["compute"]) == _LATENCY_WINDOW
        assert stats.stage_percentile_ms("compute", 0.99) == 0.0


class TestErrorAccounting:
    def test_error_rate_counts_only_errors(self):
        stats = ServerStats()
        assert stats.error_rate() == 0.0  # no traffic yet: not a division error
        for i in range(8):
            stats.record_request(0.001, error=(i % 4 == 0))
        assert stats.requests_total == 8 and stats.errors_total == 2
        assert stats.error_rate() == pytest.approx(0.25)
        payload = stats.to_dict()
        assert payload["errors_total"] == 2 and payload["requests_total"] == 8


class TestQueueDepthSnapshot:
    def test_to_dict_reports_passed_depth(self):
        stats = ServerStats()
        assert stats.to_dict(queue_depth=7)["queue_depth"] == 7
        assert stats.to_dict()["queue_depth"] == 0

    def test_depth_tracks_unconsumed_batcher_queue(self):
        batcher = DynamicBatcher(max_batch_size=4, max_wait_ms=1.0)
        try:
            for payload in range(3):
                batcher.submit(payload)
            stats = ServerStats()
            assert stats.to_dict(queue_depth=batcher.depth)["queue_depth"] == 3
            batcher.next_batch(timeout=0.05)
            assert stats.to_dict(queue_depth=batcher.depth)["queue_depth"] == 0
        finally:
            batcher.close()


class TestStageBreakdown:
    def test_idle_stats_report_zeroed_stages(self):
        payload = ServerStats().to_dict()
        assert set(payload["stages"]) == {f"{stage}_ms" for stage in STAGES}
        for block in payload["stages"].values():
            assert block == {"mean": 0.0, "p50": 0.0, "p99": 0.0}

    def test_recorded_stages_surface_in_to_dict(self):
        stats = ServerStats()
        stats.record_stage_times(0.010, 0.002, 0.030)
        stats.record_stage_times(0.020, 0.004, 0.050)
        payload = stats.to_dict()["stages"]
        assert payload["queue_wait_ms"]["mean"] == pytest.approx(15.0)
        assert payload["queue_wait_ms"]["p50"] == pytest.approx(15.0)
        assert payload["batch_wait_ms"]["p99"] == pytest.approx(3.98)
        assert payload["compute_ms"]["mean"] == pytest.approx(40.0)
        assert stats.stage_percentile_ms("compute", 0.5) == pytest.approx(40.0)

    def test_stage_samples_returns_snapshot_copy(self):
        stats = ServerStats()
        stats.record_stage_times(0.001, 0.001, 0.001)
        snapshot = stats.stage_samples()
        snapshot["compute"].append(999.0)
        assert stats.stage_samples()["compute"] == [0.001]


class _SleepyReasoner:
    """A stub model with measurable compute time, for end-to-end stage tests."""

    name = "sleepy"

    def __init__(self, delay_s: float = 0.004):
        self.delay_s = delay_s

    def query(self, head, relation, k: int = 10):
        time.sleep(self.delay_s)
        return []

    def query_batch(self, queries, k: int = 10):
        time.sleep(self.delay_s)
        return [[] for _ in queries]


class TestEndToEndStageTiming:
    def test_served_requests_populate_every_stage(self):
        server = ReasoningServer(
            _SleepyReasoner(),
            config=ServeConfig(max_batch_size=4, max_wait_ms=2.0, workers=1),
        ).start()
        try:
            futures = [server.submit(0, 0, k=1) for _ in range(12)]
            for future in futures:
                future.result(timeout=10.0)
        finally:
            server.close()
        stats = server.pool.stats_for("sleepy")
        samples = stats.stage_samples()
        assert all(len(samples[stage]) == 12 for stage in STAGES)
        # Compute dominates for a sleeping model, and every stage is sane.
        assert stats.stage_percentile_ms("compute", 0.5) >= 3.0
        assert all(v >= 0.0 for stage in STAGES for v in samples[stage])
        # The stage split roughly reassembles the end-to-end latency.
        total_p50 = sum(stats.stage_percentile_ms(stage, 0.5) for stage in STAGES)
        assert total_p50 <= stats.latency_percentile_ms(0.5) * 3 + 5.0
