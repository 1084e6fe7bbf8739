"""Tests of the benchmark's own arithmetic.

Run from the repository root::

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from harness import (  # noqa: E402 - the paths above make these importable
    SpeedProbe,
    Tracer,
    covered,
    due_time_latencies,
    follow_flag,
    layer_totals,
    reconcile_error,
    root_total,
    samples_beyond,
    self_times,
    tail,
    window_median,
)
from repro.loadgen.driver import RequestRecord  # noqa: E402


class TestSampleCountRule:
    def test_p90_needs_one_hundred_samples(self):
        assert tail(list(range(99)), 0.90) is None
        value, count = tail(list(range(100)), 0.90)
        assert count == 100
        assert value == pytest.approx(89.1)

    def test_p99_needs_one_thousand_samples(self):
        assert tail([1.0] * 999, 0.99) is None
        assert tail([1.0] * 1000, 0.99) == (1.0, 1000)

    def test_median_needs_twenty_samples(self):
        assert tail([0.0] * 19, 0.50) is None
        assert tail([0.0] * 20, 0.50) == (0.0, 20)

    def test_window_median_takes_the_median_of_window_percentiles(self):
        windows = [list(range(100)), list(range(100, 200)), [1000.0] * 100]
        assert window_median(windows, 0.50) == pytest.approx(149.5)
        assert window_median(windows, 0.90) == pytest.approx(189.1)
        # One window too small for its p90 withholds the figure.
        assert window_median(windows + [[0.0] * 99], 0.90) is None
        assert window_median([], 0.50) is None

    @pytest.mark.parametrize(
        "count, fraction, beyond",
        [(100, 0.90, 10), (1000, 0.99, 10), (1999, 0.99, 19), (0, 0.5, 0), (10, 0.0, 10)],
    )
    def test_samples_beyond(self, count, fraction, beyond):
        assert samples_beyond(count, fraction) == beyond


def span(name, start, end, parent=None, tag=None):
    return (name, start, end, parent, tag, 0)


class TestSelfTime:
    def test_duration_minus_children(self):
        spans = [
            span("root", 0.0, 10.0),
            span("a", 1.0, 3.0, parent=0),
            span("b", 4.0, 8.0, parent=0),
            span("c", 5.0, 6.0, parent=2),
        ]
        assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])

    def test_overlapping_children_count_once(self):
        # Children on other threads may overlap each other in time.
        spans = [span("root", 0.0, 10.0), span("a", 1.0, 5.0, 0), span("b", 3.0, 7.0, 0)]
        assert self_times(spans)[0] == pytest.approx(4.0)

    def test_children_are_clipped_to_the_parent(self):
        assert covered((2.0, 6.0), [(0.0, 3.0), (5.0, 9.0), (7.0, 8.0)]) == pytest.approx(2.0)

    def test_open_spans_are_ignored(self):
        spans = [span("root", 0.0, 2.0), None, span("a", 0.5, 1.0, 0)]
        assert self_times(spans) == pytest.approx([1.5, 0.0, 0.5])

    def test_layer_totals_sum_busy_and_self(self):
        spans = [
            span("root", 0.0, 10.0),
            span("a", 1.0, 3.0, 0),
            span("a", 4.0, 5.0, 0),
        ]
        totals = layer_totals(spans)
        assert totals["a"] == {"busy": pytest.approx(3.0), "self": pytest.approx(3.0), "calls": 2}
        assert totals["root"]["self"] == pytest.approx(7.0)


def record(index, planned, submitted, completed, error=None):
    return RequestRecord(
        index=index,
        model="m",
        head=0,
        relation=0,
        k=1,
        planned_offset_s=planned,
        submitted_s=submitted,
        completed_s=completed,
        error=error,
    )


class TestDueTimeLatency:
    def test_latency_runs_from_the_planned_offset(self):
        latencies, lateness = due_time_latencies(
            [record(0, 1.0, 1.0, 1.25), record(1, 1.5, 1.75, 2.0)]
        )
        # The second request was submitted 0.25 s late and answered in
        # 0.25 s; it was due 0.5 s before its answer arrived.
        assert latencies == pytest.approx([0.25, 0.5])
        assert lateness == pytest.approx([0.0, 0.25])

    def test_failed_and_unsent_requests_are_skipped(self):
        latencies, lateness = due_time_latencies(
            [record(0, 0.0, 0.1, 0.2, error="boom"), record(1, 0.0, None, None)]
        )
        assert latencies == [] and lateness == []


class TestSpeedProbe:
    def test_factor_uses_the_median_of_nearby_probes(self):
        probe = SpeedProbe()
        probe.times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        reference = SpeedProbe.REFERENCE_S
        probe.durations = [reference * ratio for ratio in (1, 1, 2, 9, 2, 2)]
        # Around t=4.5 sit the probes at 3, 4 | 5, 6: the 9x outlier is ignored.
        assert probe.factor(4.5) == pytest.approx(0.5)
        # Before the first probe only the first two count.
        assert probe.factor(0.0) == pytest.approx(1.0)

    def test_timing_the_snippet_records_a_sample(self):
        probe = SpeedProbe()
        duration = probe()
        assert probe.durations == [duration] and duration > 0
        assert probe.factor(probe.times[0]) == pytest.approx(SpeedProbe.REFERENCE_S / duration)


class Layer:
    def outer(self, depth):
        return self.inner(depth)

    def inner(self, depth):
        return depth if depth == 0 else self.inner(depth - 1)

    @classmethod
    def build(cls, value):
        return value * 2


class TestTracer:
    def test_nesting_recursion_and_uninstall(self):
        originals = dict(Layer.__dict__)
        tracer = Tracer()
        tracer.wrap(Layer, "outer", "layer.outer", tag_of=lambda args, kwargs: args[1])
        tracer.wrap(Layer, "inner", "layer.inner", count="inner.calls")
        tracer.wrap(Layer, "build", "layer.build")
        tracer.enabled = True
        assert Layer().outer(2) == 0
        assert Layer.build(3) == 6
        tracer.enabled = False
        Layer().outer(0)  # disabled: not recorded
        spans = tracer.spans
        assert [s[0] for s in spans] == ["layer.outer", "layer.inner", "layer.build"]
        assert spans[0][3] is None and spans[0][4] == 2
        assert spans[1][3] == 0  # recursion into inner recorded once
        assert tracer.counts == {"inner.calls": 3}
        tracer.uninstall()
        assert all(Layer.__dict__[name] is originals[name] for name in ("outer", "inner", "build"))

    def test_threads_keep_separate_stacks(self):
        tracer = Tracer()
        tracer.wrap(Layer, "inner", "layer.inner")
        tracer.enabled = True
        threads = [threading.Thread(target=Layer().inner, args=(0,)) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        tracer.uninstall()
        spans = tracer.spans
        assert len(spans) == 4
        assert all(s[3] is None for s in spans)
        assert len({s[5] for s in spans}) == 4

    def test_dump_and_absorb_keep_the_tree(self, tmp_path):
        worker = Tracer()
        worker.wrap(Layer, "outer", "layer.outer")
        worker.wrap(Layer, "inner", "layer.inner", count="inner.calls")
        worker.enabled = True
        Layer().outer(1)
        worker.uninstall()
        worker.dump(tmp_path / "worker.json")
        parent = Tracer()
        parent.wrap(Layer, "inner", "layer.inner")
        parent.enabled = True
        Layer().inner(0)
        parent.uninstall()
        parent.absorb(tmp_path / "worker.json")
        spans = parent.spans
        assert [s[0] for s in spans] == ["layer.inner", "layer.outer", "layer.inner"]
        # The absorbed child still points at its absorbed parent.
        assert spans[2][3] == 1 and spans[1][3] is None
        assert spans[1][5] == spans[2][5] != spans[0][5]
        assert parent.counts == {"inner.calls": 2}

    def test_follow_flag_records_while_the_flag_exists(self, tmp_path):
        tracer = Tracer()
        tracer.wrap(Layer, "inner", "layer.inner")
        flag, out = tmp_path / "on", tmp_path / "spans.json"
        follow_flag(tracer, flag, out, poll_s=0.005)
        Layer().inner(0)  # before the flag: not recorded
        flag.touch()
        deadline = time.monotonic() + 10
        while not tracer.enabled and time.monotonic() < deadline:
            time.sleep(0.005)
        Layer().inner(0)
        flag.unlink()
        while not out.exists() and time.monotonic() < deadline:
            time.sleep(0.005)
        tracer.uninstall()
        absorbed = Tracer()
        absorbed.absorb(out)
        assert [s[0] for s in absorbed.spans] == ["layer.inner"]


class TestReconcile:
    def test_roots_are_the_spans_without_a_parent(self):
        spans = [
            span("call", 0.0, 2.0),
            span("layer", 0.5, 1.5, parent=0),
            None,
            span("call", 3.0, 3.5),
        ]
        assert root_total(spans) == pytest.approx(2.5)

    def test_error_is_the_miss_as_a_share_of_the_whole(self):
        assert reconcile_error(2.5, 2.6) == pytest.approx(0.1 / 2.6)
        assert reconcile_error(2.7, 2.6) == pytest.approx(0.1 / 2.6)
        assert reconcile_error(1.0, 0.0) == 0.0
