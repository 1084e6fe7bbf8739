"""Measurement helpers of the repository benchmark: tails, due times, spans.

Everything here is plain arithmetic over recorded numbers, kept apart from
the workloads so ``test_harness.py`` can pin it without building a model:

* :func:`tail` applies the sample-count rule: a percentile is only reported
  when at least :data:`MIN_BEYOND` samples lie beyond it, and
  :func:`window_median` takes it per window of a run;
* :func:`due_time_latencies` times open-loop requests from when they were
  due, not from when the generator got round to submitting them;
* :class:`SpeedProbe` times a fixed snippet next to the measured work, so
  durations measured while a shared host runs slow can be scaled to a
  reference speed;
* :class:`Tracer` records spans (name, start, end, parent, tag) in memory
  through wrappers installed on public functions at run time, and
  :func:`self_times` subtracts the part of each span its children cover;
  :func:`follow_flag` lets a worker process trace while a flag file exists
  and hand its spans to the parent through a file;
* :func:`reconcile_error` compares the span or stage parts of a run with an
  end-to-end total clocked separately.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import os
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.loadgen.metering import percentile

# A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def samples_beyond(count: int, fraction: float) -> int:
    """How many of ``count`` samples lie beyond the ``fraction`` percentile."""
    return math.floor(count * (1.0 - fraction) + 1e-9)


def tail(samples: Sequence[float], fraction: float) -> Optional[Tuple[float, int]]:
    """``(percentile, sample count)``, or ``None`` when the sample is too small.

    p90 therefore needs at least 100 samples and p99 at least 1,000.
    """
    if samples_beyond(len(samples), fraction) < MIN_BEYOND:
        return None
    return percentile(samples, fraction), len(samples)


def window_median(windows: Sequence[Sequence[float]], fraction: float) -> Optional[float]:
    """Median over ``windows`` of each window's ``fraction`` percentile.

    ``None`` when a window is too small for :func:`tail`.  A stretch where a
    shared host runs slow then moves the windows it falls in, not the
    figure of the whole run.
    """
    tails = [tail(window, fraction) for window in windows]
    if not tails or any(value is None for value in tails):
        return None
    return statistics.median(value for value, _ in tails)


def answered(records) -> List:
    """The open-loop records that were submitted and answered without error."""
    return [record for record in records if record.ok and record.submitted_s is not None]


def due_time_latencies(records) -> Tuple[List[float], List[float]]:
    """Latency from due time and generator lateness of answered open-loop requests.

    ``records`` are :class:`repro.loadgen.driver.RequestRecord` objects.  A
    request delayed by a stalled generator waited from its planned offset,
    so its latency is ``completed_s - planned_offset_s``; how late the
    generator submitted it is ``submitted_s - planned_offset_s``.
    """
    latencies, lateness = [], []
    for record in answered(records):
        latencies.append(record.completed_s - record.planned_offset_s)
        lateness.append(record.submitted_s - record.planned_offset_s)
    return latencies, lateness


class SpeedProbe:
    """How fast this process runs a fixed Python + NumPy snippet, over time.

    On a shared host the CPU speed one process gets swings by up to 2x
    within seconds, and every CPU-bound operation stretches with it.  The
    workloads time this snippet next to their operations; :meth:`factor`
    then says by how much a duration measured at a given moment shrinks or
    grows at the reference speed, where the snippet takes
    :data:`REFERENCE_S`.  The snippet mixes interpreter work and small
    matrix products in about the proportions of the program's own steps.
    """

    REFERENCE_S = 0.0008

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._left = rng.standard_normal((64, 48))
        self._right = rng.standard_normal((48, 32))
        self.times: List[float] = []
        self.durations: List[float] = []

    def __call__(self) -> float:
        start = time.perf_counter()
        total = 0
        for step in range(4000):
            total += step
        for _ in range(40):
            np.tanh(self._left @ self._right).sum()
        end = time.perf_counter()
        self.times.append(0.5 * (start + end))
        self.durations.append(end - start)
        return end - start

    def factor(self, at: float) -> float:
        """Reference over measured probe time, from the probes around ``at``.

        The median of the two probes on either side keeps one probe that an
        interrupt happened to stretch from skewing the operation it brackets.
        """
        index = bisect.bisect(self.times, at)
        around = self.durations[max(0, index - 2) : index + 2]
        return self.REFERENCE_S / statistics.median(around)


def covered(interval: Tuple[float, float], children: Iterable[Tuple[float, float]]) -> float:
    """Length of the part of ``interval`` that the union of ``children`` covers."""
    low, high = interval
    clipped = sorted(
        (max(low, start), min(high, end))
        for start, end in children
        if end > low and start < high
    )
    total = 0.0
    reach = low
    for start, end in clipped:
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[tuple]) -> List[float]:
    """Each span's duration minus the time its child spans cover.

    ``spans`` are ``(name, start, end, parent, tag, thread)`` tuples where
    ``parent`` is the index of the enclosing span or ``None``; a span still
    open when the run ended is ``None`` and gets no self time.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span is not None and span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    return [
        0.0
        if span is None
        else (span[2] - span[1]) - covered((span[1], span[2]), children.get(index, ()))
        for index, span in enumerate(spans)
    ]


class _ThreadLog:
    """One thread's spans, open-span stack and counters (no locking needed)."""

    def __init__(self, thread: int):
        self.thread = thread
        self.spans: List[Optional[tuple]] = []
        self.stack: List[Tuple[str, int]] = []
        self.counts: Dict[str, int] = defaultdict(int)


class Tracer:
    """In-memory span recorder fed by wrappers around public functions.

    Spans nest per thread: a span opened while another is open on the same
    thread becomes its child.  A function already open on the thread under
    the same span name (recursion, or two wrapped entry points of one layer
    calling each other) is not recorded twice.  Each thread writes its own
    log, so recording takes no lock.  Wrappers are installed with
    :meth:`wrap` and removed with :meth:`uninstall`; the program's code is
    never edited.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._logs: List[_ThreadLog] = []
        self._lock = threading.Lock()
        self._installed: List[Tuple[object, str, object]] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            with self._lock:
                log = _ThreadLog(len(self._logs))
                self._logs.append(log)
            self._local.log = log
        return log

    @property
    def counts(self) -> Dict[str, int]:
        merged: Dict[str, int] = defaultdict(int)
        for log in self._logs:
            for name, amount in log.counts.items():
                merged[name] += amount
        return dict(merged)

    @property
    def spans(self) -> List[Optional[tuple]]:
        """Every thread's spans in one list, parents re-indexed to match.

        Rows are ``(name, start, end, parent, tag, thread)``; a span still
        open is ``None``.
        """
        merged: List[Optional[tuple]] = []
        for log in self._logs:
            offset = len(merged)
            for span in log.spans:
                if span is not None and span[3] is not None:
                    span = span[:3] + (span[3] + offset,) + span[4:]
                merged.append(span)
        return merged

    def wrap(
        self, owner, attribute: str, name: str, tag_of=None, count: Optional[str] = None
    ) -> None:
        """Replace ``owner.attribute`` by a recording wrapper.

        ``tag_of(args, kwargs)`` optionally derives the span tag (a request
        or batch id); ``count`` names a counter bumped on every call.
        """
        raw = owner.__dict__[attribute]
        unwrapped = raw.__func__ if isinstance(raw, classmethod) else raw
        tracer = self

        @functools.wraps(unwrapped)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return unwrapped(*args, **kwargs)
            log = tracer._log()
            if count is not None:
                log.counts[count] += 1
            stack = log.stack
            if stack and stack[-1][0] == name:
                return unwrapped(*args, **kwargs)
            tag = tag_of(args, kwargs) if tag_of is not None else None
            spans = log.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1][1] if stack else None
            stack.append((name, index))
            start = time.perf_counter()
            try:
                return unwrapped(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, tag, log.thread)

        if isinstance(raw, classmethod):
            wrapper = classmethod(wrapper)
        setattr(owner, attribute, wrapper)
        self._installed.append((owner, attribute, raw))

    def uninstall(self) -> None:
        for owner, attribute, raw in reversed(self._installed):
            setattr(owner, attribute, raw)
        self._installed = []
        self.enabled = False

    def dump(self, path: Path) -> None:
        """Write every span as JSON: one ``[name, start, end, parent, tag, thread]`` row each.

        The file appears complete or not at all, so another process polling
        for it never reads half of it.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        partial = path.with_name(path.name + ".part")
        with open(partial, "w", encoding="utf-8") as handle:
            fields = ["name", "start", "end", "parent", "tag", "thread"]
            json.dump({"fields": fields, "spans": self.spans, "counts": self.counts}, handle)
        os.replace(partial, path)

    def absorb(self, path: Path) -> None:
        """Add the spans and counters another process dumped to ``path``.

        They become one more log, so their parent indices stay valid; every
        span of that process is given the log's thread number.  Span times
        from ``time.perf_counter`` share one clock across the processes of
        a host, so they line up with this process's own spans.
        """
        with open(path, encoding="utf-8") as handle:
            dumped = json.load(handle)
        with self._lock:
            log = _ThreadLog(len(self._logs))
            self._logs.append(log)
        log.spans = [
            None if row is None else tuple(row[:5]) + (log.thread,) for row in dumped["spans"]
        ]
        log.counts.update(dumped["counts"])


def follow_flag(tracer: Tracer, flag: Path, out: Path, poll_s: float = 0.02) -> threading.Thread:
    """Trace while ``flag`` exists; dump the spans to ``out`` once it is gone.

    Runs in a daemon thread of a worker process whose wrappers were
    installed at start-up, so the parent can switch tracing on and off
    across processes by creating and deleting one file.
    """

    def follow() -> None:
        while True:
            present = flag.exists()
            if present and not tracer.enabled:
                tracer.enabled = True
            elif not present and tracer.enabled:
                tracer.enabled = False
                tracer.dump(out)
            time.sleep(poll_s)

    thread = threading.Thread(target=follow, name="trace-flag", daemon=True)
    thread.start()
    return thread


def reconcile_error(parts: float, whole: float) -> float:
    """How far ``parts`` misses a separately clocked ``whole``, as a share of it."""
    return abs(parts - whole) / whole if whole else 0.0


def root_total(spans: Sequence[tuple]) -> float:
    """Summed duration of the spans no other span encloses."""
    return sum(span[2] - span[1] for span in spans if span is not None and span[3] is None)


def layer_totals(spans: Sequence[tuple]) -> Dict[str, Dict[str, float]]:
    """Per span name: busy time (sum of durations), self time and span count."""
    selfs = self_times(spans)
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"busy": 0.0, "self": 0.0, "calls": 0}
    )
    for span, own in zip(spans, selfs):
        if span is None:
            continue
        entry = totals[span[0]]
        entry["busy"] += span[2] - span[1]
        entry["self"] += own
        entry["calls"] += 1
    return dict(totals)
