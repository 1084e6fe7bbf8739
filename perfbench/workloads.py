"""The four workloads of the repository benchmark.

Each workload builds its inputs from the seed, reaches the program only
through public entry points, and checks what comes back:

* ``kg_wide``        — ``Reasoner.query_batch`` over a memory-mapped 100k-entity
  CSR graph whose working set dwarfs both LRU caches (closed loop, 1 caller);
* ``train_fb``       — cycles of one ``ReinforceTrainer.fit`` mini-batch and one
  Table III ``evaluate_entity_prediction`` chunk on ``fb-img-txt`` x6;
* ``http_keepalive`` — single-query ``POST /query`` over two keep-alive
  connections to ``ReasoningServer.http_server`` (closed loop, 2 clients);
* ``burst_procs``    — seeded Poisson arrivals at a fixed rate through
  ``ReasoningServer.submit`` on the process backend (open loop).

A workload object holds one set-up; the runner measures the first one and
builds more afterwards only to time set-up.  ``measure`` runs for at least
the requested seconds and, on the closed loops, for at least ``MIN_OPS``
operations, so that the p90 of the operation latency rests on 10 or more
samples beyond it.

``kg_wide`` and ``train_fb`` report their times at the reference speed of
:class:`~harness.SpeedProbe`, because the CPU speed of a shared host swings
by up to 2x within seconds.  The probe is only timed while the program is
idle, between the calls of these one-caller closed loops.  The serving
workloads are reported as measured: their latency is dominated by fixed
timers (the 40 ms delayed ACK of ``http_keepalive``, the batcher's wait)
and by waking threads and processes, which a single-thread probe does not
track; scaled ``burst_procs`` latencies spread more from run to run than
raw ones.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from harness import (
    SpeedProbe,
    Tracer,
    due_time_latencies,
    follow_flag,
    layer_totals,
    reconcile_error,
    root_total,
    self_times,
    tail,
)
from repro.core import evaluator
from repro.core.config import EvaluationConfig, fast_preset
from repro.core.trainer import MMKGRPipeline
from repro.kg.csr import CSRKnowledgeGraph
from repro.kg.datasets import build_named_dataset
from repro.kg.synthetic import ScaleFreeKGConfig, generate_scale_free_graph
from repro.loadgen.driver import run_plan
from repro.loadgen.workload import PlannedRequest, WorkloadPlan, poisson_offsets, query_mix
from repro.rl.reinforce import ReinforceConfig, ReinforceTrainer
from repro.serve import ReasoningServer, ServeConfig
from repro.serve.reasoner import reasoner_over_graph

# Hard stop for a closed loop that cannot collect its samples; a run must
# end within 180 s, set-ups included.
MAX_MEASURE_S = 60.0
# Answers are compared with a direct in-process query_batch within this.
SCORE_TOLERANCE = 1e-9

FB = "fb-img-txt"
# train_fb trains on fb-img-txt x6.  The serving workloads host fb x2: its
# set-up takes about 2 s instead of 10 s, which a run repeats twice, and
# the serving layers they time (sockets, batcher, worker IPC) do not grow
# with the graph, which fits the caches at either scale.
TRAIN_SCALE = 6.0
SERVE_SCALE = 2.0
# Graphs, datasets and model weights come from this fixed seed; --seed
# draws the traffic (queries, arrivals, training order).  Workload size
# then stays the same from seed to seed, so run-to-run spread measures the
# program and not the luck of one generated graph's hub structure.
DATA_SEED = 7
# A traced run fails when its parts miss the separately clocked total by more.
RECONCILE_LIMIT = 0.10
# While this file exists in the work directory, traced worker processes record.
TRACE_FLAG = "trace_on"


def _vm_kib(pid, field_name: str) -> float:
    """A ``/proc/<pid>/status`` memory field in KiB (0 when unavailable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field_name + ":"):
                    return float(line.split()[1])
    except OSError:
        pass
    return 0.0


def peak_rss_mb(pids: Sequence[int] = ()) -> float:
    """Peak resident set of this process plus the given live processes, MiB."""
    return sum(_vm_kib(pid, "VmHWM") for pid in ("self", *pids)) / 1024.0


def answer_problems(answers, k: int) -> List[str]:
    """Structural problems of one answer list (empty when it is well formed)."""
    problems = []
    if not answers:
        problems.append("empty answer")
    if len(answers) > k:
        problems.append(f"{len(answers)} predictions for k={k}")
    scores = [score for _, score in answers]
    if any(not math.isfinite(score) for score in scores):
        problems.append("non-finite score")
    if any(later > earlier for earlier, later in zip(scores, scores[1:])):
        problems.append("scores not in descending order")
    return problems


def compare_answers(observed, expected) -> Optional[str]:
    """``None`` when two ``[(entity, score), ...]`` rankings agree."""
    if [entity for entity, _ in observed] != [entity for entity, _ in expected]:
        return f"entity order {observed} != {expected}"
    for (_, got), (_, want) in zip(observed, expected):
        if abs(got - want) > SCORE_TOLERANCE:
            return f"score {got!r} != {want!r}"
    return None


def pairs(predictions) -> List[Tuple[int, float]]:
    return [(p.entity, p.score) for p in predictions]


def fb_pipeline(scale: float) -> MMKGRPipeline:
    """``fb-img-txt`` at ``scale`` with TransE structure and an untrained policy."""
    dataset = build_named_dataset(FB, scale=scale, seed=DATA_SEED)
    pipeline = MMKGRPipeline(dataset, preset=fast_preset(), rng=DATA_SEED)
    pipeline.build()
    return pipeline


@dataclass
class Outcome:
    """What one measured run of a workload produced.

    ``elapsed_s`` and ``latencies_s`` are at the reference speed of
    :class:`~harness.SpeedProbe` where the workload scales them, as
    measured otherwise; ``named`` also carries the unscaled figures.
    """

    elapsed_s: float
    work: int
    latencies_s: List[float]
    attempted: int
    failed_ops: set = field(default_factory=set)
    problems: List[str] = field(default_factory=list)
    # Per-workload metrics for the human-readable table: name -> (value, unit[, n]).
    named: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    # Unscaled time that layer shares divide: time inside the public calls
    # (closed loops with one caller) or summed request latency (serving).
    e2e_s: float = 0.0
    # ``latencies_s`` split into the windows the latency percentiles are
    # taken over (see :func:`harness.window_median`); empty means one.
    windows: List[List[float]] = field(default_factory=list)
    context: dict = field(default_factory=dict)

    def fail(self, op, problem: str) -> None:
        self.failed_ops.add(op)
        if len(self.problems) < 20:
            self.problems.append(problem)

    @property
    def throughput(self) -> float:
        return self.work / self.elapsed_s


class Workload:
    """One set-up of a workload: build, measure, check, close."""

    name = ""
    # Set-ups timed per end-to-end run; ``setup_s`` is their median.  Two
    # keep runs short: one train_fb set-up alone takes about 10 s.
    SETUP_REPEATS = 2
    # Fewest operations a closed loop measures, whatever --seconds says.
    MIN_OPS = 200

    # Share of answers re-computed in process for the output check.
    CHECK_SHARE = 1 / 8

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        raise NotImplementedError

    def fingerprint(self):
        """A value that two set-ups from one seed must reproduce exactly."""
        return None

    def measure(self, seconds: float) -> Outcome:
        raise NotImplementedError

    def verify(self, outcome: Outcome) -> None:
        """Re-answer the kept ``(op, query, ranking)`` answers in process.

        Runs after timing.  The kept queries are shuffled so the direct
        ``query_batch`` calls batch them differently from the measured ones.
        On the thread backend the reasoner is the server's own worker
        replica; the measurement has joined every client by now, so no
        request is in flight while it answers here.
        """
        kept = outcome.context.get("kept", [])
        np.random.default_rng(self.seed + 2).shuffle(kept)
        for start in range(0, len(kept), 64):
            chunk = kept[start : start + 64]
            expected = self.reasoner.query_batch([query for _, query, _ in chunk], k=self.K)
            for (op, query, observed), reference in zip(chunk, expected):
                mismatch = compare_answers(observed, pairs(reference))
                if mismatch is not None:
                    outcome.fail(op, f"{query}: {mismatch}")

    def headline(self, outcome: Outcome) -> float:
        """The figure tracing overhead is expressed on (higher is worse)."""
        return 1.0 / outcome.throughput

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def worker_pids(self) -> List[int]:
        """Processes that run the model for this workload besides this one."""
        return []

    def close(self) -> None:
        pass


def scaled(
    probe: SpeedProbe, durations: Sequence[float], midpoints: Sequence[float]
) -> List[float]:
    """``durations`` at the probe's reference speed, each by the probes around it."""
    return [duration * probe.factor(mid) for duration, mid in zip(durations, midpoints)]


def _closed_loop_done(started: float, seconds: float, samples: int, min_ops: int) -> bool:
    elapsed = time.perf_counter() - started
    if elapsed >= MAX_MEASURE_S:
        return True
    return elapsed >= seconds and samples >= min_ops


# --------------------------------------------------------------------- kg_wide
class KgWide(Workload):
    name = "kg_wide"
    ENTITIES = 100_000
    RELATIONS = 24
    DEGREE = 8.0
    BATCH = 64
    K = 5
    WARMUP_BATCHES = 8
    # The slowest tenth of batches are those drawing several hub heads; a
    # p90 over 200 batches moved by up to a fifth from seed to seed, over
    # 300 by under a tenth.
    MIN_OPS = 300
    # Batches are costly to re-answer; one query in 32 still checks ~500.
    CHECK_SHARE = 1 / 32

    def setup(self) -> None:
        config = ScaleFreeKGConfig(
            num_entities=self.ENTITIES,
            num_relations=self.RELATIONS,
            avg_degree=self.DEGREE,
            seed=DATA_SEED,
        )
        directory = self.work / "kg_wide_graph"
        shutil.rmtree(directory, ignore_errors=True)
        generate_scale_free_graph(config).save(directory)
        self.graph = CSRKnowledgeGraph.load(directory, mmap=True)
        self.triples = np.asarray(self.graph.triples_array()[:, :2])
        self.reasoner = reasoner_over_graph(self.graph, name="kg-wide", rng=DATA_SEED)
        self.rng = np.random.default_rng(self.seed)
        self.check_rng = np.random.default_rng(self.seed + 1)
        for _ in range(self.WARMUP_BATCHES):
            self.reasoner.query_batch(self._draw(), k=self.K)

    def _draw(self) -> List[Tuple[int, int]]:
        rows = self.rng.integers(0, len(self.triples), size=self.BATCH)
        return [(int(head), int(relation)) for head, relation in self.triples[rows]]

    def measure(self, seconds: float) -> Outcome:
        raw: List[float] = []
        midpoints: List[float] = []
        kept = []
        outcome = Outcome(0.0, 0, [], 0)
        rows_before = self.graph.row_cache_stats()
        cache_before = self.reasoner.cache_stats()
        probe = SpeedProbe()
        probe()
        started = time.perf_counter()
        while not _closed_loop_done(started, seconds, len(raw), self.MIN_OPS):
            batch = self._draw()
            begin = time.perf_counter()
            try:
                answers = self.reasoner.query_batch(batch, k=self.K)
            except Exception as error:  # a failed call is a failed operation
                answers = None
                outcome.fail(outcome.attempted, f"query_batch raised {error!r}")
            end = time.perf_counter()
            probe()
            raw.append(end - begin)
            midpoints.append(0.5 * (begin + end))
            if answers is not None:
                outcome.work += len(answers)
                if len(answers) != len(batch):
                    outcome.fail(outcome.attempted, "one answer list per query expected")
                for query, predictions in zip(batch, answers):
                    ranking = pairs(predictions)
                    for problem in answer_problems(ranking, self.K):
                        outcome.fail(outcome.attempted, f"{query}: {problem}")
                    if self.check_rng.random() < self.CHECK_SHARE:
                        kept.append((outcome.attempted, query, ranking))
            outcome.attempted += 1
        latencies = outcome.latencies_s = scaled(probe, raw, midpoints)
        outcome.elapsed_s = sum(latencies)
        outcome.e2e_s = sum(raw)
        outcome.context = {
            "rows": (rows_before, self.graph.row_cache_stats()),
            "cache": (cache_before, self.reasoner.cache_stats()),
            "kept": kept,
        }
        outcome.named = {
            "queries_per_s": (outcome.throughput, "1/s"),
            "queries_per_s_unscaled": (outcome.work / sum(raw), "1/s"),
            "batch_ms_p50": (1000.0 * float(np.median(latencies)), "ms"),
            "batch_ms_p50_unscaled": (1000.0 * float(np.median(raw)), "ms"),
        }
        p90 = tail(latencies, 0.90)
        if p90 is not None:
            outcome.named["batch_ms_p90"] = (1000.0 * p90[0], "ms", p90[1])
        return outcome


# -------------------------------------------------------------------- train_fb
class TrainFb(Workload):
    name = "train_fb"
    BATCH = 64
    # One operation is a cycle: one 64-episode REINFORCE mini-batch, then
    # Table III evaluation of the next 8 held-out triples.  That keeps the
    # mix of 8 training episodes per evaluated triple (two epochs over the
    # 6,107 training triples, one pass over the 1,526 held out) inside every
    # timed operation, so the latency percentiles describe one kind of work.
    TRAIN_PER_CYCLE = 1
    EVAL_CHUNK = 8
    # p90 of the cycle time then rests on 15 cycles beyond it.
    MIN_OPS = 150
    FINGERPRINT_CYCLES = 2

    def setup(self) -> None:
        self.pipeline = fb_pipeline(TRAIN_SCALE)
        dataset = self.pipeline.dataset
        self.trainer = ReinforceTrainer(
            self.pipeline.agent,
            self.pipeline.environment,
            self.pipeline.reward,
            config=ReinforceConfig(epochs=1, batch_size=self.BATCH, learning_rate=3e-3),
            rng=self.seed,
        )
        self.train = list(dataset.splits.train)
        self.held_out = list(dataset.splits.valid) + list(dataset.splits.test)
        self.evaluation = EvaluationConfig(beam_width=fast_preset().evaluation.beam_width)
        self.rng = np.random.default_rng(self.seed)
        self.order: List[int] = []
        self.eval_cursor = int(self.rng.integers(len(self.held_out)))

    def _next_train_batch(self):
        if len(self.order) < self.BATCH:
            self.order.extend(self.rng.permutation(len(self.train)).tolist())
        rows, self.order = self.order[: self.BATCH], self.order[self.BATCH :]
        return [self.train[row] for row in rows]

    def _next_eval_chunk(self):
        chunk = [
            self.held_out[(self.eval_cursor + offset) % len(self.held_out)]
            for offset in range(self.EVAL_CHUNK)
        ]
        self.eval_cursor = (self.eval_cursor + self.EVAL_CHUNK) % len(self.held_out)
        return chunk

    def _cycle(self):
        """One cycle: ``(rewards, mrr, train seconds, eval seconds)``."""
        begin = time.perf_counter()
        rewards = tuple(
            self.trainer.fit(self._next_train_batch()).epoch_rewards[0]
            for _ in range(self.TRAIN_PER_CYCLE)
        )
        middle = time.perf_counter()
        metrics = evaluator.evaluate_entity_prediction(
            self.pipeline.agent,
            self.pipeline.environment,
            self._next_eval_chunk(),
            filter_graph=self.pipeline.dataset.graph,
            config=self.evaluation,
        )
        return rewards, metrics["mrr"], middle - begin, time.perf_counter() - middle

    def fingerprint(self):
        return tuple(self._cycle()[:2] for _ in range(self.FINGERPRINT_CYCLES))

    def measure(self, seconds: float) -> Outcome:
        raw: List[float] = []
        midpoints: List[float] = []
        parts: List[Tuple[float, float]] = []
        outcome = Outcome(0.0, 0, [], 0)
        episodes = self.TRAIN_PER_CYCLE * self.BATCH
        probe = SpeedProbe()
        probe()
        started = time.perf_counter()
        while not _closed_loop_done(started, seconds, len(raw), self.MIN_OPS):
            begin = time.perf_counter()
            try:
                rewards, mrr, train_s, eval_s = self._cycle()
            except Exception as error:
                rewards, mrr, train_s, eval_s = (), float("nan"), 0.0, 0.0
                outcome.fail(outcome.attempted, f"cycle raised {error!r}")
            end = time.perf_counter()
            probe()
            raw.append(end - begin)
            midpoints.append(0.5 * (begin + end))
            parts.append((train_s, eval_s))
            if rewards:
                outcome.work += episodes
            if not all(math.isfinite(value) for value in (*rewards, mrr)):
                outcome.fail(outcome.attempted, f"rewards {rewards} and MRR {mrr!r}")
            outcome.attempted += 1
        latencies = outcome.latencies_s = scaled(probe, raw, midpoints)
        outcome.elapsed_s = sum(latencies)
        outcome.e2e_s = sum(raw)
        # Each part is scaled by its own cycle's factor.
        factors = [latency / duration for latency, duration in zip(latencies, raw)]
        train_s = sum(factor * train for factor, (train, _) in zip(factors, parts))
        eval_s = sum(factor * evaluation for factor, (_, evaluation) in zip(factors, parts))
        cycles = outcome.work // episodes
        outcome.named = {
            "train_episodes_per_s": (cycles * episodes / max(train_s, 1e-12), "1/s"),
            "eval_queries_per_s": (cycles * self.EVAL_CHUNK / max(eval_s, 1e-12), "1/s"),
            "episodes_per_s_unscaled": (outcome.work / sum(raw), "1/s"),
        }
        return outcome


# ---------------------------------------------------------------------- serving
class _Serving(Workload):
    """Shared set-up of the two serving workloads: the fb x2 reasoner."""

    K = 10

    def _reasoner(self):
        self.pipeline = fb_pipeline(SERVE_SCALE)
        self.reasoner = self.pipeline.reasoner(name="mmkgr")
        self.queries = query_mix(self.pipeline.dataset)

    def _pick(self, rng) -> Tuple[int, int]:
        """A held-out ``(head, relation)`` pair, uniformly at random."""
        return self.queries[int(rng.integers(len(self.queries)))]

    def _stage_sums(self, before: int) -> Dict[str, float]:
        """Per-stage seconds summed over the requests answered since ``before``."""
        stats = self.server.stats
        fresh = stats.requests_total - before
        sums = {}
        for stage, samples in stats.stage_samples().items():
            window = samples[-fresh:] if fresh > 0 else []
            sums[stage] = float(sum(window))
            sums[stage + "_n"] = len(window)
        return sums


class HttpKeepalive(_Serving):
    name = "http_keepalive"
    CLIENTS = 2
    WARMUP_PER_CLIENT = 4
    TIMEOUT_S = 30.0

    def setup(self) -> None:
        self._reasoner()
        self.server = ReasoningServer(self.reasoner, config=ServeConfig())
        self.httpd = self.server.http_server("127.0.0.1", 0)
        self.serving = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self.serving.start()
        port = self.httpd.server_address[1]
        self.connections = [
            http.client.HTTPConnection("127.0.0.1", port, timeout=self.TIMEOUT_S)
            for _ in range(self.CLIENTS)
        ]
        self.rngs = [np.random.default_rng([self.seed, index]) for index in range(self.CLIENTS)]
        self.request_ids = [0] * self.CLIENTS
        for index in range(self.CLIENTS):
            for _ in range(self.WARMUP_PER_CLIENT):
                self._request(index)

    def _request(self, index: int):
        """One ``POST /query``: ``(id, query, start, end, status, payload)``."""
        head, relation = self._pick(self.rngs[index])
        self.request_ids[index] += 1
        request_id = f"{index}-{self.request_ids[index]}"
        body = json.dumps({"head": head, "relation": relation, "k": self.K}).encode()
        connection = self.connections[index]
        begin = time.perf_counter()
        try:
            connection.request(
                "POST",
                "/query",
                body=body,
                headers={"Content-Type": "application/json", "X-Bench-Request": request_id},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            status = response.status
        except (OSError, http.client.HTTPException, ValueError) as error:
            connection.close()  # reconnects on the next request
            payload, status = {"error": repr(error)}, None
        return request_id, (head, relation), begin, time.perf_counter(), status, payload

    def measure(self, seconds: float) -> Outcome:
        results: List[List[tuple]] = [[] for _ in range(self.CLIENTS)]
        before = self.server.stats.requests_total
        batches_before = dict(self.server.stats.batch_size_histogram)
        cache_before = self.reasoner.cache_stats()
        started = time.perf_counter()
        stop = threading.Event()

        def client(index: int) -> None:
            while not stop.is_set():
                results[index].append(self._request(index))

        threads = [threading.Thread(target=client, args=(i,)) for i in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        while not _closed_loop_done(
            started, seconds, sum(len(r) for r in results), self.MIN_OPS
        ):
            time.sleep(0.05)
        stop.set()
        for thread in threads:
            thread.join(timeout=2 * self.TIMEOUT_S)
        records = sorted((record for share in results for record in share), key=lambda r: r[2])
        latencies = [end - begin for _, _, begin, end, _, _ in records]
        outcome = Outcome(0.0, 0, latencies, len(records))
        outcome.elapsed_s = max(end for _, _, _, end, _, _ in records) - started
        outcome.e2e_s = sum(latencies)
        kept = []
        check_rng = np.random.default_rng(self.seed + 1)
        for request_id, query, _, _, status, payload in records:
            if status != 200:
                outcome.fail(request_id, f"{query}: status {status} {payload}")
                continue
            outcome.work += 1
            ranking = [(p["entity"], p["score"]) for p in payload["predictions"]]
            for problem in answer_problems(ranking, self.K):
                outcome.fail(request_id, f"{query}: {problem}")
            if check_rng.random() < self.CHECK_SHARE:
                kept.append((request_id, query, ranking))
        outcome.context = {
            "records": records,
            "stages": self._stage_sums(before),
            "batches": (batches_before, dict(self.server.stats.batch_size_histogram)),
            "cache": (cache_before, self.reasoner.cache_stats()),
            "kept": kept,
        }
        outcome.named = {"http_requests_per_s": (outcome.throughput, "1/s")}
        outcome.named.update(latency_named(latencies))
        return outcome

    def close(self) -> None:
        for connection in self.connections:
            connection.close()
        self.httpd.shutdown()
        self.httpd.server_close()
        self.serving.join(timeout=10)
        self.server.close()


class BurstProcs(_Serving):
    name = "burst_procs"
    # At 600 qps the parent's generator, batcher and dispatch threads and
    # the two workers oversubscribe a 2-core host: generator lateness p99
    # reached 50 ms and the compute stage doubled, so runs measured the
    # scheduler.  300 qps still forms multi-request batches.
    QPS = 300.0
    # The arrivals come in windows of equal size, each answered in full
    # before the next one starts, and the latency percentiles are medians
    # over the windows: a few seconds where the shared host runs slow then
    # move the windows they fall in, and no backlog outlives its window.
    WINDOWS = 16
    WARMUP = 64
    TIMEOUT_S = 60.0

    def setup(self) -> None:
        self._reasoner()
        config = ServeConfig(backend="processes", workers=2, max_batch_size=32, max_wait_ms=5.0)
        self.server = ReasoningServer(self.reasoner, config=config)
        self.server.start()
        rng = np.random.default_rng([self.seed, 7])
        warm = [
            self.server.submit(*self._pick(rng), k=self.K)
            for _ in range(self.WARMUP)
        ]
        for future in warm:
            future.result(timeout=self.TIMEOUT_S)
        self.rng = np.random.default_rng(self.seed)

    def measure(self, seconds: float) -> Outcome:
        arrivals, picks = (np.random.default_rng(s) for s in self.rng.integers(2**32, size=2))
        # A fixed number of Poisson arrivals per window, so the offered work
        # does not vary with the seed; the windows span about ``seconds``.
        count = round(self.QPS * seconds / self.WINDOWS)
        model = self.server.default_model
        before = self.server.stats.requests_total
        batches_before = dict(self.server.stats.batch_size_histogram)
        records, futures, windows, lateness = [], [], [], []
        elapsed = 0.0
        for _ in range(self.WINDOWS):
            offsets = poisson_offsets(self.QPS, 2.0 * seconds + 1.0, arrivals)[:count]
            plan = WorkloadPlan(
                mode="open",
                offered_qps=self.QPS,
                concurrency=1,
                duration_s=offsets[-1],
                requests=tuple(
                    PlannedRequest(offset, model, *self._pick(picks), self.K)
                    for offset in offsets
                ),
            )
            recorder = _FutureRecorder(self.server)
            result = run_plan(recorder, plan, timeout_s=self.TIMEOUT_S)
            window, window_lateness = due_time_latencies(result.records)
            windows.append(window)
            lateness.extend(window_lateness)
            elapsed += max(record.completed_s for record in result.records)
            records.extend(result.records)
            futures.extend(recorder.futures)
        latencies = [latency for window in windows for latency in window]
        outcome = Outcome(elapsed, 0, latencies, len(records), windows=windows)
        outcome.e2e_s = sum(latencies)
        kept = []
        check_rng = np.random.default_rng(self.seed + 1)
        for index, (record, future) in enumerate(zip(records, futures)):
            if not record.ok:
                outcome.fail(index, f"request {index}: {record.error}")
                continue
            outcome.work += 1
            ranking = pairs(future.result())
            query = (record.head, record.relation)
            for problem in answer_problems(ranking, self.K):
                outcome.fail(index, f"{query}: {problem}")
            if check_rng.random() < self.CHECK_SHARE:
                kept.append((index, query, ranking))
        stats = self.server.stats_dict()
        outcome.context = {
            "lateness": lateness,
            "stages": self._stage_sums(before),
            "batches": (batches_before, dict(self.server.stats.batch_size_histogram)),
            "restarts": stats["workers"]["restarts"],
            "kept": kept,
        }
        outcome.named = latency_named(latencies)
        late = tail(lateness, 0.99)
        if late is not None:
            outcome.named["loadgen.lateness_ms_p99"] = (1000.0 * late[0], "ms", late[1])
        return outcome

    def headline(self, outcome: Outcome) -> float:
        return float(np.median(outcome.latencies_s))

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.worker_pids())

    def worker_pids(self) -> List[int]:
        return list(self.server.stats_dict()["workers"]["pids"])

    def close(self) -> None:
        self.server.close()


class _FutureRecorder:
    """Hands ``run_plan`` the server's ``submit`` and keeps each future.

    ``run_plan`` submits in plan order and keeps only times and errors; the
    futures carry the answers the output check needs.  A submission that
    raises keeps a ``None`` slot so futures stay aligned with records.
    """

    def __init__(self, server):
        self.server = server
        self.futures = []

    def submit(self, head, relation, k=None, model=None):
        self.futures.append(None)
        future = self.server.submit(head, relation, k=k, model=model)
        self.futures[-1] = future
        return future


def latency_named(latencies: Sequence[float]) -> Dict[str, tuple]:
    named = {"latency_ms_p50": (1000.0 * float(np.median(latencies)), "ms")}
    p99 = tail(latencies, 0.99)
    if p99 is not None:
        named["latency_ms_p99"] = (1000.0 * p99[0], "ms", p99[1])
    return named


WORKLOADS = {cls.name: cls for cls in (KgWide, TrainFb, HttpKeepalive, BurstProcs)}


# ------------------------------------------------------------------- tracing
def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the per-layer metrics name."""
    import repro.rl.reinforce as reinforce
    import repro.serve.reasoner as reasoner
    from repro.nn.batched import BatchedFusion, BatchedLSTM
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor
    from repro.rl.batched_rollout import BatchedRolloutEngine
    from repro.rl.policy import PolicyNetwork
    from repro.serve.cache import ActionSpaceCache
    from repro.serve.engine import BatchBeamSearch
    from repro.serve.protocol import Prediction
    from repro.serve.server import _RequestHandler

    tracer.wrap(CSRKnowledgeGraph, "outgoing_edges", "kg.csr.expand")
    tracer.wrap(ActionSpaceCache, "actions", "serve.cache.lookup")
    tracer.wrap(
        ActionSpaceCache, "action_matrix", "serve.cache.lookup", count="serve.engine.branches"
    )
    tracer.wrap(BatchBeamSearch, "run", "serve.engine.run")
    tracer.wrap(BatchedFusion, "fuse", "nn.batched.fuse")
    tracer.wrap(BatchedLSTM, "step", "nn.batched.lstm")
    tracer.wrap(PolicyNetwork, "project_batch", "rl.policy.project")
    tracer.wrap(reasoner, "resolve_query", "serve.reasoner.assemble")
    tracer.wrap(reasoner, "paths_from_beam", "serve.reasoner.assemble")
    tracer.wrap(
        reasoner.Reasoner,
        "query_batch",
        "serve.reasoner.query_batch",
        tag_of=lambda args, kwargs: len(args[1]),
    )
    tracer.wrap(BatchedRolloutEngine, "sample_episodes", "rl.batched_rollout.sample")
    tracer.wrap(Tensor, "backward", "nn.tensor.backward")
    tracer.wrap(Adam, "step", "nn.optim.step")
    tracer.wrap(reinforce, "clip_grad_norm", "nn.optim.step")
    tracer.wrap(evaluator, "beam_search_results", "core.evaluator.beam")
    # The roots of train_fb: the public calls its caller times itself.
    tracer.wrap(ReinforceTrainer, "fit", "rl.reinforce.fit")
    tracer.wrap(evaluator, "evaluate_entity_prediction", "core.evaluator.evaluate")
    tracer.wrap(Prediction, "from_wire", "serve.procpool.from_wire")
    # The benchmark's HTTP client names each request in a header, so the
    # handler span can be matched with the client's own timing.
    tracer.wrap(
        _RequestHandler,
        "do_POST",
        "serve.server.handler",
        tag_of=lambda args, kwargs: args[0].headers.get("X-Bench-Request"),
    )


def trace_worker(work: Path) -> None:
    """Make this spawned worker process record while the parent's flag exists.

    The wrappers go in before the worker restores its model.  When the
    parent deletes the flag, the worker writes its spans to
    ``trace_worker_<pid>.json`` in ``work`` for the parent to absorb.
    """
    tracer = Tracer()
    install_layer_wrappers(tracer)
    follow_flag(tracer, work / TRACE_FLAG, work / f"trace_worker_{os.getpid()}.json")


# Span names of the layers the traced run times (see install_layer_wrappers);
# each gives a ``<name>_s`` busy time and a ``<name>_share`` metric.
LAYER_SPANS = (
    "kg.csr.expand",
    "serve.cache.lookup",
    "serve.engine.run",
    "nn.batched.fuse",
    "nn.batched.lstm",
    "rl.policy.project",
    "serve.reasoner.assemble",
    "rl.batched_rollout.sample",
    "nn.tensor.backward",
    "nn.optim.step",
    "core.evaluator.beam",
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def compute_layers(tracer: Tracer, outcome: Outcome) -> Dict[str, float]:
    """The per-layer metrics of one traced run (0 where a layer is idle).

    The layer lines in ``outcome.context["lines"]`` split the end-to-end
    time: span self times on the closed loops, the serving stages and the
    spans inside them on the serving workloads, and ``unattributed`` for
    the rest.  ``trace.reconcile_error`` compares two totals clocked apart:
    the root spans with the caller's own timing of the same calls on the
    closed loops; see :func:`_serving_lines` for the serving workloads.  A
    run whose error exceeds :data:`RECONCILE_LIMIT` fails.
    """
    spans = tracer.spans
    totals = layer_totals(spans)
    context = outcome.context
    e2e = outcome.e2e_s
    metrics: Dict[str, float] = {}
    for name in LAYER_SPANS:
        busy = totals.get(name, {}).get("busy", 0.0)
        metrics[name + "_s"] = busy
        metrics[name + "_share"] = _ratio(busy, e2e)
    engine_self = totals.get("serve.engine.run", {}).get("self", 0.0)
    metrics["serve.engine.self_s"] = engine_self
    metrics["serve.engine.self_share"] = _ratio(engine_self, e2e)
    metrics["serve.engine.branches"] = float(tracer.counts.get("serve.engine.branches", 0))
    from_wire = totals.get("serve.procpool.from_wire", {})
    metrics["serve.procpool.from_wire_s"] = from_wire.get("busy", 0.0)
    if "rows" in context:
        metrics["kg.csr.row_hit_ratio"] = _hit_ratio(
            *context["rows"], keys=("hits",), misses=("misses",)
        )
    if "cache" in context:
        metrics["serve.cache.hit_ratio"] = _hit_ratio(
            *context["cache"],
            keys=("actions_hits", "matrix_hits"),
            misses=("actions_misses", "matrix_misses"),
        )
    if "stages" in context:
        lines, parts, whole = _serving_lines(spans, outcome, metrics)
    else:
        lines = {name: entry["self"] for name, entry in totals.items()}
        parts, whole = root_total(spans), e2e
    attributed = sum(lines.values())
    error = reconcile_error(parts, whole)
    if error > RECONCILE_LIMIT:
        outcome.fail("reconcile", f"traced parts {parts:.4f} s miss the total {whole:.4f} s "
                     f"by {100 * error:.1f} %")
    metrics["trace.e2e_s"] = e2e
    metrics["trace.unattributed_s"] = e2e - attributed
    metrics["trace.unattributed_share"] = _ratio(e2e - attributed, e2e)
    metrics["trace.reconcile_error"] = error
    metrics["trace.spans"] = float(sum(1 for span in spans if span is not None))
    context["lines"] = lines
    return metrics


def _hit_ratio(before: dict, after: dict, keys, misses) -> float:
    """Hits over lookups between two counter snapshots."""
    hit = sum(after.get(key, 0) - before.get(key, 0) for key in keys)
    miss = sum(after.get(key, 0) - before.get(key, 0) for key in misses)
    return _ratio(hit, hit + miss)


def _serving_lines(spans, outcome: Outcome, metrics) -> Tuple[Dict[str, float], float, float]:
    """Request-time lines of a serving run, and two totals that must agree.

    Every request's latency splits into the server's own stages (queue
    wait, batch wait, compute, from ``ServerStats``) plus what lies outside
    them: the HTTP handler and socket on ``http_keepalive``, the
    generator's lateness on ``burst_procs``.  The spans under the compute
    stage (on the worker threads, or in the worker processes) count once
    per request they answer; what they leave of the stage is a line of its
    own.  Fills the server-side metrics and returns ``(lines, parts,
    whole)``: on ``burst_procs`` the lateness plus the stages the server
    stamped against the due-time latencies the futures' completions gave;
    on ``http_keepalive`` the batch-weighted ``query_batch`` spans against
    the compute stage the server stamped around them.
    """
    context = outcome.context
    stages = context["stages"]
    answered = max(1, stages["compute_n"])
    metrics["serve.batcher.queue_wait_ms"] = 1000.0 * stages["queue_wait"] / answered
    metrics["serve.batcher.batch_wait_ms"] = 1000.0 * stages["batch_wait"] / answered
    before, after = context["batches"]
    sizes = {size: count - before.get(size, 0) for size, count in after.items()}
    metrics["serve.batcher.batch_size_mean"] = _ratio(
        sum(size * count for size, count in sizes.items()), sum(sizes.values())
    )
    weighted = _weighted_self_times(spans)
    weighted.pop("serve.server.handler", None)
    compute_rest = stages["compute"] - sum(weighted.values())
    lines = {
        "serve.batcher.queue_wait": stages["queue_wait"],
        "serve.batcher.batch_wait": stages["batch_wait"],
        **weighted,
    }
    if "lateness" in context:
        # The model runs in worker processes; the parent sees the compute
        # stage as dispatch: pickling, the queues and the worker's time.
        lateness = context["lateness"]
        late = tail(lateness, 0.99)
        metrics["serve.procpool.dispatch_ms"] = 1000.0 * stages["compute"] / answered
        metrics["serve.procpool.ipc_ms"] = 1000.0 * compute_rest / answered
        metrics["serve.procpool.restarts"] = float(context["restarts"])
        metrics["loadgen.lateness_ms_p99"] = 1000.0 * late[0] if late else 0.0
        lines["loadgen.lateness"] = sum(lateness)
        lines["serve.procpool.ipc"] = compute_rest
        parts = sum(lateness) + sum(stages[s] for s in ("queue_wait", "batch_wait", "compute"))
        return lines, parts, outcome.e2e_s
    lines["serve.batcher.compute_other"] = compute_rest
    handlers = {
        span[4]: span[2] - span[1]
        for span in spans
        if span is not None and span[0] == "serve.server.handler"
    }
    matched = [
        (end - begin, handlers[request_id])
        for request_id, _, begin, end, _, _ in context["records"]
        if request_id in handlers
    ]
    if len(matched) != len(context["records"]):
        outcome.fail("trace", f"{len(context['records']) - len(matched)} requests "
                     "have no handler span")
    if matched:
        client = sum(latency for latency, _ in matched)
        handler = sum(inside for _, inside in matched)
        scale = len(context["records"]) / len(matched)
        metrics["serve.server.handler_ms"] = 1000.0 * handler / len(matched)
        metrics["serve.server.unattributed_ms"] = 1000.0 * (client - handler) / len(matched)
        metrics["serve.server.unattributed_share"] = _ratio(client - handler, client)
        lines["serve.server.unattributed"] = (client - handler) * scale
        lines["serve.server.handler_self"] = handler * scale - sum(
            stages[stage] for stage in ("queue_wait", "batch_wait", "compute")
        )
    batches = sum(
        (span[2] - span[1]) * float(span[4] or 1)
        for span in spans
        if span is not None and span[0] == "serve.reasoner.query_batch" and span[3] is None
    )
    return lines, batches, stages["compute"]


def _weighted_self_times(spans) -> Dict[str, float]:
    """Self time per span name, counted once per request waiting on the span.

    A serving batch's compute is part of the latency of every request it
    carries, so a span under a ``serve.reasoner.query_batch`` root weighs
    as many requests as that root's batch holds.  Parents precede their
    children in ``spans``, so one pass propagates the weights.
    """
    weights: Dict[int, float] = {}
    totals: Dict[str, float] = {}
    for index, (span, own) in enumerate(zip(spans, self_times(spans))):
        if span is None:
            continue
        if span[0] == "serve.reasoner.query_batch":
            weights[index] = float(span[4] or 1)
        elif span[3] is not None:
            weights[index] = weights.get(span[3], 1.0)
        totals[span[0]] = totals.get(span[0], 0.0) + own * weights.get(index, 1.0)
    return totals
