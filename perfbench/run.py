"""Repository benchmark: one workload per invocation, result as a JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload kg_wide --seed 1 --seconds 10 --trace 0

Workloads are defined in ``workloads.py`` and listed with their reasons in
``BENCHMARK.json``.  With ``--trace 0`` the run times set-up several times
(the reported ``setup_s`` is their median), measures the first set-up for
``--seconds`` and prints the end-to-end metrics.  With ``--trace 1`` it
sets up once, measures untraced and then traced for ``--seconds`` each,
writes the spans to ``.bench_work/trace_<workload>.json`` and prints the
per-layer metrics named in ``BENCHMARK.json``, including the tracing
overhead.  Worker processes spawned by a traced run re-import this file as
``__mp_main__``; they install the same wrappers and hand their spans back
through files in ``.bench_work``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set for a traced run, so the worker processes it spawns trace too.
TRACE_ENV = "PERFBENCH_TRACE_WORKERS"
# How long a worker may take to write its spans once tracing stops.
WORKER_DUMP_TIMEOUT_S = 10.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fmt(value: float) -> str:
    return f"{value:.6g}"


def timed_setup(cls, args, work):
    """A fresh set-up of ``cls`` and its seconds at the probe's reference speed.

    Set-up is CPU-bound work (graph generation, TransE, worker imports), so
    like the closed loops' operations it is scaled by speed probes timed
    just before and just after it: the CPU speed of a shared host drifts by
    up to 1.5x between runs an hour apart.
    """
    from harness import SpeedProbe

    workload = cls(args.seed, work)
    probe = SpeedProbe()
    probe()
    probe()
    started = time.perf_counter()
    workload.setup()
    ended = time.perf_counter()
    probe()
    probe()
    return workload, (ended - started) * probe.factor(0.5 * (started + ended))


def end_to_end(workloads, cls, args, work):
    """Measure a fresh set-up untraced, then time ``SETUP_REPEATS - 1`` more.

    Measuring the first set-up keeps the peak resident set that of one
    process that sets up once and then works, as a deployment would.
    """
    from harness import window_median

    workload, seconds = timed_setup(cls, args, work)
    setups, fingerprints = [seconds], [workload.fingerprint()]
    try:
        outcome = workload.measure(args.seconds)
        rss = workload.peak_rss_mb()
        workload.verify(outcome)
    finally:
        workload.close()
    for _ in range(cls.SETUP_REPEATS - 1):
        workload = None
        gc.collect()
        workload, seconds = timed_setup(cls, args, work)
        setups.append(seconds)
        fingerprints.append(workload.fingerprint())
        workload.close()
    if any(value != fingerprints[0] for value in fingerprints):
        outcome.fail("fingerprint", f"set-ups from one seed disagree: {fingerprints}")
    windows = [
        [1000.0 * value for value in window] for window in outcome.windows or [outcome.latencies_s]
    ]
    sizes = [len(window) for window in windows]
    p50, p90 = (window_median(windows, fraction) for fraction in (0.50, 0.90))
    if p90 is None:
        outcome.fail("p90", f"latency samples per window {sizes}; p90 needs 100 in each")
        p50, p90 = p50 or 0.0, max(max(window, default=0.0) for window in windows)
    metrics = {
        "throughput_per_s": (outcome.throughput, "1/s"),
        "latency_ms_p50": (p50, "ms"),
        "latency_ms_p90": (p90, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    print(f"{cls.name}: set-ups {', '.join(fmt(s) for s in setups)} s; "
          f"{outcome.attempted} operations, p50 and p90 from latency windows of {sizes}")
    for name, (value, unit, *count) in outcome.named.items():
        suffix = f" (n={count[0]})" if count else ""
        print(f"  {name} = {fmt(value)} {unit}{suffix}")
    return outcome, metrics


def absorb_workers(tracer, pids, work) -> list:
    """Add each worker's dumped spans to ``tracer``; the pids that sent none."""
    deadline = time.monotonic() + WORKER_DUMP_TIMEOUT_S
    missing = list(pids)
    while missing and time.monotonic() < deadline:
        for pid in list(missing):
            path = work / f"trace_worker_{pid}.json"
            if path.exists():
                tracer.absorb(path)
                missing.remove(pid)
        time.sleep(0.05)
    return missing


def traced(workloads, cls, args, work):
    """Set up once; measure untraced, then traced; report per-layer metrics.

    Worker processes carry the wrappers from their start, switched off
    until the flag file appears, so the untraced measurement pays their
    idle check and the reported overhead leaves it out.
    """
    from harness import Tracer

    flag = work / workloads.TRACE_FLAG
    flag.unlink(missing_ok=True)
    for stale in work.glob("trace_worker_*.json"):
        stale.unlink()
    os.environ[TRACE_ENV] = str(work)
    workload = cls(args.seed, work)
    tracer = Tracer()
    try:
        workload.setup()
        workload.fingerprint()
        plain = workload.measure(args.seconds)
        workload.verify(plain)
        workloads.install_layer_wrappers(tracer)
        pids = workload.worker_pids()
        if pids:
            flag.touch()
            time.sleep(0.2)  # the workers poll for the flag
        tracer.enabled = True
        outcome = workload.measure(args.seconds)
        tracer.enabled = False
        flag.unlink(missing_ok=True)
        missing = absorb_workers(tracer, pids, work)
        workload.verify(outcome)
    finally:
        flag.unlink(missing_ok=True)
        tracer.uninstall()
        workload.close()
    for pid in missing:
        outcome.fail("trace", f"worker {pid} wrote no spans")
    layers = workloads.compute_layers(tracer, outcome)
    slowdown = workload.headline(outcome) / workload.headline(plain)
    layers["trace.overhead_pct"] = 100.0 * (slowdown - 1.0)
    tracer.dump(work / f"trace_{cls.name}.json")
    outcome.failed_ops |= {("untraced", op) for op in plain.failed_ops}
    outcome.problems.extend(plain.problems)
    outcome.attempted += plain.attempted
    e2e = outcome.e2e_s
    print(f"{cls.name} traced: e2e {fmt(e2e)} s, {int(layers['trace.spans'])} spans, "
          f"overhead {fmt(layers['trace.overhead_pct'])} %")
    print(f"  {'line':34s} {'self s':>10s} {'share':>8s}")
    for line, seconds in sorted(outcome.context["lines"].items(), key=lambda item: -item[1]):
        print(f"  {line:34s} {seconds:10.4f} {seconds / e2e:8.3f}")
    print(f"  {'unattributed':34s} {layers['trace.unattributed_s']:10.4f} "
          f"{layers['trace.unattributed_share']:8.3f}")
    per_layer = {
        metric["name"]: metric["unit"]
        for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    }
    unlisted = set(layers) - set(per_layer)
    if unlisted:
        raise RuntimeError(f"per-layer metrics missing from BENCHMARK.json: {sorted(unlisted)}")
    # A layer the workload never reaches reads 0.
    metrics = {name: (layers.get(name, 0.0), unit) for name, unit in per_layer.items()}
    return outcome, metrics


def stop_child_processes() -> None:
    """Stop and reap every process this run started, before it exits.

    Worker processes are closed by their workload; any left after an error
    are terminated here.  The spawn start method also starts a resource
    tracker process, which would otherwise outlive this process: it ends
    only when the last holder of its pipe exits, so it is stopped after
    the workers.
    """
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    # Semaphores of closed workers unregister from the tracker when freed.
    gc.collect()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".bench_work"
    scratch = work / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    # Spilled models and worker temp files stay inside the checkout.
    tempfile.tempdir = str(scratch)
    os.environ["TMPDIR"] = str(scratch)

    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    run = traced if args.trace else end_to_end
    try:
        outcome, metrics = run(workloads, cls, args, work)
    finally:
        stop_child_processes()
    failed = len(outcome.failed_ops)
    attempted = max(outcome.attempted, failed, 1)
    print(f"  failed_share = {fmt(failed / attempted)} ({failed} of {attempted} operations)")
    for problem in outcome.problems:
        print(f"  check failed: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {fmt(value)} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
elif __name__ == "__mp_main__" and os.environ.get(TRACE_ENV):
    import workloads

    workloads.trace_worker(Path(os.environ[TRACE_ENV]))
