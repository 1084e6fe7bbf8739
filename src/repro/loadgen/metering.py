"""Metering: turn per-request records and server stats into point metrics.

One sweep point's measurement is the pair (client-side records from the
driver, server-side per-stage windows from :class:`~repro.serve.server.
ServerStats`).  This module reduces both into the JSON-friendly metrics the
report layer plots: offered vs achieved QPS, error rate, p50/p99/p99.9
latency, and the queue-wait / batch-wait / compute breakdown.
"""

from __future__ import annotations

from typing import Dict, List

from repro.loadgen.driver import DriveResult
from repro.loadgen.workload import WorkloadPlan
from repro.utils.metrics import percentile

__all__ = [
    "LATENCY_FRACTIONS",
    "percentile",
    "point_metrics",
    "stage_breakdown_ms",
]

# The report's latency curve fractions: p50, p99, p99.9.
LATENCY_FRACTIONS = (("p50", 0.50), ("p99", 0.99), ("p99.9", 0.999))


def stage_breakdown_ms(stage_samples: Dict[str, List[float]]) -> Dict[str, dict]:
    """Aggregate per-stage second-samples into mean/p50/p99 milliseconds."""
    breakdown = {}
    for stage, samples in stage_samples.items():
        breakdown[stage] = {
            "mean_ms": 1000.0 * (sum(samples) / len(samples)) if samples else 0.0,
            "p50_ms": 1000.0 * percentile(samples, 0.50),
            "p99_ms": 1000.0 * percentile(samples, 0.99),
        }
    return breakdown


def point_metrics(
    result: DriveResult,
    stage_samples: Dict[str, List[float]],
    plan: WorkloadPlan,
) -> dict:
    """The metrics block of one operating point.

    Two offered rates are reported for open-loop runs: ``target_qps`` is the
    nominal Poisson rate the plan was generated at (the sweep axis), while
    ``offered_qps`` is the *realized* arrival rate of the seeded draw —
    short runs realize visibly fewer or more arrivals than nominal, and the
    knee's achieved-vs-offered efficiency must use the realized rate or pure
    arrival-count noise reads as saturation.  Closed-loop traffic is
    self-paced, so offered equals achieved there.
    """
    records = result.records
    completed = [r for r in records if r.ok]
    errors = [r for r in records if r.error is not None]
    latencies = [r.latency_s for r in completed if r.latency_s is not None]
    achieved_qps = len(completed) / result.wall_clock_s if result.wall_clock_s > 0 else 0.0
    if plan.mode == "open":
        offered_qps = len(records) / plan.duration_s
        target_qps = plan.offered_qps
    else:
        offered_qps = achieved_qps
        target_qps = None
    latency_ms = {
        label: 1000.0 * percentile(latencies, fraction)
        for label, fraction in LATENCY_FRACTIONS
    }
    latency_ms["mean"] = 1000.0 * (sum(latencies) / len(latencies)) if latencies else 0.0
    per_model: Dict[str, int] = {}
    for record in records:
        per_model[record.model] = per_model.get(record.model, 0) + 1
    return {
        "requests": len(records),
        "completed": len(completed),
        "errors": len(errors),
        "error_rate": len(errors) / len(records) if records else 0.0,
        "target_qps": target_qps,
        "offered_qps": offered_qps,
        "achieved_qps": achieved_qps,
        "wall_clock_s": result.wall_clock_s,
        "latency_ms": latency_ms,
        "stages_ms": stage_breakdown_ms(stage_samples),
        "requests_per_model": dict(sorted(per_model.items())),
    }
