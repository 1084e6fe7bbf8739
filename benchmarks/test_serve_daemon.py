"""Serving daemon throughput: dynamic micro-batching vs per-request dispatch.

The daemon's claim is the serving-layer claim one level up: concurrent
*single* queries — the shape real traffic has — coalesced into micro-batches
by the :class:`~repro.serve.batcher.DynamicBatcher` run at the vectorized
``query_batch`` speed, while per-request dispatch (``max_batch_size=1``, the
same daemon with coalescing disabled) pays the sequential per-query cost.

This benchmark trains one small MMKGR reasoner, replays the same burst of
concurrent client traffic through both configurations, verifies the rankings
agree, and asserts the micro-batched daemon clears 2x the per-request
throughput.
"""

from __future__ import annotations

import threading
import time

from common import WN9, bench_preset, format_table

from repro.kg.datasets import build_named_dataset
from repro.serve import Reasoner, ReasoningServer, ServeConfig

CLIENTS = 8
QUERIES_PER_CLIENT = 16  # 128 requests in flight per replay
MAX_BATCH_SIZE = 32  # acceptance bar applies at batch sizes >= 8
MIN_SPEEDUP = 2.0


def _workload(dataset, count: int):
    triples = dataset.splits.test + dataset.splits.valid
    queries = [(t.head, t.relation) for t in triples]
    while len(queries) < count:
        queries = queries + queries
    return queries[:count]


def _replay(reasoner, queries, max_batch_size: int):
    """Drive `CLIENTS` concurrent clients through a daemon; wall clock + answers."""
    server = ReasoningServer(
        reasoner,
        config=ServeConfig(max_batch_size=max_batch_size, max_wait_ms=25, workers=1),
    )
    shares = [queries[i::CLIENTS] for i in range(CLIENTS)]
    results = {}

    def client(index: int, share):
        # Each client bursts its queries and then drains the futures — many
        # users with one in-flight request each, arriving concurrently.
        futures = [server.submit(head, relation, k=5) for head, relation in share]
        results[index] = [future.result(timeout=120) for future in futures]

    with server:
        threads = [
            threading.Thread(target=client, args=(i, share))
            for i, share in enumerate(shares)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
    answers = {}
    for index, share in enumerate(shares):
        for query, predictions in zip(share, results[index]):
            answers.setdefault(query, [p.entity for p in predictions])
    return elapsed, answers, server.stats_dict()


def test_micro_batched_serving_beats_per_request_dispatch(benchmark):
    preset = bench_preset("serve-daemon")
    dataset = build_named_dataset(WN9, scale=preset.dataset_scale, seed=7)
    reasoner = Reasoner(preset=preset, rng=7).fit(dataset)
    queries = _workload(dataset, CLIENTS * QUERIES_PER_CLIENT)

    # Warm the engine and the shared action-space caches so the comparison
    # isolates the batching policy, not cold-cache effects.
    reasoner.query_batch(queries[:8], k=5)

    # Best-of-2 per configuration: one scheduling hiccup on a shared CI
    # runner must not decide the comparison.
    batched_s, batched_answers, batched_stats = min(
        (_replay(reasoner, queries, MAX_BATCH_SIZE) for _ in range(2)),
        key=lambda item: item[0],
    )
    single_s, single_answers, _ = min(
        (_replay(reasoner, queries, 1) for _ in range(2)),
        key=lambda item: item[0],
    )
    benchmark.pedantic(
        lambda: _replay(reasoner, queries, MAX_BATCH_SIZE), rounds=1, iterations=1
    )

    count = len(queries)
    speedup = single_s / batched_s
    # Headline number guarded by the benchmark-regression CI step.
    benchmark.extra_info["daemon_speedup"] = round(speedup, 3)
    print()
    print(
        format_table(
            ["dispatch", "wall clock (s)", "queries/s", "mean batch"],
            [
                [
                    "per-request (max_batch_size=1)",
                    f"{single_s:.3f}",
                    f"{count / single_s:.1f}",
                    "1.0",
                ],
                [
                    f"micro-batched (max_batch_size={MAX_BATCH_SIZE})",
                    f"{batched_s:.3f}",
                    f"{count / batched_s:.1f}",
                    f"{batched_stats['mean_batch_size']:.1f}",
                ],
                ["speedup", f"{speedup:.2f}x", "", ""],
            ],
            title=f"serving daemon — {CLIENTS} concurrent clients, {count} queries, "
            f"p99 {batched_stats['latency_p99_ms']:.0f} ms",
        )
    )

    # Same engine, same caches: the daemon must not change any answer.
    assert batched_answers == single_answers
    # Coalescing must actually happen under burst load.
    assert batched_stats["mean_batch_size"] >= 8, batched_stats["batch_size_histogram"]
    # The acceptance bar: micro-batching concurrent traffic is >= 2x the
    # throughput of dispatching the same traffic one request at a time.
    assert speedup >= MIN_SPEEDUP, (
        f"micro-batched serving ({batched_s:.3f}s) should be at least "
        f"{MIN_SPEEDUP}x faster than per-request dispatch ({single_s:.3f}s)"
    )
