"""Multi-tenant serving overhead: registry-backed routing vs a single model.

PR 5 turns the daemon into a multi-tenant router — per-model worker groups
behind one pool, addressed by name, resolved from a model registry.  The
routing layer (name lookup, canary-route check, per-model batchers) must be
essentially free: this benchmark publishes one trained reasoner as two
registry models, replays the same burst of concurrent traffic once against a
single-model server and once split across both hosted models, verifies the
rankings agree, and asserts the multi-tenant replay keeps at least 90% of
the single-model throughput (routing overhead <= ~10%).

Both configurations serve registry-loaded reasoners with one worker per
hosted model and the same flush policy, so the only difference under test is
the multi-tenant routing itself (including the thinner per-model batches the
50/50 split produces).
"""

from __future__ import annotations

import threading
import time

from common import WN9, bench_preset, format_table

from repro.kg.datasets import build_named_dataset
from repro.serve import ModelRegistry, Reasoner, ReasoningServer, ServeConfig

CLIENTS = 8
QUERIES_PER_CLIENT = 16  # 128 requests in flight per replay
MAX_BATCH_SIZE = 32
MAX_WAIT_MS = 25
# Multi-tenant routing may keep at most ~10% of single-model throughput as
# overhead; CI noise rides on the regression guard's tolerance band instead.
MIN_RELATIVE_THROUGHPUT = 0.9


def _workload(dataset, count: int):
    triples = dataset.splits.test + dataset.splits.valid
    queries = [(t.head, t.relation) for t in triples]
    while len(queries) < count:
        queries = queries + queries
    return queries[:count]


def _replay(server, assignments):
    """Drive concurrent clients through ``server``; wall clock + answers.

    ``assignments`` is a list of per-client shares of ``(model, head,
    relation)`` tuples (``model=None`` targets the default model).
    """
    results = {}

    def client(index: int, share):
        futures = [
            server.submit(head, relation, k=5, model=model)
            for model, head, relation in share
        ]
        results[index] = [future.result(timeout=120) for future in futures]

    threads = [
        threading.Thread(target=client, args=(i, share))
        for i, share in enumerate(assignments)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    answers = {}
    for index, share in enumerate(assignments):
        for (_, head, relation), predictions in zip(share, results[index]):
            answers.setdefault((head, relation), [p.entity for p in predictions])
    return elapsed, answers


def _shares(queries, models):
    """Round-robin the queries over ``models``, split across CLIENTS."""
    tagged = [
        (models[i % len(models)], head, relation)
        for i, (head, relation) in enumerate(queries)
    ]
    return [tagged[i::CLIENTS] for i in range(CLIENTS)]


def test_multi_model_routing_overhead_within_bound(benchmark, tmp_path):
    preset = bench_preset("serve-registry")
    dataset = build_named_dataset(WN9, scale=preset.dataset_scale, seed=7)
    trained = Reasoner(preset=preset, rng=7).fit(dataset)
    queries = _workload(dataset, CLIENTS * QUERIES_PER_CLIENT)

    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(trained, name="alpha", aliases=("prod",))
    registry.publish(trained, name="beta", aliases=("prod",))

    def build_server(refs):
        server = ReasoningServer(
            registry=registry,
            config=ServeConfig(max_batch_size=MAX_BATCH_SIZE, max_wait_ms=MAX_WAIT_MS, workers=1),
        ).start()
        keys = [server.add_model(ref) for ref in refs]
        # Warm the engine and action-space caches so the comparison isolates
        # the routing layer, not cold caches.
        for key in keys:
            for head, relation in queries[:8]:
                server.query(head, relation, k=5, model=key)
        return server, keys

    single_server, (single_key,) = build_server(["alpha@prod"])
    multi_server, multi_keys = build_server(["alpha@prod", "beta@prod"])

    def run(server, keys):
        # Best-of-2: one scheduling hiccup on a shared CI runner must not
        # decide the comparison.
        return min(
            (_replay(server, _shares(queries, keys)) for _ in range(2)),
            key=lambda item: item[0],
        )

    try:
        single_s, single_answers = run(single_server, [single_key])
        multi_s, multi_answers = run(multi_server, multi_keys)
        benchmark.pedantic(
            lambda: run(multi_server, multi_keys), rounds=1, iterations=1
        )
    finally:
        single_server.close()
        multi_server.close()

    count = len(queries)
    relative = single_s / multi_s
    # Headline number guarded by the benchmark-regression CI step.
    benchmark.extra_info["multi_model_relative_throughput"] = round(relative, 3)
    print()
    print(
        format_table(
            ["configuration", "wall clock (s)", "queries/s"],
            [
                ["single model (alpha@prod)", f"{single_s:.3f}", f"{count / single_s:.1f}"],
                [
                    "multi-tenant (alpha@prod + beta@prod, 50/50)",
                    f"{multi_s:.3f}",
                    f"{count / multi_s:.1f}",
                ],
                ["relative throughput", f"{relative:.2f}x", ""],
            ],
            title=f"registry routing overhead — {CLIENTS} clients, {count} queries",
        )
    )

    # Same published weights behind every name: answers must not change.
    assert multi_answers == single_answers
    assert relative >= MIN_RELATIVE_THROUGHPUT, (
        f"multi-tenant serving ({multi_s:.3f}s) fell below "
        f"{MIN_RELATIVE_THROUGHPUT:.0%} of single-model throughput "
        f"({single_s:.3f}s)"
    )
