"""Registry workflow: publish -> promote -> serve -> canary -> hot-swap.

Run with::

    PYTHONPATH=src python examples/registry_workflow.py

The script trains two small MMKGR reasoners (a tiny preset keeps each run in
the tens of seconds), publishes them as versions 1 and 2 of one registry
model, promotes version 1 to ``prod``, serves the registry from one
multi-tenant :class:`~repro.serve.server.ReasoningServer`, sends a slice of
traffic to the ``canary`` alias, and finally promotes + hot-swaps ``prod``
to version 2 without dropping a request — the production loop the
train-once/query-many framing implies.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import (
    EvaluationConfig,
    ExperimentPreset,
    MMKGRConfig,
    ModelRegistry,
    Reasoner,
    ReasoningServer,
    ServeConfig,
    build_named_dataset,
)
from repro.embeddings.trainer import EmbeddingTrainingConfig
from repro.rl.imitation import ImitationConfig
from repro.rl.reinforce import ReinforceConfig
from repro.rl.rewards import RewardConfig


def tiny_preset(name: str) -> ExperimentPreset:
    """Small enough to train twice in one example run."""
    return ExperimentPreset(
        name=name,
        model=MMKGRConfig(
            structural_dim=8,
            history_dim=8,
            auxiliary_dim=8,
            attention_dim=8,
            joint_dim=8,
            policy_hidden_dim=16,
            max_steps=3,
            max_actions=16,
            seed=3,
        ),
        reward=RewardConfig(),
        reinforce=ReinforceConfig(epochs=1, batch_size=32, learning_rate=3e-3),
        imitation=ImitationConfig(epochs=2, batch_size=16, learning_rate=8e-3),
        embedding=EmbeddingTrainingConfig(epochs=5, batch_size=32, learning_rate=0.1),
        evaluation=EvaluationConfig(beam_width=4, max_queries=10),
        dataset_scale=0.2,
    )


def main() -> None:
    dataset = build_named_dataset("wn9-img-txt", scale=0.2, seed=3)
    queries = [(t.head, t.relation) for t in dataset.splits.test[:8]]

    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(Path(tmp) / "registry")

        # --- publish: two trained versions of one model ------------------
        print("Training and publishing version 1 ...")
        v1 = registry.publish(
            Reasoner(preset=tiny_preset("v1"), rng=3).fit(dataset), name="mmkgr"
        )
        print(f"  published {v1.ref}")
        print("Training and publishing version 2 (a retrained candidate) ...")
        v2 = registry.publish(
            Reasoner(preset=tiny_preset("v2"), rng=11).fit(dataset), name="mmkgr"
        )
        print(f"  published {v2.ref}")

        # --- promote: aliases decide what serves -------------------------
        registry.promote("mmkgr", "prod", v1.version)
        registry.promote("mmkgr", "canary", v2.version)
        print(f"aliases: {registry.aliases('mmkgr')}")

        # --- serve: one daemon, resolved from the registry ---------------
        # ServeConfig is the server's whole shape: batching, workers, and
        # the canary-routing seed all go through config=.
        server = ReasoningServer(
            registry=registry,
            default_model="mmkgr@prod",
            config=ServeConfig(max_batch_size=8, max_wait_ms=5, seed=7),
        )
        with server:
            futures = [server.submit(h, r, k=3) for h, r in queries]
            for future in futures:
                future.result(timeout=60)
            print(f"served {server.stats.requests_total} prod requests "
                  f"(version {server.pool.entry('mmkgr').version})")

            # --- canary: a seeded 25% slice hits the candidate ------------
            canary_key = server.route("mmkgr", 0.25)
            futures = [server.submit(h, r, k=3) for h, r in queries * 5]
            for future in futures:
                future.result(timeout=60)
            canary_stats = server.stats_dict(model=canary_key)
            print(
                f"canary split: {canary_stats['requests_total']} of "
                f"{len(futures)} requests went to {canary_key} "
                f"(version {canary_stats['version']})"
            )

            # --- hot swap: promote + reload, no dropped requests ----------
            registry.promote("mmkgr", "prod", v2.version)
            in_flight = [server.submit(h, r, k=3) for h, r in queries]
            swapped = server.reload("mmkgr")
            for future in in_flight:
                future.result(timeout=60)  # drained on the old replicas
            print(
                f"hot-swapped prod to {swapped.ref}; in-flight requests all "
                f"answered, now serving version "
                f"{server.pool.entry('mmkgr').version}"
            )
            print(f"final stats: {server.stats_dict()}")


if __name__ == "__main__":
    main()
