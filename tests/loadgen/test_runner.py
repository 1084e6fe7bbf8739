"""Drivers and the sweep runner against a live tiny deployment."""

from __future__ import annotations

import pytest

from repro.loadgen import (
    DeploymentSpec,
    LoadTestSpec,
    SLOSpec,
    SweepSpec,
    WorkloadSpec,
    plan_point,
    query_mix,
    run_loadtest,
    run_plan,
)
from repro.serve import Reasoner, ReasoningServer, ServeConfig


@pytest.fixture(scope="module")
def fitted_reasoner(tiny_preset, tiny_dataset):
    return Reasoner(preset=tiny_preset, rng=0).fit(tiny_dataset)


@pytest.fixture(scope="module")
def queries(tiny_dataset):
    return query_mix(tiny_dataset)


def drive(fitted_reasoner, plan):
    server = ReasoningServer(
        fitted_reasoner,
        config=ServeConfig(max_batch_size=8, max_wait_ms=2.0),
    ).start()
    try:
        return run_plan(server, plan, timeout_s=30.0), server
    finally:
        server.close()


class TestDrivers:
    def test_closed_loop_completes_and_times(self, fitted_reasoner, queries):
        workload = WorkloadSpec(
            mode="closed", concurrency=2, duration_s=0.4, max_requests=24, seed=3
        )
        plan = plan_point(workload, queries, [fitted_reasoner.name], k=3, rng=3)
        result, _ = drive(fitted_reasoner, plan)
        assert 0 < len(result.records) <= 24
        assert all(r.ok for r in result.records)
        assert all(r.latency_s is not None and r.latency_s > 0 for r in result.records)
        assert result.wall_clock_s > 0

    def test_open_loop_submits_at_offsets(self, fitted_reasoner, queries):
        workload = WorkloadSpec(mode="open", qps=60.0, duration_s=0.4, seed=5)
        plan = plan_point(workload, queries, [fitted_reasoner.name], k=3, rng=5)
        result, server = drive(fitted_reasoner, plan)
        assert len(result.records) == len(plan.requests)
        assert all(r.ok for r in result.records)
        # Submissions honour the planned Poisson offsets (monotone, ≈ on time).
        submitted = [r.submitted_s for r in result.records]
        assert submitted == sorted(submitted)
        for record in result.records:
            assert record.submitted_s >= record.planned_offset_s - 1e-4
        # The server-side windows saw every stage of each request.
        samples = server.pool.stats_for(fitted_reasoner.name).stage_samples()
        assert len(samples["compute"]) == len(result.records)
        assert all(value > 0 for value in samples["compute"])

    def test_unknown_model_becomes_error_record(self, fitted_reasoner, queries):
        workload = WorkloadSpec(mode="closed", concurrency=1, duration_s=0.3, max_requests=3)
        plan = plan_point(workload, queries, ["no-such-model"], k=3, rng=1)
        result, _ = drive(fitted_reasoner, plan)
        assert result.records and all(not r.ok for r in result.records)
        assert all("no-such-model" in r.error for r in result.records)


class TestRunLoadtest:
    def test_single_run_report(self, fitted_reasoner, tiny_dataset):
        spec = LoadTestSpec(
            name="tiny-run",
            deployment=DeploymentSpec(models=(fitted_reasoner.name,), k=3, max_wait_ms=2.0),
            workload=WorkloadSpec(
                mode="closed", concurrency=2, duration_s=0.3, max_requests=16, seed=3
            ),
            slo=SLOSpec(p99_ms=5_000.0),
        )
        report = run_loadtest(
            spec, reasoners={fitted_reasoner.name: fitted_reasoner}, dataset=tiny_dataset
        )
        assert report["mode"] == "run" and len(report["points"]) == 1
        point = report["points"][0]
        assert point["completed"] > 0 and point["errors"] == 0
        assert point["offered_qps"] == point["achieved_qps"]
        assert set(point["stages_ms"]) == {"queue_wait", "batch_wait", "compute"}
        assert point["stages_ms"]["compute"]["mean_ms"] > 0
        assert report["slo"]["passed"] is True
        assert report["spec"]["name"] == "tiny-run"

    def test_sweep_report_has_knee_and_slo_point(self, fitted_reasoner, tiny_dataset):
        spec = LoadTestSpec(
            name="tiny-sweep",
            deployment=DeploymentSpec(models=(fitted_reasoner.name,), k=3, max_wait_ms=2.0),
            workload=WorkloadSpec(mode="open", qps=20.0, duration_s=0.3, seed=9),
            sweep=SweepSpec(axis="qps", values=(10.0, 20.0)),
            slo=SLOSpec(p99_ms=5_000.0, at_fraction_of_knee=0.5),
        )
        report = run_loadtest(
            spec,
            sweep=True,
            reasoners={fitted_reasoner.name: fitted_reasoner},
            dataset=tiny_dataset,
        )
        assert [p["axis_value"] for p in report["points"]] == [10.0, 20.0]
        assert report["knee"]["qps"] > 0
        assert report["slo"]["target_qps"] == pytest.approx(0.5 * report["knee"]["qps"])
        assert "point" in report["slo"]
        per_model = report["points"][0]["server_stats"]
        assert fitted_reasoner.name in per_model
        assert "stages" in per_model[fitted_reasoner.name]

    def test_sweep_flag_requires_sweep_section(self, fitted_reasoner, tiny_dataset):
        spec = LoadTestSpec(
            deployment=DeploymentSpec(models=(fitted_reasoner.name,)),
            workload=WorkloadSpec(mode="open", qps=10.0, duration_s=0.1),
        )
        with pytest.raises(ValueError, match="no sweep section"):
            run_loadtest(
                spec,
                sweep=True,
                reasoners={fitted_reasoner.name: fitted_reasoner},
                dataset=tiny_dataset,
            )

    def test_registry_deployment_builds_from_refs(
        self, fitted_reasoner, tiny_dataset, tmp_path
    ):
        from repro.loadgen import build_reasoners
        from repro.serve import ModelRegistry

        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(fitted_reasoner, name="mmkgr")
        deployment = DeploymentSpec(
            preset=None, registry=str(tmp_path / "registry"), models=("mmkgr@1",)
        )
        reasoners = build_reasoners(deployment, tiny_dataset)
        assert list(reasoners) == ["mmkgr"]
        with pytest.raises(ValueError, match="already-hosted"):
            build_reasoners(
                DeploymentSpec(
                    preset=None,
                    registry=str(tmp_path / "registry"),
                    models=("mmkgr@1", "mmkgr@latest"),
                ),
                tiny_dataset,
            )

    def test_multi_tenant_skew_routes_by_zipf(self, fitted_reasoner, tiny_dataset):
        replica = fitted_reasoner.replicate()
        spec = LoadTestSpec(
            name="tiny-skew",
            deployment=DeploymentSpec(models=("hot", "cold"), k=3, max_wait_ms=2.0),
            workload=WorkloadSpec(
                mode="closed",
                concurrency=2,
                duration_s=0.4,
                max_requests=40,
                model_skew=1.5,
                seed=13,
            ),
        )
        report = run_loadtest(
            spec,
            reasoners={"hot": fitted_reasoner, "cold": replica},
            dataset=tiny_dataset,
        )
        counts = report["points"][0]["requests_per_model"]
        assert counts.get("hot", 0) > counts.get("cold", 0)
