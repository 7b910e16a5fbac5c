"""The ``repro.api`` front door, checked against the engines it wraps."""

from repro.api import RunReport, RunSpec, Session
from repro.core import SweepPoint, evaluate_thresholds
from repro.core.experiment import Experiment
from repro.core.sensitivity import SensitivityPoint
from repro.fleet import FleetSettings, fleet_smoke_settings
from repro.obs import ObsConfig
from repro.runtime import (
    ChaosSettings,
    LiveSettings,
    chaos_smoke_settings,
    execute_loadtest,
    execute_smoke,
    smoke_workload,
)
from repro.workload import GeneratorConfig, SyntheticTraceGenerator

TINY = GeneratorConfig(
    seed=0, n_pages=60, n_clients=40, n_sessions=300, duration_days=8
)


class TestRunSpec:
    def test_defaults_resolve_to_the_smoke_setup(self):
        spec = RunSpec(seed=3)
        assert spec.resolved_workload() == smoke_workload(3)
        assert spec.resolved_settings() == LiveSettings(seed=3)
        assert spec.resolved_chaos() == chaos_smoke_settings(3)
        assert spec.resolved_fleet() == fleet_smoke_settings(3)

    def test_explicit_fields_win(self):
        settings = LiveSettings(seed=2, concurrency=8)
        spec = RunSpec(seed=2, workload=TINY, settings=settings)
        assert spec.resolved_workload() is TINY
        assert spec.resolved_settings() is settings
        # Chaos knobs derive from the explicit live settings.
        assert spec.resolved_chaos() == ChaosSettings(live=settings)
        fleet = FleetSettings(seed=2, probe_siblings=1)
        assert RunSpec(fleet=fleet).resolved_fleet() is fleet

    def test_session_overrides_replace_spec_fields(self):
        session = Session(RunSpec(seed=0), seed=5)
        assert session.spec.seed == 5
        assert Session(seed=4).spec == RunSpec(seed=4)


class TestSessionRuns:
    def test_loadtest_smoke_matches_the_engine(self):
        report = Session(seed=0).loadtest(smoke=True)
        assert isinstance(report, RunReport)
        assert report.kind == "loadtest"
        assert report.ratios == execute_smoke(0).ratios
        assert report.detail.batch_ratios is not None

    def test_loadtest_matches_the_engine(self):
        report = execute_loadtest(smoke_workload(0), LiveSettings(seed=0))
        assert report.ratios == Session(seed=0).loadtest().ratios

    def test_observability_threads_through(self):
        report = Session(seed=0, obs=ObsConfig.full()).loadtest()
        assert report.observed is not None
        assert report.trace_jsonl()
        assert report.ratio_curve()
        assert report.manifest["seed"] == 0
        assert report.format().startswith("loadtest: ")

    def test_unobserved_report_helpers_are_empty(self):
        report = Session(seed=0).loadtest()
        assert report.observed is None
        assert report.trace_jsonl() == ""
        assert report.ratio_curve() == []
        assert report.manifest == {}

    def test_chaos_smoke_reports_faulted_ratios(self):
        report = Session(seed=0).chaos(smoke=True)
        assert report.kind == "chaos"
        assert report.ratios == report.detail.faulted.ratios
        assert report.detail.fault_events

    def test_sweep_uses_the_spec_workload(self):
        session = Session(workload=TINY)
        report = session.sweep([0.5, 0.1])
        assert report.kind == "sweep"
        assert [point.parameter for point in report.detail] == [0.5, 0.1]
        assert all(isinstance(p, SweepPoint) for p in report.detail)

    def test_sweep_matches_the_engine_exactly(self):
        trace = SyntheticTraceGenerator(TINY).generate()
        experiment = Experiment(trace, train_days=trace.duration / 86_400 / 2)
        expected = evaluate_thresholds(experiment, [0.25])
        report = Session(workload=TINY).sweep([0.25])
        assert report.detail[0].ratios == expected[0].ratios

    def test_sensitivity_sweeps_the_named_knob(self):
        report = Session(workload=TINY).sensitivity("n_pages", [40, 80])
        assert report.kind == "sensitivity"
        assert [point.value for point in report.detail] == [40, 80]
        assert all(isinstance(p, SensitivityPoint) for p in report.detail)

    def test_fleet_reports_the_three_arm_comparison(self):
        report = Session(seed=0).fleet()
        assert report.kind == "fleet"
        assert report.ratios == report.detail.ratios
        assert report.detail.improvement()
        for fleet_value, single_value in report.detail.improvement().values():
            assert fleet_value < single_value
        assert report.detail.plan["policy"] == "hierarchical"

    def test_fleet_smoke_runs_the_determinism_gate(self):
        report = Session(seed=0).fleet(smoke=True)
        assert report.kind == "fleet"
        assert report.ratios is not None

    def test_bench_wraps_the_perf_harness(self, monkeypatch):
        from repro.api import session as session_module

        calls = {}

        def fake_run_scale(name, *, repeats=None):
            calls["scale"] = (name, repeats)
            return {"medians_seconds": {}}

        monkeypatch.setattr(session_module, "run_scale", fake_run_scale)
        monkeypatch.setattr(
            session_module, "build_report", lambda sections: sections
        )
        report = Session().bench(smoke=True, repeats=2)
        assert report.kind == "bench"
        assert calls["scale"] == ("smoke", 2)
        assert "smoke" in report.detail
