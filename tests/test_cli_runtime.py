"""CLI surface of the live runtime: ``repro loadtest`` / ``repro serve``."""

import json

import pytest

from repro.cli import main
from repro.errors import RuntimeProtocolError, TransportError


class TestLoadtest:
    def test_smoke_passes_and_reports(self, capsys):
        assert main(["loadtest", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "live ratios" in out
        assert "batch check" in out
        assert "divergence" in out

    def test_forced_divergence_exits_3(self, capsys, monkeypatch):
        from repro.runtime import service
        from repro.speculation.metrics import SpeculationRatios

        def skewed(*args, **kwargs):
            return SpeculationRatios(2.0, 2.0, 2.0, 2.0)

        monkeypatch.setattr(service, "_batch_ratios", skewed)
        assert main(["loadtest", "--smoke"]) == 3
        assert "protocol error:" in capsys.readouterr().err

    def test_json_output_is_deterministic(self, capsys):
        def run():
            assert main(
                ["loadtest", "--preset", "smoke", "--seed", "1", "--json"]
            ) == 0
            return capsys.readouterr().out

        first, second = run(), run()
        assert first == second
        data = json.loads(first)
        assert set(data) == {"baseline", "ratios", "speculative"}
        assert 0.0 < data["ratios"]["server_load"] < 1.0

    def test_unknown_preset_is_a_usage_error(self, capsys):
        assert main(["loadtest", "--preset", "no-such-preset"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_transport_failures_exit_4(self, capsys, monkeypatch):
        from repro.cli import commands

        def boom(args):
            raise TransportError("wire cut")

        monkeypatch.setattr(commands, "cmd_loadtest", boom)
        assert main(["loadtest", "--smoke"]) == 4
        assert "transport error: wire cut" in capsys.readouterr().err

    def test_protocol_failures_exit_3(self, capsys, monkeypatch):
        from repro.cli import commands

        def boom(args):
            raise RuntimeProtocolError("bad frame")

        monkeypatch.setattr(commands, "cmd_loadtest", boom)
        assert main(["loadtest", "--smoke"]) == 3
        assert "protocol error: bad frame" in capsys.readouterr().err


class TestChaos:
    def test_smoke_passes_and_reports(self, capsys):
        assert main(["chaos", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "fault events" in out
        assert "crash[" in out
        assert "clean ratios" in out
        assert "faulted ratios" in out
        assert "divergence" in out

    def test_impossible_tolerance_exits_3(self, capsys):
        code = main(["chaos", "--smoke", "--tolerance", "-1"])
        assert code == 3
        assert "protocol error:" in capsys.readouterr().err

    def test_json_output_has_both_pairs(self, capsys):
        assert main(["chaos", "--smoke", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"clean", "faulted", "fault_events", "divergence"}
        assert data["divergence"] <= 0.05
        assert any("crash[" in label for _, label in data["fault_events"])
        faulted = data["faulted"]["speculative"]["counters"]
        assert faulted["network.frames_dropped"] > 0

    def test_bad_proxy_index_is_a_usage_error(self, capsys):
        code = main(
            ["chaos", "--preset", "smoke", "--crash-proxy", "99"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestFleet:
    def test_smoke_gate_passes_and_reports(self, capsys):
        assert main(["fleet", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "fleet " in out
        assert "single (replicated)" in out
        assert "plan: hierarchical" in out

    def test_json_and_trace_artifact(self, capsys, tmp_path):
        trace_path = tmp_path / "fleet.jsonl"
        code = main(["fleet", "--json", "--trace-out", str(trace_path)])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"demand", "fleet", "improvement", "plan", "single"}
        for fleet_value, single_value in data["improvement"].values():
            assert fleet_value < single_value
        lines = trace_path.read_text().splitlines()
        assert lines
        kinds = {json.loads(line)["kind"] for line in lines}
        assert "fleet-serve" in kinds

    def test_bad_region_fraction_is_a_usage_error(self, capsys):
        code = main(["fleet", "--region-fraction", "2.0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_preset_is_a_usage_error(self, capsys):
        assert main(["fleet", "--preset", "no-such-preset"]) == 2
        assert "error:" in capsys.readouterr().err


class TestServe:
    @pytest.mark.parametrize("extra", [[], ["--threshold", "0.5"]])
    def test_tcp_smoke(self, capsys, extra):
        code = main(
            ["serve", "--preset", "smoke", "--seed", "0", "--smoke"] + extra
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serving" in out
        assert "smoke OK: 5 requests served" in out

    def test_unknown_preset_is_a_usage_error(self, capsys):
        assert main(["serve", "--preset", "no-such-preset"]) == 2
        assert "error:" in capsys.readouterr().err


class TestTrace:
    def test_smoke_gate_passes(self, capsys):
        assert main(["trace", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "trace smoke OK" in out
        assert "byte-identical" in out

    def test_stdout_is_jsonl(self, capsys):
        assert main(["trace", "--limit", "64"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 64
        for line in lines:
            event = json.loads(line)
            assert {"t", "kind"} <= set(event)

    def test_artifacts_are_written(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        prom_path = tmp_path / "metrics.prom"
        code = main(
            [
                "trace",
                "--out",
                str(trace_path),
                "--metrics-out",
                str(prom_path),
            ]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        lines = trace_path.read_text().splitlines()
        assert lines and all(json.loads(line) for line in lines)
        assert "# TYPE repro_accesses counter" in prom_path.read_text()


class TestMetrics:
    def test_table_shows_the_curve(self, capsys):
        assert main(["metrics", "--window", "86400"]) == 0
        out = capsys.readouterr().out
        assert "four-ratio curve" in out
        assert "bandwidth" in out

    def test_json_has_both_arms(self, capsys):
        assert main(["metrics", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"baseline", "speculative", "window"}

    def test_chaos_run_exports_prometheus(self, capsys):
        assert main(["metrics", "chaos", "--format", "prometheus"]) == 0
        assert "# TYPE repro_accesses counter" in capsys.readouterr().out
