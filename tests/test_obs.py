"""The unified observability layer: traces, time-series, exports.

The two load-bearing guarantees (see ``docs/observability.md``):

1. **Trace determinism** — same seed ⇒ byte-identical JSONL.
2. **Curve-integrates-to-headline** — the final value of every
   cumulative time-series equals the live counter exactly, so the
   windowed curves reproduce the paper's four ratios bit-for-bit.
"""

import json

import pytest

from repro.config import BaselineConfig
from repro.core import CombinedProtocolSimulator
from repro.obs import (
    EVENT_KINDS,
    Counter,
    Histogram,
    MetricsRegistry,
    ObsBundle,
    ObsConfig,
    TimeSeriesRecorder,
    Tracer,
    config_digest,
    default_registry,
    prometheus_text,
    ratios_from_counters,
    run_manifest,
)
from repro.runtime import LiveSettings, execute_loadtest, smoke_workload
from repro.speculation import DependencyModel, ThresholdPolicy
from repro.topology import RoutingTree
from repro.trace import Document, Request, Trace

OBS = ObsConfig.full()


@pytest.fixture(scope="module")
def observed():
    """One fully observed live run, shared by the read-only tests."""
    return execute_loadtest(smoke_workload(0), LiveSettings(seed=0), obs=OBS)


class TestTracer:
    def test_events_round_and_sort_fields(self):
        tracer = Tracer()
        tracer.event(1.23456789012, "request", b=2, a=1)
        line = tracer.to_jsonl()
        assert json.loads(line) == {
            "a": 1,
            "b": 2,
            "kind": "request",
            "t": 1.23456789,
        }
        assert line == json.dumps(json.loads(line), sort_keys=True)

    def test_ring_bound_drops_oldest(self):
        tracer = Tracer(limit=2)
        for index in range(5):
            tracer.event(float(index), "event", index=index)
        assert len(tracer) == 2
        assert tracer.dropped == 3
        assert [e.to_dict()["index"] for e in tracer.events] == [3, 4]


class TestTraceDeterminism:
    def test_live_trace_is_byte_identical(self, observed):
        again = execute_loadtest(
            smoke_workload(0), LiveSettings(seed=0), obs=OBS
        )
        first = observed.observed.trace_jsonl()
        assert first
        assert first == again.observed.trace_jsonl()

    def test_seed_changes_the_trace(self, observed):
        other = execute_loadtest(
            smoke_workload(1), LiveSettings(seed=1), obs=OBS
        )
        assert observed.observed.trace_jsonl() != other.observed.trace_jsonl()

    def test_event_kinds_are_known(self, observed):
        kinds = {
            event.kind for event in observed.observed.speculative.trace
        }
        assert kinds
        assert kinds <= set(EVENT_KINDS)

    def test_nothing_dropped_at_default_limit(self, observed):
        assert observed.observed.speculative.dropped == 0


class TestCurveParity:
    """Windowed series integrate back to the exact live counters."""

    def test_final_values_equal_live_counters(self, observed):
        for arm_snapshot, arm_obs in (
            (observed.speculative, observed.observed.speculative),
            (observed.baseline, observed.observed.baseline),
        ):
            final = arm_obs.timeseries.final_values()
            for name, value in arm_snapshot["counters"].items():
                assert final[name] == value, name

    def test_ratios_from_final_windows_match_headline(self, observed):
        spec = observed.observed.speculative.timeseries.final_values()
        base = observed.observed.baseline.timeseries.final_values()
        assert ratios_from_counters(spec, base) == observed.ratios

    def test_curve_ends_at_the_headline(self, observed):
        curve = observed.observed.ratio_curve()
        assert curve
        __, last = curve[-1]
        assert last == observed.ratios

    def test_combined_simulator_samples_integrate_exactly(self):
        sizes = {"/page": 1000, "/inline": 200}
        docs = [Document(doc_id=d, size=s) for d, s in sizes.items()]
        trace = Trace(
            [
                Request(timestamp=t, client="c1", doc_id=d, size=sizes[d])
                for t, d in [(0.0, "/page"), (9000.0, "/inline")]
            ],
            docs,
        )
        tree = RoutingTree("root", {"edge": "root", "c1": "edge"})
        model = DependencyModel.from_counts(
            {"/page": {"/inline": 10.0}}, {"/page": 10.0, "/inline": 10.0}
        )
        sim = CombinedProtocolSimulator(
            trace, tree, BaselineConfig(comm_cost=1.0, serv_cost=100.0),
            model=model,
        )
        recorder = TimeSeriesRecorder(window=3600.0)
        tracer = Tracer()
        result = sim.run(
            policy=ThresholdPolicy(threshold=0.9),
            recorder=recorder,
            tracer=tracer,
        )
        final = recorder.final_values()
        assert final["accesses"] == result.accesses
        assert final["cache_hits"] == result.cache_hits
        assert final["origin_requests"] == result.origin_requests
        assert final["bytes_hops"] == result.bytes_hops
        assert final["service_time"] == result.service_time
        assert final["speculated_bytes"] == result.speculated_bytes
        assert final["miss_bytes"] == result.miss_bytes
        assert final["accessed_bytes"] == result.accessed_bytes
        # Two requests 2.5 hours apart land in different windows.
        assert len(recorder.series("accesses")) == 2
        # The speculated rider produced exactly one trace event.
        assert [e.kind for e in tracer.events] == ["speculation"]


class TestTimeSeriesRecorder:
    def test_same_window_samples_collapse_to_the_last(self):
        recorder = TimeSeriesRecorder(window=10.0)
        recorder.sample_at(1.0, "x", 1.0)
        recorder.sample_at(9.0, "x", 5.0)
        recorder.sample_at(11.0, "x", 7.0)
        samples = recorder.series("x")
        assert [(s.window_start, s.value) for s in samples] == [
            (0.0, 5.0),
            (10.0, 7.0),
        ]

    def test_bound_clock_drives_plain_samples(self):
        now = [0.0]
        recorder = TimeSeriesRecorder(window=10.0, clock=lambda: now[0])
        recorder.sample("x", 1.0)
        now[0] = 25.0
        recorder.sample("x", 2.0)
        assert [s.window_start for s in recorder.series("x")] == [0.0, 20.0]

    def test_registry_counters_record_when_recorder_present(self):
        recorder = TimeSeriesRecorder(window=10.0, clock=lambda: 0.0)
        registry = MetricsRegistry(recorder=recorder)
        registry.counter("hits").inc(3)
        registry.counter("hits").inc(2)
        assert recorder.final_values()["hits"] == 5.0
        assert registry.value("hits") == 5.0

    def test_plain_registry_records_nothing(self):
        registry = default_registry()
        registry.counter("hits").inc()
        assert registry.tracer is None
        assert registry.recorder is None


class TestObsConfig:
    def test_disabled_by_default(self):
        config = ObsConfig()
        assert not config.enabled
        assert ObsConfig.full().enabled

    def test_bundle_without_config_is_plain(self):
        bundle = ObsBundle.from_config(None)
        assert bundle.tracer is None
        assert bundle.recorder is None

    def test_disabled_obs_attaches_no_observations(self):
        report = execute_loadtest(
            smoke_workload(0), LiveSettings(seed=0), obs=ObsConfig()
        )
        assert report.observed is None

    def test_observed_run_measures_identically(self, observed):
        plain = execute_loadtest(smoke_workload(0), LiveSettings(seed=0))
        assert plain.ratios == observed.ratios
        assert plain.speculative == observed.speculative


class TestExports:
    def test_prometheus_text_shape(self, observed):
        text = prometheus_text(observed.speculative)
        assert "# TYPE repro_accesses counter" in text
        accesses = observed.speculative["counters"]["accesses"]
        assert f"\nrepro_accesses {accesses}\n" in text
        # Dotted counter names are sanitised for the exposition format.
        assert "repro_run_virtual_seconds" in text
        assert "." not in text.replace("# TYPE", "").split()[1]

    def test_prometheus_histograms_become_gauges(self, observed):
        text = prometheus_text(observed.speculative)
        assert "# TYPE repro_request_latency_count gauge" in text

    def test_config_digest_is_canonical(self):
        digest = config_digest({"b": 2, "a": 1})
        assert digest == config_digest({"a": 1, "b": 2})
        assert digest != config_digest({"a": 1, "b": 3})
        assert len(digest) == 64

    def test_run_manifest_contents(self):
        manifest = run_manifest(seed=7, config={"x": 1})
        assert set(manifest) == {"seed", "config_digest", "git_sha"}
        assert manifest["seed"] == 7
        assert manifest["config_digest"] == config_digest({"x": 1})

    def test_live_manifest_pins_the_run(self, observed):
        manifest = observed.observed.manifest
        assert manifest["seed"] == 0
        assert len(manifest["config_digest"]) == 64


class TestExactCounterMerge:
    """Shard-merge exactness: Counter state transfer and fsum totals."""

    def test_int_counters_stay_int(self):
        counter = Counter()
        counter.inc(3)
        counter.inc(4)
        assert counter.value == 7
        assert isinstance(counter.value, int)

    def test_float_accumulation_is_correctly_rounded(self):
        import math

        values = [0.1] * 10 + [1e16, 1.0, -1e16] + [1e-9] * 7
        counter = Counter()
        for value in values:
            counter.inc(value)
        assert counter.value == math.fsum(values)

    def test_merge_is_order_independent(self):
        import math
        import random

        values = [(-1) ** i * (0.1 + i * 1e-7) for i in range(200)]
        rng = random.Random(5)
        states = []
        for chunk in range(4):
            counter = Counter()
            for value in values[chunk * 50 : (chunk + 1) * 50]:
                counter.inc(value)
            states.append(counter.state())
        merged_values = [
            Counter.from_states(order(states)).value
            for order in (
                lambda s: s,
                lambda s: list(reversed(s)),
                lambda s: rng.sample(s, len(s)),
            )
        ]
        single = Counter()
        for value in values:
            single.inc(value)
        assert merged_values[0] == merged_values[1] == merged_values[2]
        assert merged_values[0] == single.value == math.fsum(values)

    def test_merge_registry_states_sums_and_maxes(self):
        shards = []
        for shard in range(3):
            registry = MetricsRegistry()
            registry.counter("server.requests").inc(10 + shard)
            registry.counter("run.virtual_seconds").inc(100.0 * (shard + 1))
            registry.histogram("latency").observe(float(shard))
            shards.append(registry.export_state())
        from repro.obs import merge_registry_states

        merged = merge_registry_states(
            shards, max_counters=("run.virtual_seconds",)
        )
        snapshot = merged.snapshot()
        assert snapshot["counters"]["server.requests"] == 33
        assert snapshot["counters"]["run.virtual_seconds"] == 300.0

    def test_histogram_extend_matches_observe(self):
        first = Histogram()
        for value in (1.0, 2.0, 4.0):
            first.observe(value)
        second = Histogram()
        second.extend(first.values)
        assert second.summary() == first.summary()
