"""Streaming generation: stream()/generate() equivalence and sharding."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CalibrationError
from repro.trace import Trace
from repro.workload import GeneratorConfig, SyntheticTraceGenerator, generator

from .oracles import session_walk
from .oracles.session_walk import merge_streams

BASE = GeneratorConfig(
    seed=3, n_pages=60, n_clients=40, n_sessions=300, duration_days=10
)

# Configurations chosen to exercise every stateful path of the stream:
# churn rewires links mid-stream, new pages grow the site, the diurnal
# profile uses rejection thinning, and affinity re-reads client state.
CONFIGS = [
    BASE,
    GeneratorConfig(
        seed=7,
        n_pages=80,
        n_clients=50,
        n_sessions=400,
        duration_days=14,
        link_churn_per_day=0.05,
        new_page_fraction=0.2,
    ),
    GeneratorConfig(
        seed=11,
        n_pages=50,
        n_clients=30,
        n_sessions=250,
        duration_days=7,
        diurnal_amplitude=0.6,
        region_affinity=0.5,
    ),
    GeneratorConfig(
        seed=0,
        n_pages=40,
        n_clients=25,
        n_sessions=200,
        duration_days=5,
        activity_alpha=0.0,
    ),
]


def _requests_equal(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.timestamp == b.timestamp
        assert a.client == b.client
        assert a.doc_id == b.doc_id
        assert a.size == b.size
        assert a.remote == b.remote


class TestStreamEquivalence:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"seed{c.seed}")
    def test_stream_matches_generate(self, config):
        streamed = list(SyntheticTraceGenerator(config).stream())
        batch = SyntheticTraceGenerator(config).generate()
        _requests_equal(streamed, list(batch))

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"seed{c.seed}")
    def test_stream_matches_reference_batch(self, config):
        # The reference is the scalar per-session walk, its requests
        # stable-sorted by timestamp in the test oracle rather than by
        # the code under test.
        streamed = list(SyntheticTraceGenerator(config).stream())
        reference = session_walk.requests(SyntheticTraceGenerator(config))
        _requests_equal(streamed, reference)

    def test_stream_is_time_ordered(self):
        timestamps = [
            r.timestamp for r in SyntheticTraceGenerator(BASE).stream()
        ]
        assert timestamps == sorted(timestamps)

    def test_stream_leaves_matching_site_state(self):
        config = CONFIGS[1]  # churn + new pages mutate the site
        streaming = SyntheticTraceGenerator(config)
        list(streaming.stream())
        batch = SyntheticTraceGenerator(config)
        batch.generate()
        assert streaming._links == batch._links
        assert np.array_equal(streaming._born, batch._born)


configs = st.builds(
    GeneratorConfig,
    seed=st.integers(0, 2**32),
    n_pages=st.integers(2, 40),
    n_clients=st.integers(6, 30),
    n_sessions=st.integers(1, 120),
    duration_days=st.floats(0.5, 6.0),
    link_churn_per_day=st.sampled_from([0.0, 0.1, 0.5]),
    new_page_fraction=st.sampled_from([0.0, 0.3, 0.9]),
    region_affinity=st.sampled_from([0.0, 0.4, 1.0]),
    diurnal_amplitude=st.sampled_from([0.0, 0.7]),
    local_fraction=st.sampled_from([0.0, 0.3, 0.8]),
    n_regions=st.integers(1, 5),
)


class TestBlockWalkMatchesScalarWalk:
    """The lockstep walk against the scalar oracle, request for request."""

    @settings(max_examples=40, deadline=None)
    @given(
        config=configs,
        block=st.sampled_from([5, 64, generator._SESSION_BLOCK]),
        shards=st.integers(1, 3),
        epoch=st.integers(0, 1),
    )
    def test_stream_and_generate_match_the_oracle(
        self, config, block, shards, epoch
    ):
        # Small blocks put block boundaries (and the site replay across
        # them) inside these few-session traces.
        with mock.patch.object(generator, "_SESSION_BLOCK", block):
            for shard in range(shards):
                reference = session_walk.requests(
                    SyntheticTraceGenerator(config), epoch, shard, shards
                )
                streamed = SyntheticTraceGenerator(config).stream(
                    shard_index=shard, shard_count=shards, epoch=epoch
                )
                _requests_equal(list(streamed), reference)
            batch = SyntheticTraceGenerator(config)
            for __ in range(epoch + 1):  # generate() advances the epoch
                trace = batch.generate()
            reference = session_walk.requests(SyntheticTraceGenerator(config), epoch)
            _requests_equal(list(trace), reference)

    def test_generate_builds_no_per_session_generator(self, monkeypatch):
        """Reduced paper shape (one block): no bit generator, ``Generator``
        or seed object per session — the walk steps its streams as
        arrays, with one scalar engine per block for the ziggurat's
        slow path."""
        config = dataclasses.replace(
            GeneratorConfig.paper_scale(0), n_clients=850, n_sessions=2800
        )
        subject = SyntheticTraceGenerator(config)
        built = {"PCG64": 0, "Generator": 0, "SeedWords": 0}

        def counting(name, make):
            def build(*args, **kwargs):
                built[name] += 1
                return make(*args, **kwargs)

            return build

        monkeypatch.setattr(np.random, "PCG64", counting("PCG64", np.random.PCG64))
        monkeypatch.setattr(
            np.random, "Generator", counting("Generator", np.random.Generator)
        )
        monkeypatch.setattr(
            session_walk.SeedWords,
            "__init__",
            counting("SeedWords", session_walk.SeedWords.__init__),
        )
        assert len(subject.generate()) > config.n_sessions
        assert built == {"PCG64": 1, "Generator": 1, "SeedWords": 0}
        # The counters see a per-session generator built the scalar way.
        session_walk.session_rng(config.seed, 0, 0)
        assert built == {"PCG64": 2, "Generator": 2, "SeedWords": 1}


class TestSharding:
    @pytest.mark.parametrize("shards", [2, 3, 5])
    def test_shard_merge_equals_unsharded(self, shards):
        config = CONFIGS[1]
        whole = list(SyntheticTraceGenerator(config).stream())
        parts = [
            SyntheticTraceGenerator(config).stream(
                shard_index=i, shard_count=shards, epoch=0
            )
            for i in range(shards)
        ]
        merged = list(merge_streams(*parts))
        _requests_equal(merged, whole)

    def test_shards_partition_clients(self):
        config = BASE
        seen = [
            {
                r.client
                for r in SyntheticTraceGenerator(config).stream(
                    shard_index=i, shard_count=3, epoch=0
                )
            }
            for i in range(3)
        ]
        assert not (seen[0] & seen[1])
        assert not (seen[0] & seen[2])
        assert not (seen[1] & seen[2])

    def test_bad_shard_args_raise(self):
        generator = SyntheticTraceGenerator(BASE)
        with pytest.raises(CalibrationError):
            generator.stream(shard_count=0)
        with pytest.raises(CalibrationError):
            generator.stream(shard_index=2, shard_count=2)
        with pytest.raises(CalibrationError):
            generator.stream(shard_index=-1, shard_count=2)


class TestEpochs:
    def test_epochs_differ_but_reproduce(self):
        first = SyntheticTraceGenerator(BASE)
        epoch0 = list(first.stream())
        epoch1 = list(first.stream())
        assert [r.doc_id for r in epoch0] != [r.doc_id for r in epoch1]

        second = SyntheticTraceGenerator(BASE)
        _requests_equal(list(second.stream()), epoch0)
        _requests_equal(list(second.stream()), epoch1)

    def test_explicit_epoch_pins_randomness(self):
        generator = SyntheticTraceGenerator(BASE)
        pinned = list(generator.stream(epoch=5))
        again = list(SyntheticTraceGenerator(BASE).stream(epoch=5))
        _requests_equal(pinned, again)


class TestRegionOrderRegression:
    """Regression: region orders must not depend on arrival order.

    The old implementation permuted each region's local pages lazily
    from the shared generation RNG, so *which clients showed up first*
    changed every region's page order — sharded runs could not
    reproduce the unsharded trace. Orders now come from dedicated
    SeedSequence substreams derived only from (seed, region).
    """

    def test_orders_prederived_before_generation(self):
        generator = SyntheticTraceGenerator(BASE)
        before = {
            region: list(generator._region_order(region))
            for region in range(BASE.n_regions)
        }
        list(generator.stream())
        after = {
            region: list(generator._region_order(region))
            for region in range(BASE.n_regions)
        }
        assert before == after

    def test_orders_identical_across_instances(self):
        first = SyntheticTraceGenerator(BASE)
        second = SyntheticTraceGenerator(BASE)
        list(second.stream())  # consume randomness in one of them
        for region in range(BASE.n_regions):
            assert list(first._region_order(region)) == list(
                second._region_order(region)
            )

    def test_orders_are_permutations_of_local_pages(self):
        generator = SyntheticTraceGenerator(BASE)
        for region in range(BASE.n_regions):
            order = list(generator._region_order(region))
            assert sorted(order) == sorted(set(order))


class TestGenerateWrapper:
    def test_generate_returns_sorted_trace(self):
        trace = SyntheticTraceGenerator(BASE).generate()
        assert isinstance(trace, Trace)
        timestamps = [r.timestamp for r in trace]
        assert timestamps == sorted(timestamps)

    def test_generate_carries_full_catalog(self):
        generator = SyntheticTraceGenerator(BASE)
        trace = generator.generate()
        assert set(trace.documents) >= {
            d.doc_id for d in generator.site.documents()
        }
