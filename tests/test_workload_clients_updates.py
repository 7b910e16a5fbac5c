"""Tests for the client population and document update process."""

import numpy as np
import pytest

from repro.errors import CalibrationError
from repro.workload.distributions import BoundedZipf
from repro.workload import ClientPopulation, UpdateProcess
from repro.workload.updates import CLASS_UPDATE_RATES, MUTABLE_UPDATE_RATE


def rng(seed=0):
    return np.random.default_rng(seed)


class TestClientPopulation:
    def test_count(self):
        assert len(ClientPopulation(100, rng())) == 100

    def test_local_fraction(self):
        pop = ClientPopulation(200, rng(), local_fraction=0.25)
        locals_ = [c for c in pop.clients if c.local]
        assert len(locals_) == 50

    def test_locals_in_region_zero(self):
        pop = ClientPopulation(100, rng(), local_fraction=0.2)
        assert all(c.region == 0 for c in pop.clients if c.local)

    def test_remote_regions_positive(self):
        pop = ClientPopulation(500, rng(), n_regions=8, local_fraction=0.1)
        remote_regions = {c.region for c in pop.clients if not c.local}
        assert remote_regions <= set(range(1, 8))
        assert len(remote_regions) > 1

    def test_unique_ids(self):
        pop = ClientPopulation(300, rng())
        ids = [c.client_id for c in pop.clients]
        assert len(set(ids)) == 300

    def test_sample_respects_population(self):
        pop = ClientPopulation(50, rng(1))
        indices = pop.index_at(rng(3).random(100))
        assert ((indices >= 0) & (indices < len(pop))).all()

    def test_activity_skew(self):
        pop = ClientPopulation(100, rng(2), activity_alpha=1.2)
        counts = np.bincount(pop.index_at(rng(3).random(5000)), minlength=len(pop))
        # Heavy skew: the busiest client gets far more than the 50 of uniform.
        assert counts.max() > 150

    def test_remote_regions_are_one_vector_draw(self):
        # The regions are the ranks n_remote scalar draws would give, and
        # the activity shuffle after them reads the stream where those
        # draws leave it.
        vector, scalar = rng(4), rng(4)
        pop = ClientPopulation(7_203, vector, n_regions=16, local_fraction=0.0)
        zipf = BoundedZipf(15, 0.8, scalar)
        assert [c.region for c in pop.clients] == [
            1 + zipf.sample() for _ in range(7_203)
        ]
        weights = np.arange(1, 7_204, dtype=np.float64) ** -0.9
        activity = np.empty(7_203)
        activity[scalar.permutation(7_203)] = weights / weights.sum()
        cdf = np.cumsum(activity)
        cdf[-1] = 1.0
        u = rng(5).random(10_000)
        assert np.array_equal(pop.index_at(u), np.searchsorted(cdf, u))

    def test_all_local_rejected(self):
        with pytest.raises(CalibrationError):
            ClientPopulation(10, rng(), local_fraction=0.99)

    def test_zero_clients_rejected(self):
        with pytest.raises(CalibrationError):
            ClientPopulation(0, rng())


class TestUpdateProcess:
    def _classes(self, n=100):
        classes = {}
        for i in range(n):
            kind = ["remote", "global", "local"][i % 3]
            classes[f"/doc{i}"] = kind
        return classes

    def test_rates_by_class(self):
        proc = UpdateProcess(self._classes(), rng(), mutable_fraction=0.0)
        assert proc.daily_rate("/doc0") == CLASS_UPDATE_RATES["remote"]
        assert proc.daily_rate("/doc2") == CLASS_UPDATE_RATES["local"]

    def test_mutable_subset_size(self):
        proc = UpdateProcess(self._classes(200), rng(), mutable_fraction=0.05)
        assert len(proc.mutable_docs) == 10

    def test_mutable_rate(self):
        proc = UpdateProcess(self._classes(), rng(), mutable_fraction=0.1)
        doc = next(iter(proc.mutable_docs))
        assert proc.daily_rate(doc) == MUTABLE_UPDATE_RATE

    def test_events_at_most_one_per_doc_per_day(self):
        proc = UpdateProcess(self._classes(), rng(3), mutable_fraction=0.2)
        events = proc.events(30)
        assert len({(e.day, e.doc_id) for e in events}) == len(events)

    def test_events_ordered(self):
        proc = UpdateProcess(self._classes(), rng(3))
        events = proc.events(20)
        keys = [(e.day, e.doc_id) for e in events]
        assert keys == sorted(keys)

    def test_observed_rates_match_configured(self):
        classes = {f"/d{i}": "local" for i in range(50)}
        proc = UpdateProcess(classes, rng(7), mutable_fraction=0.0)
        events = proc.events(3000)
        observed = proc.observed_rates(events, 3000)
        mean_rate = np.mean(list(observed.values()))
        assert mean_rate == pytest.approx(0.02, rel=0.15)

    def test_paper_rate_ordering(self):
        # Locally popular documents update more often than remote/global.
        assert (
            CLASS_UPDATE_RATES["local"]
            > CLASS_UPDATE_RATES["remote"]
            == CLASS_UPDATE_RATES["global"]
        )

    def test_unknown_class_rejected(self):
        with pytest.raises(CalibrationError):
            UpdateProcess({"/x": "weird"}, rng())

    def test_unknown_doc_rejected(self):
        proc = UpdateProcess(self._classes(), rng())
        with pytest.raises(CalibrationError):
            proc.daily_rate("/nope")

    def test_zero_days(self):
        proc = UpdateProcess(self._classes(), rng())
        assert proc.events(0) == []
