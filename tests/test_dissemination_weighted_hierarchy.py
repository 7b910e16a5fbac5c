"""Tests for hierarchical shielding."""

import pytest

from repro.errors import TopologyError
from repro.dissemination import HierarchicalShielding, ProxyLevel


class TestHierarchicalShielding:
    def test_fractions_sum_to_one(self):
        shielding = HierarchicalShielding(
            [ProxyLevel(4, 10e6, 10), ProxyLevel(2, 20e6, 10)],
            lam=6.247e-7,
            n_home_servers=10,
        )
        outcomes = shielding.distribute(1000.0)
        assert sum(o.absorbed_fraction for o in outcomes) == pytest.approx(1.0)

    def test_outer_level_absorbs_first(self):
        shielding = HierarchicalShielding(
            [ProxyLevel(1, 50e6, 10)], lam=6.247e-7, n_home_servers=10
        )
        outcomes = shielding.distribute(1000.0)
        assert outcomes[0].label == "level-0"
        assert outcomes[-1].label == "home-servers"
        assert outcomes[0].absorbed_fraction > outcomes[-1].absorbed_fraction

    def test_zero_storage_absorbs_nothing(self):
        shielding = HierarchicalShielding(
            [ProxyLevel(1, 0.0, 10)], lam=1e-6, n_home_servers=5
        )
        outcomes = shielding.distribute(100.0)
        assert outcomes[0].absorbed_fraction == 0.0
        assert outcomes[-1].absorbed_fraction == pytest.approx(1.0)

    def test_extra_level_relieves_bottleneck(self):
        """The paper's §2.3 argument: one proxy absorbing 96% is a
        bottleneck; adding a wider level closer to clients cuts the
        busiest machine's load."""
        lam = 6.247e-7
        single = HierarchicalShielding(
            [ProxyLevel(1, 500e6, 100)], lam=lam, n_home_servers=100
        )
        # Same inner proxy, plus 10 smaller outer proxies absorbing first.
        layered = HierarchicalShielding(
            [ProxyLevel(10, 50e6, 100), ProxyLevel(1, 500e6, 100)],
            lam=lam,
            n_home_servers=100,
        )
        offered = 1_000_000.0
        assert layered.peak_node_load(offered) < single.peak_node_load(offered)

    def test_load_per_node_division(self):
        shielding = HierarchicalShielding(
            [ProxyLevel(4, 50e6, 10)], lam=6.247e-7, n_home_servers=10
        )
        outcomes = shielding.distribute(1000.0)
        level = outcomes[0]
        assert level.load_per_node == pytest.approx(
            level.absorbed_fraction * 1000.0 / 4
        )

    def test_validation(self):
        with pytest.raises(TopologyError):
            HierarchicalShielding([], lam=1e-6, n_home_servers=1)
        with pytest.raises(TopologyError):
            HierarchicalShielding(
                [ProxyLevel(1, 1.0, 1)], lam=0.0, n_home_servers=1
            )
        with pytest.raises(TopologyError):
            ProxyLevel(0, 1.0, 1)
        with pytest.raises(TopologyError):
            ProxyLevel(1, -1.0, 1)
        shielding = HierarchicalShielding(
            [ProxyLevel(1, 1.0, 1)], lam=1e-6, n_home_servers=1
        )
        with pytest.raises(TopologyError):
            shielding.distribute(-1.0)
