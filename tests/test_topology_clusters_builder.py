"""Tests for the clientele tree builder."""

import pytest

from repro.errors import TopologyError
from repro.topology import build_clientele_tree
from repro.trace import Request, Trace
from repro.workload import GeneratorConfig, SyntheticTraceGenerator


class TestBuilder:
    def _trace(self):
        requests = [
            Request(timestamp=float(i), client=c, doc_id="/d", size=1)
            for i, c in enumerate(
                ["c001.region-03", "c002.region-03", "c003.region-07", "local-1.campus"]
            )
        ]
        return Trace(requests)

    def test_leaves_are_clients(self):
        tree = build_clientele_tree(self._trace())
        assert tree.leaves == self._trace().clients()

    def test_region_parsed_from_id(self):
        tree = build_clientele_tree(self._trace())
        path = tree.path_from_root("c003.region-07")
        assert "region-07" in path

    def test_local_clients_region_zero(self):
        tree = build_clientele_tree(self._trace())
        assert "region-00" in tree.path_from_root("local-1.campus")

    def test_backbone_depth(self):
        tree = build_clientele_tree(self._trace(), backbone_hops=3)
        # root -> bb1 -> bb2 -> bb3 -> region -> subnet -> client
        assert tree.depth("c001.region-03") == 6

    def test_no_backbone(self):
        tree = build_clientele_tree(self._trace(), backbone_hops=0)
        assert tree.depth("c001.region-03") == 3

    def test_same_region_shares_backbone(self):
        tree = build_clientele_tree(self._trace(), backbone_hops=2)
        p1 = tree.path_from_root("c001.region-03")
        p2 = tree.path_from_root("c002.region-03")
        assert p1[:4] == p2[:4]  # root + 2 backbone + region shared

    def test_foreign_ids_hash_deterministically(self):
        requests = [
            Request(timestamp=0.0, client="weird.example.org", doc_id="/d", size=1)
        ]
        t1 = build_clientele_tree(Trace(requests))
        t2 = build_clientele_tree(Trace(requests))
        assert t1.path_from_root("weird.example.org") == t2.path_from_root(
            "weird.example.org"
        )

    def test_empty_trace_rejected(self):
        with pytest.raises(TopologyError):
            build_clientele_tree(Trace([]))

    def test_bad_subnets_rejected(self):
        with pytest.raises(TopologyError):
            build_clientele_tree(self._trace(), subnets_per_region=0)

    def test_bad_backbone_rejected(self):
        with pytest.raises(TopologyError):
            build_clientele_tree(self._trace(), backbone_hops=-1)

    def test_synthetic_trace_integration(self):
        gen = SyntheticTraceGenerator(
            GeneratorConfig(seed=4, n_pages=40, n_clients=60, n_sessions=150, duration_days=5)
        )
        trace = gen.generate()
        tree = build_clientele_tree(trace)
        assert trace.clients() <= tree.leaves
        # Every leaf reachable and correctly classified.
        for leaf in tree.leaves:
            assert tree.node_kind(leaf) == "leaf"
