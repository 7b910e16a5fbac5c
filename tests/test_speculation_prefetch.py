"""Tests for server-assisted prefetching and the hybrid protocol."""

import pytest

from repro.config import BaselineConfig
from repro.errors import PolicyError
from repro.speculation import (
    ClientPrefetcher,
    DependencyModel,
    HybridProtocol,
    PrefetchHints,
    SpeculativeServiceSimulator,
    ThresholdPolicy,
)
from repro.trace import Document, Request, Trace

CONFIG = BaselineConfig(comm_cost=1.0, serv_cost=100.0)

SIZES = {"/page": 1000, "/inline": 200, "/next": 500, "/huge": 90_000}
DOCS = [Document(doc_id=d, size=s) for d, s in SIZES.items()]


def req(t, doc, client="c"):
    return Request(timestamp=t, client=client, doc_id=doc, size=SIZES[doc])


@pytest.fixture
def model():
    # /page -> /inline (1.0), /page -> /next (0.4), /page -> /huge (0.6)
    return DependencyModel.from_counts(
        {"/page": {"/inline": 10.0, "/next": 4.0, "/huge": 6.0}},
        {"/page": 10.0, "/inline": 10.0, "/next": 10.0, "/huge": 10.0},
    )


@pytest.fixture
def catalog():
    return {d.doc_id: d for d in DOCS}


class TestPrefetchHints:
    def test_sorted_and_capped(self, model, catalog):
        hints = PrefetchHints(max_hints=2).hints("/page", model, catalog)
        assert [h.doc_id for h in hints] == ["/inline", "/huge"]

    def test_floor(self, model, catalog):
        hints = PrefetchHints(min_probability=0.5).hints("/page", model, catalog)
        assert {h.doc_id for h in hints} == {"/inline", "/huge"}

    def test_unknown_source(self, model, catalog):
        assert PrefetchHints().hints("/nope", model, catalog) == []

    def test_targets_must_be_in_catalog(self, model):
        hints = PrefetchHints().hints("/page", model, {})
        assert hints == []

    def test_invalid(self):
        with pytest.raises(PolicyError):
            PrefetchHints(max_hints=0)
        with pytest.raises(PolicyError):
            PrefetchHints(min_probability=0.0)


class TestClientPrefetcher:
    def test_threshold_cuts(self, model, catalog):
        prefetcher = ClientPrefetcher(threshold=0.5)
        assert prefetcher.choose("/page", model, catalog) == ["/inline", "/huge"]

    def test_max_size_skips(self, model, catalog):
        prefetcher = ClientPrefetcher(threshold=0.5, max_size=10_000)
        assert prefetcher.choose("/page", model, catalog) == ["/inline"]

    def test_invalid(self):
        with pytest.raises(PolicyError):
            ClientPrefetcher(threshold=0.0)
        with pytest.raises(PolicyError):
            ClientPrefetcher(max_size=0)


class TestPrefetchSimulation:
    def test_prefetch_costs_server_requests(self, model):
        trace = Trace([req(0, "/page"), req(1, "/inline")], DOCS)
        sim = SpeculativeServiceSimulator(trace, CONFIG, model=model)
        prefetcher = ClientPrefetcher(threshold=0.9)
        run = sim.run(None, prefetcher=prefetcher)
        # The prefetch of /inline is its own server request...
        assert run.prefetch_requests == 1
        assert run.metrics.server_requests == 2
        # ...but the later demand access becomes a cache hit.
        assert run.cache_hits == 1

    def test_speculation_vs_prefetch_server_load(self, model):
        """The paper's distinction: speculation piggybacks (no extra
        requests) while prefetching pays one request per document."""
        trace = Trace([req(0, "/page"), req(1, "/inline")], DOCS)
        sim = SpeculativeServiceSimulator(trace, CONFIG, model=model)
        speculation = sim.run(ThresholdPolicy(threshold=0.9))
        prefetch = sim.run(None, prefetcher=ClientPrefetcher(threshold=0.9))
        assert speculation.metrics.server_requests < prefetch.metrics.server_requests
        # Both eliminate the demand miss.
        assert speculation.cache_hits == prefetch.cache_hits == 1

    def test_prefetch_skips_cached_documents(self, model):
        trace = Trace([req(0, "/inline"), req(1, "/page")], DOCS)
        sim = SpeculativeServiceSimulator(trace, CONFIG, model=model)
        run = sim.run(None, prefetcher=ClientPrefetcher(threshold=0.9))
        assert run.prefetch_requests == 0


class TestHybridProtocol:
    def test_components(self):
        hybrid = HybridProtocol.with_thresholds(
            embedding_tolerance=0.1, prefetch_threshold=0.3, max_size=50_000
        )
        # Embedding-only speculation: direct p >= 1 - tolerance.
        assert hybrid.policy == ThresholdPolicy(
            threshold=1.0 - 0.1, max_size=50_000, use_closure=False
        )
        assert hybrid.prefetcher.threshold == 0.3

    def test_hybrid_run(self, model):
        """Hybrid: /inline (embedding) is pushed; /huge (p=0.6) is
        prefetched by the client; /next (p=0.4) is left alone."""
        trace = Trace(
            [req(0, "/page"), req(1, "/inline"), req(2, "/huge"), req(3, "/next")],
            DOCS,
        )
        sim = SpeculativeServiceSimulator(trace, CONFIG, model=model)
        hybrid = HybridProtocol.with_thresholds(prefetch_threshold=0.5)
        run = sim.run(hybrid.policy, prefetcher=hybrid.prefetcher)
        assert run.metrics.speculated_documents == 1  # /inline push
        assert run.prefetch_requests == 1  # /huge prefetch
        assert run.cache_hits == 2  # /inline and /huge
        # /next was a plain demand miss.
        assert run.metrics.server_requests == 1 + 1 + 1  # page, prefetch, next

    def test_hybrid_no_double_delivery(self, model):
        """A document pushed as an embedding is not prefetched again."""
        trace = Trace([req(0, "/page"), req(1, "/inline")], DOCS)
        sim = SpeculativeServiceSimulator(trace, CONFIG, model=model)
        hybrid = HybridProtocol.with_thresholds(prefetch_threshold=0.9)
        run = sim.run(hybrid.policy, prefetcher=hybrid.prefetcher)
        assert run.metrics.speculated_documents == 1
        assert run.prefetch_requests == 0
