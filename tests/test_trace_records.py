"""Tests for repro.trace.records."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import TraceFormatError
from repro.trace import Document, Request, Trace


def make_request(t=0.0, client="c1", doc="/a", size=100, **kw):
    return Request(timestamp=t, client=client, doc_id=doc, size=size, **kw)


class TestDocument:
    def test_basic_construction(self):
        doc = Document(doc_id="/a.html", size=1000)
        assert doc.kind == "page"
        assert not doc.mutable

    def test_empty_id_rejected(self):
        with pytest.raises(TraceFormatError):
            Document(doc_id="", size=10)

    def test_negative_size_rejected(self):
        with pytest.raises(TraceFormatError):
            Document(doc_id="/a", size=-1)

    def test_zero_size_allowed(self):
        assert Document(doc_id="/a", size=0).size == 0


class TestRequest:
    def test_defaults(self):
        r = make_request()
        assert r.status == 200
        assert r.method == "GET"
        assert r.remote
        assert r.ok

    def test_not_ok_on_404(self):
        assert not make_request(status=404).ok

    def test_304_is_ok(self):
        assert make_request(status=304).ok

    def test_empty_client_rejected(self):
        with pytest.raises(TraceFormatError):
            Request(timestamp=0, client="", doc_id="/a", size=1)

    def test_negative_size_rejected(self):
        with pytest.raises(TraceFormatError):
            make_request(size=-5)


class TestTraceConstruction:
    def test_ordered_accepted(self):
        trace = Trace([make_request(t=1.0), make_request(t=2.0)])
        assert len(trace) == 2

    def test_unordered_rejected_without_sort(self):
        with pytest.raises(TraceFormatError):
            Trace([make_request(t=2.0), make_request(t=1.0)])

    def test_unordered_sorted_with_flag(self):
        trace = Trace([make_request(t=2.0), make_request(t=1.0)], sort=True)
        assert [r.timestamp for r in trace] == [1.0, 2.0]

    def test_empty_trace(self):
        trace = Trace([])
        assert len(trace) == 0
        assert trace.duration == 0.0
        assert trace.total_bytes() == 0

    def test_catalog_synthesised_from_requests(self):
        trace = Trace([make_request(doc="/x", size=123)])
        assert trace.document_size("/x") == 123

    def test_catalog_keeps_largest_observed_size(self):
        trace = Trace(
            [make_request(t=0, doc="/x", size=50), make_request(t=1, doc="/x", size=99)]
        )
        assert trace.document_size("/x") == 99

    def test_explicit_catalog_preserved(self):
        doc = Document(doc_id="/x", size=500, kind="embedded", mutable=True)
        trace = Trace([make_request(doc="/x", size=100)], [doc])
        assert trace.documents["/x"].size == 500
        assert trace.documents["/x"].kind == "embedded"
        assert trace.documents["/x"].mutable

    def test_unknown_document_raises(self):
        trace = Trace([make_request(doc="/x")])
        with pytest.raises(TraceFormatError):
            trace.document_size("/missing")


class TestTraceDerivation:
    def _trace(self):
        return Trace(
            [
                make_request(t=0.0, client="a", doc="/1", size=10),
                make_request(t=5.0, client="b", doc="/2", size=20, remote=False),
                make_request(t=10.0, client="a", doc="/3", size=30),
                make_request(t=15.0, client="b", doc="/1", size=10),
            ]
        )

    def test_window_half_open(self):
        trace = self._trace()
        window = trace.window(5.0, 15.0)
        assert [r.timestamp for r in window] == [5.0, 10.0]

    def test_window_preserves_catalog_sizes(self):
        trace = self._trace()
        window = trace.window(0.0, 6.0)
        assert window.document_size("/2") == 20

    def test_remote_only(self):
        remote = self._trace().remote_only()
        assert all(r.remote for r in remote)
        assert len(remote) == 3

    def test_by_client_preserves_order(self):
        groups = self._trace().by_client()
        assert [r.timestamp for r in groups["a"]] == [0.0, 10.0]
        assert [r.timestamp for r in groups["b"]] == [5.0, 15.0]

    def test_clients(self):
        assert self._trace().clients() == {"a", "b"}

    def test_total_bytes(self):
        assert self._trace().total_bytes() == 70

    def test_filter(self):
        big = self._trace().filter(lambda r: r.size >= 20)
        assert len(big) == 2

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100, allow_nan=False),
                st.sampled_from(["/1", "/2", "/3", "/4"]),
                st.integers(min_value=0, max_value=50),
                st.booleans(),
            ),
            max_size=40,
        ),
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
    )
    def test_derived_trace_equals_rebuilt_trace(self, entries, start, end):
        # An unordered parent (sort=True) whose catalog holds "/1"
        # larger than any request for it, plus an unrequested "/9".
        requests = [
            make_request(t=t, client="c", doc=doc, size=size, remote=remote)
            for t, doc, size, remote in entries
        ]
        catalog = [Document("/1", 999, kind="embedded"), Document("/9", 5)]
        parent = Trace(requests, catalog, sort=True)
        for derived in (
            parent.window(start, end),
            parent.filter(lambda r: r.size % 2 == 0),
            parent.remote_only(),
        ):
            subset = list(derived)
            rebuilt = Trace(subset, [parent.documents[r.doc_id] for r in subset])
            assert list(derived.requests) == list(rebuilt.requests)
            assert list(derived.timestamps) == list(rebuilt.timestamps)
            assert list(derived.documents.items()) == list(
                rebuilt.documents.items()
            )


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1e6, allow_nan=False),
            st.sampled_from(["a", "b", "c"]),
            st.sampled_from(["/1", "/2", "/3"]),
            st.integers(min_value=0, max_value=10_000),
        ),
        max_size=50,
    )
)
def test_trace_sort_invariants(entries):
    """Sorted ingest always yields a monotone, length-preserving trace."""
    requests = [
        Request(timestamp=t, client=c, doc_id=d, size=s) for t, c, d, s in entries
    ]
    trace = Trace(requests, sort=True)
    assert len(trace) == len(requests)
    times = [r.timestamp for r in trace]
    assert times == sorted(times)
    # Windowing the full span loses nothing.
    if times:
        full = trace.window(times[0], times[-1] + 1.0)
        assert len(full) == len(trace)


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=30))
def test_catalog_size_is_max_observed(sizes):
    requests = [
        Request(timestamp=float(i), client="c", doc_id="/d", size=s)
        for i, s in enumerate(sizes)
    ]
    trace = Trace(requests)
    assert trace.document_size("/d") == max(sizes)


class TestMerge:
    def test_merge_sorts_across_traces(self):
        a = Trace([make_request(t=5.0, doc="/a")])
        b = Trace([make_request(t=1.0, doc="/b"), make_request(t=9.0, doc="/c")])
        merged = Trace.merge([a, b])
        assert [r.timestamp for r in merged] == [1.0, 5.0, 9.0]
        assert len(merged.documents) == 3

    def test_merge_empty(self):
        assert len(Trace.merge([])) == 0

    def test_merge_keeps_largest_catalog_size(self):
        a = Trace([make_request(t=0.0, doc="/x", size=10)])
        b = Trace([make_request(t=1.0, doc="/x", size=99)])
        merged = Trace.merge([a, b])
        assert merged.document_size("/x") == 99

    def test_merge_preserves_metadata(self):
        doc = Document(doc_id="/m", size=50, kind="embedded", mutable=True)
        a = Trace([make_request(t=0.0, doc="/m", size=50)], [doc])
        merged = Trace.merge([a, Trace([])])
        assert merged.documents["/m"].mutable


class TestCatalogCollisions:
    """Regression: colliding explicit catalog ids kept the last entry.

    The old constructor built the catalog with a dict comprehension, so
    a later, smaller duplicate silently replaced an earlier, larger one
    — and disagreed with merge(), which keeps the max size. Both paths
    now keep the largest entry.
    """

    def test_explicit_duplicates_keep_max_size(self):
        documents = [
            Document(doc_id="/x", size=500),
            Document(doc_id="/x", size=100),
        ]
        trace = Trace([make_request(doc="/x", size=100)], documents)
        assert trace.documents["/x"].size == 500

    def test_order_independent(self):
        big_first = Trace(
            [make_request(doc="/x")],
            [Document("/x", 500), Document("/x", 100)],
        )
        big_last = Trace(
            [make_request(doc="/x")],
            [Document("/x", 100), Document("/x", 500)],
        )
        assert (
            big_first.documents["/x"].size
            == big_last.documents["/x"].size
            == 500
        )

    def test_agrees_with_merge(self):
        left = Trace([make_request(t=0, doc="/x")], [Document("/x", 500)])
        right = Trace([make_request(t=1, doc="/x")], [Document("/x", 100)])
        merged = Trace.merge([left, right])
        concatenated = Trace(
            list(left) + list(right),
            [Document("/x", 500), Document("/x", 100)],
        )
        assert (
            merged.documents["/x"].size
            == concatenated.documents["/x"].size
        )
