"""The columnar Trace against a list-of-Request oracle, and where
Request objects may be built.

``tests/oracles/trace_reference.py`` restates the container semantics
over plain lists; every accessor and derived trace must agree with it,
for traces built from request objects and for traces that exist only
as columns.  The construction counts pin the other half of the design:
generation and the batch pipeline read columns and build no
:class:`Request`, and a live arm reuses the serving trace's objects.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import BASELINE
from repro.core import Experiment, evaluate_thresholds
from repro.errors import TraceFormatError
from repro.runtime import LiveSettings, smoke_workload
from repro.runtime.service import prepare_live_run
from repro.trace import Document, Request, Trace
from repro.workload import GeneratorConfig, SyntheticTraceGenerator

from .oracles.trace_reference import ReferenceTrace

#: The Figure-5 T_p grid the batch benchmark sweeps.
GRID = (0.95, 0.75, 0.5, 0.35, 0.25, 0.2, 0.15, 0.1, 0.08, 0.05)

# Few distinct values so timestamp ties, repeated clients and colliding
# sizes are the common case, not the exception.
_requests = st.lists(
    st.builds(
        Request,
        timestamp=st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, 4.0]),
        client=st.sampled_from(["a", "b", "c"]),
        doc_id=st.sampled_from(["/1", "/2", "/3", "/4"]),
        size=st.sampled_from([0, 5, 10, 20]),
        status=st.sampled_from([200, 304, 404]),
        method=st.sampled_from(["GET", "POST"]),
        remote=st.booleans(),
    ),
    max_size=30,
)
_catalog = st.lists(
    st.builds(
        Document,
        doc_id=st.sampled_from(["/1", "/2", "/5"]),
        size=st.sampled_from([0, 5, 10, 20]),
        kind=st.sampled_from(["page", "embedded"]),
        mutable=st.booleans(),
    ),
    max_size=6,
)
_bounds = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 4.0, 5.0])


def _sorted(requests):
    return sorted(requests, key=lambda r: r.timestamp)


def _columns_only(trace):
    """The same trace rebuilt from its columns alone (no objects)."""
    return Trace.from_columns(trace.columns, trace.documents.values())


def _assert_same(trace, reference):
    assert len(trace) == len(reference)
    assert list(trace) == list(reference)
    assert list(trace.timestamps) == reference.timestamps
    assert list(trace.documents.items()) == list(reference.documents.items())
    assert trace.clients() == reference.clients()
    assert trace.total_bytes() == reference.total_bytes()
    assert list(trace.by_client().items()) == list(reference.by_client().items())
    for index in (0, len(reference) - 1, -1):
        if reference.requests:
            assert trace[index] == reference[index]


@settings(max_examples=150, deadline=None)
@given(_requests, _catalog, _bounds, _bounds, st.booleans())
def test_trace_agrees_with_the_list_reference(
    requests, catalog, start, end, unordered
):
    if unordered:
        made = Trace(requests, catalog, sort=True)
        reference = ReferenceTrace(requests, catalog, sort=True)
    else:
        made = Trace(_sorted(requests), catalog)
        reference = ReferenceTrace(_sorted(requests), catalog)
    for trace in (made, _columns_only(made)):
        _assert_same(trace, reference)
        _assert_same(trace.window(start, end), reference.window(start, end))
        even = lambda r: r.size % 20 == 0  # noqa: E731
        _assert_same(trace.filter(even), reference.filter(even))
        _assert_same(trace.remote_only(), reference.remote_only())
        _assert_same(
            trace.remote_only().window(start, end),
            reference.remote_only().window(start, end),
        )
        adopted = Trace(trace.requests, catalog)
        _assert_same(adopted, ReferenceTrace(list(reference), catalog))


@settings(max_examples=100, deadline=None)
@given(_requests, _catalog, _requests, _catalog, _bounds)
def test_merge_agrees_with_the_list_reference(
    first, first_catalog, second, second_catalog, cut
):
    left = Trace(first, first_catalog, sort=True)
    right = _columns_only(Trace(second, second_catalog, sort=True)).window(cut, 9.0)
    reference = ReferenceTrace.merge(
        [
            ReferenceTrace(first, first_catalog, sort=True),
            ReferenceTrace(second, second_catalog, sort=True).window(cut, 9.0),
        ]
    )
    _assert_same(Trace.merge([left, right]), reference)


@given(_requests)
def test_unordered_input_needs_sort(requests):
    ordered = all(
        a.timestamp <= b.timestamp for a, b in zip(requests, requests[1:])
    )
    if ordered:
        assert list(Trace(requests)) == requests
        return
    with pytest.raises(TraceFormatError):
        ReferenceTrace(requests)
    with pytest.raises(TraceFormatError):
        Trace(requests)


def test_columns_are_read_only():
    trace = Trace([Request(1.0, "a", "/1", 5)])
    with pytest.raises(ValueError):
        trace.columns.size[0] = 7
    with pytest.raises(ValueError):
        trace.window(0.0, 2.0).timestamps[0] = 0.0


class _Counter:
    """Counts ``Request.__init__`` calls while installed."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = Request.__init__

        def counting(request, *args, **kwargs):
            self.calls += 1
            original(request, *args, **kwargs)

        monkeypatch.setattr(Request, "__init__", counting)


def _paper_shaped() -> GeneratorConfig:
    """A tenth of the paper-scale workload (the benchmark's quick size)."""
    return dataclasses.replace(
        GeneratorConfig.paper_scale(0), n_clients=850, n_sessions=2800
    )


class TestRequestConstruction:
    def test_generate_builds_no_request(self, monkeypatch):
        counter = _Counter(monkeypatch)
        trace = SyntheticTraceGenerator(_paper_shaped()).generate()
        assert len(trace) > 10_000
        assert counter.calls == 0

    def test_batch_repeat_builds_no_request(self, monkeypatch):
        trace = SyntheticTraceGenerator(_paper_shaped()).generate()
        counter = _Counter(monkeypatch)
        experiment = Experiment(
            Trace(trace.requests, trace.documents.values()),
            BASELINE,
            train_days=60,
        )
        points = evaluate_thresholds(experiment, list(GRID))
        assert len(points) == len(GRID)
        assert counter.calls == 0

    def test_live_pair_builds_requests_in_its_first_arm_only(self, monkeypatch):
        prepared = prepare_live_run(smoke_workload(0), LiveSettings(seed=0))
        counter = _Counter(monkeypatch)
        prepared.arm(speculative=False)
        assert counter.calls == len(prepared.serve)
        prepared.arm(speculative=True)
        assert counter.calls == len(prepared.serve)
