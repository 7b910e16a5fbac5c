"""Tests for the footnote-6 trace cleaning."""

import pytest

from repro.trace import Document, Request, Trace, TraceCleaner
from repro.workload import GeneratorConfig, SyntheticTraceGenerator


def req(doc, t=0.0, status=200, method="GET", size=10):
    return Request(
        timestamp=t, client="c", doc_id=doc, size=size, status=status, method=method
    )


class TestDropping:
    def test_errors_dropped(self):
        trace = Trace([req("/a", 0), req("/missing", 1, status=404)])
        cleaned, report = TraceCleaner().clean(trace)
        assert len(cleaned) == 1
        assert report.dropped_errors == 1

    def test_scripts_dropped_by_prefix(self):
        trace = Trace([req("/cgi-bin/counter", 0), req("/a", 1)])
        cleaned, report = TraceCleaner().clean(trace)
        assert report.dropped_scripts == 1
        assert {r.doc_id for r in cleaned} == {"/a"}

    def test_scripts_dropped_by_suffix(self):
        trace = Trace([req("/tools/run.cgi", 0)])
        _, report = TraceCleaner().clean(trace)
        assert report.dropped_scripts == 1

    def test_live_documents_dropped(self):
        trace = Trace([req("/live/feed", 0), req("/a", 1)])
        cleaned, report = TraceCleaner(live_documents=["/live/feed"]).clean(trace)
        assert report.dropped_live == 1
        assert len(cleaned) == 1

    def test_non_get_dropped(self):
        trace = Trace([req("/a", 0, method="POST"), req("/a", 1)])
        _, report = TraceCleaner().clean(trace)
        assert report.dropped_methods == 1

    def test_dropped_total(self):
        trace = Trace(
            [
                req("/a", 0, status=500),
                req("/cgi-bin/x", 1),
                req("/b", 2, method="HEAD"),
                req("/ok", 3),
            ]
        )
        _, report = TraceCleaner().clean(trace)
        assert report.dropped == 3
        assert report.kept == 1


class TestAliases:
    def test_index_html_canonicalized(self):
        trace = Trace([req("/dir/index.html", 0), req("/dir/", 1), req("/dir", 2)])
        cleaned, report = TraceCleaner().clean(trace)
        assert {r.doc_id for r in cleaned} == {"/dir"}
        assert report.aliases_renamed == 2

    def test_root_preserved(self):
        trace = Trace([req("/index.html", 0), req("/", 1)])
        cleaned, __ = TraceCleaner().clean(trace)
        assert {r.doc_id for r in cleaned} == {"/"}

    def test_query_string_stripped(self):
        trace = Trace([req("/a?x=1", 0)])
        cleaned, __ = TraceCleaner().clean(trace)
        assert cleaned[0].doc_id == "/a"

    def test_fragment_stripped(self):
        trace = Trace([req("/a#sec", 0)])
        cleaned, __ = TraceCleaner().clean(trace)
        assert cleaned[0].doc_id == "/a"

    def test_explicit_alias_map(self):
        cleaner = TraceCleaner(alias_map={"/old": "/new"})
        cleaned, report = cleaner.clean(Trace([req("/old", 0)]))
        assert cleaned[0].doc_id == "/new"
        assert report.aliases_renamed == 1

    def test_canonicalize_disabled(self):
        cleaner = TraceCleaner(canonicalize=False)
        cleaned, report = cleaner.clean(Trace([req("/dir/index.html", 0)]))
        assert cleaned[0].doc_id == "/dir/index.html"
        assert report.aliases_renamed == 0

    def test_rename_preserves_other_fields(self):
        trace = Trace([req("/dir/", 0, size=77)])
        cleaned, __ = TraceCleaner().clean(trace)
        assert cleaned[0].size == 77
        assert cleaned[0].client == "c"


class TestIdempotence:
    def test_cleaning_twice_is_stable(self):
        trace = Trace(
            [req("/dir/index.html", 0), req("/a?q=2", 1), req("/bad", 2, status=404)]
        )
        once, __ = TraceCleaner().clean(trace)
        twice, report = TraceCleaner().clean(once)
        assert [r.doc_id for r in twice] == [r.doc_id for r in once]
        assert report.dropped == 0
        assert report.aliases_renamed == 0


class TestCatalog:
    def test_synthetic_catalog_survives_cleaning(self):
        trace = SyntheticTraceGenerator(GeneratorConfig(seed=0)).generate()
        cleaned, report = TraceCleaner(canonicalize=False).clean(trace)
        assert report.dropped == 0
        kinds = {doc.kind for doc in cleaned.documents.values()}
        assert kinds == {"page", "embedded"}
        for doc_id, document in cleaned.documents.items():
            assert document == trace.documents[doc_id]

    def test_alias_takes_its_canonical_entry(self):
        catalog = [
            Document("/dir", 500, kind="page", home_server="www2", mutable=True),
            Document("/old/index.html", 40, kind="embedded"),
        ]
        trace = Trace([req("/dir/index.html", 0), req("/old/index.html", 1)], catalog)
        cleaned, report = TraceCleaner().clean(trace)
        assert report.aliases_renamed == 2
        assert cleaned.documents["/dir"] == catalog[0]
        # No canonical entry: the alias's own entry, renamed.
        assert cleaned.documents["/old"] == Document("/old", 40, kind="embedded")
