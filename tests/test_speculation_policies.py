"""Tests for speculation policies."""

import math

import pytest

from repro.errors import PolicyError
from repro.speculation import DependencyModel, ThresholdPolicy
from repro.trace import Document


@pytest.fixture
def model():
    # /page -> /inline (1.0), /page -> /next (0.5), /next -> /deep (0.6)
    return DependencyModel.from_counts(
        {
            "/page": {"/inline": 10.0, "/next": 5.0},
            "/next": {"/deep": 6.0},
        },
        {"/page": 10.0, "/next": 10.0, "/deep": 5.0, "/inline": 10.0},
    )


@pytest.fixture
def catalog():
    return {
        "/page": Document(doc_id="/page", size=1000),
        "/inline": Document(doc_id="/inline", size=200, kind="embedded"),
        "/next": Document(doc_id="/next", size=3000),
        "/deep": Document(doc_id="/deep", size=50_000),
    }


class TestThresholdPolicy:
    def test_selects_above_threshold(self, model, catalog):
        chosen = ThresholdPolicy(threshold=0.5).select("/page", model, catalog)
        assert [c.doc_id for c in chosen] == ["/inline", "/next"]

    def test_high_threshold_embeddings_only(self, model, catalog):
        chosen = ThresholdPolicy(threshold=0.99).select("/page", model, catalog)
        assert [c.doc_id for c in chosen] == ["/inline"]

    def test_closure_reaches_chained_documents(self, model, catalog):
        # /page -> /next -> /deep: 0.5 * 0.6 = 0.3
        chosen = ThresholdPolicy(threshold=0.3).select("/page", model, catalog)
        assert "/deep" in [c.doc_id for c in chosen]

    def test_direct_mode_ignores_chains(self, model, catalog):
        chosen = ThresholdPolicy(threshold=0.3, use_closure=False).select(
            "/page", model, catalog
        )
        assert "/deep" not in [c.doc_id for c in chosen]

    def test_max_size_filters(self, model, catalog):
        chosen = ThresholdPolicy(threshold=0.3, max_size=10_000).select(
            "/page", model, catalog
        )
        assert "/deep" not in [c.doc_id for c in chosen]
        assert "/next" in [c.doc_id for c in chosen]

    def test_sorted_by_probability(self, model, catalog):
        chosen = ThresholdPolicy(threshold=0.25).select("/page", model, catalog)
        probabilities = [c.probability for c in chosen]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_unknown_document_empty(self, model, catalog):
        assert ThresholdPolicy(threshold=0.5).select("/nope", model, catalog) == []

    def test_candidate_missing_from_catalog_skipped(self, model):
        chosen = ThresholdPolicy(threshold=0.5).select("/page", model, {})
        assert chosen == []

    def test_invalid_threshold(self):
        with pytest.raises(PolicyError):
            ThresholdPolicy(threshold=0.0)
        with pytest.raises(PolicyError):
            ThresholdPolicy(threshold=1.5)

    def test_invalid_max_size(self):
        with pytest.raises(PolicyError):
            ThresholdPolicy(threshold=0.5, max_size=0)


def _embedding_only(tolerance=0.05, **kwargs):
    """Embedding-only speculation: direct ``p >= 1 - tolerance``."""
    return ThresholdPolicy(threshold=1.0 - tolerance, use_closure=False, **kwargs)


class TestEmbeddingOnlyPolicy:
    def test_only_certain_dependencies(self, model, catalog):
        chosen = _embedding_only().select("/page", model, catalog)
        assert [c.doc_id for c in chosen] == ["/inline"]

    def test_tolerance_widens(self, catalog):
        model = DependencyModel.from_counts(
            {"/page": {"/almost": 9.0}}, {"/page": 10.0, "/almost": 1.0}
        )
        catalog = dict(catalog)
        catalog["/almost"] = Document(doc_id="/almost", size=10)
        assert _embedding_only(tolerance=0.0).select("/page", model, catalog) == []
        chosen = _embedding_only(tolerance=0.15).select("/page", model, catalog)
        assert [c.doc_id for c in chosen] == ["/almost"]

    def test_max_size(self, model, catalog):
        chosen = _embedding_only(max_size=100).select("/page", model, catalog)
        assert chosen == []

    def test_invalid_tolerance(self):
        with pytest.raises(PolicyError):
            _embedding_only(tolerance=1.0)
