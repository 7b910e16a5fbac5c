"""Trace preprocessing (the paper's footnote 6).

Before driving the simulations, the paper processed its raw logs by

* removing accesses to **nonexistent** documents (HTTP errors),
* removing accesses to **live** documents and **scripts** (CGI output is
  not cacheable or disseminable), and
* **renaming accesses to aliases** of a document so each document has a
  single canonical identifier.

:class:`TraceCleaner` applies the same steps and reports what it dropped
so experiments can show their preprocessing was faithful.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace

from .records import Document, Request, Trace

#: Path prefixes that identify script/live output in 1995-era servers.
DEFAULT_SCRIPT_PREFIXES = ("/cgi-bin/", "/cgi/", "/htbin/")

#: Path suffixes that identify scripts regardless of location.
DEFAULT_SCRIPT_SUFFIXES = (".cgi", ".pl", ".sh", ".php")


@dataclass
class CleaningReport:
    """Counts of requests removed or rewritten during cleaning."""

    kept: int = 0
    dropped_errors: int = 0
    dropped_scripts: int = 0
    dropped_methods: int = 0
    dropped_live: int = 0
    aliases_renamed: int = 0

    @property
    def dropped(self) -> int:
        """Total requests removed."""
        return (
            self.dropped_errors
            + self.dropped_scripts
            + self.dropped_methods
            + self.dropped_live
        )


def _canonicalize_path(path: str) -> str:
    """Resolve the alias forms common in HTTP logs.

    ``/dir`` and ``/dir/`` and ``/dir/index.html`` all name the same
    document; query strings and fragments are stripped.
    """
    for separator in ("?", "#"):
        if separator in path:
            path = path.split(separator, 1)[0]
    if path.endswith("/index.html"):
        path = path[: -len("index.html")]
    if path != "/" and path.endswith("/"):
        path = path[:-1]
    return path or "/"


class TraceCleaner:
    """Applies the paper's footnote-6 preprocessing to a trace.

    Args:
        script_prefixes: Path prefixes identifying script output.
        script_suffixes: Path suffixes identifying script files.
        live_documents: Explicit set of document ids considered "live"
            (dynamically generated) and therefore removed.
        alias_map: Extra alias → canonical-id rewrites applied after the
            built-in ``index.html``/trailing-slash canonicalization.
        canonicalize: Set False to disable built-in alias resolution
            (synthetic traces have no aliases).
    """

    def __init__(
        self,
        *,
        script_prefixes: Iterable[str] = DEFAULT_SCRIPT_PREFIXES,
        script_suffixes: Iterable[str] = DEFAULT_SCRIPT_SUFFIXES,
        live_documents: Iterable[str] = (),
        alias_map: dict[str, str] | None = None,
        canonicalize: bool = True,
    ):
        self._script_prefixes = tuple(script_prefixes)
        self._script_suffixes = tuple(script_suffixes)
        self._live_documents = frozenset(live_documents)
        self._alias_map = dict(alias_map or {})
        self._canonicalize = canonicalize

    def _is_script(self, doc_id: str) -> bool:
        return doc_id.startswith(self._script_prefixes) or doc_id.endswith(
            self._script_suffixes
        )

    def clean(self, trace: Trace) -> tuple[Trace, CleaningReport]:
        """Return the cleaned trace and a report of what was removed.

        The cleaned catalog keeps the input's entry for every kept id; a
        renamed alias takes its canonical id's entry when the input
        catalogs one, else the alias's own entry under the canonical id.
        """
        report = CleaningReport()
        kept: list[Request] = []
        catalog = trace.documents
        documents: dict[str, Document] = {}
        for request in trace:
            if request.method != "GET":
                report.dropped_methods += 1
                continue
            if not request.ok:
                report.dropped_errors += 1
                continue
            if self._is_script(request.doc_id):
                report.dropped_scripts += 1
                continue
            if request.doc_id in self._live_documents:
                report.dropped_live += 1
                continue

            doc_id = request.doc_id
            if self._canonicalize:
                doc_id = _canonicalize_path(doc_id)
            doc_id = self._alias_map.get(doc_id, doc_id)
            if doc_id != request.doc_id:
                report.aliases_renamed += 1
                if doc_id not in documents and doc_id not in catalog:
                    documents[doc_id] = replace(
                        catalog[request.doc_id], doc_id=doc_id
                    )
                request = replace(request, doc_id=doc_id)
            if doc_id in catalog:
                documents.setdefault(doc_id, catalog[doc_id])
            kept.append(request)
        report.kept = len(kept)
        return Trace(kept, documents.values()), report
