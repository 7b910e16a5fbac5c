"""Access traces: record types, parsing, cleaning, and segmentation.

This subpackage provides everything needed to get from a raw HTTP server
log (or a synthetic equivalent) to the cleaned, session/stride-segmented
request stream that drives both of the paper's protocols:

* :mod:`repro.trace.records` — immutable request/document records and the
  :class:`~repro.trace.records.Trace` container, stored as
  :class:`~repro.trace.records.TraceColumns`.
* :mod:`repro.trace.clf` — Common Log Format parser and writer, so real
  server logs can drive the simulators.
* :mod:`repro.trace.cleaning` — the paper's footnote-6 preprocessing
  (drop errors/scripts/live documents, canonicalize aliases).
* :mod:`repro.trace.sessions` — segmentation of per-client request
  streams into *sessions* (``SessionTimeout``) and *traversal strides*
  (``StrideTimeout``).
* :mod:`repro.trace.stats` — summary statistics of a trace.
"""

from .records import Document, Request, Trace, TraceColumns
from .clf import format_clf_line, parse_clf_line, read_clf, write_clf
from .cleaning import CleaningReport, TraceCleaner
from .sessions import Session, Stride, split_sessions, split_strides
from .stats import TraceStatistics, bytes_per_period, requests_per_period, summarize
from .sampling import (
    RatioEstimate,
    SampledRatioReport,
    SamplingConfig,
    client_hash,
    sample_clients,
)
from .profiler import TraceProfiler, WorkloadProfile, profile_trace

__all__ = [
    "Document",
    "Request",
    "Trace",
    "TraceColumns",
    "format_clf_line",
    "parse_clf_line",
    "read_clf",
    "write_clf",
    "CleaningReport",
    "TraceCleaner",
    "Session",
    "Stride",
    "split_sessions",
    "split_strides",
    "TraceStatistics",
    "summarize",
    "requests_per_period",
    "bytes_per_period",
    "sample_clients",
    "client_hash",
    "SamplingConfig",
    "RatioEstimate",
    "SampledRatioReport",
    "TraceProfiler",
    "WorkloadProfile",
    "profile_trace",
]
