"""Client-level trace sampling and the vocabulary of ratio estimation.

Long traces make iteration slow; the standard reduction that preserves
both protocols' structure is **client sampling**: keep a random subset
of clients with their *complete* request streams.  Per-client session
and stride structure — everything the dependency model and the caches
see — is untouched; only the population shrinks.

(Request-level sampling would be wrong here: it breaks strides and
inflates miss rates, which is why it is not offered.)

Beyond selection, this module holds the *vocabulary* of sampling:

* :func:`client_hash` — the one hash family behind both client
  sampling (:func:`sample_clients`) and the workload generator's
  stream sharding, so a shard and a sample agree on who a client is.
* :data:`CONTRIBUTION_COLUMNS` and :data:`RATIO_NAMES` — the five
  per-client totals and the four headline ratios built from them.
* :class:`RatioEstimate` / :class:`SampledRatioReport` — the report
  types of the Horvitz–Thompson estimator, which lives with its
  simulator-aware driver in :mod:`repro.core.sampling` (this layer
  cannot import the simulator or the ratio arithmetic).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..errors import TraceFormatError
from .records import Trace

#: Order of the per-client contribution columns consumed by
#: :func:`repro.core.sampling.ht_ratio_estimates`: the five
#: :class:`SpeculationMetrics` components the four headline ratios are
#: built from.
CONTRIBUTION_COLUMNS = (
    "bytes_sent",
    "server_requests",
    "service_time",
    "miss_bytes",
    "accessed_bytes",
)

#: The four headline ratios, in report order.
RATIO_NAMES = ("bandwidth", "server_load", "service_time", "miss_rate")


def client_hash(client_id: str, *, seed: int = 0) -> int:
    """Deterministic 32-bit hash of a client id.

    The single hash family behind both :func:`sample_clients` and the
    workload generator's client-hash sharding: a client's bucket is a
    pure function of ``(seed, client_id)``, so shards of a stream and
    samples of a trace partition the same population the same way.
    """
    digest = hashlib.sha256(f"{seed}:{client_id}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def sample_clients(
    trace: Trace,
    fraction: float,
    *,
    seed: int = 0,
) -> Trace:
    """Keep a deterministic ``fraction`` of clients, streams intact.

    Selection hashes each client id with the seed
    (:func:`client_hash`), so the same (fraction, seed) keeps the same
    clients across traces of the same population — windows of one
    trace stay consistent.

    Args:
        trace: The trace to thin.
        fraction: Fraction of clients to keep, in (0, 1].
        seed: Selection salt.

    Raises:
        TraceFormatError: If the fraction is out of range.
    """
    if not 0.0 < fraction <= 1.0:
        raise TraceFormatError("fraction must be in (0, 1]")
    if fraction == 1.0:
        return trace

    threshold = int(fraction * 2**32)
    kept_clients = {
        c for c in trace.clients() if client_hash(c, seed=seed) < threshold
    }
    if not kept_clients and len(trace):
        # Guarantee a non-empty sample: keep the lexicographically
        # first client so downstream pipelines have something to chew.
        kept_clients = {min(trace.clients())}
    return trace.filter(lambda r: r.client in kept_clients)


@dataclass(frozen=True)
class SamplingConfig:
    """How a run should sample its workload's clients.

    Threaded through :class:`repro.api.RunSpec` into the loadtest and
    fleet engines: the generated trace is thinned to a hash-selected
    client subset before replay, and the report carries
    Horvitz–Thompson ratio estimates with bootstrap intervals.

    Attributes:
        fraction: Fraction of clients to keep, in (0, 1].
        seed: Selection salt (independent of the workload seed).
        n_boot: Bootstrap replicates behind each confidence interval.
        level: Confidence level of the intervals, e.g. ``0.95``.
        profile: Also run the :class:`~repro.trace.profiler.TraceProfiler`
            over the sampled trace and attach its summary to the run
            manifest.
    """

    fraction: float = 0.05
    seed: int = 0
    n_boot: int = 400
    level: float = 0.95
    profile: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise TraceFormatError("sampling fraction must be in (0, 1]")
        if self.n_boot < 10:
            raise TraceFormatError("n_boot must be at least 10")
        if not 0.5 <= self.level < 1.0:
            raise TraceFormatError("level must be in [0.5, 1)")


@dataclass(frozen=True)
class RatioEstimate:
    """One estimated ratio with a bootstrap confidence interval.

    Attributes:
        value: The Horvitz–Thompson point estimate.
        low: Lower confidence bound (percentile bootstrap).
        high: Upper confidence bound.
    """

    value: float
    low: float
    high: float

    def covers(self, exact: float) -> bool:
        """True when the interval contains an exact reference value."""
        return self.low <= exact <= self.high

    def format(self) -> str:
        """``0.812 [0.774, 0.851]`` style rendering."""
        return f"{self.value:.4f} [{self.low:.4f}, {self.high:.4f}]"


@dataclass(frozen=True)
class SampledRatioReport:
    """The four estimated ratios of a client-sampled replay.

    Attributes:
        fraction: Client fraction the estimates are based on.
        seed: Selection salt used by the sampler.
        level: Confidence level of the intervals.
        n_boot: Bootstrap replicates used.
        n_clients: Clients in the sample.
        n_population: Clients in the full trace the sample was drawn
            from (0 when unknown).
        n_requests: Requests in the sampled serving half.
        estimates: Ratio name → :class:`RatioEstimate`, keyed by
            :data:`RATIO_NAMES`.
    """

    fraction: float
    seed: int
    level: float
    n_boot: int
    n_clients: int
    n_population: int
    n_requests: int
    estimates: dict[str, RatioEstimate] = field(default_factory=dict)

    def covers(self, exact: dict[str, float]) -> dict[str, bool]:
        """Coverage of exact reference ratios, per ratio name."""
        return {
            name: estimate.covers(exact[name])
            for name, estimate in self.estimates.items()
            if name in exact
        }

    def format(self) -> str:
        """Human-readable multi-line rendering."""
        lines = [
            f"client sample: {self.n_clients}/{self.n_population or '?'} "
            f"clients ({self.fraction:.1%}), {self.n_requests} requests, "
            f"{self.level:.0%} CIs from {self.n_boot} bootstrap replicates"
        ]
        for name in RATIO_NAMES:
            estimate = self.estimates.get(name)
            if estimate is not None:
                lines.append(f"  {name:<13} {estimate.format()}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready rendering (used by manifests and the CLI)."""
        return {
            "fraction": self.fraction,
            "seed": self.seed,
            "level": self.level,
            "n_boot": self.n_boot,
            "n_clients": self.n_clients,
            "n_population": self.n_population,
            "n_requests": self.n_requests,
            "estimates": {
                name: {"value": e.value, "low": e.low, "high": e.high}
                for name, e in self.estimates.items()
            },
        }
