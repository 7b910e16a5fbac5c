"""Per-user access profiles and client-initiated prefetching.

Section 3.4 closes with the paper's ongoing work (its reference [5]):
instead of the *server's* aggregate P/P* relations, each client can
maintain the same relationship over its **own** history — a user
profile — and prefetch from it.  The paper's preliminary finding, which
this module lets you reproduce:

    client-initiated prefetching is extremely effective for access
    patterns that involve *frequently-traversed* documents, but not
    effective at all for *newly-traversed* documents; only (server)
    speculative service helps there.

:class:`UserProfilePrefetcher` plugs into
:meth:`repro.speculation.simulator.SpeculativeServiceSimulator.run` as a
``prefetcher``: it learns each client's pairwise transitions online via
the simulator's ``observe`` hook and prefetches follow-ups the *user
themself* has exhibited often enough.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import PolicyError
from ..trace.records import Document
from .dependency import DependencyModel
from .riders import rank


class UserProfile:
    """One client's pairwise transition history.

    Counts ``(previous, next)`` document transitions where the next
    access follows within ``window`` seconds — the per-user analog of
    the server's P matrix.
    """

    def __init__(self, window: float = 5.0):
        if window <= 0:
            raise PolicyError("window must be positive")
        self._window = window
        self._pairs: dict[str, dict[str, float]] = {}
        self._occurrences: dict[str, float] = {}
        self._last_doc: str | None = None
        self._last_time: float | None = None

    def observe(self, doc_id: str, timestamp: float) -> None:
        """Record one access by this user."""
        if (
            self._last_doc is not None
            and self._last_time is not None
            and self._last_doc != doc_id
            and 0.0 <= timestamp - self._last_time <= self._window
        ):
            row = self._pairs.setdefault(self._last_doc, {})
            row[doc_id] = row.get(doc_id, 0.0) + 1.0
        self._occurrences[doc_id] = self._occurrences.get(doc_id, 0.0) + 1.0
        self._last_doc = doc_id
        self._last_time = timestamp

    def transition_probability(self, source: str, target: str) -> float:
        """The user's own ``p[source, target]``."""
        base = self._occurrences.get(source, 0.0)
        if base <= 0:
            return 0.0
        return self._pairs.get(source, {}).get(target, 0.0) / base

    def followups(self, source: str) -> dict[str, float]:
        """All non-zero own-history follow-ups of a document."""
        base = self._occurrences.get(source, 0.0)
        if base <= 0:
            return {}
        return {
            target: count / base
            for target, count in self._pairs.get(source, {}).items()
        }

    def support(self, source: str) -> float:
        """How many times the user has requested ``source``."""
        return self._occurrences.get(source, 0.0)

    def as_model(self) -> DependencyModel:
        """Freeze the profile into a standard dependency model."""
        return DependencyModel.from_counts(
            {s: dict(r) for s, r in self._pairs.items()},
            dict(self._occurrences),
        )


@dataclass
class UserProfilePrefetcher:
    """Client-initiated prefetching from each user's own history.

    Attributes:
        threshold: Prefetch a follow-up when the user's own transition
            probability reaches this value.
        min_support: Require at least this many prior visits to the
            source document before trusting the estimate — a user
            profile over one visit predicts nothing (this is what makes
            the prefetcher powerless on newly-traversed patterns).
        window: Transition window for profile learning (seconds).
        max_prefetches: Cap per request.
        max_size: Skip documents larger than this.
    """

    threshold: float = 0.4
    min_support: float = 2.0
    window: float = 5.0
    max_prefetches: int = 5
    max_size: float = float("inf")

    #: Simulator contract: ``choose`` takes a ``client`` keyword.
    wants_client: bool = field(default=True, init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold <= 1.0:
            raise PolicyError("threshold must be in (0, 1]")
        if self.min_support < 1:
            raise PolicyError("min_support must be >= 1")
        if self.max_prefetches < 1:
            raise PolicyError("max_prefetches must be >= 1")
        if self.max_size <= 0:
            raise PolicyError("max_size must be positive")
        self._profiles: dict[str, UserProfile] = {}

    def profile(self, client: str) -> UserProfile:
        """This client's (possibly fresh) profile."""
        found = self._profiles.get(client)
        if found is None:
            found = UserProfile(window=self.window)
            self._profiles[client] = found
        return found

    # -- simulator hooks -----------------------------------------------------------

    def observe(self, client: str, doc_id: str, timestamp: float) -> None:
        """Simulator hook: learn from every access, online."""
        self.profile(client).observe(doc_id, timestamp)

    def choose(
        self,
        requested: str,
        model: DependencyModel,
        catalog: dict[str, Document],
        *,
        client: str | None = None,
    ) -> list[str]:
        """Prefetch decisions from the user's own history only.

        The server's aggregate ``model`` is deliberately ignored — this
        is the pure client-side protocol the paper contrasts against
        speculative service.
        """
        if client is None:
            return []
        profile = self._profiles.get(client)
        if profile is None or profile.support(requested) < self.min_support:
            return []
        followups = [profile.followups(requested)]
        ranked = rank(followups, catalog, self.max_size, self.threshold).riders()
        return [doc_id for doc_id, _, _ in ranked[: self.max_prefetches]]
