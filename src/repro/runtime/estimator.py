"""Online dependency estimation for the live origin.

Wraps :class:`~repro.speculation.dependency.DependencyModel`'s
incremental API so speculation decisions can happen **in-band**: every
served request feeds :meth:`observe`, and after every
``refresh_interval`` observations the estimator re-derives a *bounded*
set of closure rows — the hottest sources since the last refresh — the
runtime analogue of the paper's UpdateCycle re-estimation (section 3.2),
kept cheap enough to run on the serving path.
"""

from __future__ import annotations

from ..speculation.dependency import DependencyModel
from ..trace.records import Trace


class OnlineDependencyEstimator:
    """Feeds the live request stream into a dependency model.

    Args:
        window: Lookahead window ``T_w`` in seconds.
        stride_timeout: Traversal-stride gap (defaults to ``window``).
        learn: When False, in-band requests do not update the model —
            the frozen-model mode ``repro loadtest`` uses so a live run
            is decision-for-decision comparable with batch replay.
        refresh_interval: Observations between bounded closure
            refreshes (0 disables periodic refresh).
        hot_sources: How many of the most-requested documents get their
            closure rows precomputed per refresh.
        min_probability: Closure pruning floor.
        max_hops: Closure chain-length cap.
    """

    def __init__(
        self,
        *,
        window: float = 5.0,
        stride_timeout: float | None = None,
        learn: bool = True,
        refresh_interval: int = 512,
        hot_sources: int = 32,
        min_probability: float = 0.01,
        max_hops: int = 8,
    ):
        self._model = DependencyModel.incremental(
            window=window, stride_timeout=stride_timeout
        )
        self._learn = learn
        self._refresh_interval = refresh_interval
        self._hot_sources = hot_sources
        self._min_probability = min_probability
        self._max_hops = max_hops
        self._request_counts: dict[str, int] = {}
        self._since_refresh = 0
        self.observations = 0
        self.refreshes = 0

    @property
    def model(self) -> DependencyModel:
        """The wrapped model (hand this to speculation policies)."""
        return self._model

    @property
    def learning(self) -> bool:
        return self._learn

    def warm(self, trace: Trace) -> None:
        """Train on a history trace, then mark its counts refreshed.

        Used at startup (the paper's HistoryLength warm-up) regardless
        of the ``learn`` flag.  No closure row is precomputed: each is
        computed on its first read (a rider table's first lookup).
        Reads the trace's columns; no request object is built.
        """
        columns = trace.columns
        observe = self._model.observe
        for client, doc_id, timestamp in zip(
            columns.client_id_list(),
            columns.doc_id_list(),
            columns.timestamp.tolist(),
        ):
            observe(client, doc_id, timestamp)
        self._model.refresh_closure(
            min_probability=self._min_probability, max_hops=self._max_hops
        )

    def observe(self, client: str, doc_id: str, timestamp: float) -> None:
        """Feed one live request; may trigger a bounded closure refresh."""
        self.observations += 1
        self._request_counts[doc_id] = self._request_counts.get(doc_id, 0) + 1
        if not self._learn:
            return
        self._model.observe(client, doc_id, timestamp)
        self._since_refresh += 1
        if self._refresh_interval > 0 and self._since_refresh >= (
            self._refresh_interval
        ):
            self.refresh()

    def refresh(self) -> int:
        """Recompute closure rows for the hottest sources since last time.

        Returns:
            Number of closure rows recomputed.
        """
        hot = sorted(
            self._request_counts,
            key=lambda doc: (-self._request_counts[doc], doc),
        )[: self._hot_sources]
        refreshed = self._model.refresh_closure(
            hot,
            min_probability=self._min_probability,
            max_hops=self._max_hops,
        )
        self._request_counts.clear()
        self._since_refresh = 0
        self.refreshes += 1
        return refreshed
