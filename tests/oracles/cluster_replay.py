"""Cluster replay: the empirical reference for the planner's predicted α.

The paper's model (§2.1) is a *cluster*: one service proxy fronting
several home servers, with the proxy's storage divided among them by
the allocation of eqs. 4-5.  :class:`ClusterSimulator` closes the loop
empirically: it takes each member server's trace, a dissemination plan
(byte allocation per server), materializes each server's most popular
documents into the proxy, replays all traces, and reports both the
overall intercepted fraction α_C and the per-server interception — so
the analytical α of :class:`repro.core.DisseminationPlanner` can be
checked against trace replay.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.popularity import PopularityProfile
from repro.trace import Trace


@dataclass(frozen=True)
class ServerInterception:
    """Interception outcome for one member server.

    Attributes:
        server: Server name.
        requests: Remote requests the server's clients issued.
        intercepted: Requests answered by the proxy.
        bytes_total: Remote bytes requested.
        bytes_intercepted: Bytes served by the proxy.
    """

    server: str
    requests: int
    intercepted: int
    bytes_total: float
    bytes_intercepted: float

    @property
    def request_alpha(self) -> float:
        return self.intercepted / self.requests if self.requests else 0.0

    @property
    def byte_alpha(self) -> float:
        return (
            self.bytes_intercepted / self.bytes_total if self.bytes_total else 0.0
        )


@dataclass(frozen=True)
class ClusterResult:
    """Aggregate outcome of a cluster replay.

    Attributes:
        per_server: Interception per member server.
        storage_used: Bytes of proxy storage actually filled.
    """

    per_server: dict[str, ServerInterception]
    storage_used: float

    @property
    def alpha(self) -> float:
        """The empirical α_C of eq. 1 (request-weighted)."""
        requests = sum(s.requests for s in self.per_server.values())
        intercepted = sum(s.intercepted for s in self.per_server.values())
        return intercepted / requests if requests else 0.0

    @property
    def byte_alpha(self) -> float:
        """Byte-weighted interception (bandwidth shielded)."""
        total = sum(s.bytes_total for s in self.per_server.values())
        hit = sum(s.bytes_intercepted for s in self.per_server.values())
        return hit / total if total else 0.0


class ClusterSimulator:
    """Replays member-server traces against one proxy's holdings.

    Args:
        traces: Per-server traces (server name → trace).
        remote_only: Only remote requests are interceptable.
    """

    def __init__(self, traces: dict[str, Trace], *, remote_only: bool = True):
        if not traces:
            raise SimulationError("cluster needs at least one server trace")
        self._traces = {
            name: (trace.remote_only() if remote_only else trace)
            for name, trace in traces.items()
        }
        self._remote_only = remote_only
        self._profiles = {
            name: PopularityProfile.from_trace(trace)
            for name, trace in self._traces.items()
            if len(trace)
        }

    def materialize(self, allocations: dict[str, float]) -> dict[str, set[str]]:
        """Pack each server's most popular documents into its bytes.

        Args:
            allocations: Bytes granted per server (e.g. from
                :meth:`repro.core.planner.DisseminationPlanner.plan`).

        Returns:
            Server name → document ids held at the proxy.

        Raises:
            SimulationError: If an allocation names an unknown server.
        """
        unknown = set(allocations) - set(self._traces)
        if unknown:
            raise SimulationError(f"unknown servers {sorted(unknown)}")
        holdings: dict[str, set[str]] = {}
        for name, granted in allocations.items():
            chosen: set[str] = set()
            used = 0.0
            profile = self._profiles.get(name)
            if profile is not None:
                for stat in profile.ranked(remote_only=self._remote_only):
                    hits = (
                        stat.remote_requests
                        if self._remote_only
                        else stat.requests
                    )
                    if hits <= 0:
                        break
                    if used + stat.size <= granted:
                        used += stat.size
                        chosen.add(stat.doc_id)
            holdings[name] = chosen
        return holdings

    def replay(self, holdings: dict[str, set[str]]) -> ClusterResult:
        """Replay every server's trace against the proxy's holdings."""
        per_server: dict[str, ServerInterception] = {}
        storage = 0.0
        for name, trace in self._traces.items():
            held = holdings.get(name, set())
            sizes = trace.documents
            storage += sum(sizes[d].size for d in held if d in sizes)
            requests = 0
            intercepted = 0
            bytes_total = 0
            bytes_hit = 0
            for request in trace:
                requests += 1
                bytes_total += request.size
                if request.doc_id in held:
                    intercepted += 1
                    bytes_hit += request.size
            per_server[name] = ServerInterception(
                server=name,
                requests=requests,
                intercepted=intercepted,
                bytes_total=bytes_total,
                bytes_intercepted=bytes_hit,
            )
        return ClusterResult(per_server=per_server, storage_used=storage)

    def run_plan(self, allocations: dict[str, float]) -> ClusterResult:
        """Materialize an allocation and replay in one step."""
        return self.replay(self.materialize(allocations))
