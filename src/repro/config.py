"""Baseline simulation parameters.

:class:`BaselineConfig` mirrors, field for field, the baseline parameter
table of section 3.2 of the paper:

==============  =====================
Parameter       Base value
==============  =====================
CommCost        1 unit (per byte)
ServCost        10,000 units (per request)
StrideTimeout   5.0 seconds
SessionTimeout  infinity (multi-session cache)
MaxSize         infinity (no limit)
Policy          ``p*[i, j] >= T_p``
HistoryLength   60 days
UpdateCycle     1 day
==============  =====================

All durations are seconds; sizes are bytes.  ``math.inf`` encodes the
paper's "no limit" settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

from .errors import SimulationError

#: Seconds in one day; the paper quotes HistoryLength/UpdateCycle in days.
SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True)
class BaselineConfig:
    """The paper's baseline parameter settings (section 3.2, Table 1).

    Instances are immutable; derive variations with :meth:`with_updates`
    so experiment code documents exactly which knob it turns.
    """

    #: Cost of communicating one byte between any server and any client.
    comm_cost: float = 1.0
    #: Cost of servicing one request at the server.
    serv_cost: float = 10_000.0
    #: Two requests within this many seconds form a traversal stride and
    #: count toward the P dependency matrix.
    stride_timeout: float = 5.0
    #: Two requests within this many seconds share a client cache session.
    #: ``inf`` = infinite multi-session cache; ``0`` = no client cache.
    session_timeout: float = math.inf
    #: Documents larger than this are never speculatively serviced.
    max_size: float = math.inf
    #: Threshold applied to ``p*[i, j]`` by the baseline policy.
    threshold: float = 0.25
    #: Days of history used to estimate P and P*.
    history_length_days: float = 60.0
    #: Days between re-estimations of P and P*.
    update_cycle_days: float = 1.0

    def __post_init__(self) -> None:
        if self.comm_cost < 0 or self.serv_cost < 0:
            raise SimulationError("costs must be non-negative")
        if self.stride_timeout < 0:
            raise SimulationError("stride_timeout must be non-negative")
        if self.session_timeout < 0:
            raise SimulationError("session_timeout must be non-negative")
        if self.max_size <= 0:
            raise SimulationError("max_size must be positive")
        if not 0.0 < self.threshold <= 1.0:
            raise SimulationError("threshold must be in (0, 1]")
        if self.history_length_days <= 0:
            raise SimulationError("history_length_days must be positive")
        if self.update_cycle_days <= 0:
            raise SimulationError("update_cycle_days must be positive")

    @property
    def history_length(self) -> float:
        """History window in seconds."""
        return self.history_length_days * SECONDS_PER_DAY

    @property
    def update_cycle(self) -> float:
        """Re-estimation period in seconds."""
        return self.update_cycle_days * SECONDS_PER_DAY

    def with_updates(self, **changes: Any) -> "BaselineConfig":
        """Return a copy with the given fields replaced.

        >>> BaselineConfig().with_updates(threshold=0.5).threshold
        0.5
        """
        return replace(self, **changes)

    def as_table_rows(self) -> list[tuple[str, str]]:
        """Render the configuration as (parameter, value) rows.

        Used by the Table-1 benchmark to print the same table the paper
        reports.
        """

        def fmt(value: float, unit: str) -> str:
            if math.isinf(value):
                return "infinity"
            if value == int(value):
                return f"{int(value):,} {unit}".strip()
            return f"{value} {unit}".strip()

        return [
            ("CommCost", fmt(self.comm_cost, "unit")),
            ("ServCost", fmt(self.serv_cost, "unit")),
            ("StrideTimeout", fmt(self.stride_timeout, "secs")),
            ("SessionTimeout", fmt(self.session_timeout, "secs")),
            ("MaxSize", fmt(self.max_size, "bytes")),
            ("Policy", f"p*[i,j] >= T_p (T_p = {self.threshold})"),
            ("HistoryLength", fmt(self.history_length_days, "days")),
            ("UpdateCycle", fmt(self.update_cycle_days, "days")),
        ]


@dataclass(frozen=True)
class DeploySpec:
    """Process topology for a run: one object, local and distributed.

    ``DeploySpec(processes=1)`` is the classic single-loop mode that every
    verb has always run; larger ``processes`` values describe a genuinely
    distributed deployment of sharded origins and proxy hosts wired over
    real TCP and coordinated by the JSONL event bus.  The spec is frozen
    so a run's topology is fixed at submission, like
    :class:`BaselineConfig`.
    """

    #: Total OS processes to launch (origin shards + proxy hosts).  ``1``
    #: means the in-process single-loop engine — no TCP, no bus.
    processes: int = 1
    #: Number of origin shards the document catalog is hashed across.
    shards: int = 1
    #: Replication factor: each document id owns this many distinct
    #: shards on the consistent-hash ring (failover order).
    replicas: int = 1
    #: Local client-shard forks for the single-loop engine (the former
    #: ``execute_loadtest(workers=)`` knob, now spec-carried).
    workers: int = 1
    #: Directory holding the append-only JSONL topic logs; ``None``
    #: creates a temporary directory per run.
    bus_path: str | None = None
    #: Interface the TCP listeners bind to.
    host: str = "127.0.0.1"

    def __post_init__(self) -> None:
        if self.processes < 1:
            raise SimulationError("processes must be >= 1")
        if self.shards < 1:
            raise SimulationError("shards must be >= 1")
        if not 1 <= self.replicas <= self.shards:
            raise SimulationError("replicas must be in [1, shards]")
        if self.workers < 1:
            raise SimulationError("workers must be >= 1")
        if self.processes > 1 and self.processes < self.shards + 1:
            raise SimulationError(
                "a distributed deployment needs at least one process per "
                "origin shard plus one proxy host"
            )

    @property
    def local(self) -> bool:
        """True when the spec describes the in-process single-loop mode."""
        return self.processes <= 1

    @property
    def proxy_hosts(self) -> int:
        """Proxy-host process count in a distributed deployment."""
        return max(self.processes - self.shards, 0)

    def with_updates(self, **changes: Any) -> "DeploySpec":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


#: Module-level singleton with the paper's exact baseline values.
BASELINE = BaselineConfig()

#: The default topology: everything in one process, one loop.
LOCAL_DEPLOY = DeploySpec()
