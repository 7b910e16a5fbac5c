"""``repro.runtime`` — the asyncio online serving layer.

Runs both of the paper's protocols **live** instead of in batch replay:
an origin server speculates in-band from an online-estimated dependency
model, cache nodes serve disseminated documents, a daemon replans
dissemination from observed popularity, and a load generator drives
seeded workload sessions with admission control.  Two transports share
one message protocol — a deterministic in-memory network under a
virtual clock (tests, benchmarks, ``repro loadtest``) and real TCP
(``repro serve``).

The layer is hardened against injected failures: a scripted, seeded
fault plan (:mod:`~repro.runtime.faults`) can crash proxies, partition
links, ramp frame drops and brown out the origin, while the resilience
machinery (:mod:`~repro.runtime.resilience` — retry backoff, circuit
breakers, duplicate-service accounting, daemon anti-entropy re-push)
carries the run through with the paper's four ratios intact.

Entry points: :class:`repro.api.Session` (the front door), the
``repro serve``, ``repro loadtest`` and ``repro chaos`` CLI commands,
or the engine functions :func:`~repro.runtime.service.execute_loadtest`
/ :func:`~repro.runtime.service.execute_chaos`.  Every in-process
shape is one :func:`~repro.runtime.assembly.run_live` wiring of one
:class:`~repro.runtime.node.CacheNode` class.
"""

from .assembly import PreparedTrace, run_live
from .clock import VirtualClock, run_virtual
from .daemon import DisseminationDaemon
from .estimator import OnlineDependencyEstimator
from .faults import FaultEvent, FaultInjector, FaultPlan
from .loadgen import ClientRoute, LoadConfig, LoadGenerator
from .messages import BINARY_CODEC, BinaryCodec, Message
from .metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    default_registry,
    live_ratios,
    verify_conservation,
)
from .node import CacheNode, NodeSpec
from .origin import OriginServer
from .resilience import BackoffPolicy, CircuitBreaker, DuplicateFilter, retry_rng
from .service import (
    ChaosReport,
    ChaosSettings,
    LiveReport,
    LiveSettings,
    chaos_smoke_settings,
    execute_chaos,
    execute_chaos_smoke,
    execute_loadtest,
    execute_smoke,
    prepare_live_run,
    require_shard_exact,
    smoke_workload,
)
from .transport import Endpoint, InMemoryNetwork, TcpServer, tcp_call

__all__ = [
    "BINARY_CODEC",
    "BackoffPolicy",
    "BinaryCodec",
    "CacheNode",
    "ChaosReport",
    "ChaosSettings",
    "CircuitBreaker",
    "ClientRoute",
    "Counter",
    "DisseminationDaemon",
    "DuplicateFilter",
    "Endpoint",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "Histogram",
    "InMemoryNetwork",
    "LiveReport",
    "LiveSettings",
    "LoadConfig",
    "LoadGenerator",
    "Message",
    "MetricsRegistry",
    "NodeSpec",
    "OnlineDependencyEstimator",
    "OriginServer",
    "PreparedTrace",
    "TcpServer",
    "VirtualClock",
    "chaos_smoke_settings",
    "default_registry",
    "execute_chaos",
    "execute_chaos_smoke",
    "execute_loadtest",
    "execute_smoke",
    "live_ratios",
    "prepare_live_run",
    "require_shard_exact",
    "retry_rng",
    "run_live",
    "run_virtual",
    "smoke_workload",
    "tcp_call",
    "verify_conservation",
]
