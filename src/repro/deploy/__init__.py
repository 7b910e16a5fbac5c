"""Distributed deployment: multi-process origins and proxies over TCP.

The deployment layer turns the single-loop live system into real OS
processes — consistent-hash-sharded origins, proxy hosts, and a
coordinating parent — wired by the TCP transport and a durable JSONL
event bus.  One :class:`~repro.config.DeploySpec` describes the whole
shape; ``DeploySpec(processes=1)`` is plain in-process execution, so
there is exactly one configuration object and one report shape across
local and distributed runs.
"""

from ..config import LOCAL_DEPLOY, DeploySpec
from .bus import BusEvent, EventBus, TopicConsumer
from .mesh import TcpMesh, TcpMeshEndpoint
from .ring import HashRing, shard_name
from .service import (
    DeployFaultPlan,
    DeployReport,
    DeploySmokeReport,
    deploy_smoke_fault_plan,
    deploy_smoke_spec,
    execute_deploy,
    execute_deploy_smoke,
)
from .workers import DeployFaultHandler, ProxyFault, holdings_digest

__all__ = [
    "BusEvent",
    "DeployFaultHandler",
    "DeployFaultPlan",
    "DeployReport",
    "DeploySmokeReport",
    "DeploySpec",
    "EventBus",
    "HashRing",
    "LOCAL_DEPLOY",
    "ProxyFault",
    "TcpMesh",
    "TcpMeshEndpoint",
    "TopicConsumer",
    "deploy_smoke_fault_plan",
    "deploy_smoke_spec",
    "execute_deploy",
    "execute_deploy_smoke",
    "holdings_digest",
    "shard_name",
]
