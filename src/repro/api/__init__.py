"""One front door for every way of running the reproduction.

``repro.api`` wraps the batch simulators, the live runtime and the
benchmark harness behind a single :class:`Session` object::

    from repro.api import Session
    from repro.obs import ObsConfig

    session = Session(seed=0, obs=ObsConfig.full())
    report = session.loadtest(smoke=True)
    print(report.format())
    print(report.trace_jsonl())

Every method — :meth:`Session.loadtest`, :meth:`Session.chaos`,
:meth:`Session.fleet`, :meth:`Session.deploy`, :meth:`Session.sweep`,
:meth:`Session.sensitivity`, :meth:`Session.sample`,
:meth:`Session.bench` — takes its inputs from one normalised
:class:`RunSpec` and returns one :class:`RunReport` shape, replacing
the keyword dialects the engines grew over time.
Execution shape (process topology, origin shards, worker shards) lives in
one :class:`~repro.config.DeploySpec` threaded as ``RunSpec.deploy``.
"""

from ..config import DeploySpec
from .session import RunReport, RunSpec, Session

__all__ = ["DeploySpec", "RunReport", "RunSpec", "Session"]
