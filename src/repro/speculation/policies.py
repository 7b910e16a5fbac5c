"""Speculation policies: which documents ride along with a response.

A policy inspects the dependency model and decides, for a requested
document ``D_i``, which other documents the server should speculatively
service.  The paper's policy is :class:`ThresholdPolicy`; embedding-only
speculation is its ``use_closure=False`` form with ``T_p`` near 1.
:class:`~repro.speculation.riders.RiderTable` applies a policy, with
the catalog and ``MaxSize`` filter of section 3.2, for every caller.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..trace.records import Document
from .dependency import DependencyModel
from .riders import Candidate, RiderTable, SpeculationPolicy, ThresholdRule

__all__ = ["Candidate", "SpeculationPolicy", "ThresholdPolicy"]


@dataclass(frozen=True)
class ThresholdPolicy(ThresholdRule):
    """The paper's baseline policy: speculate ``D_j`` iff ``p*[i,j] >= T_p``.

    The parameters are :class:`ThresholdRule`'s: ``threshold`` (``T_p``),
    ``max_size``, ``use_closure``, ``min_probability``, ``max_hops``.
    """

    def select(
        self,
        requested: str,
        model: DependencyModel,
        catalog: dict[str, Document],
    ) -> list[Candidate]:
        """Candidates with ``p*`` (or ``p``) at or above the threshold.

        The one-row view of a :class:`RiderTable` over this policy alone
        (no deployment MaxSize).
        """
        table = RiderTable(self, model, catalog)
        return [
            Candidate(doc_id=doc_id, probability=probability)
            for doc_id, _, probability in table.riders(requested)
        ]
