"""Synthetic client population.

The dissemination protocol (section 2) depends on *where* clients sit:
clients in the same region share a nearby service proxy, and the
bytes-by-hops savings of Figure 3 depend on the client→region mapping.
The speculative-service protocol only needs client identities, but a
skewed per-client activity profile (a few heavy clients, many light
ones) matters for session statistics.

:class:`ClientPopulation` models both: clients are spread over
``n_regions`` geographic regions with Zipf-skewed region sizes, and each
client has a Zipf-skewed activity weight.  A configurable fraction of
clients is *local* (inside the server's own organisation) to reproduce
the paper's remote/local split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CalibrationError
from .distributions import BoundedZipf


@dataclass(frozen=True, slots=True)
class Client:
    """One client host.

    Attributes:
        client_id: Stable identifier, e.g. ``"c01234.region-07"``.
        region: Region index in ``0..n_regions-1``.
        local: True when the client is inside the server's organisation.
    """

    client_id: str
    region: int
    local: bool


class ClientPopulation:
    """A set of clients with geography and activity skew.

    Args:
        n_clients: Number of distinct clients.
        rng: Randomness source.
        n_regions: Number of geographic regions (>= 1).  Local clients
            all live in region 0 (the server's own campus).
        local_fraction: Fraction of clients that are local.
        region_alpha: Zipf exponent of region sizes (how unevenly remote
            clients are spread over regions).
        activity_alpha: Zipf exponent of per-client activity weights.
    """

    def __init__(
        self,
        n_clients: int,
        rng: np.random.Generator,
        *,
        n_regions: int = 16,
        local_fraction: float = 0.15,
        region_alpha: float = 0.8,
        activity_alpha: float = 0.9,
    ):
        if n_clients <= 0:
            raise CalibrationError("need at least one client")
        if n_regions <= 0:
            raise CalibrationError("need at least one region")
        if not 0.0 <= local_fraction < 1.0:
            raise CalibrationError("local_fraction must be in [0, 1)")

        self.n_regions = n_regions
        n_local = int(round(n_clients * local_fraction))
        n_remote = n_clients - n_local
        if n_remote <= 0:
            raise CalibrationError("local_fraction leaves no remote clients")

        remote_regions = max(1, n_regions - 1) if n_regions > 1 else 1
        region_sampler = BoundedZipf(remote_regions, region_alpha, rng)

        clients = [
            Client(client_id=f"local-{index:05d}.campus", region=0, local=True)
            for index in range(n_local)
        ]
        # One vector draw: the same ranks, and the same stream state
        # after, as ``n_remote`` scalar draws.
        regions = (
            (1 + region_sampler.sample(n_remote)).tolist()
            if n_regions > 1
            else [0] * n_remote
        )
        clients.extend(
            Client(
                client_id=f"c{index:05d}.region-{region:02d}",
                region=region,
                local=False,
            )
            for index, region in enumerate(regions)
        )
        self.clients: list[Client] = clients

        # Activity skew: shuffle so heavy clients are spread over regions,
        # then assign Zipf weights by shuffled position.
        order = rng.permutation(len(clients))
        weights = np.arange(1, len(clients) + 1, dtype=np.float64) ** -activity_alpha
        weights /= weights.sum()
        activity = np.empty(len(clients))
        activity[order] = weights
        self._cdf = np.cumsum(activity)
        self._cdf[-1] = 1.0

    def __len__(self) -> int:
        return len(self.clients)

    def index_at(self, u: float | np.ndarray) -> np.ndarray:
        """Index in :attr:`clients` of the client whose activity-CDF
        interval holds each uniform ``u`` in [0, 1).

        The trace generator maps a block of its schedule stream's
        uniforms at once: a client drawn by activity weight.
        """
        return np.searchsorted(self._cdf, u, side="left")
