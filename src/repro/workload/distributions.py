"""Sampling distributions used by the synthetic workload.

Three building blocks drive the generator:

* :class:`BoundedZipf` — Zipf-like popularity over a finite catalog.
  Mid-1990s measurement studies (including the companion BU traces of
  Cunha/Bestavros/Crovella) found web document popularity close to Zipf,
  which also reproduces the paper's "top 0.5% of blocks take 69% of
  requests" concentration.
* :class:`HeavyTailedSizes` — document sizes with a lognormal body and a
  Pareto tail, the standard model for web file sizes from the same
  measurement literature.
* :func:`exponential_gap` — exponential inter-arrival gaps for session
  arrivals and think times.

All sampling goes through an explicit :class:`numpy.random.Generator`,
so every trace is reproducible from a seed.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from ..errors import CalibrationError


class BoundedZipf:
    """Zipf distribution over ranks ``1..n``: ``P(rank r) ∝ r**-alpha``.

    Args:
        n: Number of items (must be positive).
        alpha: Skew exponent; 0 gives uniform, larger is more skewed.
            Web popularity is typically near 1.0 (classic Zipf).
        rng: Source of randomness.

    The inverse-CDF table is precomputed once, so sampling is O(log n).
    A scalar draw bisects a plain-list copy of it: ``bisect_left`` makes
    the same comparisons as ``searchsorted(side="left")`` without
    numpy's per-call dispatch.
    """

    def __init__(self, n: int, alpha: float, rng: np.random.Generator):
        if n <= 0:
            raise CalibrationError("BoundedZipf needs n >= 1")
        if alpha < 0:
            raise CalibrationError("BoundedZipf needs alpha >= 0")
        self.n = n
        self.alpha = alpha
        self._rng = rng
        weights = np.arange(1, n + 1, dtype=np.float64) ** -alpha
        total = float(weights.sum())  # > 0: n >= 1 and every weight > 0
        self._pmf = weights / total
        self._cdf = np.cumsum(self._pmf)
        # Guard against floating-point drift at the top of the table.
        self._cdf[-1] = 1.0
        self._cdf_list: list[float] = self._cdf.tolist()

    @property
    def pmf(self) -> np.ndarray:
        """Probability of each rank, index 0 = rank 1 (most popular)."""
        return self._pmf

    @property
    def cdf(self) -> np.ndarray:
        """Cumulative probability of each rank: :meth:`sample` maps a
        uniform ``u`` to the first rank whose entry is ``>= u``."""
        return self._cdf

    def sample(
        self,
        size: int | None = None,
        *,
        rng: np.random.Generator | None = None,
    ) -> int | np.ndarray:
        """Draw rank indices in ``0..n-1`` (0 = most popular).

        Args:
            size: Number of samples; None returns a scalar int.
            rng: Draw from this generator instead of the bound one.
                Callers that maintain domain-separated substreams (the
                trace generator's per-session streams) pass their own
                so the distribution table can be shared without the
                draws coupling through one stream.
        """
        source = self._rng if rng is None else rng
        if size is None:
            return bisect_left(self._cdf_list, source.random())
        u = source.random(size)
        return np.searchsorted(self._cdf, u, side="left").astype(np.int64)

    def head_mass(self, top_fraction: float) -> float:
        """Probability mass of the most popular ``top_fraction`` of items.

        Used by calibration: for the paper's trace, the top 10% of
        documents should carry roughly 91% of accesses.
        """
        if not 0.0 < top_fraction <= 1.0:
            raise CalibrationError("top_fraction must be in (0, 1]")
        top_n = max(1, int(np.ceil(self.n * top_fraction)))
        return float(self._pmf[:top_n].sum())


class HeavyTailedSizes:
    """Web document sizes: lognormal body with a Pareto tail.

    With probability ``1 - tail_probability`` a size is drawn lognormal
    (median ``body_median`` bytes, shape ``body_sigma``); otherwise it is
    drawn from a Pareto distribution starting at ``tail_cutoff`` with
    shape ``tail_alpha``.  All draws are clamped to
    ``[min_size, max_size]`` and rounded to whole bytes.

    Defaults approximate the mid-90s BU measurements: a few-KB typical
    document with occasional multi-hundred-KB multimedia objects, giving
    a server of ~2,000 documents roughly the paper's 50+ MB footprint.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        *,
        body_median: float = 3_000.0,
        body_sigma: float = 1.3,
        tail_probability: float = 0.08,
        tail_cutoff: float = 30_000.0,
        tail_alpha: float = 1.2,
        min_size: int = 64,
        max_size: int = 4_000_000,
    ):
        if body_median <= 0 or body_sigma <= 0:
            raise CalibrationError("lognormal body parameters must be positive")
        if not 0.0 <= tail_probability < 1.0:
            raise CalibrationError("tail_probability must be in [0, 1)")
        if tail_cutoff <= 0 or tail_alpha <= 0:
            raise CalibrationError("Pareto tail parameters must be positive")
        if min_size <= 0 or max_size < min_size:
            raise CalibrationError("need 0 < min_size <= max_size")
        self._rng = rng
        self._mu = float(np.log(body_median))
        self._sigma = body_sigma
        self._tail_probability = tail_probability
        self._tail_cutoff = tail_cutoff
        self._tail_alpha = tail_alpha
        self._min_size = min_size
        self._max_size = max_size

    def sample(self, size: int) -> np.ndarray:
        """Draw ``size`` document sizes in bytes (int64 array)."""
        body = self._rng.lognormal(self._mu, self._sigma, size)
        tail = self._tail_cutoff * (
            1.0 + self._rng.pareto(self._tail_alpha, size)
        )
        use_tail = self._rng.random(size) < self._tail_probability
        values = np.where(use_tail, tail, body)
        clamped = np.clip(values, self._min_size, self._max_size)
        return np.rint(clamped).astype(np.int64)


def exponential_gap(rng: np.random.Generator, mean: float) -> float:
    """One exponential inter-arrival gap with the given mean (seconds)."""
    if mean <= 0:
        raise CalibrationError("exponential gap mean must be positive")
    return float(rng.exponential(mean))
