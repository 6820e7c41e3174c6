"""Adaptive per-band threshold and background/significant coefficient split.

Band coefficients are partitioned by magnitude against lambda = h * sqrt(2 ln N),
where h = MAD / 0.6745 is a robust noise scale and N is the band length.
Coefficients at or below lambda form the diffuse "background variability"
component; those above it are the significant changes. Values are kept as-is
on both sides (this separates, it does not shrink or denoise).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, log, sqrt

import numpy as np

__all__ = [
    "BandReport",
    "mad",
    "noise_scale",
    "compute_threshold",
    "threshold_band",
    "MAD_NORMAL_CONSISTENCY",
]

# quartile constant for MAD of Gaussian data
MAD_NORMAL_CONSISTENCY = 0.6745


@dataclass(frozen=True, eq=False)
class BandReport:
    """One band's coefficients split at threshold lam, as the report stores it.

    values holds the coefficients in band order; significant lists the
    positions with |c| > lam, and every other position is background (ties
    go to background). leaves lists the band's equal-length leaves in band
    order, so position i comes from leaf leaves[i // leaf_len] at offset
    i % leaf_len, with leaf_len = n / len(leaves). n, the counts, the
    energies and significant are derived from values and lam (init=False), so
    the split is consistent by construction; values is a private read-only copy.
    """

    band: str
    lam: float
    h: float
    n: int = field(init=False)
    n_background: int = field(init=False)
    n_significant: int = field(init=False)
    energy_background: float = field(init=False)
    energy_significant: float = field(init=False)
    leaves: tuple[int, ...]
    values: np.ndarray
    significant: np.ndarray = field(init=False)

    def __post_init__(self):
        if not 0.0 <= self.lam < inf:  # also false for NaN
            raise ValueError(f"threshold must be finite and non-negative, got {self.lam}")
        values, leaves = np.array(self.values, dtype=float), tuple(self.leaves)
        if values.ndim != 1 or not leaves or values.size % len(leaves):
            raise ValueError("the band values must divide evenly over the leaves")
        mask = np.abs(values) > self.lam
        background, significant, index = values[~mask], values[mask], np.flatnonzero(mask)
        values.flags.writeable = index.flags.writeable = False
        derived = dict(
            n=values.size, n_background=background.size, n_significant=significant.size,
            energy_background=float(np.dot(background, background)),
            energy_significant=float(np.dot(significant, significant)),
            leaves=leaves, values=values, significant=index,
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if not isinstance(other, BandReport):
            return NotImplemented
        return (self.band, self.lam, self.h, self.leaves) == (
            other.band, other.lam, other.h, other.leaves
        ) and np.array_equal(self.values, other.values)

    @property
    def background(self) -> np.ndarray:
        """The background coefficients (|c| <= lam) in band order."""
        return np.delete(self.values, self.significant)


def _median(v: np.ndarray) -> float:
    """np.median of a non-empty 1-d vector, from one partition instead of its sort-based path.

    The middle element for odd n, (a + b) / 2 of the two middle ones for even
    n, as np.median computes them; NaN if v holds a NaN (partition puts it last).
    """
    k, odd = v.size // 2, v.size % 2
    part = np.partition(v, (k, -1) if odd else (k - 1, k, -1))
    if np.isnan(part[-1]):
        return float("nan")
    return float(part[k]) if odd else (float(part[k - 1]) + float(part[k])) / 2


def mad(values: np.ndarray) -> float:
    """Median absolute deviation from the median.

    Even-length medians are the mean of the two middle order statistics.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("mad of an empty vector is undefined")
    return _median(np.abs(v - _median(v)))


def noise_scale(coeffs: np.ndarray) -> float:
    """Robust noise scale h = MAD / 0.6745 (unbiased for Gaussian data)."""
    return mad(coeffs) / MAD_NORMAL_CONSISTENCY


def compute_threshold(coeffs: np.ndarray) -> tuple[float, float]:
    """Return (lambda, h) for a band's coefficient vector.

    lambda = h * sqrt(2 ln n) with n the length of this band's vector; a
    single-coefficient band gives lambda = 0. h is estimated on the band
    itself (local adaptive threshold).
    """
    v = np.asarray(coeffs, dtype=float)
    if v.size == 0:
        raise ValueError("cannot compute a threshold for an empty vector")
    h = noise_scale(v)
    return h * sqrt(2.0 * log(v.size)), h


def threshold_band(
    band_coeffs: np.ndarray, leaf_ids: tuple[int, ...], band: str = ""
) -> BandReport:
    """Threshold one band end to end: lambda from compute_threshold, then the record."""
    lam, h = compute_threshold(band_coeffs)
    return BandReport(band=band, lam=lam, h=h, leaves=leaf_ids, values=band_coeffs)
