"""Adaptive per-band threshold and background/significant coefficient split.

Band coefficients are partitioned by magnitude against lambda = h * sqrt(2 ln N),
where h = MAD / 0.6745 is a robust noise scale and N is the band length.
Coefficients at or below lambda form the diffuse "background variability"
component; those above it are the significant changes. Values are kept as-is
on both sides (this separates, it does not shrink or denoise).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log, sqrt

import numpy as np

__all__ = [
    "BandSplit",
    "mad",
    "noise_scale",
    "compute_threshold",
    "split_coefficients",
    "threshold_band",
    "MAD_NORMAL_CONSISTENCY",
]

# quartile constant for MAD of Gaussian data
MAD_NORMAL_CONSISTENCY = 0.6745


@dataclass(frozen=True, eq=False)
class BandSplit:
    """One band's coefficients partitioned at threshold lam.

    background holds every coefficient with |c| <= lam, significant the rest,
    both in original band order; significant_mask marks the significant
    positions. leaf_ids lists the band's equal-length leaves in band order, so
    position i comes from leaf leaf_ids[i // leaf_len] at offset i % leaf_len.
    """

    band: str
    lam: float
    h: float
    n: int
    background: np.ndarray
    significant: np.ndarray
    significant_mask: np.ndarray
    leaf_ids: tuple[int, ...]

    def __post_init__(self):
        if self.lam < 0.0:
            raise ValueError("threshold must be non-negative")
        if len(self.background) + len(self.significant) != self.n:
            raise ValueError("component sizes must sum to the band length")
        if not self.leaf_ids or self.n % len(self.leaf_ids):
            raise ValueError("the band length must divide evenly over leaf_ids")
        if np.any(np.abs(self.background) > self.lam):
            raise ValueError("background holds a coefficient above the threshold")
        if np.any(np.abs(self.significant) <= self.lam):
            raise ValueError("significant holds a coefficient at or below the threshold")

    @property
    def n_background(self) -> int:
        return int(len(self.background))

    @property
    def n_significant(self) -> int:
        return int(len(self.significant))

    @property
    def energy_background(self) -> float:
        return float(np.dot(self.background, self.background))

    @property
    def energy_significant(self) -> float:
        return float(np.dot(self.significant, self.significant))

    @property
    def values(self) -> np.ndarray:
        """The band's coefficients in original order."""
        values = np.empty(self.n)
        values[~self.significant_mask] = self.background
        values[self.significant_mask] = self.significant
        return values


def mad(values: np.ndarray) -> float:
    """Median absolute deviation from the median.

    Even-length medians are the mean of the two middle order statistics.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("mad of an empty vector is undefined")
    return float(np.median(np.abs(v - np.median(v))))


def noise_scale(coeffs: np.ndarray) -> float:
    """Robust noise scale h = MAD / 0.6745 (unbiased for Gaussian data)."""
    return mad(coeffs) / MAD_NORMAL_CONSISTENCY


def compute_threshold(
    coeffs: np.ndarray, mad_coeffs: np.ndarray | None = None
) -> tuple[float, float, int]:
    """Return (lambda, h, n) for a band's coefficient vector.

    lambda = h * sqrt(2 ln n) with n the length of this band's vector; a
    single-coefficient band gives lambda = 0. h is estimated on mad_coeffs
    when given, else on the band itself (local adaptive threshold).
    """
    v = np.asarray(coeffs, dtype=float)
    if v.size == 0:
        raise ValueError("cannot compute a threshold for an empty vector")
    h = noise_scale(v if mad_coeffs is None else mad_coeffs)
    n = int(v.size)
    return h * sqrt(2.0 * log(n)), h, n


def split_coefficients(
    band_coeffs: np.ndarray,
    lam: float,
    leaf_ids: tuple[int, ...],
    band: str = "",
    h: float = 0.0,
) -> BandSplit:
    """Partition band coefficients at lam: |c| <= lam -> background, else significant.

    Ties go to background (only strictly larger magnitudes count as
    significant). Original values are preserved on both sides.
    """
    v = np.asarray(band_coeffs, dtype=float)
    if lam < 0.0:
        raise ValueError("threshold must be non-negative")
    mask = np.abs(v) > lam
    return BandSplit(
        band=band,
        lam=float(lam),
        h=float(h),
        n=int(v.size),
        background=v[~mask],
        significant=v[mask],
        significant_mask=mask,
        leaf_ids=tuple(leaf_ids),
    )


def threshold_band(
    band_coeffs: np.ndarray,
    leaf_ids: tuple[int, ...],
    band: str = "",
    mad_coeffs: np.ndarray | None = None,
) -> BandSplit:
    """Threshold one band end to end: lambda from compute_threshold, then the split."""
    lam, h, _ = compute_threshold(band_coeffs, mad_coeffs)
    return split_coefficients(band_coeffs, lam, leaf_ids, band=band, h=h)
