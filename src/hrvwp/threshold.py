"""Adaptive per-band threshold and background/significant coefficient split.

Band coefficients are partitioned by magnitude against lambda = h * sqrt(2 ln N),
where h = MAD / 0.6745 is a robust noise scale and N is the band length.
Coefficients at or below lambda form the diffuse "background variability"
component; those above it are the significant changes. Values are kept as-is
on both sides (this separates, it does not shrink or denoise).
"""

from dataclasses import dataclass, field
from math import inf, log, sqrt

import numpy as np

__all__ = [
    "BandReport",
    "mad",
    "threshold_band",
    "MAD_NORMAL_CONSISTENCY",
]

# quartile constant for MAD of Gaussian data
MAD_NORMAL_CONSISTENCY = 0.6745


@dataclass(frozen=True, eq=False)  # equality is identity: values is an array
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
            energy_background=float(np.einsum("i,i", background, background)),
            energy_significant=float(np.einsum("i,i", significant, significant)),
            leaves=leaves, values=values, significant=index,
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def background(self) -> np.ndarray:
        """The background coefficients (|c| <= lam) in band order."""
        return np.delete(self.values, self.significant)


def _median(v: np.ndarray) -> float:
    """np.median of a non-empty 1-d vector, from one partition without its per-call overhead.

    The middle element for odd n, (a + b) / 2 of the two middle ones for even
    n, as np.median computes them; NaN if v holds a NaN (partition puts it last).
    np.median partitions too, but took 12 us a call to this one's 3 us at 76 or
    152 values (numpy 2.4, x86-64).
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


def threshold_band(
    band_coeffs: np.ndarray, leaf_ids: tuple[int, ...], band: str = ""
) -> BandReport:
    """Threshold one band at lambda = h * sqrt(2 ln n), with h = MAD / 0.6745.

    h is estimated on the band's own n coefficients (a local adaptive
    threshold); a single-coefficient band gives lambda = 0.
    """
    v = np.asarray(band_coeffs, dtype=float)
    h = mad(v) / MAD_NORMAL_CONSISTENCY  # a ValueError for an empty band
    return BandReport(band=band, lam=h * sqrt(2.0 * log(v.size)), h=h, leaves=leaf_ids, values=v)
