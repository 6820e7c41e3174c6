"""Daubechies filters and the frequency-ordered wavelet packet transform.

A filter is its low-pass taps: the high-pass taps of the orthonormal pair
follow from them, and every transform function takes the low-pass taps as
`taps`. Band edges, sampling rate and depth are the caller's arguments.

The transform is periodized (circular extension), so a length-N signal yields
exactly N/2**m coefficients per node at level m and the transform matrix is
orthogonal: the leaves of every slot of a level keep the signal's energy.

Node indexing: splitting the high-pass branch and downsampling mirrors the
spectrum, so the raw filter-bank ("natural") order of the nodes is not
monotone in frequency. Each level is computed from the level above in a
single filter-bank step (Mallat's algorithm), in natural order; that order
stays internal. The step splits only the nodes held at the level above,
and a level holds only the ancestors of the requested leaves, not every
node. wpt_leaves returns the leaves as rows of one array, addressed by
frequency slot; slot f is natural position f ^ (f >> 1) (binary-reflected
Gray code). Under this indexing, node (level, j) covers exactly
[j, j+1] * rate / 2**(level+1) Hz, the intervals band_nodes selects from.
"""

from bisect import bisect_left, bisect_right
from functools import lru_cache
from math import comb, sqrt

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "daubechies_filters",
    "analysis_step",
    "wpt_leaves",
    "band_nodes",
]

MAX_ORDER = 10
# 2**24 samples are 48 days at 4 Hz: the cap on a resample grid's length and
# on the level band_nodes takes
MAX_DEPTH = 24


def daubechies_filters(order: int) -> np.ndarray:
    """Low-pass taps of the Daubechies wavelet with the given number of vanishing moments.

    Taps are generated by spectral factorization of the binomial half-band
    polynomial rather than copied from a table: roots of
    P(y) = sum_k C(order-1+k, k) y^k are mapped to z-plane roots via
    y = (2 - z - 1/z)/4, the roots inside the unit circle are kept (extremal
    phase), and the low-pass filter is (1+z)^order times those factors,
    normalized to sum sqrt(2). Returns 2 * order read-only float64 taps.
    """
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise ValueError("order must be an integer")
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")
    poly = [comb(order - 1 + k, k) for k in range(order - 1, -1, -1)]
    h = np.array([1.0 + 0.0j])
    for _ in range(order):
        h = np.convolve(h, [1.0, 1.0])
    for y in np.roots(poly):  # none for Haar (order 1): P(y) = 1
        b = 2.0 - 4.0 * y
        disc = np.sqrt(b * b - 4.0 + 0.0j)
        z = (b - disc) / 2.0
        h = np.convolve(h, [1.0, -z])
    # conjugate root pairs make h real up to rounding
    lo = h.real
    lo *= sqrt(2.0) / lo.sum()
    lo.flags.writeable = False
    return lo


def _filter_pair(lo) -> np.ndarray:
    """The (2, L) taps: row 0 low-pass, row 1 its quadrature mirror hi[k] = (-1)**k * lo[L-1-k]."""
    lo = np.asarray(lo, dtype=float)
    if lo.ndim != 1 or lo.size < 2 or lo.size % 2:
        raise ValueError(f"taps of shape {lo.shape} are not 1-d of even length >= 2")
    pair = np.stack([lo, lo[::-1]])
    pair[1, 1::2] *= -1.0
    return pair


def analysis_step(signal: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """One periodized analysis step: approx[n] = sum_k lo[k] * x[(2n+k) mod N].

    Works along the last axis and returns shape (..., 2, N/2): [..., 0, :] is
    the approximation, [..., 1, :] the detail, so `approx, detail =
    analysis_step(x, taps)` unpacks a 1-d result, and a tree level of shape
    (nodes, N) maps to (nodes, 2, N/2), whose reshape to (2*nodes, N/2) is
    the next level in natural order.

    The circular extension keeps the step orthogonal for any even N, even
    shorter than the filter (it then wraps more than once), so energy is
    conserved exactly. The sums run in numpy's einsum loops, not in BLAS, so
    the result does not depend on the BLAS kernel the CPU selects.
    """
    x = np.asarray(signal, dtype=float)
    if x.ndim < 1 or x.shape[-1] < 2:
        raise ValueError("signal must have at least 2 samples along its last axis")
    n = x.shape[-1]
    if n % 2 != 0:
        raise ValueError(f"signal length must be even, got {n}")
    pair, rows = _filter_pair(taps), x.reshape(-1, n)
    ext = np.take(rows, np.arange(n + pair.shape[1] - 2), axis=-1, mode="wrap")
    # windows[r, m, k] = ext[r, 2m + k]
    windows = sliding_window_view(ext, pair.shape[1], axis=-1)[:, ::2, :]
    # one einsum per filter: numpy runs three loop axes unbuffered, four buffered and slower
    out = np.empty((len(rows), 2, n // 2))
    for f, filt in enumerate(pair):
        np.einsum("rmk,k->rm", windows, filt, out=out[:, f])
    return out.reshape(*x.shape[:-1], 2, n // 2)


def _gray(freq_index):
    """Natural (filter-path) position of the node(s) in frequency slot(s) freq_index."""
    return freq_index ^ (freq_index >> 1)


@lru_cache(maxsize=64)
def _leaf_plan(depth: int, slots: tuple[int, ...]) -> tuple[list[np.ndarray], np.ndarray]:
    """Rows to keep of each split level, then the rows of the last one in slot order.

    Leaf slot f descends from natural position _gray(f) >> (depth - m) at level m,
    and splitting puts natural position p at row 2 * (row of p >> 1) + (p & 1).
    """
    natural = [_gray(f) for f in slots]
    row, keep = {0: 0}, []  # row of each held natural position
    for m in range(1, depth + 1):
        held = sorted({p >> (depth - m) for p in natural})
        keep.append(np.array([2 * row[p >> 1] + (p & 1) for p in held]))
        row = {p: i for i, p in enumerate(held)}
    return keep, np.array([row[p] for p in natural])


def wpt_leaves(signal: np.ndarray, depth: int, taps: np.ndarray, slots) -> np.ndarray:
    """The depth-level leaves in frequency slots `slots`, as rows of one array in that order.

    Works along the last axis: a (..., N) stack of signals gives
    (..., len(slots), N / 2**depth), each signal's leaves as it alone gives
    them. Each level splits only the ancestors of the requested leaves, in
    one analysis_step call per level: for leaves 1-12 at depth 6 that is
    2.47 N input samples, not the 6 N of splitting every node. A leaf's
    values do not depend on which other slots are requested.
    """
    x, slots = np.asarray(signal, dtype=float), tuple(slots)
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if x.ndim == 0 or x.shape[-1] == 0 or x.shape[-1] % 2 ** depth != 0:
        raise ValueError(
            f"signal of shape {x.shape} does not have a last-axis length that is a "
            f"positive multiple of 2**{depth}"
        )
    if not slots or not all(0 <= f < 2 ** depth for f in slots):
        raise ValueError(f"slots must be a non-empty list of leaves in [0, {2 ** depth - 1}]")
    keep, order = _leaf_plan(depth, slots)
    rows = x[..., None, :]
    for kept in keep:
        pairs = analysis_step(rows, taps)
        rows = pairs.reshape(*pairs.shape[:-3], -1, pairs.shape[-1])[..., kept, :]
    return rows[..., order, :]


def band_nodes(band_hz: tuple[float, float], level: int, rate_hz: float) -> list[int]:
    """Leaf indices at the given level whose ranges lie inside the band (lo, hi) in Hz.

    Raises if no whole leaf fits inside the band.
    """
    lo, hi = map(float, band_hz)
    if not 0.0 <= lo < hi:
        raise ValueError(f"invalid band edges ({lo}, {hi})")
    if not 0 <= level <= MAX_DEPTH:
        raise ValueError(f"level must be in [0, {MAX_DEPTH}], got {level}")
    if not 0.0 < rate_hz < np.inf:
        raise ValueError(f"rate_hz must be positive and finite, got {rate_hz}")
    # leaf j fits when j*width >= lo - eps and (j+1)*width <= hi + eps; both
    # are monotone in j, so the fitting leaves are one run found by bisection
    eps = 1e-12 * max(rate_hz, 1.0)
    n, width = 2 ** level, rate_hz / 2 ** (level + 1)
    first = bisect_left(range(n), lo - eps, key=lambda j: j * width)
    last = bisect_right(range(n), hi + eps, key=lambda j: (j + 1) * width) - 1
    if first > last:
        raise ValueError(f"no level-{level} node fits inside [{lo}, {hi}] Hz at {rate_hz} Hz")
    return list(range(first, last + 1))
