"""Daubechies filter banks and the frequency-ordered wavelet packet transform.

The transform is periodized (circular extension), so a length-N signal yields
exactly N/2**m coefficients per node at level m, the transform matrix is
orthogonal, and Parseval / perfect reconstruction hold to rounding error.

Node indexing: splitting the high-pass branch and downsampling mirrors the
spectrum, so the raw filter-bank ("natural") order of the nodes is not
monotone in frequency. Each level is computed from the level above in a
single filter-bank step (Mallat's algorithm applied to every node at once),
in natural order; that order stays internal. Every level a function returns
is one array whose row j is node j in frequency order, its frequency slot;
slot f is natural position f ^ (f >> 1) (binary-reflected Gray code). Under
this indexing, node (level, j) covers exactly [j, j+1] * rate / 2**(level+1) Hz.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import comb, sqrt

import numpy as np

__all__ = [
    "QuadFilterBank",
    "daubechies_filters",
    "analysis_step",
    "wpt_decompose",
    "wpt_leaves",
    "wpt_reconstruct_nodes",
    "node_frequency_range",
    "band_nodes",
    "LF_BAND_HZ",
    "HF_BAND_HZ",
]

MAX_ORDER = 10
# 2**24 samples are 48 days at 4 Hz; a full tree of that depth would need > 3 GB
MAX_DEPTH = 24

# Default band edges in Hz. On the depth-6 / 4 Hz leaf grid these select
# leaves 1..4 (LF) and 5..12 (HF): 12 sub-bands in total.
LF_BAND_HZ = (0.03125, 0.15625)
HF_BAND_HZ = (0.15625, 0.40625)


@dataclass(frozen=True, eq=False)
class QuadFilterBank:
    """Orthonormal two-channel filter bank.

    dec_lo are the scaling (low-pass) taps, dec_hi the wavelet (high-pass)
    taps related by dec_hi[k] = (-1)**k * dec_lo[L-1-k]. The analysis step
    is a correlation, so for an orthogonal bank synthesis uses the same taps
    (inverse = transpose).
    """

    dec_lo: np.ndarray
    dec_hi: np.ndarray
    order: int

    def __post_init__(self):
        for name in ("dec_lo", "dec_hi"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), float))
        if len(self.dec_lo) != 2 * self.order:
            raise ValueError("filter length must be 2 * order")


def _qmf(lo: np.ndarray) -> np.ndarray:
    n = len(lo)
    return np.array([(-1) ** k * lo[n - 1 - k] for k in range(n)])


def daubechies_filters(order: int) -> QuadFilterBank:
    """Build the Daubechies filter bank with the given number of vanishing moments.

    Taps are generated by spectral factorization of the binomial half-band
    polynomial rather than copied from a table: roots of
    P(y) = sum_k C(order-1+k, k) y^k are mapped to z-plane roots via
    y = (2 - z - 1/z)/4, the roots inside the unit circle are kept (extremal
    phase), and the low-pass filter is (1+z)^order times those factors,
    normalized to sum sqrt(2).

    Each order is designed once; every call returns the same bank, whose taps
    are read-only.
    """
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise ValueError("order must be an integer")
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")
    return _design_bank(int(order))


@lru_cache(maxsize=MAX_ORDER)
def _design_bank(order: int) -> QuadFilterBank:
    if order == 1:
        lo = np.array([1.0, 1.0]) / sqrt(2.0)
    else:
        poly = [comb(order - 1 + k, k) for k in range(order - 1, -1, -1)]
        h = np.array([1.0 + 0.0j])
        for _ in range(order):
            h = np.convolve(h, [1.0, 1.0])
        for y in np.roots(poly):
            b = 2.0 - 4.0 * y
            disc = np.sqrt(b * b - 4.0 + 0.0j)
            z = (b + disc) / 2.0
            if abs(z) >= 1.0:
                z = (b - disc) / 2.0
            h = np.convolve(h, [1.0, -z])
        # conjugate root pairs make h real up to rounding
        lo = h.real
        lo *= sqrt(2.0) / lo.sum()

    bank = QuadFilterBank(dec_lo=lo, dec_hi=_qmf(lo), order=order)
    for taps in (bank.dec_lo, bank.dec_hi):
        taps.flags.writeable = False
    return bank


def _phase_taps(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Taps as [filter, j, phase]: tap 2j+phase of the low-pass (0) and high-pass (1) filter."""
    return np.stack([lo, hi]).reshape(2, lo.size // 2, 2)


def analysis_step(signal: np.ndarray, bank: QuadFilterBank) -> np.ndarray:
    """One periodized analysis step: approx[n] = sum_k lo[k] * x[(2n+k) mod N].

    Works along the last axis and returns shape (..., 2, N/2): [..., 0, :] is
    the approximation, [..., 1, :] the detail, so `approx, detail =
    analysis_step(x, bank)` unpacks a 1-d result, and a tree level of shape
    (nodes, N) maps to (nodes, 2, N/2), whose reshape to (2*nodes, N/2) is
    the next level in natural order.

    Polyphase form: with e[m] = x[2m] and o[m] = x[2m+1] read as strided
    views of the circular extension, tap pair (2j, 2j+1) of both filters
    multiplies (e, o) shifted by j, so each output takes taps/2 multiply-adds
    of a 2x2 tap block. The circular extension keeps the step orthogonal for
    any even N, even shorter than the filter (it then wraps more than once),
    so energy is conserved exactly.
    """
    x = np.asarray(signal, dtype=float)
    if x.ndim < 1 or x.shape[-1] < 2:
        raise ValueError("signal must have at least 2 samples along its last axis")
    n = x.shape[-1]
    if n % 2 != 0:
        raise ValueError(f"signal length must be even, got {n}")
    half = n // 2
    taps = _phase_taps(bank.dec_lo, bank.dec_hi)
    ext = np.take(x, np.arange(n + 2 * taps.shape[1] - 2), axis=-1, mode="wrap")
    # phases[..., p, m] = ext[..., 2m + p]
    phases = ext.reshape(*ext.shape[:-1], -1, 2).swapaxes(-1, -2)
    out = taps[:, 0] @ phases[..., :half]
    for j in range(1, taps.shape[1]):
        out += taps[:, j] @ phases[..., j:j + half]
    return out


def _synthesize(pairs: np.ndarray, bank: QuadFilterBank) -> np.ndarray:
    """Transpose of analysis_step: (..., 2, half) (approx, detail) pairs to (..., 2*half)."""
    half = pairs.shape[-1]
    taps = _phase_taps(bank.dec_lo, bank.dec_hi).transpose(1, 2, 0)
    lag = taps.shape[0] - 1
    # ext[..., k] = pairs[..., (k - lag) mod half]
    ext = np.take(pairs, np.arange(-lag, half), axis=-1, mode="wrap")
    phases = taps[0] @ ext[..., lag:]
    for j in range(1, taps.shape[0]):
        phases += taps[j] @ ext[..., lag - j:lag - j + half]
    return phases.swapaxes(-1, -2).reshape(*pairs.shape[:-2], 2 * half)


def _gray(freq_index):
    """Natural (filter-path) position of the node(s) in frequency slot(s) freq_index."""
    return freq_index ^ (freq_index >> 1)


def _level_zero(signal: np.ndarray, depth: int) -> np.ndarray:
    """signal as the one-row level 0 of a depth-level tree, checked to split that deep."""
    x = np.asarray(signal, dtype=float)
    if depth < 0:
        raise ValueError("depth must be >= 0")
    block = 2 ** depth
    if x.ndim != 1 or x.size == 0 or x.size % block != 0:
        raise ValueError(
            f"signal of shape {x.shape} is not 1-d with a length that is a "
            f"positive multiple of 2**{depth}"
        )
    return x.reshape(1, -1)


def wpt_decompose(signal: np.ndarray, depth: int, bank: QuadFilterBank) -> list[np.ndarray]:
    """Decompose uniformly sampled signal values into a full packet tree of the given depth.

    Returns the levels 0..depth; levels[m] has shape (2**m, N/2**m) and row j
    is node (m, j), in frequency order. Every node is split: one analysis_step
    call per level turns natural row i into rows 2i (approx) and 2i+1 (detail)
    of the next level, and each level is put in frequency order once, at the end.
    """
    natural = [_level_zero(signal, depth)]
    for _ in range(depth):
        pairs = analysis_step(natural[-1], bank)
        natural.append(pairs.reshape(2 * pairs.shape[0], -1))
    return [level[_gray(np.arange(level.shape[0]))] for level in natural]


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


def wpt_leaves(signal: np.ndarray, depth: int, bank: QuadFilterBank, slots) -> np.ndarray:
    """The depth-level leaves in frequency slots `slots`, as rows of one array in that order.

    Bitwise equal to wpt_decompose(...)[depth][slots], but each level splits
    only the ancestors of the requested leaves, in one analysis_step call per
    level. For leaves 1-12 at depth 6 that is 2.47 N input samples, not 6 N.
    """
    rows, slots = _level_zero(signal, depth), tuple(slots)
    if not slots or not all(0 <= f < 2 ** depth for f in slots):
        raise ValueError(f"slots must be a non-empty list of leaves in [0, {2 ** depth - 1}]")
    keep, order = _leaf_plan(depth, slots)
    for kept in keep:
        pairs = analysis_step(rows, bank)
        rows = pairs.reshape(2 * pairs.shape[0], -1)[kept]
    return rows[order]


def wpt_reconstruct_nodes(leaves: np.ndarray, bank: QuadFilterBank, node_set) -> np.ndarray:
    """Time-domain component carried by the selected leaves.

    leaves is the frequency-ordered (2**depth, L) last level of a tree, as
    wpt_decompose(...)[-1] returns it. All leaves outside node_set are zeroed
    before synthesis, so selecting all leaves returns the original signal and
    complementary selections add up to it (the transform is linear and
    orthogonal).
    """
    leaves = np.asarray(leaves, dtype=float)
    n_leaves = leaves.shape[0] if leaves.ndim == 2 else 0
    if n_leaves < 1 or n_leaves & (n_leaves - 1):
        raise ValueError(
            f"leaves of shape {leaves.shape} are not a 2-d level with a power-of-two row count"
        )
    selected = set(int(j) for j in node_set)
    for j in selected:
        if not 0 <= j < n_leaves:
            raise ValueError(f"leaf index {j} out of range [0, {n_leaves - 1}]")
    level = np.zeros_like(leaves)
    slots = np.array(sorted(selected), dtype=int)
    level[_gray(slots)] = leaves[slots]
    while level.shape[0] > 1:
        level = _synthesize(level.reshape(level.shape[0] // 2, 2, -1), bank)
    return level[0]


def node_frequency_range(level: int, index: int, rate_hz: float) -> tuple[float, float]:
    """Frequency interval [f_lo, f_hi] in Hz covered by node (level, index)."""
    if level < 0:
        raise ValueError("level must be >= 0")
    if not 0 <= index < 2 ** level:
        raise ValueError(
            f"index must be in [0, {2 ** level - 1}] at level {level}, got {index}"
        )
    if not 0.0 < rate_hz < np.inf:
        raise ValueError(f"rate_hz must be positive and finite, got {rate_hz}")
    width = rate_hz / 2 ** (level + 1)
    return (index * width, (index + 1) * width)


def band_nodes(
    band: str,
    level: int,
    rate_hz: float,
    band_hz: tuple[float, float] | None = None,
) -> list[int]:
    """Leaf indices at the given level whose ranges lie inside the band.

    Band edges default to the LF/HF constants above; a custom (lo, hi) pair
    in Hz can be supplied. Raises if no whole leaf fits inside the band.
    """
    if band_hz is None:
        band_hz = {"LF": LF_BAND_HZ, "HF": HF_BAND_HZ}.get(str(band).upper())
        if band_hz is None:
            raise ValueError(f"unknown band {band!r}; expected 'LF' or 'HF'")
    lo, hi = float(band_hz[0]), float(band_hz[1])
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
