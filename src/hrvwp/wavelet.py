"""Daubechies filter banks and the frequency-ordered wavelet packet transform.

The transform is periodized (circular extension), so a length-N signal yields
exactly N/2**m coefficients per node at level m, the transform matrix is
orthogonal, and Parseval / perfect reconstruction hold to rounding error.

Node indexing: splitting the high-pass branch and downsampling mirrors the
spectrum, so the raw filter-bank ("natural") order of the leaves is not
monotone in frequency. Nodes are stored in natural order internally; the
public index of a node at level m is its frequency slot, with slot f mapping
to natural position f ^ (f >> 1) (binary-reflected Gray code). Under this
indexing, node (level, j) covers exactly [j, j+1] * rate / 2**(level+1) Hz.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, sqrt

import numpy as np

from .ingest import UniformSignal

__all__ = [
    "QuadFilterBank",
    "WpNode",
    "WpTree",
    "daubechies_filters",
    "analysis_step",
    "synthesis_step",
    "wpt_decompose",
    "wpt_reconstruct_nodes",
    "node_frequency_range",
    "band_nodes",
    "LF_BAND_HZ",
    "HF_BAND_HZ",
]

MAX_ORDER = 10

# Default band edges in Hz. On the depth-6 / 4 Hz leaf grid these select
# leaves 1..4 (LF) and 5..12 (HF): 12 sub-bands in total.
LF_BAND_HZ = (0.03125, 0.15625)
HF_BAND_HZ = (0.15625, 0.40625)


@dataclass(frozen=True, eq=False)
class QuadFilterBank:
    """Orthonormal two-channel filter bank (analysis + synthesis taps).

    dec_lo are the scaling (low-pass) taps, dec_hi the wavelet (high-pass)
    taps related by dec_hi[k] = (-1)**k * dec_lo[L-1-k]. The analysis step
    is a correlation, so for an orthogonal bank the synthesis taps equal the
    analysis taps (inverse = transpose).
    """

    dec_lo: np.ndarray
    dec_hi: np.ndarray
    rec_lo: np.ndarray
    rec_hi: np.ndarray
    order: int

    def __post_init__(self):
        for name in ("dec_lo", "dec_hi", "rec_lo", "rec_hi"):
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

    hi = _qmf(lo)
    bank = QuadFilterBank(
        dec_lo=lo, dec_hi=hi, rec_lo=lo.copy(), rec_hi=hi.copy(), order=order
    )
    for taps in (bank.dec_lo, bank.dec_hi, bank.rec_lo, bank.rec_hi):
        taps.flags.writeable = False
    return bank


def _window_indices(n_out: int, taps: int, n: int) -> np.ndarray:
    return (2 * np.arange(n_out)[:, None] + np.arange(taps)[None, :]) % n


def analysis_step(
    signal: np.ndarray, bank: QuadFilterBank
) -> tuple[np.ndarray, np.ndarray]:
    """One periodized analysis step: approx[n] = sum_k lo[k] * x[(2n+k) mod N].

    The circular extension keeps the step orthogonal for any even N, even
    shorter than the filter, so energy is conserved exactly.
    """
    x = np.asarray(signal, dtype=float)
    n = x.size
    if x.ndim != 1 or n < 2:
        raise ValueError("signal must be a 1-d array with at least 2 samples")
    if n % 2 != 0:
        raise ValueError(f"signal length must be even, got {n}")
    win = x[_window_indices(n // 2, len(bank.dec_lo), n)]
    return win @ bank.dec_lo, win @ bank.dec_hi


def synthesis_step(
    approx: np.ndarray, detail: np.ndarray, bank: QuadFilterBank
) -> np.ndarray:
    """Exact inverse of analysis_step (transpose of the orthogonal step)."""
    a = np.asarray(approx, dtype=float)
    d = np.asarray(detail, dtype=float)
    if a.shape != d.shape or a.ndim != 1 or a.size < 1:
        raise ValueError("approx and detail must be 1-d arrays of equal length")
    n = 2 * a.size
    idx = _window_indices(a.size, len(bank.rec_lo), n)
    out = np.zeros(n)
    np.add.at(out, idx, a[:, None] * bank.rec_lo[None, :] + d[:, None] * bank.rec_hi[None, :])
    return out


def _gray(freq_index: int) -> int:
    """Natural (filter-path) position of the node in frequency slot freq_index."""
    return freq_index ^ (freq_index >> 1)


@dataclass(frozen=True, eq=False)
class WpNode:
    """One packet node: frequency-ordered index within its level."""

    level: int
    index: int
    coeffs: np.ndarray


class WpTree:
    """Full wavelet packet coefficient tree down to a fixed depth.

    Level 0 holds the original signal; every node at level m splits into two
    children at level m+1, so each full level is an orthogonal transform of
    the signal. Node lookup is by frequency-ordered index.
    """

    def __init__(
        self,
        levels_natural: list[list[np.ndarray]],
        rate_hz: float,
        bank: QuadFilterBank,
    ):
        self._levels = levels_natural
        self.signal_len = int(levels_natural[0][0].size)
        self.depth = len(levels_natural) - 1
        self.rate_hz = float(rate_hz)
        self.bank = bank

    def node(self, level: int, index: int) -> WpNode:
        if not 0 <= level <= self.depth:
            raise ValueError(f"level must be in [0, {self.depth}], got {level}")
        if not 0 <= index < 2 ** level:
            raise ValueError(
                f"index must be in [0, {2 ** level - 1}] at level {level}, got {index}"
            )
        return WpNode(level, index, self._levels[level][_gray(index)])

    def level_nodes(self, level: int) -> list[WpNode]:
        return [self.node(level, j) for j in range(2 ** level)]

    def leaves(self) -> list[WpNode]:
        return self.level_nodes(self.depth)

    @property
    def nodes(self) -> list[WpNode]:
        out = []
        for m in range(self.depth + 1):
            out.extend(self.level_nodes(m))
        return out

    def level_energy(self, level: int) -> float:
        return float(sum(np.dot(a, a) for a in self._levels[level]))


def wpt_decompose(signal: UniformSignal, depth: int, bank: QuadFilterBank) -> WpTree:
    """Decompose a uniform signal into a full packet tree of the given depth."""
    x = np.asarray(signal.samples, dtype=float)
    if depth < 0:
        raise ValueError("depth must be >= 0")
    block = 2 ** depth
    if x.size == 0 or x.size % block != 0:
        raise ValueError(
            f"signal length {x.size} is not a positive multiple of 2**{depth}"
        )
    levels = [[x.copy()]]
    for _ in range(depth):
        nxt = []
        for arr in levels[-1]:
            a, d = analysis_step(arr, bank)
            nxt.append(a)
            nxt.append(d)
        levels.append(nxt)
    return WpTree(levels, rate_hz=signal.rate_hz, bank=bank)


def wpt_reconstruct_nodes(tree: WpTree, node_set) -> np.ndarray:
    """Time-domain component carried by the selected leaves.

    All leaves outside node_set are zeroed before synthesis, so selecting all
    leaves returns the original signal and complementary selections add up to
    it (the transform is linear and orthogonal).
    """
    n_leaves = 2 ** tree.depth
    selected = set(int(j) for j in node_set)
    for j in selected:
        if not 0 <= j < n_leaves:
            raise ValueError(f"leaf index {j} out of range [0, {n_leaves - 1}]")
    leaf_len = tree.signal_len // n_leaves
    natural = [np.zeros(leaf_len) for _ in range(n_leaves)]
    for j in selected:
        natural[_gray(j)] = tree._levels[tree.depth][_gray(j)].copy()
    for _ in range(tree.depth):
        natural = [
            synthesis_step(natural[2 * j], natural[2 * j + 1], tree.bank)
            for j in range(len(natural) // 2)
        ]
    return natural[0]


def node_frequency_range(level: int, index: int, rate_hz: float) -> tuple[float, float]:
    """Frequency interval [f_lo, f_hi] in Hz covered by node (level, index)."""
    if level < 0:
        raise ValueError("level must be >= 0")
    if not 0 <= index < 2 ** level:
        raise ValueError(
            f"index must be in [0, {2 ** level - 1}] at level {level}, got {index}"
        )
    if not rate_hz > 0.0:
        raise ValueError("rate_hz must be positive")
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
    key = str(band).upper()
    if band_hz is None:
        if key == "LF":
            band_hz = LF_BAND_HZ
        elif key == "HF":
            band_hz = HF_BAND_HZ
        else:
            raise ValueError(f"unknown band {band!r}; expected 'LF' or 'HF'")
    lo, hi = float(band_hz[0]), float(band_hz[1])
    if not 0.0 <= lo < hi:
        raise ValueError(f"invalid band edges ({lo}, {hi})")
    eps = 1e-12 * max(rate_hz, 1.0)
    picked = []
    for j in range(2 ** level):
        f_lo, f_hi = node_frequency_range(level, j, rate_hz)
        if f_lo >= lo - eps and f_hi <= hi + eps:
            picked.append(j)
    if not picked:
        raise ValueError(
            f"no level-{level} node fits inside [{lo}, {hi}] Hz at {rate_hz} Hz"
        )
    return picked
