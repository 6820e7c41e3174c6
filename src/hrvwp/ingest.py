"""RR-interval file parsing, tachogram construction and uniform resampling.

The raw input is an ordered series of RR intervals in milliseconds. Beat k
occurs at the cumulative sum of intervals 1..k (seconds); plotting interval
values against beat times gives the irregularly sampled tachogram. Frequency
analysis needs a uniform sampling grid, so the tachogram is interpolated with
a natural cubic spline and sampled at a fixed rate (4 Hz by default).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Group",
    "RRSeries",
    "UniformSignal",
    "RRParseError",
    "parse_rr_file",
    "rr_to_tachogram",
    "resample_cubic_spline",
    "truncate_to_block",
]

class Group(Enum):
    """Subject group label."""

    CONTROL = "Control"
    VT = "VT"
    VF = "VF"
    UNLABELED = "Unlabeled"

    @classmethod
    def from_string(cls, text: str) -> "Group":
        key = text.strip().lower()
        for member in cls:
            if member.value.lower() == key:
                return member
        raise ValueError(
            f"unknown group {text!r}; expected one of "
            f"{[m.value for m in cls]}"
        )


class RRParseError(ValueError):
    """Malformed token in an RR-interval file; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, eq=False)
class RRSeries:
    """Ordered RR intervals (ms) for one recording."""

    intervals_ms: np.ndarray
    subject_id: str = ""
    group: Group = Group.UNLABELED

    def __post_init__(self):
        arr = np.asarray(self.intervals_ms, dtype=float)
        object.__setattr__(self, "intervals_ms", arr)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("RR series needs at least 2 intervals")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise ValueError("RR intervals must be finite and positive")

    def __len__(self) -> int:
        return int(self.intervals_ms.size)


@dataclass(frozen=True, eq=False)
class UniformSignal:
    """Evenly sampled tachogram: RR value in ms on a fixed-rate grid."""

    samples: np.ndarray
    rate_hz: float
    t0_s: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", arr)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("uniform signal needs at least 2 samples")
        if not self.rate_hz > 0.0:
            raise ValueError("sampling rate must be positive")

    def __len__(self) -> int:
        return int(self.samples.size)


def _parse_lines(text: str, col: int) -> list[float]:
    """Column col of every data line, raising RRParseError at the first bad line."""
    values = []
    for num, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue  # blank line or comment
        if len(tokens) <= col:
            raise RRParseError(f"expected {col + 1} columns, got {len(tokens)}", num)
        try:
            value = float(tokens[col])
        except ValueError:
            raise RRParseError(f"non-numeric token {tokens[col]!r}", num) from None
        values.append(value)
    return values


def _parse_plain(kept: list[str], col: int) -> np.ndarray | None:
    """Column col of every kept line in one conversion, or None if any line is not plain.

    Plain means a single number per line (one-column), or the same count of
    numbers on every line (two-column); anything else is left to _parse_lines.
    """
    try:
        if col == 0:
            return np.array(kept, dtype=float)
        table = np.array([line.split() for line in kept], dtype=float)
    except ValueError:
        return None
    return table[:, col].copy() if table.ndim == 2 and table.shape[1] > col else None


def parse_rr_file(
    text: str | bytes,
    subject_id: str = "",
    group: Group = Group.UNLABELED,
) -> RRSeries:
    """Parse an RR-interval text file into an RRSeries.

    Two formats are accepted: one RR interval (ms) per line, or two
    whitespace-separated columns (beat time, RR in ms) where only the second
    column is kept. The first data line picks the format: one token means
    one column, two or more mean two. Blank lines and lines starting with '#'
    are skipped. Input order is preserved. All data lines are converted in
    one pass; only when that fails does a line-by-line pass run, which finds
    the offending line or takes the kept column from lines with extra tokens.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")

    kept = [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]
    col = 1 if kept and len(kept[0].split()) >= 2 else 0
    arr = _parse_plain(kept, col)
    if arr is None:
        arr = np.asarray(_parse_lines(text, col), dtype=float)
    if arr.size < 2:
        raise ValueError(f"need at least 2 RR intervals, got {arr.size}")
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr) | (arr <= 0.0))[0])
        raise ValueError(f"non-positive RR interval at position {bad + 1}: {arr[bad]}")
    return RRSeries(intervals_ms=arr, subject_id=subject_id, group=group)


def rr_to_tachogram(series: RRSeries) -> tuple[np.ndarray, np.ndarray]:
    """Return (beat_times_s, rr_values_ms): beat k at cumsum(intervals)/1000."""
    times = np.cumsum(series.intervals_ms) / 1000.0
    return times, series.intervals_ms.copy()


def _solve_tridiagonal(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve off[i-1] x[i-1] + diag[i] x[i] + off[i] x[i+1] = rhs[i] by cyclic reduction.

    The matrix is symmetric tridiagonal (off has one entry fewer than diag).
    Each odd-indexed equation absorbs its even neighbours, which leaves a
    symmetric tridiagonal system in the odd unknowns of half the size; once
    that is solved, every even unknown follows from its own equation. Stable
    without pivoting for diagonally dominant systems.
    """
    if diag.size == 1:
        return rhs / diag
    if diag.size % 2 == 0:
        # a trailing x = 0 equation gives every odd equation a right neighbour
        padded = _solve_tridiagonal(np.append(diag, 1.0), np.append(off, 0.0),
                                    np.append(rhs, 0.0))
        return padded[:-1]
    left = off[::2] / diag[:-1:2]
    right = off[1::2] / diag[2::2]
    odd = _solve_tridiagonal(
        diag[1::2] - left * off[::2] - right * off[1::2],
        -right[:-1] * off[2::2],
        rhs[1::2] - left * rhs[:-1:2] - right * rhs[2::2],
    )
    around = np.concatenate(([0.0], odd, [0.0]))
    couple = np.concatenate(([0.0], off, [0.0]))
    x = np.empty(diag.size)
    x[1::2] = odd
    x[::2] = (rhs[::2] - couple[::2] * around[:-1] - couple[1::2] * around[1:]) / diag[::2]
    return x


def resample_cubic_spline(
    times_s: np.ndarray, values: np.ndarray, rate_hz: float
) -> UniformSignal:
    """Resample irregular (time, value) points to a uniform grid.

    Fits a natural cubic spline (zero second derivative at both ends) through
    all points and evaluates it at t0, t0 + 1/rate, ... up to the last knot.
    No extrapolation: the output ends at the last input time.
    """
    t = np.asarray(times_s, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.size != v.size:
        raise ValueError("times and values must be 1-d arrays of equal length")
    if t.size < 2:
        raise ValueError("need at least 2 points to resample")
    h = np.diff(t)
    if np.any(h <= 0.0):
        raise ValueError("times must be strictly increasing")
    if not rate_hz > 0.0:
        raise ValueError("sampling rate must be positive")

    span = t[-1] - t[0]
    # epsilon keeps an exactly-aligned final knot on the grid
    count = int(np.floor(span * rate_hz + 1e-9)) + 1
    if count < 2:
        raise ValueError(
            f"rate {rate_hz} Hz yields {count} sample(s) over a {span:.3f} s span"
        )
    grid = np.arange(count, dtype=float)
    grid /= rate_hz
    grid += t[0]

    # second derivatives m at the knots, m[0] = m[-1] = 0
    slope = np.diff(v) / h
    m = np.zeros(t.size)
    if t.size > 2:
        m[1:-1] = _solve_tridiagonal(2.0 * (h[:-1] + h[1:]), h[1:-1], 6.0 * np.diff(slope))
    # grid point g lies in interval i[g] = number of interior knots <= grid[g]
    i = np.bincount(np.searchsorted(grid, t[1:-1]), minlength=count + 1)[:count]
    np.cumsum(i, out=i)
    # Horner in dx = grid - t[i], in place: every pass over the grid reuses
    # the same buffers instead of allocating one per operation (mode="clip"
    # lets take write straight into its out buffer; i is always in range)
    dx, gathered = grid, np.empty(count)
    dx -= np.take(t, i, out=gathered, mode="clip")
    samples = np.take(np.diff(m) / (6.0 * h), i)
    for coef in (0.5 * m, slope - h * (2.0 * m[:-1] + m[1:]) / 6.0, v):
        samples *= dx
        samples += np.take(coef, i, out=gathered, mode="clip")
    return UniformSignal(samples=samples, rate_hz=rate_hz, t0_s=float(t[0]))


def truncate_to_block(signal: UniformSignal, depth: int) -> UniformSignal:
    """Truncate to the largest multiple of 2**depth samples (tail dropped).

    Truncation rather than zero padding: an artificial step edge would show
    up as spurious significant coefficients after thresholding.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    block = 2 ** depth
    keep = (len(signal) // block) * block
    if keep < block or keep < 2:
        raise ValueError(
            f"signal of {len(signal)} samples too short for depth {depth} "
            f"(needs at least {max(block, 2)})"
        )
    if keep == len(signal):
        return signal
    return UniformSignal(
        samples=signal.samples[:keep], rate_hz=signal.rate_hz, t0_s=signal.t0_s
    )
