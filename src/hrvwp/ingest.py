"""RR-interval file parsing, tachogram construction and uniform resampling.

The raw input is an ordered series of RR intervals in milliseconds. Beat k
occurs at the cumulative sum of intervals 1..k (seconds); plotting interval
values against beat times gives the irregularly sampled tachogram. Frequency
analysis needs a uniform sampling grid, so the tachogram is interpolated with
a natural cubic spline and sampled at a fixed rate (the pipeline uses 4 Hz).
"""

import io
import os
import warnings
from enum import Enum
from pathlib import Path

import numpy as np

from .wavelet import MAX_DEPTH

__all__ = [
    "Group",
    "RRParseError",
    "parse_rr_file",
    "rr_to_tachogram",
    "resample_cubic_spline",
    "truncate_to_block",
]

# numpy's reader would open these through a decompressor
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


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


def _parse_lines(text: str) -> list[float]:
    """The kept column of every data line, raising RRParseError at the first bad line.

    This pass defines the file format. Lines end at LF, CR LF or CR; '#' starts
    a comment anywhere in a line; tokens are separated by any whitespace. Lines
    with no token left are skipped. The first data line picks the kept column:
    one token means column 0, two or more mean column 1.
    """
    values, col = [], None
    for num, line in enumerate(io.StringIO(text, newline=None), start=1):
        tokens = line.partition("#")[0].split()
        if not tokens:
            continue
        if col is None:
            col = 1 if len(tokens) >= 2 else 0
        if len(tokens) <= col:
            raise RRParseError(f"expected {col + 1} columns, got {len(tokens)}", num)
        try:
            value = float(tokens[col])
        except ValueError:
            raise RRParseError(f"non-numeric token {tokens[col]!r}", num) from None
        values.append(value)
    return values


def _read_table(path: Path) -> np.ndarray | None:
    """The kept column by numpy's C text reader, or None where the reader declines.

    The reader follows _parse_lines' rules but takes only a table: the same
    count of numbers on every data line. Ragged lines, a bad token
    and read errors are left to _parse_lines, which names the offending line.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            table = np.loadtxt(path, ndmin=2, encoding="utf-8-sig")
    except (ValueError, OSError):
        return None
    return np.ascontiguousarray(table[:, 0 if table.shape[1] == 1 else 1])


def parse_rr_file(path: str | os.PathLike) -> np.ndarray:
    """Parse the RR-interval file at path into its intervals (ms), in file order.

    Two formats are accepted: one RR interval (ms) per line, or two
    whitespace-separated columns (beat time, RR in ms) where only the second
    column is kept; _parse_lines states the rules. A leading byte-order mark
    is skipped. numpy's C reader converts the file in chunks; only a file it
    declines goes through _parse_lines, so both give the same values. A
    compressed-file suffix is read as plain text, never decompressed.
    """
    path, arr = Path(path), None
    if path.suffix.lower() not in _COMPRESSED_SUFFIXES and path.is_file():
        arr = _read_table(path)
    if arr is None:
        arr = np.asarray(_parse_lines(path.read_text(encoding="utf-8-sig")), dtype=float)
    if arr.size < 2:
        raise ValueError(f"need at least 2 RR intervals, got {arr.size}")
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr) | (arr <= 0.0))[0])
        raise ValueError(f"non-positive or non-finite RR interval at position {bad + 1}: {arr[bad]}")
    return arr


def rr_to_tachogram(rr_ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (beat_times_s, rr_values_ms): beat k at cumsum(intervals)/1000."""
    rr = np.asarray(rr_ms, dtype=float)
    with np.errstate(over="ignore"):
        times = np.cumsum(rr) / 1000.0
    if times.size and not np.isfinite(times[-1]):
        raise ValueError("beat times overflow: the RR intervals sum past the float range")
    return times, rr


def _solve_tridiagonal(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve off[i-1] x[i-1] + diag[i] x[i] + off[i] x[i+1] = rhs[i] by cyclic reduction.

    The matrix is symmetric tridiagonal (off has one entry fewer than diag), of
    size 2**k - 1. Works along the last axis, so a stack of systems of one size
    is solved at once. Each odd-indexed equation absorbs its even neighbours,
    which leaves a symmetric tridiagonal system of size 2**(k-1) - 1 in the odd
    unknowns; once that is solved, every even unknown follows from its own
    equation. Stable without pivoting for diagonally dominant systems.
    """
    if diag.shape[-1] == 1:
        return rhs / diag
    left = off[..., ::2] / diag[..., :-1:2]
    right = off[..., 1::2] / diag[..., 2::2]
    odd = _solve_tridiagonal(
        diag[..., 1::2] - left * off[..., ::2] - right * off[..., 1::2],
        -right[..., :-1] * off[..., 2::2],
        rhs[..., 1::2] - left * rhs[..., :-1:2] - right * rhs[..., 2::2],
    )
    x = np.empty(diag.shape)
    x[..., 1::2] = odd
    even = rhs[..., ::2].copy()
    even[..., 1:] -= off[..., 1::2] * odd  # left neighbours; the first has none
    even[..., :-1] -= off[..., ::2] * odd  # right neighbours; the last has none
    np.divide(even, diag[..., ::2], out=x[..., ::2])
    return x


@np.errstate(over="ignore", invalid="ignore")  # spline_samples refuses a non-finite spline
def spline_knots(times_s: np.ndarray, values: np.ndarray, rate_hz: float) -> tuple:
    """resample_cubic_spline's checks, then (t, v, h, slope, grid length, rate); nothing grid-sized."""
    t = np.asarray(times_s, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.size != v.size:
        raise ValueError("times and values must be 1-d arrays of equal length")
    if t.size < 2:
        raise ValueError("need at least 2 points to resample")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
        raise ValueError("times and values must be finite")
    h = np.diff(t)
    if np.any(h <= 0.0):
        raise ValueError("times must be strictly increasing")
    if not 0.0 < rate_hz < np.inf:
        raise ValueError(f"sampling rate must be positive and finite, got {rate_hz}")

    span = t[-1] - t[0]
    # bound the grid before allocating it, on span: span * rate_hz can overflow
    if span > (2**MAX_DEPTH - 1) / float(rate_hz):
        raise ValueError(f"a {span:.4g} s span at {rate_hz} Hz needs over 2**{MAX_DEPTH} samples")
    # epsilon keeps an exactly-aligned final knot on the grid
    count = int(np.floor(span * rate_hz + 1e-9)) + 1
    if count < 2:
        raise ValueError(
            f"rate {rate_hz} Hz yields {count} sample(s) over a {span:.3f} s span"
        )
    return t, v, h, np.diff(v) / h, count, rate_hz


@np.errstate(over="ignore", invalid="ignore")  # a row's overflow stays in its row
def spline_moments(splines) -> np.ndarray:
    """The second derivatives m of every spline_knots result, from one stacked solve.

    Row r holds m of splines[r] (m[0] = m[-1] = 0), then zeros. The systems
    are padded at the end with x = 0 equations up to 2**k - 1 unknowns, the
    fewest that hold the longest, which leave each system's unknowns as it
    alone gives them, bit for bit.
    """
    width = max(max(t.size for t, *_ in splines) - 2, 1)
    width = (1 << width.bit_length()) - 1  # every level of the solve is odd
    moments = np.zeros((len(splines), width + 2))  # first: the workspace after it frees as one block
    diag = np.ones((len(splines), width))
    off, rhs = np.zeros((len(splines), width - 1)), np.zeros((len(splines), width))
    for row, (t, _, h, slope, *_) in enumerate(splines):
        n = t.size - 2
        np.add(h[:-1], h[1:], out=diag[row, :n])
        diag[row, :n] *= 2.0
        off[row, :max(n - 1, 0)] = h[1:-1]
        np.subtract(slope[1:], slope[:-1], out=rhs[row, :n])
        rhs[row, :n] *= 6.0
    moments[:, 1:-1] = _solve_tridiagonal(diag, off, rhs)
    return moments


@np.errstate(over="ignore", invalid="ignore")
def spline_samples(spline: tuple, moments: np.ndarray) -> np.ndarray:
    """A spline_knots result on its grid, from its spline_moments row; ValueError if not finite."""
    t, v, h, slope, count, rate_hz = spline
    grid = np.arange(count, dtype=float)
    grid /= rate_hz
    grid += t[0]
    m = moments[:t.size]
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
    # min and max, not a grid-sized mask allocated at the memory peak
    if not (np.isfinite(samples.min()) and np.isfinite(samples.max())):
        raise ValueError("spline values overflow: knots too close for the change in their values")
    return samples


def resample_cubic_spline(times_s: np.ndarray, values: np.ndarray, rate_hz: float) -> np.ndarray:
    """Resample irregular (time, value) points to a uniform grid.

    Fits a natural cubic spline (zero second derivative at both ends) through
    all points and returns its values at t0, t0 + 1/rate, ... up to the last
    knot, where t0 is the first input time. No extrapolation: the output ends
    at the last input time. A grid of over 2**MAX_DEPTH samples is a ValueError,
    and so is a spline whose values overflow the float range.
    """
    spline = spline_knots(times_s, values, rate_hz)
    return spline_samples(spline, spline_moments([spline])[0])


def truncate_to_block(samples: np.ndarray, depth: int) -> np.ndarray:
    """The leading largest multiple of 2**depth samples, as a view (tail dropped).

    Truncation rather than zero padding: an artificial step edge would show
    up as spurious significant coefficients after thresholding.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    block = 2 ** depth
    keep = (len(samples) // block) * block
    if keep < 2:
        raise ValueError(
            f"signal of {len(samples)} samples too short for depth {depth} "
            f"(needs at least {max(block, 2)})"
        )
    return samples[:keep]
