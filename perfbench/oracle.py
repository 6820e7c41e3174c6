"""Independent reference for the benchmark's output check.

Recomputes, without importing hrvwp, what the README specifies for the
default configuration: natural cubic spline at 4 Hz up to the last beat,
truncation to a multiple of 2**6 samples, a periodized db4 packet tree of
depth 6 with frequency-ordered leaves, LF leaves 1-4 and HF leaves 5-12, the
per-band MAD threshold (ties to background), the seven background features,
and both balanced two-way ANOVA tables. The transform here is a whole-level
polyphase sum, not hrvwp's per-node windows, so the two agree only to
rounding error.
"""

from __future__ import annotations

import csv
from math import log, sqrt
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import fdtrc

RATE_HZ = 4.0
DEPTH = 6
LF_BAND_HZ = (0.03125, 0.15625)
HF_BAND_HZ = (0.15625, 0.40625)
# Daubechies db4 scaling filter (extremal phase), published values.
DB4 = np.array([
    0.23037781330885523, 0.7148465705525415, 0.6308807679295904,
    -0.02798376941698385, -0.18703481171888114, 0.030841381835986965,
    0.032883011666982945, -0.010597401784997278,
])
FEATURES = ("std_lf", "mean_lf", "std_hf", "mean_hf", "e_lf", "e_hf", "r_e")
ANOVA_TABLES = {
    "coefficient_stats": ("std_lf", "mean_lf", "std_hf", "mean_hf"),
    "energy": ("e_lf", "e_hf", "r_e"),
}
ANOVA_SOURCES = ("Columns", "Rows", "Interaction")
GROUP_ORDER = ("Control", "VT", "VF")


def _leaves(rr_ms: np.ndarray) -> np.ndarray:
    """Depth-6 packet leaves in frequency order, shape (64, N / 64)."""
    t = np.cumsum(rr_ms) / 1000.0
    count = int(np.floor((t[-1] - t[0]) * RATE_HZ + 1e-9)) + 1
    x = CubicSpline(t, rr_ms, bc_type="natural")(t[0] + np.arange(count) / RATE_HZ)
    x = x[: (x.size // 2 ** DEPTH) * 2 ** DEPTH]
    hi = DB4[::-1] * (-1.0) ** np.arange(DB4.size)
    level = x[None, :]
    for _ in range(DEPTH):
        lo_part = sum(c * np.roll(level, -k, axis=1)[:, ::2] for k, c in enumerate(DB4))
        hi_part = sum(c * np.roll(level, -k, axis=1)[:, ::2] for k, c in enumerate(hi))
        level = np.stack([lo_part, hi_part], axis=1).reshape(-1, lo_part.shape[1])
    slots = np.arange(2 ** DEPTH)
    return level[slots ^ (slots >> 1)]


def _band(leaves: np.ndarray, band_hz) -> np.ndarray:
    width = RATE_HZ / 2 ** (DEPTH + 1)
    picked = [j for j in range(leaves.shape[0])
              if j * width >= band_hz[0] - 1e-12 and (j + 1) * width <= band_hz[1] + 1e-12]
    return np.concatenate(leaves[picked])


def _background(v: np.ndarray) -> np.ndarray:
    h = np.median(np.abs(v - np.median(v))) / 0.6745
    return v[np.abs(v) <= h * sqrt(2.0 * log(v.size))]


def recording_features(rr_ms: np.ndarray) -> dict:
    leaves = _leaves(rr_ms)
    lf = _background(_band(leaves, LF_BAND_HZ))
    hf = _background(_band(leaves, HF_BAND_HZ))
    e_lf, e_hf = float(lf @ lf), float(hf @ hf)
    return {"std_lf": float(lf.std()), "mean_lf": float(lf.mean()),
            "std_hf": float(hf.std()), "mean_hf": float(hf.mean()),
            "e_lf": e_lf, "e_hf": e_hf, "r_e": e_lf / e_hf}


def anova(grid: np.ndarray) -> dict:
    """F and p of columns, rows and interaction for an (R, C, K) grid."""
    r, c, k = grid.shape
    grand = grid.mean()
    cell = grid.mean(axis=2)
    row_m = grid.mean(axis=(1, 2))
    col_m = grid.mean(axis=(0, 2))
    ms_err = float(((grid - cell[:, :, None]) ** 2).sum()) / (r * c * (k - 1))
    effects = {
        "Columns": (r * k * float(((col_m - grand) ** 2).sum()), c - 1),
        "Rows": (c * k * float(((row_m - grand) ** 2).sum()), r - 1),
        "Interaction": (k * float(((cell - row_m[:, None] - col_m[None, :] + grand) ** 2).sum()),
                        (r - 1) * (c - 1)),
    }
    out = {}
    for source, (ss, df) in effects.items():
        f = ss / df / ms_err
        out[source] = [f, float(fdtrc(df, r * c * (k - 1), f))]
    return out


def expected_outputs(corpus_dir: Path) -> dict:
    """Reference features per subject and ANOVA (F, p) per table and source."""
    with open(corpus_dir / "manifest.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    features, groups = {}, {}
    for row in rows:
        rr = np.loadtxt(corpus_dir / row["path"], comments="#", ndmin=1)
        features[row["subject_id"]] = recording_features(rr)
        groups.setdefault(row["group"], []).append(row["subject_id"])
    order = [g for g in GROUP_ORDER if g in groups]
    tables = {}
    for name, columns in ANOVA_TABLES.items():
        grid = np.array([[[features[s][col] for s in sorted(groups[g])] for col in columns]
                         for g in order])
        tables[name] = anova(grid)
    return {"features": {s: [v[k] for k in FEATURES] for s, v in features.items()},
            "anova": tables}
