"""Balanced two-way fixed-effects ANOVA with interaction, and the F tail.

The ANOVA takes its balanced (rows, columns, replicates) grid as a plain
array and follows the classic five-step recipe: sources, sums of
squares from cell/margin/grand means, degrees of freedom, mean squares
(SS/df), and F ratios against the error mean square. Upper-tail F
probabilities come from f_tail_probability, the regularized incomplete beta
function evaluated by a continued fraction, so the accuracy (~1e-10)
comfortably dominates any reporting tolerance.
"""

from dataclasses import dataclass
from math import exp, lgamma, log, log1p

import numpy as np

__all__ = [
    "AnovaRow",
    "AnovaTable",
    "DegenerateDataError",
    "anova_two_way",
    "sum_of_squares",
    "f_tail_probability",
]

ANOVA_SOURCES = ("columns", "rows", "interaction", "error", "total")


class DegenerateDataError(ValueError):
    """Zero error mean square: F ratios are undefined for this grid."""


@dataclass(frozen=True)
class AnovaRow:
    source: str
    ss: float
    df: int
    ms: float | None = None
    f: float | None = None
    p: float | None = None


@dataclass(frozen=True)
class AnovaTable:
    """Five-row ANOVA table in the order columns, rows, interaction, error, total."""

    rows: tuple[AnovaRow, ...]

    def __post_init__(self):
        if tuple(r.source for r in self.rows) != ANOVA_SOURCES:
            raise ValueError(f"table must hold sources {ANOVA_SOURCES} in order")

    def __getitem__(self, source: str) -> AnovaRow:
        for row in self.rows:
            if row.source == source:
                return row
        raise KeyError(source)


def sum_of_squares(values) -> dict[str, tuple[float, int]]:
    """SS and df per source from cell, margin and grand means.

    values is a balanced (rows, columns, replicates) grid, or anything
    np.asarray turns into one, with at least 2 of each and finite cells.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 3:
        raise ValueError("values must be a 3-d (rows, columns, replicates) array")
    r, c, k = x.shape
    if r < 2 or c < 2:
        raise ValueError("need at least 2 rows and 2 columns")
    if k < 2:
        raise ValueError("interaction needs at least 2 replicates per cell")
    if not np.all(np.isfinite(x)):
        raise ValueError("all cells must be filled with finite values")
    grand = x.mean()
    cell = x.mean(axis=2)
    row_means = x.mean(axis=(1, 2))
    col_means = x.mean(axis=(0, 2))

    ss_rows = c * k * float(np.sum((row_means - grand) ** 2))
    ss_cols = r * k * float(np.sum((col_means - grand) ** 2))
    inter = cell - row_means[:, None] - col_means[None, :] + grand
    ss_inter = k * float(np.sum(inter ** 2))
    ss_err = float(np.sum((x - cell[:, :, None]) ** 2))
    ss_total = float(np.sum((x - grand) ** 2))

    return {
        "columns": (ss_cols, c - 1),
        "rows": (ss_rows, r - 1),
        "interaction": (ss_inter, (r - 1) * (c - 1)),
        "error": (ss_err, r * c * (k - 1)),
        "total": (ss_total, r * c * k - 1),
    }


def anova_two_way(values) -> AnovaTable:
    """Balanced two-way fixed-effects ANOVA with interaction, on a sum_of_squares grid.

    Raises DegenerateDataError when the error mean square is zero (identical
    replicates everywhere), since no F ratio is defined then.
    """
    decomp = sum_of_squares(values)
    ss_error, df_error = decomp["error"]
    ms_error = ss_error / df_error
    if ms_error == 0.0:
        raise DegenerateDataError("error mean square is zero; F is undefined")

    rows = []
    for source in ("columns", "rows", "interaction"):
        ss, df = decomp[source]
        ms = ss / df
        f = ms / ms_error
        rows.append(AnovaRow(source, ss, df, ms=ms, f=f, p=f_tail_probability(f, df, df_error)))
    rows.append(AnovaRow("error", ss_error, df_error, ms=ms_error))
    rows.append(AnovaRow("total", *decomp["total"]))
    return AnovaTable(rows=tuple(rows))


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Modified Lentz evaluation of the incomplete-beta continued fraction."""
    max_iter, eps, tiny = 300, 1e-15, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        # the even and the odd term of step m take the same update
        for coeff in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                      -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + coeff * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + coeff / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def f_tail_probability(f: float, df1: int, df2: int) -> float:
    """Upper-tail probability Pr(F_{df1, df2} > f); decreasing in f, 1 at f = 0.

    Computed as the regularized incomplete beta I_x(a, b) with
    x = df2 / (df2 + df1 * f), a = df2/2 and b = df1/2, switching to the
    symmetric form 1 - I_{1-x}(b, a) where that fraction converges faster.
    """
    if int(df1) != df1 or int(df2) != df2 or df1 < 1 or df2 < 1:
        raise ValueError("degrees of freedom must be integers >= 1")
    if not f >= 0.0:  # NaN included
        raise ValueError("f must be non-negative")
    x = df2 / (df2 + df1 * float(f))
    a, b = df2 / 2.0, df1 / 2.0
    if x == 0.0 or x == 1.0:
        return float(x)
    front = exp(lgamma(a + b) - lgamma(a) - lgamma(b) + a * log(x) + b * log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b
