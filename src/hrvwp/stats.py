"""Balanced two-way fixed-effects ANOVA with interaction, and the F tail.

The decomposition follows the classic five-step recipe: sources, sums of
squares from cell/margin/grand means, degrees of freedom, mean squares
(SS/df), and F ratios against the error mean square. Upper-tail F
probabilities come from the regularized incomplete beta function, evaluated
by a continued fraction so the accuracy (~1e-10) comfortably dominates any
reporting tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, lgamma, log, log1p

import numpy as np

__all__ = [
    "FactorialData",
    "AnovaRow",
    "AnovaTable",
    "DegenerateDataError",
    "anova_two_way",
    "sum_of_squares",
    "f_tail_probability",
    "regularized_incomplete_beta",
]

ANOVA_SOURCES = ("columns", "rows", "interaction", "error", "total")


class DegenerateDataError(ValueError):
    """Zero error mean square: F ratios are undefined for this grid."""


@dataclass(frozen=True, eq=False)
class FactorialData:
    """Balanced R x C x K grid of observations (rows, columns, replicates)."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", arr)
        if arr.ndim != 3:
            raise ValueError("values must be a 3-d (rows, columns, replicates) array")
        r, c, k = arr.shape
        if r < 2 or c < 2:
            raise ValueError("need at least 2 rows and 2 columns")
        if k < 2:
            raise ValueError("interaction needs at least 2 replicates per cell")
        if not np.all(np.isfinite(arr)):
            raise ValueError("all cells must be filled with finite values")

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(self.values.shape)


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


def sum_of_squares(data: FactorialData) -> dict[str, tuple[float, int]]:
    """SS and df per source from cell, margin and grand means."""
    x = data.values
    r, c, k = x.shape
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


def anova_two_way(data: FactorialData) -> AnovaTable:
    """Balanced two-way fixed-effects ANOVA with interaction.

    Raises DegenerateDataError when the error mean square is zero (identical
    replicates everywhere), since no F ratio is defined then.
    """
    decomp = sum_of_squares(data)
    ms_error = decomp["error"][0] / decomp["error"][1]
    if ms_error == 0.0:
        raise DegenerateDataError("error mean square is zero; F is undefined")

    rows = []
    for source in ANOVA_SOURCES:
        ss, df = decomp[source]
        if source == "total":
            rows.append(AnovaRow(source, ss, df))
        elif source == "error":
            rows.append(AnovaRow(source, ss, df, ms=ss / df))
        else:
            ms = ss / df
            f = ms / ms_error
            rows.append(
                AnovaRow(source, ss, df, ms=ms, f=f,
                         p=f_tail_probability(f, df, decomp["error"][1]))
            )
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


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), switching to the symmetric form where the fraction converges fast."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("a and b must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0 or x == 1.0:
        return float(x)
    front = exp(lgamma(a + b) - lgamma(a) - lgamma(b) + a * log(x) + b * log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def f_tail_probability(f: float, df1: int, df2: int) -> float:
    """Upper-tail probability Pr(F_{df1, df2} > f).

    Computed as I_x(df2/2, df1/2) with x = df2 / (df2 + df1 * f); decreasing
    in f, equal to 1 at f = 0.
    """
    if int(df1) != df1 or int(df2) != df2 or df1 < 1 or df2 < 1:
        raise ValueError("degrees of freedom must be integers >= 1")
    if f < 0.0:
        raise ValueError("f must be non-negative")
    x = df2 / (df2 + df1 * float(f))
    return regularized_incomplete_beta(df2 / 2.0, df1 / 2.0, x)
