import json
from math import exp, lgamma, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import f as f_dist

from hrvwp.pipeline import _encode
from hrvwp.stats import (
    ANOVA_SOURCES,
    AnovaTable,
    DegenerateDataError,
    anova_two_way,
    f_tail_probability,
    sum_of_squares,
)


def fitted_means_ss(values):
    """Brute-force oracle: sums of squared deviations from fitted means."""
    r = len(values)
    c = len(values[0])
    k = len(values[0][0])
    all_values = [values[i][j][m] for i in range(r) for j in range(c) for m in range(k)]
    grand = sum(all_values) / len(all_values)
    row_mean = [sum(values[i][j][m] for j in range(c) for m in range(k)) / (c * k)
                for i in range(r)]
    col_mean = [sum(values[i][j][m] for i in range(r) for m in range(k)) / (r * k)
                for j in range(c)]
    cell_mean = [[sum(cell) / k for cell in row] for row in values]

    ss_rows = sum((row_mean[i] - grand) ** 2 for i in range(r)
                  for j in range(c) for m in range(k))
    ss_cols = sum((col_mean[j] - grand) ** 2 for i in range(r)
                  for j in range(c) for m in range(k))
    ss_inter = sum((cell_mean[i][j] - row_mean[i] - col_mean[j] + grand) ** 2
                   for i in range(r) for j in range(c) for m in range(k))
    ss_err = sum((values[i][j][m] - cell_mean[i][j]) ** 2
                 for i in range(r) for j in range(c) for m in range(k))
    ss_total = sum((x - grand) ** 2 for x in all_values)
    return {"rows": ss_rows, "columns": ss_cols, "interaction": ss_inter,
            "error": ss_err, "total": ss_total}


def f_density(x, df1, df2):
    a, b = df1 / 2.0, df2 / 2.0
    log_norm = lgamma(a + b) - lgamma(a) - lgamma(b) + a * log(df1 / df2)
    return exp(log_norm + (a - 1.0) * log(x) - (a + b) * log(1.0 + df1 * x / df2))


class TestGridChecks:
    """sum_of_squares, and anova_two_way through it, take only a balanced finite 3-d grid."""

    def test_shape_and_validation(self):
        decomp = sum_of_squares(np.zeros((3, 4, 3)) + np.arange(3)[:, None, None])
        assert [decomp[s][1] for s in ANOVA_SOURCES] == [3, 2, 6, 24, 35]
        for entry in (sum_of_squares, anova_two_way):
            with pytest.raises(ValueError, match="replicates"):
                entry(np.zeros((3, 4, 1)))
            with pytest.raises(ValueError, match="3-d"):
                entry(np.zeros((3, 4)))
            with pytest.raises(ValueError, match="2 rows"):
                entry(np.zeros((1, 4, 3)))
            with pytest.raises(ValueError, match="2 columns"):
                entry(np.zeros((3, 1, 3)))

    @pytest.mark.parametrize("entry", [sum_of_squares, anova_two_way])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cell(self, entry, bad):
        grid = np.random.default_rng(3).standard_normal((3, 4, 3))
        grid[1, 2, 0] = bad
        with pytest.raises(ValueError, match="finite values"):
            entry(grid)

    def test_from_nested_lists(self):
        nested = [[[1, 2], [3, 4]], [[5, 6], [7, 8]]]
        grid = np.array(nested, dtype=np.float64)
        assert sum_of_squares(nested) == sum_of_squares(grid)
        assert anova_two_way(nested) == anova_two_way(grid)
        for entry in (sum_of_squares, anova_two_way):
            with pytest.raises(ValueError):  # unequal cell sizes form no grid
                entry([[[1, 2], [3]], [[5, 6], [7, 8]]])


class TestAnova:
    def test_df_for_3x4x3(self):
        rng = np.random.default_rng(1)
        table = anova_two_way(rng.standard_normal((3, 4, 3)))
        assert [row.df for row in table.rows] == [3, 2, 6, 24, 35]
        assert [row.source for row in table.rows] == [
            "columns", "rows", "interaction", "error", "total",
        ]

    def test_all_equal_values_degenerate(self):
        with pytest.raises(DegenerateDataError):
            anova_two_way(np.full((3, 4, 3), 5.0))

    def test_hand_computed_2x2x2(self):
        cells = [[[0.0, 0.0], [1.0, 1.0]], [[1.0, 1.0], [2.0, 2.0]]]
        decomp = sum_of_squares(cells)
        assert decomp["rows"][0] == pytest.approx(2.0, abs=1e-12)
        assert decomp["columns"][0] == pytest.approx(2.0, abs=1e-12)
        assert decomp["interaction"][0] == pytest.approx(0.0, abs=1e-12)
        assert decomp["error"][0] == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(DegenerateDataError):
            anova_two_way(cells)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_fitted_means_oracle(self, seed):
        rng = np.random.default_rng(seed)
        shapes = [(2, 2, 2), (3, 3, 3), (2, 3, 2)]
        grid = rng.standard_normal(shapes[seed % len(shapes)])
        decomp = sum_of_squares(grid)
        oracle = fitted_means_ss(grid.tolist())
        for source, expected in oracle.items():
            assert decomp[source][0] == pytest.approx(expected, rel=1e-9, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        shift=st.floats(min_value=-50.0, max_value=50.0),
        scale=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_shift_and_scale_behavior(self, seed, shift, scale):
        grid = np.random.default_rng(seed).standard_normal((3, 4, 3))
        base = anova_two_way(grid)
        shifted = anova_two_way(grid + shift)
        scaled = anova_two_way(grid * scale)
        for b, s, sc in zip(base.rows, shifted.rows, scaled.rows):
            assert s.ss == pytest.approx(b.ss, rel=1e-7, abs=1e-9)
            assert sc.ss == pytest.approx(scale ** 2 * b.ss, rel=1e-9)
            if b.f is not None:
                assert s.f == pytest.approx(b.f, rel=1e-6)
                assert sc.f == pytest.approx(b.f, rel=1e-9)
                assert sc.p == pytest.approx(b.p, rel=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_additivity(self, seed):
        grid = np.random.default_rng(100 + seed).standard_normal((3, 4, 3))
        decomp = sum_of_squares(grid)
        parts_ss = sum(decomp[s][0] for s in ("columns", "rows", "interaction", "error"))
        parts_df = sum(decomp[s][1] for s in ("columns", "rows", "interaction", "error"))
        assert parts_ss == pytest.approx(decomp["total"][0], rel=1e-9)
        assert parts_df == decomp["total"][1]

    def test_table_lookup_and_serialization(self):
        grid = np.random.default_rng(2).standard_normal((3, 4, 3))
        table = anova_two_way(grid)
        assert table["error"].ms == pytest.approx(table["error"].ss / 24)
        assert table["total"].ms is None and table["total"].f is None
        encoded = _encode(table)
        assert list(encoded) == ["rows"]
        assert [row["source"] for row in encoded["rows"]] == list(ANOVA_SOURCES)
        assert encoded["rows"][4] == {"source": "total", "ss": table["total"].ss,
                                      "df": table["total"].df, "ms": None, "f": None, "p": None}
        assert json.loads(json.dumps(encoded)) == encoded
        for row in table.rows[:3]:
            assert 0.0 < row.p <= 1.0

    def test_table_rows_must_be_in_source_order(self):
        rows = anova_two_way(np.random.default_rng(3).standard_normal((3, 4, 3))).rows
        with pytest.raises(ValueError, match="table must hold sources"):
            AnovaTable(rows=rows[1::-1] + rows[2:])
        with pytest.raises(ValueError, match="table must hold sources"):
            AnovaTable(rows=rows[:4])


class TestFTail:
    def test_zero_gives_one(self):
        assert f_tail_probability(0.0, 3, 24) == 1.0

    def test_monotone_decreasing(self):
        values = [f_tail_probability(f, 4, 20) for f in (0.0, 0.5, 1.0, 2.0, 5.0, 50.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("df1", [1, 2, 3, 8, 16])
    @pytest.mark.parametrize("df2", [1, 4, 24, 54])
    @pytest.mark.parametrize("f", [0.05, 0.5, 1.3, 4.9])
    def test_against_quadrature_oracle(self, f, df1, df2):
        expected, err = quad(f_density, f, np.inf, args=(df1, df2), limit=200)
        assert err < 1e-7
        assert f_tail_probability(f, df1, df2) == pytest.approx(expected, abs=1e-6)

    # the printed (F, df1, df2) points of the acceptance suite's F-tail reference
    @pytest.mark.parametrize("f,df1,df2", [
        (4.94, 3, 24), (1.21, 2, 24), (0.31, 6, 24), (3.9, 2, 54), (3.27, 16, 54),
    ])
    def test_reference_points_match_scipy(self, f, df1, df2):
        assert f_tail_probability(f, df1, df2) == pytest.approx(
            f_dist.sf(f, df1, df2), abs=1e-12
        )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            f_tail_probability(1.0, 0, 10)
        with pytest.raises(ValueError):
            f_tail_probability(1.0, 3, -2)
        with pytest.raises(ValueError):
            f_tail_probability(-0.5, 3, 10)
        with pytest.raises(ValueError):
            f_tail_probability(np.nan, 3, 10)

    # Pr(F(d1, d2) > f) = Pr(F(d2, d1) < 1/f); at each point one side takes the
    # direct continued fraction and the other its symmetric form
    @pytest.mark.parametrize("f,df1,df2", [(0.4, 10, 4), (2.5, 1, 24), (0.9, 54, 16)])
    def test_reciprocal_symmetry(self, f, df1, df2):
        assert f_tail_probability(f, df1, df2) == pytest.approx(
            1.0 - f_tail_probability(1.0 / f, df2, df1), abs=1e-12
        )

    def test_infinite_f_has_zero_tail(self):
        assert f_tail_probability(np.inf, 3, 24) == 0.0
