from math import log, sqrt

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hrvwp import threshold_band
from hrvwp.threshold import MAD_NORMAL_CONSISTENCY, BandReport, mad


def threshold(values):
    """(lambda, h) of a one-leaf band holding values."""
    band = threshold_band(np.asarray(values, dtype=float), leaf_ids=(0,))
    return band.lam, band.h


finite_lists = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=60
)
# magnitudes bounded away from the subnormal range so scaling cannot underflow
scalable_lists = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False).map(lambda x: round(x, 6)),
    min_size=1,
    max_size=60,
)


class TestMad:
    def test_odd_length_example(self):
        assert mad([1, 2, 3, 4, 5]) == 1.0

    def test_constant_vector(self):
        assert mad([7, 7, 7]) == 0.0

    def test_even_length_median_is_midpoint(self):
        values = [1.0, 2.0, 3.0, 10.0]
        assert mad(values) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mad([])

    @given(st.one_of(finite_lists, scalable_lists))
    def test_bitwise_equal_to_numpy_median(self, values):
        # the partition kernel computes exactly what np.median does
        v = np.array(values)
        assert mad(v) == float(np.median(np.abs(v - np.median(v))))

    def test_nan_propagates(self):
        # the partition puts a NaN last only because its kth includes the last place
        nan = float("nan")
        for values in ([1.0, nan, 3.0], [nan, 2.0], [nan], [4.0, nan, 2.0, 1.0, 0.0],
                       [5.0, nan, 3.0, 2.0, 1.0, 0.0]):
            assert np.isnan(mad(values))

    @given(
        finite_lists,
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    )
    @example(values=[-1000000.0, -999999.9999999999], a=34.0, b=0.0)
    def test_affine_equivariance(self, values, a, b):
        x = np.asarray(values)
        y = a * x + b
        # rounding a*x+b moves each element by up to an ulp of max|y|, and the
        # two medians carry a few such steps into mad(y): a fixed 1e-9 lies
        # below that once |y| passes about 1e7
        tol = 1e-9 + 4 * np.spacing(np.max(np.abs(y)))
        assert mad(y) == pytest.approx(abs(a) * mad(x), rel=1e-9, abs=tol)


def split(values, lam, leaves=(0,), band=""):
    return BandReport(band=band, lam=lam, h=0.0, leaves=leaves, values=values)


class TestSplit:
    def test_zero_threshold_keeps_exact_zeros(self):
        band = split(np.array([0.0, 1.0, -2.0]), 0.0)
        assert band.background.tolist() == [0.0]
        assert band.values[band.significant].tolist() == [1.0, -2.0]

    def test_plain_partition(self):
        band = split(np.array([0.5, -0.5, 3.0]), 1.0)
        assert band.background.tolist() == [0.5, -0.5]
        assert band.values[band.significant].tolist() == [3.0]

    def test_tie_goes_to_background(self):
        coeffs = np.array([0.25, -1.5, 1.5, 0.75])
        band = split(coeffs, float(np.max(np.abs(coeffs))))
        assert band.n_significant == 0
        assert band.n_background == 4

    def test_negative_threshold_rejected(self):
        # NaN would put every coefficient in the background (|c| > nan is false)
        for lam in (-0.1, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="non-negative"):
                split(np.array([1.0]), lam)

    def test_direct_construction_enforces_membership(self):
        # membership is derived from values and lam; it cannot be passed in
        with pytest.raises(TypeError, match="significant"):
            BandReport(band="LF", lam=1.0, h=1.0, leaves=(0,), values=np.array([2.0]),
                       significant=np.array([], dtype=int))
        with pytest.raises(TypeError, match="n_background"):
            BandReport(band="LF", lam=1.0, h=1.0, leaves=(0,), values=np.array([0.5]),
                       n_background=0)
        band = BandReport(band="LF", lam=1.0, h=1.0, leaves=(0,), values=np.array([2.0, 0.5]))
        assert band.significant.tolist() == [0]
        assert band.background.tolist() == [0.5]

    def test_values_are_a_private_read_only_copy(self):
        coeffs = np.array([0.1, 5.0])
        band = split(coeffs, 1.0)
        coeffs[0] = 9.0
        assert band.values.tolist() == [0.1, 5.0]
        for array in (band.values, band.significant):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_source_index_partition(self):
        coeffs = np.array([0.1, 5.0, -0.2, -7.0])
        band = split(coeffs, 1.0, leaves=(1, 2), band="LF")
        assert band.leaves == (1, 2)
        assert band.values.tolist() == [0.1, 5.0, -0.2, -7.0]
        assert [
            "significant" if i in band.significant else "background" for i in range(band.n)
        ] == ["background", "significant", "background", "significant"]

    def test_band_must_divide_over_leaf_ids(self):
        with pytest.raises(ValueError, match="divide evenly"):
            split(np.array([0.1, 5.0, -0.2]), 1.0, leaves=(1, 2))
        with pytest.raises(ValueError, match="divide evenly"):
            split(np.array([0.1]), 1.0, leaves=())
        with pytest.raises(ValueError, match="divide evenly"):  # the values are one vector
            split(np.ones((2, 2)), 1.0, leaves=(1, 2))

    @given(finite_lists, st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_energy_accounting(self, values, lam):
        v = np.asarray(values)
        band = split(v, lam)
        total = float(np.dot(v, v))
        assert band.energy_background + band.energy_significant == pytest.approx(
            total, rel=1e-12, abs=1e-12
        )
        assert band.n_background + band.n_significant == len(v)
        assert np.all(np.abs(band.background) <= lam)
        assert np.all(np.abs(band.values[band.significant]) > lam)

    @given(scalable_lists, st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
    def test_scale_equivariance(self, values, scale):
        v = np.asarray(values)
        lam, _ = threshold(v)
        base = split(v, lam)
        lam_scaled, _ = threshold(scale * v)
        scaled = split(scale * v, lam_scaled)
        assert lam_scaled == pytest.approx(scale * lam, rel=1e-9, abs=1e-12)
        assert np.array_equal(base.significant, scaled.significant)

    @given(finite_lists)
    def test_idempotent_on_background(self, values):
        lam, _ = threshold(np.asarray(values))
        first = split(np.asarray(values), lam)
        again = split(first.background, lam)
        assert again.n_significant == 0
        assert np.array_equal(again.background, first.background)


class TestThresholdBand:
    def test_composes_threshold_and_split(self):
        rng = np.random.default_rng(8)
        coeffs = rng.standard_normal(128)
        split = threshold_band(coeffs, leaf_ids=(0,), band="HF")
        h = mad(coeffs) / MAD_NORMAL_CONSISTENCY
        assert (split.band, split.lam, split.h, split.n) == ("HF", h * sqrt(2.0 * log(128)), h, 128)
        assert split.leaves == (0,) and np.array_equal(split.values, coeffs)

    def test_standard_normal_scale_is_one(self):
        x = np.random.default_rng(123).standard_normal(100_000)
        assert threshold(x)[1] == pytest.approx(1.0, rel=0.03)

    def test_single_coefficient_gives_zero(self):
        assert threshold([5.0]) == (0.0, 0.0)

    def test_constant_vector_gives_zero(self):
        assert threshold(np.full(64, 2.5)) == (0.0, 0.0)

    def test_monotone_in_length(self):
        lams = []
        for n in (2, 8, 64, 1024):
            values = np.array([0.6745, -0.6745] * (n // 2))
            lams.append(threshold(values)[0])
        assert all(a < b for a, b in zip(lams, lams[1:]))

    def test_empty_band_rejected(self):
        with pytest.raises(ValueError):
            threshold_band(np.array([]), leaf_ids=(0,))
