from dataclasses import fields
from math import sqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hrvwp import extract_features
from hrvwp.features import FeatureError
from test_threshold import split


def split_all_background(values, band=""):
    v = np.asarray(values, dtype=float)
    return split(v, float(np.max(np.abs(v))), band=band)


class TestBandEnergy:
    def test_three_four_five(self):
        assert split([3.0, 4.0], 5.0).energy_background == 25.0
        assert split([3.0, 4.0], 0.0).energy_significant == 25.0

    def test_empty_is_zero(self):
        empty = split([], 0.0)
        assert empty.energy_background == 0.0
        assert empty.energy_significant == 0.0

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), max_size=40))
    def test_sign_invariance(self, values):
        x = np.asarray(values)
        assert split(x, 1e3).energy_background == split(-x, 1e3).energy_background
        assert split(x, 0.0).energy_significant == split(-x, 0.0).energy_significant


class TestExtractFeatures:
    def test_two_element_example(self):
        feats = extract_features(
            split_all_background([1.0, -1.0], band="LF"),
            split_all_background([2.0], band="HF"),
        )
        assert feats.mean_lf == 0.0
        assert feats.std_lf == 1.0
        assert feats.e_lf == 2.0
        assert feats.mean_hf == 2.0
        assert feats.std_hf == 0.0
        assert feats.e_hf == 4.0
        assert feats.r_e == 0.5
        # the features alone: a recording's identity is kept on its RecordingReport
        assert [f.name for f in fields(feats)] == [
            "std_lf", "mean_lf", "std_hf", "mean_hf", "e_lf", "e_hf", "r_e"]

    def test_significant_coefficients_left_out(self):
        feats = extract_features(split([1.0, -1.0, 10.0, -1.0], 2.0, band="LF"),
                                 split([2.0, -30.0], 3.0, band="HF"))
        assert (feats.e_lf, feats.mean_lf) == (3.0, -1.0 / 3.0)
        assert feats.std_lf == pytest.approx(sqrt(8.0) / 3.0, rel=1e-15)
        assert (feats.e_hf, feats.mean_hf, feats.std_hf) == (4.0, 2.0, 0.0)

    def test_zero_hf_energy_rejected(self):
        lf = split_all_background([1.0, 2.0], band="LF")
        hf = split(np.array([0.0, 0.0]), 1.0, band="HF")
        with pytest.raises(FeatureError, match="energy"):
            extract_features(lf, hf)

    def test_empty_background_rejected(self):
        empty, full = split(np.array([3.0, -4.0]), 0.0), split_all_background([1.0])
        for lf, hf, band in ((empty, full, "LF"), (full, empty, "HF")):  # empty: all significant
            with pytest.raises(FeatureError, match=f"^{band} background component is empty$"):
                extract_features(lf, hf)

    def test_ratio_identity(self):
        rng = np.random.default_rng(4)
        lf = split_all_background(rng.standard_normal(32), band="LF")
        hf = split_all_background(rng.standard_normal(64), band="HF")
        feats = extract_features(lf, hf)
        assert feats.r_e * feats.e_hf == pytest.approx(feats.e_lf, rel=1e-9)

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=50))
    def test_mean_std_match_two_pass_reference(self, values):
        feats = extract_features(
            split_all_background(values, band="LF"),
            split_all_background([1.0], band="HF"),
        )
        mean = sum(values) / len(values)
        var = sum((x - mean) ** 2 for x in values) / len(values)
        assert feats.mean_lf == pytest.approx(mean, rel=1e-12, abs=1e-9)
        assert feats.std_lf == pytest.approx(sqrt(var), rel=1e-12, abs=1e-9)
