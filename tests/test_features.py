from dataclasses import fields
from math import log, sqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hrvwp import daubechies_filters, extract_features, wpt_leaves
from hrvwp.features import FeatureError
from hrvwp.pipeline import DEPTH, HF_LEAVES, LF_LEAVES, TAPS, _bands
from test_threshold import mad_oracle, split
from test_wavelet import circular_correlate_downsample, high_pass, mirrored_leaf_intervals


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
        lf = split(np.array([3.0, -4.0]), 0.0, band="LF")  # all significant
        hf = split_all_background([1.0], band="HF")
        with pytest.raises(FeatureError, match="background"):
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

    def test_determinism(self):
        rng = np.random.default_rng(6)
        coeffs = rng.standard_normal(48)
        a = extract_features(split_all_background(coeffs), split_all_background(coeffs))
        b = extract_features(split_all_background(coeffs), split_all_background(coeffs))
        assert a == b


def naive_chain_energies(samples, rate_hz=4.0, depth=6, order=4):
    """Background-component band energies from the loop references of the other test modules."""
    lo = daubechies_filters(order)
    nodes = [np.asarray(samples, dtype=float)]
    for _ in range(depth):
        nodes = [circular_correlate_downsample(node, taps)
                 for node in nodes for taps in (lo, high_pass(lo))]
    intervals = mirrored_leaf_intervals(depth, rate_hz)
    energies = {}
    for band, (f_lo, f_hi) in (("LF", (0.03125, 0.15625)), ("HF", (0.15625, 0.40625))):
        coeffs = [c for j, (a, b) in intervals.items()
                  if a >= f_lo - 1e-12 and b <= f_hi + 1e-12 for c in nodes[j]]
        lam = mad_oracle(coeffs) / 0.6745 * sqrt(2.0 * log(len(coeffs)))
        energies[band] = sum(c * c for c in coeffs if abs(c) <= lam)
    return energies


class TestEndToEndOracle:
    def test_two_tone_band_energies_match_naive_chain(self):
        t = np.arange(1024) / 4.0
        samples = np.sin(2 * np.pi * 0.1 * t) + np.sin(2 * np.pi * 0.3 * t)
        feats = extract_features(*_bands(wpt_leaves(samples, DEPTH, TAPS, LF_LEAVES + HF_LEAVES)))

        expected = naive_chain_energies(samples)
        assert feats.e_lf == pytest.approx(expected["LF"], rel=1e-9)
        assert feats.e_hf == pytest.approx(expected["HF"], rel=1e-9)
