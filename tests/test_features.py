from dataclasses import fields
from math import log, sqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hrvwp import daubechies_filters, extract_features, threshold_band, wpt_decompose
from hrvwp.features import FeatureError
from hrvwp.pipeline import HF_BAND_HZ, LF_BAND_HZ
from hrvwp.threshold import BandReport
from hrvwp.wavelet import band_nodes


def split(values, lam, band=""):
    return BandReport(band=band, lam=lam, h=0.0, leaves=(0,), values=values)


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


# --- independent loop-based implementation of the whole analysis chain ---


def naive_analysis(x, taps):
    n = len(x)
    out = []
    for i in range(n // 2):
        acc = 0.0
        for k, c in enumerate(taps):
            acc += c * x[(2 * i + k) % n]
        out.append(acc)
    return out


def naive_packet_leaves(x, depth, lo, hi):
    nodes = [list(x)]
    for _ in range(depth):
        nodes = [half for node in nodes
                 for half in (naive_analysis(node, lo), naive_analysis(node, hi))]
    return nodes


def naive_leaf_order(depth, rate_hz):
    """Natural leaf positions sorted by true frequency, via mirroring recursion."""
    nodes = [(0, 0.0, rate_hz / 2.0, False)]
    for _ in range(depth):
        nxt = []
        for j, lo, hi, mirrored in nodes:
            mid = 0.5 * (lo + hi)
            if mirrored:
                nxt.append((2 * j, mid, hi, True))
                nxt.append((2 * j + 1, lo, mid, False))
            else:
                nxt.append((2 * j, lo, mid, False))
                nxt.append((2 * j + 1, mid, hi, True))
        nodes = nxt
    return [j for j, _, _, _ in sorted(nodes, key=lambda r: r[1])]


def naive_median(values):
    v = sorted(values)
    mid = len(v) // 2
    return v[mid] if len(v) % 2 else 0.5 * (v[mid - 1] + v[mid])


def naive_chain_energies(samples, rate_hz=4.0, depth=6, order=4):
    """Background-component band energies computed without the library."""
    lo = list(daubechies_filters(order))
    hi = [(-1) ** k * lo[len(lo) - 1 - k] for k in range(len(lo))]  # quadrature mirror
    leaves = naive_packet_leaves(list(samples), depth, lo, hi)
    by_freq = naive_leaf_order(depth, rate_hz)
    width = rate_hz / 2 ** (depth + 1)
    energies = {}
    for band, (lo, hi) in (("LF", (0.03125, 0.15625)), ("HF", (0.15625, 0.40625))):
        coeffs = []
        for slot, natural in enumerate(by_freq):
            if slot * width >= lo - 1e-12 and (slot + 1) * width <= hi + 1e-12:
                coeffs.extend(leaves[natural])
        center = naive_median(coeffs)
        h = naive_median([abs(c - center) for c in coeffs]) / 0.6745
        lam = h * sqrt(2.0 * log(len(coeffs)))
        background = [c for c in coeffs if abs(c) <= lam]
        energies[band] = sum(c * c for c in background)
    return energies


class TestEndToEndOracle:
    def test_two_tone_band_energies_match_naive_chain(self):
        t = np.arange(1024) / 4.0
        samples = np.sin(2 * np.pi * 0.1 * t) + np.sin(2 * np.pi * 0.3 * t)
        levels = wpt_decompose(samples, 6, daubechies_filters(4))
        splits = {}
        for band, edges in (("LF", LF_BAND_HZ), ("HF", HF_BAND_HZ)):
            leaves = band_nodes(edges, 6, 4.0)
            splits[band] = threshold_band(levels[6][leaves].ravel(), leaf_ids=leaves, band=band)
        feats = extract_features(splits["LF"], splits["HF"])

        expected = naive_chain_energies(samples)
        assert feats.e_lf == pytest.approx(expected["LF"], rel=1e-9)
        assert feats.e_hf == pytest.approx(expected["HF"], rel=1e-9)

    def test_amplitude_scaling_law(self):
        rng = np.random.default_rng(12)
        samples = rng.standard_normal(512) * 40.0 + 800.0

        def run(sig):
            levels = wpt_decompose(sig, 6, daubechies_filters(4))
            splits = {}
            for band, edges in (("LF", LF_BAND_HZ), ("HF", HF_BAND_HZ)):
                leaves = band_nodes(edges, 6, 4.0)
                splits[band] = threshold_band(levels[6][leaves].ravel(), leaf_ids=leaves,
                                              band=band)
            return extract_features(splits["LF"], splits["HF"]), splits

        base, base_splits = run(samples)
        big, big_splits = run(3.0 * samples)
        assert big.e_lf == pytest.approx(9.0 * base.e_lf, rel=1e-9)
        assert big.e_hf == pytest.approx(9.0 * base.e_hf, rel=1e-9)
        assert big.r_e == pytest.approx(base.r_e, rel=1e-9)
        for band in ("LF", "HF"):
            assert base_splits[band].n_significant == big_splits[band].n_significant
