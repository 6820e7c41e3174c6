import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrvwp import band_nodes, daubechies_filters, wpt_decompose
from hrvwp.ingest import resample_cubic_spline, rr_to_tachogram, truncate_to_block
from hrvwp.wavelet import (
    HF_BAND_HZ,
    LF_BAND_HZ,
    MAX_DEPTH,
    analysis_step,
    node_frequency_range,
    wpt_leaves,
    wpt_reconstruct_nodes,
)
from hrvwp.wavelet import _gray

SQRT2 = np.sqrt(2.0)


def circular_correlate_downsample(x, taps):
    """Loop-based oracle for one analysis channel."""
    n = len(x)
    out = np.empty(n // 2)
    for i in range(n // 2):
        acc = 0.0
        for k, c in enumerate(taps):
            acc += c * x[(2 * i + k) % n]
        out[i] = acc
    return out


def step_matrix(bank, n):
    """Explicit n x n matrix of one periodized analysis step: approx rows, then detail rows.

    Taps that wrap past the end of a node shorter than the filter add up on
    the same column.
    """
    a = np.zeros((n, n))
    for i in range(n // 2):
        for k in range(len(bank.dec_lo)):
            a[i, (2 * i + k) % n] += bank.dec_lo[k]
            a[n // 2 + i, (2 * i + k) % n] += bank.dec_hi[k]
    return a


def mirrored_leaf_intervals(depth, rate_hz):
    """Oracle: true frequency interval per natural leaf position.

    Tracks the spectral mirroring of each decimated high-pass branch instead
    of assuming any index permutation.
    """
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
    return {j: (lo, hi) for j, lo, hi, _ in nodes}


def tone(freq_hz, n=1024, rate_hz=4.0):
    return np.sin(2 * np.pi * freq_hz * np.arange(n) / rate_hz)


class TestFilters:
    @pytest.mark.parametrize("order", range(1, 11))
    def test_invariants(self, order):
        bank = daubechies_filters(order)
        lo, hi = bank.dec_lo, bank.dec_hi
        assert len(lo) == len(hi) == 2 * order
        assert abs(lo.sum() - SQRT2) < 1e-12
        assert abs(hi.sum()) < 1e-12
        assert abs(np.dot(lo, lo) - 1.0) < 1e-12
        # quadrature mirror relation
        assert np.allclose(hi, [(-1) ** k * lo[2 * order - 1 - k] for k in range(2 * order)])
        # orthogonality to even shifts
        for shift in range(1, order):
            assert abs(np.dot(lo[2 * shift:], lo[: -2 * shift])) < 1e-12
            assert abs(np.dot(hi[2 * shift:], hi[: -2 * shift])) < 1e-12

    @pytest.mark.parametrize("order", range(1, 11))
    def test_vanishing_moments(self, order):
        hi = daubechies_filters(order).dec_hi
        k = np.arange(2 * order, dtype=float)
        for j in range(order):
            assert abs(np.dot(hi, k ** j)) < 1e-7 * (2 * order) ** j

    def test_haar(self):
        bank = daubechies_filters(1)
        assert np.allclose(bank.dec_lo, [1 / SQRT2, 1 / SQRT2])
        assert np.allclose(bank.dec_hi, [1 / SQRT2, -1 / SQRT2])

    @pytest.mark.parametrize("order", [0, 11, -1])
    def test_order_out_of_range(self, order):
        with pytest.raises(ValueError):
            daubechies_filters(order)

    def test_non_integer_order(self):
        with pytest.raises(ValueError):
            daubechies_filters(2.5)

    def test_deterministic_construction(self):
        a = daubechies_filters(7)
        b = daubechies_filters(7)
        assert np.array_equal(a.dec_lo, b.dec_lo)

    def test_bank_designed_once_per_order(self):
        bank = daubechies_filters(4)
        assert daubechies_filters(4) is bank
        assert daubechies_filters(np.int64(4)) is bank
        for taps in (bank.dec_lo, bank.dec_hi):
            assert not taps.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                taps[0] = 0.0

    def test_bank_length_validated(self):
        from hrvwp.wavelet import QuadFilterBank

        taps = daubechies_filters(2).dec_lo
        with pytest.raises(ValueError, match="2 \\* order"):
            QuadFilterBank(dec_lo=taps, dec_hi=taps, order=3)


class TestAnalysisSynthesis:
    def test_haar_constant_has_no_detail(self):
        approx, detail = analysis_step(np.ones(4), daubechies_filters(1))
        assert np.allclose(approx, [SQRT2, SQRT2])
        assert np.allclose(detail, [0.0, 0.0])

    def test_haar_alternating_is_pure_detail(self):
        approx, detail = analysis_step(np.array([1.0, -1.0, 1.0, -1.0]),
                                       daubechies_filters(1))
        assert np.allclose(approx, 0.0)
        assert np.dot(detail, detail) == pytest.approx(4.0)

    def test_matches_direct_correlation_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(64)
        bank = daubechies_filters(4)
        approx, detail = analysis_step(x, bank)
        assert np.allclose(approx, circular_correlate_downsample(x, bank.dec_lo),
                           rtol=1e-12, atol=1e-12)
        assert np.allclose(detail, circular_correlate_downsample(x, bank.dec_hi),
                           rtol=1e-12, atol=1e-12)
        energy = np.dot(approx, approx) + np.dot(detail, detail)
        assert energy == pytest.approx(np.dot(x, x), rel=1e-10)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError, match="even"):
            analysis_step(np.ones(5), daubechies_filters(2))

    def test_haar_synthesis_inverts_example(self):
        leaves = np.array([[SQRT2, SQRT2], [0.0, 0.0]])
        out = wpt_reconstruct_nodes(leaves, daubechies_filters(1), [0, 1])
        assert np.allclose(out, np.ones(4))

    def test_db4_roundtrip_length_128_noise(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(128)
        bank = daubechies_filters(4)
        out = wpt_reconstruct_nodes(wpt_decompose(x, 1, bank)[-1], bank, [0, 1])
        assert np.max(np.abs(out - x)) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(
        order=st.integers(min_value=1, max_value=10),
        half=st.integers(min_value=1, max_value=48),
        seed=st.integers(min_value=0, max_value=2 ** 31),
    )
    def test_roundtrip_property(self, order, half, seed):
        x = np.random.default_rng(seed).standard_normal(2 * half)
        bank = daubechies_filters(order)
        out = wpt_reconstruct_nodes(wpt_decompose(x, 1, bank)[-1], bank, [0, 1])
        assert np.max(np.abs(out - x)) < 1e-10 * max(1.0, np.max(np.abs(x)))


class TestPacketTree:
    def test_depth_zero_is_identity(self):
        sig = np.arange(8.0)
        bank = daubechies_filters(2)
        levels = wpt_decompose(sig, 0, bank)
        assert len(levels) == 1
        assert np.array_equal(levels[0][0], sig)
        assert np.array_equal(wpt_reconstruct_nodes(levels[-1], bank, [0]), sig)

    def test_levels_do_not_alias_the_signal(self):
        sig = np.arange(8.0)
        levels = wpt_decompose(sig, 0, daubechies_filters(1))
        levels[0][0, 0] = -1.0
        assert sig[0] == 0.0

    def test_constant_signal_maps_to_lowest_leaf(self):
        # with leaf 0 outside both default bands, a signal's mean never
        # reaches a band feature, so no mean removal is needed
        sig = np.full(256, 3.0)
        for order in range(1, 11):
            leaves = wpt_decompose(sig, 6, daubechies_filters(order))[6]
            for j in range(1, 64):
                assert np.max(np.abs(leaves[j])) <= 1e-9, (order, j)
            energy0 = float(np.dot(leaves[0], leaves[0]))
            assert energy0 == pytest.approx(np.dot(sig, sig), rel=1e-12), order
        fitting = 0
        for level in range(MAX_DEPTH + 1):
            for band in ("LF", "HF"):
                try:
                    leaves = band_nodes(band, level, 4.0)
                except ValueError:  # no whole leaf of this level fits the band
                    continue
                fitting += 1
                assert 0 not in leaves, (band, level)
        assert fitting == (MAX_DEPTH - 4) + (MAX_DEPTH - 3)  # LF from level 5, HF from 4

    def test_sinusoid_017hz_lands_in_leaf_5(self):
        sig = tone(0.17)
        levels = wpt_decompose(sig, 6, daubechies_filters(4))
        energies = [float(np.dot(n, n)) for n in levels[-1]]
        assert int(np.argmax(energies)) == 5

    def test_parseval_every_level(self):
        rng = np.random.default_rng(5)
        sig = rng.standard_normal(512)
        levels = wpt_decompose(sig, 6, daubechies_filters(4))
        reference = float(np.dot(sig, sig))
        for level in range(7):
            assert np.sum(levels[level] ** 2) == pytest.approx(reference, rel=1e-9)

    @pytest.mark.parametrize("order", range(1, 11))
    def test_matches_orthogonal_matrix_reference(self, order):
        # N = 64 at depth 6: the deepest levels are shorter than every filter
        # above order 1, so the circular extension wraps more than once
        bank = daubechies_filters(order)
        x = np.random.default_rng(order).standard_normal(64)
        levels = wpt_decompose(x, 6, bank)
        natural = [x]
        for level in range(1, 7):
            n = natural[0].size
            step = step_matrix(bank, n)
            assert np.allclose(step @ step.T, np.eye(n), atol=1e-12)
            natural = [half for node in natural
                       for half in np.split(step @ node, 2)]
            for j in range(2 ** level):
                assert np.allclose(levels[level][j], natural[_gray(j)],
                                   rtol=0, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        rr=st.lists(st.floats(min_value=300.0, max_value=2000.0), min_size=60, max_size=400),
        order=st.integers(min_value=1, max_value=10),
        depth=st.integers(min_value=1, max_value=6),
    )
    def test_resample_then_transform_conserves_energy(self, rr, order, depth):
        # 60 beats of at least 300 ms span 18 s, so 4 Hz gives >= 64 samples
        times, values = rr_to_tachogram(np.array(rr))
        signal = truncate_to_block(resample_cubic_spline(times, values, 4.0), depth)
        levels = wpt_decompose(signal, depth, daubechies_filters(order))
        leaf_energy = sum(float(np.dot(n, n)) for n in levels[-1])
        assert leaf_energy == pytest.approx(float(np.dot(signal, signal)), rel=1e-9)

    def test_level_lengths_partition_signal(self):
        sig = np.random.default_rng(0).standard_normal(128)
        levels = wpt_decompose(sig, 4, daubechies_filters(3))
        assert len(levels) == 5
        for level in range(5):
            nodes = levels[level]
            assert len(nodes) == 2 ** level
            assert sum(len(n) for n in nodes) == 128
            assert all(len(n) == 128 // 2 ** level for n in nodes)

    def test_length_not_multiple_rejected(self):
        # a 2-d array of 128 values is not read as one 128-sample signal
        for sig in (np.ones(96), np.ones((2, 64))):
            with pytest.raises(ValueError, match="multiple"):
                wpt_decompose(sig, 6, daubechies_filters(2))


class TestPrunedLeaves:
    @settings(max_examples=60, deadline=None)
    @given(
        order=st.integers(min_value=1, max_value=10),
        depth=st.integers(min_value=0, max_value=8),
        blocks=st.integers(min_value=1, max_value=3),
        picks=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                       min_size=1, max_size=20),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_equal_to_full_tree_leaves(self, order, depth, blocks, picks, seed):
        # slots in any order and with repeats; bitwise equal, not merely close
        slots = [int(p * 2 ** depth) for p in picks]
        bank = daubechies_filters(order)
        x = np.random.default_rng(seed).standard_normal(blocks * 2 ** depth)
        levels = wpt_decompose(x, depth, bank)
        leaves = wpt_leaves(x, depth, bank, slots)
        assert leaves.shape == (len(slots), blocks)
        assert np.array_equal(leaves, levels[depth][slots])

    def test_band_leaves_of_the_reference_configuration(self):
        x = np.random.default_rng(3).standard_normal(1216 // 64 * 64)
        bank = daubechies_filters(4)
        slots = band_nodes("LF", 6, 4.0) + band_nodes("HF", 6, 4.0)
        levels = wpt_decompose(x, 6, bank)
        assert np.array_equal(wpt_leaves(x, 6, bank, slots), levels[6][slots])
        assert np.array_equal(wpt_leaves(x, 1, bank, [1])[0], levels[1][1])

    def test_deep_band_plans_match_the_full_tree(self):
        # LF+HF at depth 16 are 12 288 leaves: the plan maps each kept node to
        # its parent's row by lookup, so it takes milliseconds, not seconds
        bank = daubechies_filters(2)
        for depth in (6, 9, 16):
            slots = band_nodes("LF", depth, 4.0) + band_nodes("HF", depth, 4.0)
            x = np.random.default_rng(depth).standard_normal(2 ** depth)
            assert np.array_equal(wpt_leaves(x, depth, bank, slots),
                                  wpt_decompose(x, depth, bank)[depth][slots])

    def test_result_does_not_alias_the_signal(self):
        x = np.arange(8.0)
        leaves = wpt_leaves(x, 0, daubechies_filters(1), [0])
        leaves[0, 0] = -1.0
        assert x[0] == 0.0

    @pytest.mark.parametrize("slots", [[], [-1], [64], [3, 64], [0, -64]])
    def test_slots_out_of_range_rejected(self, slots):
        with pytest.raises(ValueError, match="slots"):
            wpt_leaves(np.ones(128), 6, daubechies_filters(4), slots)

    def test_signal_checked_like_the_full_tree(self):
        for sig in (np.ones(96), np.ones((2, 64))):
            with pytest.raises(ValueError, match="multiple"):
                wpt_leaves(sig, 6, daubechies_filters(2), [1])
        with pytest.raises(ValueError, match="depth"):
            wpt_leaves(np.ones(8), -1, daubechies_filters(2), [0])


class TestReconstruction:
    BANK = daubechies_filters(4)

    def _leaves(self, n=256, seed=1, depth=6):
        x = np.random.default_rng(seed).standard_normal(n)
        return x, wpt_decompose(x, depth, self.BANK)[-1]

    def test_all_leaves_return_original(self):
        x, leaves = self._leaves()
        out = wpt_reconstruct_nodes(leaves, self.BANK, range(64))
        assert np.max(np.abs(out - x)) < 1e-10 * np.max(np.abs(x))

    def test_empty_set_returns_zero(self):
        _, leaves = self._leaves()
        assert np.array_equal(wpt_reconstruct_nodes(leaves, self.BANK, []), np.zeros(256))

    def test_complementary_sets_sum_to_signal(self):
        x, leaves = self._leaves()
        rng = np.random.default_rng(9)
        subset = set(rng.choice(64, size=20, replace=False).tolist())
        rest = set(range(64)) - subset
        total = (wpt_reconstruct_nodes(leaves, self.BANK, subset)
                 + wpt_reconstruct_nodes(leaves, self.BANK, rest))
        assert np.max(np.abs(total - x)) < 1e-10 * np.max(np.abs(x))

    def test_invalid_leaf_rejected(self):
        _, leaves = self._leaves()
        with pytest.raises(ValueError, match="out of range"):
            wpt_reconstruct_nodes(leaves, self.BANK, [64])

    @pytest.mark.parametrize("shape", [(256,), (0, 4), (3, 4), (48, 4), (2, 2, 4)])
    def test_leaves_not_a_level_rejected(self, shape):
        with pytest.raises(ValueError, match="power-of-two"):
            wpt_reconstruct_nodes(np.ones(shape), self.BANK, [0])

    def test_pruned_leaves_reconstruct(self):
        x = np.random.default_rng(4).standard_normal(256)
        leaves = wpt_leaves(x, 6, self.BANK, range(64))
        out = wpt_reconstruct_nodes(leaves, self.BANK, range(64))
        assert np.max(np.abs(out - x)) < 1e-10 * np.max(np.abs(x))

    @pytest.mark.parametrize("order", [2, 7, 10])
    def test_full_tree_roundtrip_other_orders(self, order):
        x = np.random.default_rng(order).standard_normal(256)
        bank = daubechies_filters(order)
        out = wpt_reconstruct_nodes(wpt_decompose(x, 6, bank)[-1], bank, range(64))
        assert np.max(np.abs(out - x)) < 1e-10 * np.max(np.abs(x))


class TestFrequencyMapping:
    @pytest.mark.parametrize(
        "index,expected",
        [(0, (0.0, 0.03125)), (5, (0.15625, 0.1875)), (63, (1.96875, 2.0))],
    )
    def test_depth6_rows(self, index, expected):
        assert node_frequency_range(6, index, 4.0) == expected

    def test_leaves_tile_nyquist_interval(self):
        for level in (1, 3, 6):
            edges = [node_frequency_range(level, j, 4.0) for j in range(2 ** level)]
            assert edges[0][0] == 0.0
            assert edges[-1][1] == 2.0
            for (a, b), (c, _) in zip(edges, edges[1:]):
                assert b == c and a < b

    def test_bad_index(self):
        with pytest.raises(ValueError):
            node_frequency_range(6, 64, 4.0)
        with pytest.raises(ValueError):
            node_frequency_range(6, -1, 4.0)

    def test_gray_mapping_matches_mirroring_oracle(self):
        for depth in (1, 2, 3, 6):
            oracle = mirrored_leaf_intervals(depth, 4.0)
            for slot in range(2 ** depth):
                assert oracle[_gray(slot)] == node_frequency_range(depth, slot, 4.0)

    @pytest.mark.parametrize("slot", [0, 1, 5, 9, 31, 62])
    def test_tone_at_slot_center_maximizes_that_leaf(self, slot):
        freq = (slot + 0.5) * 4.0 / 2 ** 7
        levels = wpt_decompose(tone(freq), 6, daubechies_filters(4))
        energies = [float(np.dot(n, n)) for n in levels[-1]]
        assert int(np.argmax(energies)) == slot


class TestBandNodes:
    def test_reference_configuration(self):
        assert band_nodes("LF", 6, 4.0) == [1, 2, 3, 4]
        assert band_nodes("HF", 6, 4.0) == [5, 6, 7, 8, 9, 10, 11, 12]

    def test_twelve_sub_bands_total(self):
        assert len(band_nodes("LF", 6, 4.0)) + len(band_nodes("HF", 6, 4.0)) == 12

    def test_no_node_fits_at_shallow_level(self):
        with pytest.raises(ValueError, match="no level-1 node"):
            band_nodes("LF", 1, 4.0)

    def test_finer_level_selection(self):
        assert band_nodes("LF", 7, 4.0) == list(range(2, 10))

    def test_custom_band(self):
        assert band_nodes("LF", 6, 4.0, band_hz=(0.5, 1.0)) == list(range(16, 32))

    def test_band_ranges_lie_inside_band(self):
        for band, (lo, hi) in (("LF", LF_BAND_HZ), ("HF", HF_BAND_HZ)):
            for j in band_nodes(band, 6, 4.0):
                f_lo, f_hi = node_frequency_range(6, j, 4.0)
                assert f_lo >= lo - 1e-12 and f_hi <= hi + 1e-12

    def test_unknown_band_rejected(self):
        with pytest.raises(ValueError, match="unknown band"):
            band_nodes("VLF", 6, 4.0)

    @staticmethod
    def scan(level, rate_hz, lo, hi):
        """Every leaf whose range lies inside [lo, hi], by testing each one."""
        eps = 1e-12 * max(rate_hz, 1.0)
        ranges = (node_frequency_range(level, j, rate_hz) for j in range(2 ** level))
        return [j for j, (f_lo, f_hi) in enumerate(ranges)
                if f_lo >= lo - eps and f_hi <= hi + eps]

    def check_against_scan(self, level, rate_hz, edges):
        expected = self.scan(level, rate_hz, *edges)
        if expected:
            assert band_nodes("LF", level, rate_hz, edges) == expected
        else:
            with pytest.raises(ValueError, match=f"no level-{level} node fits"):
                band_nodes("LF", level, rate_hz, edges)

    @pytest.mark.parametrize("level", range(13))
    def test_default_bands_match_scan(self, level):
        for rate_hz in (1.0, 2.0, 4.0, 7.3, 8.0):
            for edges in (LF_BAND_HZ, HF_BAND_HZ):
                self.check_against_scan(level, rate_hz, edges)

    @pytest.mark.parametrize("level", range(13))
    def test_random_edges_match_scan(self, level):
        rng = np.random.default_rng(level)
        for _ in range(20):
            lo, hi = np.sort(rng.uniform(0.0, 2.4, 2))
            self.check_against_scan(level, 4.0, (float(lo), float(hi)))
        # edges on the leaf grid, and a few ulps around grid +- eps, where a
        # fit test that rounds differently from the scan would change the run
        for rate_hz in (0.7, 4.0, 7.3):
            eps, width = 1e-12 * max(rate_hz, 1.0), rate_hz / 2 ** (level + 1)
            for _ in range(6):
                j, k = sorted(int(x) for x in rng.integers(0, 2 ** level + 1, 2))
                for offset in (-eps, 0.0, eps):
                    for ulps in range(-2, 3):
                        lo, hi = j * width + offset, k * width - offset
                        for _ in range(abs(ulps)):
                            lo = float(np.nextafter(lo, np.sign(ulps) * np.inf))
                            hi = float(np.nextafter(hi, np.sign(ulps) * np.inf))
                        if 0.0 <= lo < hi:
                            self.check_against_scan(level, rate_hz, (lo, hi))

    def test_unbounded_band_above_the_grid(self):
        assert band_nodes("HF", 3, 4.0, (1.0, float("inf"))) == [4, 5, 6, 7]
        with pytest.raises(ValueError, match="no level-3 node fits"):
            band_nodes("HF", 3, 4.0, (1e300, float("inf")))

    def test_level_above_max_depth_rejected(self):
        assert band_nodes("LF", MAX_DEPTH, 4.0)[0] == 2 ** (MAX_DEPTH - 6)
        with pytest.raises(ValueError, match="level must be in"):
            band_nodes("LF", MAX_DEPTH + 1, 4.0)
