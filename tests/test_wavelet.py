import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrvwp import band_nodes, daubechies_filters, wpt_leaves
from hrvwp.ingest import resample_cubic_spline, rr_to_tachogram, truncate_to_block
from hrvwp.pipeline import HF_BAND_HZ, LF_BAND_HZ
from hrvwp.wavelet import MAX_DEPTH, analysis_step
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


def high_pass(taps):
    """The quadrature mirror of the low-pass taps: hi[k] = (-1)**k * lo[L-1-k]."""
    return np.asarray(taps)[::-1] * (-1.0) ** np.arange(len(taps))


def step_matrix(taps, n):
    """Explicit n x n matrix of one periodized analysis step: approx rows, then detail rows.

    Taps that wrap past the end of a node shorter than the filter add up on
    the same column.
    """
    lo, hi = taps, high_pass(taps)
    a = np.zeros((n, n))
    for i in range(n // 2):
        for k in range(len(lo)):
            a[i, (2 * i + k) % n] += lo[k]
            a[n // 2 + i, (2 * i + k) % n] += hi[k]
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


def full_level(x, level, taps):
    """Every node of the level, row j in frequency slot j: the leaves of all slots."""
    return wpt_leaves(x, level, taps, range(2 ** level))


def packet_matrix(taps, n, depth):
    """The transform as an n x n matrix: column i holds the raveled level of basis vector i."""
    return full_level(np.eye(n), depth, taps).reshape(n, n).T


class TestFilters:
    @pytest.mark.parametrize("order", range(1, 11))
    def test_invariants(self, order):
        lo = daubechies_filters(order)
        hi = high_pass(lo)
        assert len(lo) == len(hi) == 2 * order
        assert abs(lo.sum() - SQRT2) < 1e-12
        assert abs(hi.sum()) < 1e-12
        assert abs(np.dot(lo, lo) - 1.0) < 1e-12
        # orthogonality to even shifts
        for shift in range(1, order):
            assert abs(np.dot(lo[2 * shift:], lo[: -2 * shift])) < 1e-12
            assert abs(np.dot(hi[2 * shift:], hi[: -2 * shift])) < 1e-12

    @pytest.mark.parametrize("order", range(1, 11))
    def test_vanishing_moments(self, order):
        hi = high_pass(daubechies_filters(order))
        k = np.arange(2 * order, dtype=float)
        for j in range(order):
            assert abs(np.dot(hi, k ** j)) < 1e-7 * (2 * order) ** j

    def test_haar(self):
        # no roots to factor: the taps are sqrt(2)/2, correctly rounded
        lo = daubechies_filters(1)
        assert lo.tolist() == [SQRT2 / 2, SQRT2 / 2]
        assert high_pass(lo).tolist() == [SQRT2 / 2, -SQRT2 / 2]

    @pytest.mark.parametrize("order", [0, 11, -1])
    def test_order_out_of_range(self, order):
        with pytest.raises(ValueError):
            daubechies_filters(order)

    def test_non_integer_order(self):
        for order in (2.5, True):
            with pytest.raises(ValueError, match="integer"):
                daubechies_filters(order)

    def test_deterministic_construction(self):
        a = daubechies_filters(7)
        b = daubechies_filters(7)
        assert np.array_equal(a, b)
        assert np.array_equal(daubechies_filters(np.int64(7)), a)

    def test_taps_read_only(self):
        taps = daubechies_filters(4)
        assert taps.dtype == np.float64 and taps.shape == (8,)
        assert not taps.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            taps[0] = 0.0

    def test_taps_shape_validated(self):
        # odd, too short or 2-d taps are refused by name, not by a reshape error
        for taps in (daubechies_filters(2)[:3], [0.5], [], np.ones((2, 4))):
            with pytest.raises(ValueError, match="taps"):
                analysis_step(np.ones(8), taps)
            with pytest.raises(ValueError, match="taps"):
                wpt_leaves(np.ones(8), 1, taps, [0])


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
        taps = daubechies_filters(4)
        approx, detail = analysis_step(x, taps)
        assert np.allclose(approx, circular_correlate_downsample(x, taps),
                           rtol=1e-12, atol=1e-12)
        assert np.allclose(detail, circular_correlate_downsample(x, high_pass(taps)),
                           rtol=1e-12, atol=1e-12)
        energy = np.dot(approx, approx) + np.dot(detail, detail)
        assert energy == pytest.approx(np.dot(x, x), rel=1e-10)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError, match="even"):
            analysis_step(np.ones(5), daubechies_filters(2))

    def test_fewer_than_two_samples_rejected(self):
        for sig in (np.ones(1), np.ones(()), np.ones((3, 0))):
            with pytest.raises(ValueError, match="at least 2 samples"):
                analysis_step(sig, daubechies_filters(2))


class TestPacketTree:
    def test_depth_zero_is_identity(self):
        sig = np.arange(8.0)
        assert np.array_equal(full_level(sig, 0, daubechies_filters(2)), sig[None])

    def test_levels_do_not_alias_the_signal(self):
        sig = np.arange(8.0)
        level = full_level(sig, 0, daubechies_filters(1))
        level[0, 0] = -1.0
        assert sig[0] == 0.0

    def test_constant_signal_maps_to_lowest_leaf(self):
        # with leaf 0 outside both default bands, a signal's mean never
        # reaches a band feature, so no mean removal is needed
        sig = np.full(256, 3.0)
        for order in range(1, 11):
            leaves = full_level(sig, 6, daubechies_filters(order))
            for j in range(1, 64):
                assert np.max(np.abs(leaves[j])) <= 1e-9, (order, j)
            energy0 = float(np.dot(leaves[0], leaves[0]))
            assert energy0 == pytest.approx(np.dot(sig, sig), rel=1e-12), order
        fitting = 0
        for level in range(MAX_DEPTH + 1):
            for band in (LF_BAND_HZ, HF_BAND_HZ):
                try:
                    leaves = band_nodes(band, level, 4.0)
                except ValueError:  # no whole leaf of this level fits the band
                    continue
                fitting += 1
                assert 0 not in leaves, (band, level)
        assert fitting == (MAX_DEPTH - 4) + (MAX_DEPTH - 3)  # LF from level 5, HF from 4

    @pytest.mark.parametrize("order", range(1, 11))
    def test_matches_orthogonal_matrix_reference(self, order):
        # N = 64 at depth 6: the deepest levels are shorter than every filter
        # above order 1, so the circular extension wraps more than once
        taps = daubechies_filters(order)
        x = np.random.default_rng(order).standard_normal(64)
        natural = [x]
        for level in range(1, 7):
            n = natural[0].size
            step = step_matrix(taps, n)
            assert np.allclose(step @ step.T, np.eye(n), atol=1e-12)
            natural = [half for node in natural
                       for half in np.split(step @ node, 2)]
            nodes = full_level(x, level, taps)
            for j in range(2 ** level):
                assert np.allclose(nodes[j], natural[_gray(j)],
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
        leaves = full_level(signal, depth, daubechies_filters(order))
        leaf_energy = sum(float(np.dot(n, n)) for n in leaves)
        assert leaf_energy == pytest.approx(float(np.dot(signal, signal)), rel=1e-9)

    def test_level_lengths_partition_signal(self):
        sig = np.random.default_rng(0).standard_normal(128)
        for level in range(5):
            nodes = full_level(sig, level, daubechies_filters(3))
            assert len(nodes) == 2 ** level
            assert sum(len(n) for n in nodes) == 128
            assert all(len(n) == 128 // 2 ** level for n in nodes)

    def test_length_not_multiple_rejected(self):
        # a (2, 64) array is two 64-sample signals, not one of 128 samples;
        # the length along the last axis is what must be a multiple
        for sig in (np.ones(96), np.ones((2, 96))):
            with pytest.raises(ValueError, match="multiple"):
                full_level(sig, 6, daubechies_filters(2))
        assert full_level(np.ones((2, 64)), 6, daubechies_filters(2)).shape == (2, 64, 1)


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
        taps = daubechies_filters(order)
        x = np.random.default_rng(seed).standard_normal(blocks * 2 ** depth)
        leaves = wpt_leaves(x, depth, taps, slots)
        assert leaves.shape == (len(slots), blocks)
        assert np.array_equal(leaves, full_level(x, depth, taps)[slots])

    def test_band_leaves_of_the_reference_configuration(self):
        x = np.random.default_rng(3).standard_normal(1216 // 64 * 64)
        taps = daubechies_filters(4)
        slots = band_nodes(LF_BAND_HZ, 6, 4.0) + band_nodes(HF_BAND_HZ, 6, 4.0)
        assert np.array_equal(wpt_leaves(x, 6, taps, slots), full_level(x, 6, taps)[slots])
        assert np.array_equal(wpt_leaves(x, 1, taps, [1])[0], full_level(x, 1, taps)[1])

    def test_deep_band_plans_match_the_full_tree(self):
        # LF+HF at depth 16 are 12 288 leaves (all 65 536 for the full level):
        # the plan maps each kept node to its parent's row by lookup, so it
        # takes milliseconds, not seconds
        taps = daubechies_filters(2)
        for depth in (6, 9, 16):
            slots = band_nodes(LF_BAND_HZ, depth, 4.0) + band_nodes(HF_BAND_HZ, depth, 4.0)
            x = np.random.default_rng(depth).standard_normal(2 ** depth)
            assert np.array_equal(wpt_leaves(x, depth, taps, slots),
                                  full_level(x, depth, taps)[slots])

    @pytest.mark.parametrize("shape", [(5, 1216 // 64 * 64), (3, 2, 128), (1, 64)])
    def test_stack_equals_each_signal_alone(self, shape):
        # bitwise: the pipeline transforms a stack of recordings at once
        x = np.random.default_rng(len(shape)).standard_normal(shape)
        taps = daubechies_filters(4)
        slots = band_nodes(LF_BAND_HZ, 6, 4.0) + band_nodes(HF_BAND_HZ, 6, 4.0)
        stacked = wpt_leaves(x, 6, taps, slots)
        assert stacked.shape == (*shape[:-1], len(slots), shape[-1] // 64)
        for index in np.ndindex(*shape[:-1]):
            assert stacked[index].tobytes() == wpt_leaves(x[index], 6, taps, slots).tobytes()

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
        for sig in (np.ones(96), np.ones((2, 96)), np.ones(()), np.ones((2, 0))):
            with pytest.raises(ValueError, match="multiple"):
                wpt_leaves(sig, 6, daubechies_filters(2), [1])
        with pytest.raises(ValueError, match="depth"):
            wpt_leaves(np.ones(8), -1, daubechies_filters(2), [0])


class TestFrequencyMapping:
    def test_leaves_tile_nyquist_interval(self):
        # the whole interval holds every leaf, and each leaf's slice only that leaf
        for level in (1, 3, 6):
            assert band_nodes((0.0, 2.0), level, 4.0) == list(range(2 ** level))
            width = 4.0 / 2 ** (level + 1)
            for j in range(2 ** level):
                assert band_nodes((j * width, (j + 1) * width), level, 4.0) == [j]

    def test_gray_mapping_matches_mirroring_oracle(self):
        for depth in (1, 2, 3, 6):
            oracle = mirrored_leaf_intervals(depth, 4.0)
            for slot in range(2 ** depth):
                assert band_nodes(oracle[_gray(slot)], depth, 4.0) == [slot]


class TestBandNodes:
    def test_reference_configuration(self):
        assert band_nodes(LF_BAND_HZ, 6, 4.0) == [1, 2, 3, 4]
        assert band_nodes(HF_BAND_HZ, 6, 4.0) == [5, 6, 7, 8, 9, 10, 11, 12]

    def test_twelve_sub_bands_total(self):
        assert len(band_nodes(LF_BAND_HZ, 6, 4.0)) + len(band_nodes(HF_BAND_HZ, 6, 4.0)) == 12

    def test_no_node_fits_at_shallow_level(self):
        with pytest.raises(ValueError, match="no level-1 node"):
            band_nodes(LF_BAND_HZ, 1, 4.0)

    def test_finer_level_selection(self):
        assert band_nodes(LF_BAND_HZ, 7, 4.0) == list(range(2, 10))

    def test_custom_band(self):
        assert band_nodes((0.5, 1.0), 6, 4.0) == list(range(16, 32))

    def test_band_ranges_lie_inside_band(self):
        width = 4.0 / 2 ** 7
        for lo, hi in (LF_BAND_HZ, HF_BAND_HZ):
            for j in band_nodes((lo, hi), 6, 4.0):
                assert j * width >= lo - 1e-12 and (j + 1) * width <= hi + 1e-12

    @staticmethod
    def scan(level, rate_hz, lo, hi):
        """Every leaf whose range lies inside [lo, hi], by testing each one."""
        eps, width = 1e-12 * max(rate_hz, 1.0), rate_hz / 2 ** (level + 1)
        return [j for j in range(2 ** level)
                if j * width >= lo - eps and (j + 1) * width <= hi + eps]

    def check_against_scan(self, level, rate_hz, edges):
        expected = self.scan(level, rate_hz, *edges)
        if expected:
            assert band_nodes(edges, level, rate_hz) == expected
        else:
            with pytest.raises(ValueError, match=f"no level-{level} node fits"):
                band_nodes(edges, level, rate_hz)

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
        assert band_nodes((1.0, float("inf")), 3, 4.0) == [4, 5, 6, 7]
        with pytest.raises(ValueError, match="no level-3 node fits"):
            band_nodes((1e300, float("inf")), 3, 4.0)

    def test_invalid_arguments_rejected(self):
        for band, level, rate_hz, message in (
                ((1.0, 1.0), 3, 4.0, "invalid band edges"),
                ((0.0, 1.0), -1, 4.0, "level must be in"),
                ((0.0, 1.0), 3, 0.0, "rate_hz must be positive"),
                ((0.0, 1.0), 3, float("inf"), "rate_hz must be positive")):
            with pytest.raises(ValueError, match=message):
                band_nodes(band, level, rate_hz)

    def test_level_above_max_depth_rejected(self):
        assert band_nodes(LF_BAND_HZ, MAX_DEPTH, 4.0)[0] == 2 ** (MAX_DEPTH - 6)
        with pytest.raises(ValueError, match="level must be in"):
            band_nodes(LF_BAND_HZ, MAX_DEPTH + 1, 4.0)
