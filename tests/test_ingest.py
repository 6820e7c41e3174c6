import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrvwp import UniformSignal
from hrvwp.ingest import (
    Group,
    RRParseError,
    RRSeries,
    parse_rr_file,
    resample_cubic_spline,
    rr_to_tachogram,
    truncate_to_block,
)


def line_loop(text, col):
    """Independent per-line parse: column col of every non-blank, non-comment line."""
    return [float(line.split()[col]) for line in map(str.strip, text.splitlines())
            if line and not line.startswith("#")]


def is_data(line):
    line = line.strip()
    return bool(line) and not line.startswith("#")


@st.composite
def rr_files(draw):
    """(lines, newline) of a valid RR file with comments, blanks and odd spacing.

    Half the files are plain (a number per column, nothing else); in the
    others data lines may carry extra tokens, which only the per-line pass
    accepts. A one-column file's first data line has no extra token, as it
    picks the format.
    """
    columns = draw(st.sampled_from([1, 2]))
    extras = st.sampled_from([[], ["17"], ["# note"]] if draw(st.booleans()) else [[]])
    pad = st.sampled_from(["", " ", "  ", "\t", " \t "])

    def number():
        v = draw(st.floats(min_value=200.0, max_value=2000.0))
        return draw(st.sampled_from([repr(v), f"{v:.3f}", f"{v:.6e}", f"{v:.0f}"]))

    def data_line(first):
        tokens = [number() for _ in range(columns)]
        if columns == 2 or not first:
            tokens += draw(extras)
        sep = draw(st.sampled_from([" ", "\t", "  "]))
        return draw(pad) + sep.join(tokens) + draw(pad)

    noise = st.sampled_from(["", "   ", "\t", "# comment", "  # indented 1 2", "#"])
    lines = []
    for k in range(draw(st.integers(min_value=2, max_value=40))):
        lines.extend(draw(st.lists(noise, max_size=2)))
        lines.append(data_line(first=k == 0))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return lines, newline


def natural_spline_eval(t, y, xs):
    """Independent natural-spline oracle: tridiagonal solve for second derivatives."""
    t, y = list(map(float, t)), list(map(float, y))
    n = len(t)
    h = [t[i + 1] - t[i] for i in range(n - 1)]
    if n == 2:
        m = [0.0, 0.0]
    else:
        sub = [h[i - 1] for i in range(1, n - 1)]
        diag = [2.0 * (h[i - 1] + h[i]) for i in range(1, n - 1)]
        sup = [h[i] for i in range(1, n - 1)]
        rhs = [6.0 * ((y[i + 1] - y[i]) / h[i] - (y[i] - y[i - 1]) / h[i - 1])
               for i in range(1, n - 1)]
        for i in range(1, len(diag)):
            w = sub[i] / diag[i - 1]
            diag[i] -= w * sup[i - 1]
            rhs[i] -= w * rhs[i - 1]
        mm = [0.0] * len(diag)
        mm[-1] = rhs[-1] / diag[-1]
        for i in range(len(diag) - 2, -1, -1):
            mm[i] = (rhs[i] - sup[i] * mm[i + 1]) / diag[i]
        m = [0.0] + mm + [0.0]
    out = []
    for x in xs:
        i = min(max(bisect.bisect_right(t, x) - 1, 0), n - 2)
        hi = h[i]
        a, b = t[i], t[i + 1]
        out.append(
            m[i] * (b - x) ** 3 / (6 * hi)
            + m[i + 1] * (x - a) ** 3 / (6 * hi)
            + (y[i] / hi - m[i] * hi / 6) * (b - x)
            + (y[i + 1] / hi - m[i + 1] * hi / 6) * (x - a)
        )
    return np.array(out)


class TestParse:
    def test_one_column(self):
        series = parse_rr_file("800\n810\n790\n805\n")
        assert np.array_equal(series.intervals_ms, [800, 810, 790, 805])

    def test_two_column_takes_second(self):
        series = parse_rr_file("0.800 800\n1.610 810\n")
        assert np.array_equal(series.intervals_ms, [800, 810])

    def test_comments_and_blank_lines_skipped(self):
        series = parse_rr_file("# header\n\n800\n# mid\n810\n")
        assert len(series) == 2

    def test_non_numeric_reports_line(self):
        with pytest.raises(RRParseError, match="line 2"):
            parse_rr_file("800\nabc\n")
        err = None
        try:
            parse_rr_file("# c\n800\nabc\n")
        except RRParseError as exc:
            err = exc
        assert err is not None and err.line == 3

    def test_non_positive_interval_rejected(self):
        with pytest.raises(ValueError, match="non-positive"):
            parse_rr_file("800\n-5\n810\n")
        with pytest.raises(ValueError, match="non-positive"):
            parse_rr_file("800\n0\n")

    def test_too_few_intervals(self):
        with pytest.raises(ValueError, match="at least 2"):
            parse_rr_file("800\n")

    def test_bytes_accepted(self):
        series = parse_rr_file(b"800\n810\n")
        assert len(series) == 2

    def test_detect_format(self):
        # the first data line alone picks the column; later lines may carry
        # extra tokens
        assert np.array_equal(parse_rr_file("# x\n800\n810 5\n").intervals_ms, [800, 810])
        assert np.array_equal(parse_rr_file("0.8 800 x\n1.61 810\n").intervals_ms, [800, 810])
        with pytest.raises(RRParseError, match="line 2: expected 2 columns"):
            parse_rr_file("0.8 800\n810\n")

    @settings(max_examples=100, deadline=None)
    @given(rr_files(), st.data())
    def test_matches_line_loop(self, generated, data):
        lines, newline = generated
        text = newline.join(lines) + newline
        first = next(line.split() for line in lines if is_data(line))
        col = 1 if len(first) >= 2 else 0  # the first data line picks the column
        assert np.array_equal(parse_rr_file(text).intervals_ms, line_loop(text, col))

        rows = [num for num, line in enumerate(lines, start=1) if is_data(line)]
        bad = data.draw(st.sampled_from(rows))
        tokens = lines[bad - 1].split()
        tokens[col] = data.draw(st.sampled_from(["abc", "8OO", "1,5", "--5"]))
        lines[bad - 1] = "\t".join(tokens)
        with pytest.raises(RRParseError) as err:
            parse_rr_file(newline.join(lines))
        assert err.value.line == bad

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_detect_format_past_the_first_chunk(self, newline):
        # a comment header of any length up to 1200 characters ahead of the
        # first data line, which alone picks the column
        for header in range(1200):
            text = f"#{'x' * header}{newline}800 810{newline}900 910{newline}"
            assert np.array_equal(parse_rr_file(text).intervals_ms, [810, 910]), header
            one_column = text.replace("800 810", "800")
            assert np.array_equal(parse_rr_file(one_column).intervals_ms, [800, 900]), header

    def test_group_parsing(self):
        assert Group.from_string("control") is Group.CONTROL
        assert Group.from_string(" VT ") is Group.VT
        with pytest.raises(ValueError):
            Group.from_string("healthy")


class TestTachogram:
    def test_constant_intervals(self):
        times, values = rr_to_tachogram(RRSeries(np.array([1000.0, 1000.0, 1000.0])))
        assert np.allclose(times, [1.0, 2.0, 3.0])
        assert np.array_equal(values, [1000, 1000, 1000])

    def test_cumulative_sum(self):
        times, values = rr_to_tachogram(RRSeries(np.array([800.0, 810.0])))
        assert np.allclose(times, [0.8, 1.61])
        assert np.array_equal(values, [800, 810])

    def test_single_interval_rejected(self):
        with pytest.raises(ValueError):
            RRSeries(np.array([500.0]))

    @given(st.lists(st.floats(min_value=200.0, max_value=2000.0), min_size=2, max_size=60))
    def test_times_strictly_increase(self, intervals):
        times, _ = rr_to_tachogram(RRSeries(np.array(intervals)))
        assert np.all(np.diff(times) > 0.0)


class TestResample:
    def test_linear_reproduction(self):
        t = np.array([0.0, 0.7, 1.3, 2.9, 4.0])
        sig = resample_cubic_spline(t, 2.0 * t, 4.0)
        grid = sig.t0_s + np.arange(len(sig)) / sig.rate_hz
        assert np.allclose(sig.samples, 2.0 * grid, rtol=1e-9, atol=1e-12)

    def test_constant_reproduction(self):
        t = np.array([0.0, 0.5, 1.7, 3.0])
        sig = resample_cubic_spline(t, np.full(4, 7.0), 4.0)
        assert np.allclose(sig.samples, 7.0, rtol=1e-9)

    # 2 knots need no solve; 3, 4, 5, 64, 65 and 1000 knots leave 1, 2, 3,
    # 62, 63 and 998 unknowns, so the cyclic reduction meets odd and even
    # sizes at its first level and both again further down
    @pytest.mark.parametrize("knots", [2, 3, 4, 5, 64, 65, 1000])
    def test_knot_interpolation_against_tridiagonal_oracle(self, knots):
        rng = np.random.default_rng(knots)
        y = rng.uniform(-1.0, 1.0, knots)
        # on unit-spaced knots the 1 Hz grid is the knots themselves
        sig = resample_cubic_spline(np.arange(knots, dtype=float), y, 1.0)
        assert np.allclose(sig.samples, y, rtol=1e-9, atol=1e-12)
        # non-uniform knots: full 4 Hz grid against the independent solve
        t = np.concatenate([[0.3], 0.3 + np.cumsum(rng.uniform(0.2, 1.5, knots - 1))])
        sig4 = resample_cubic_spline(t, y, 4.0)
        grid = sig4.t0_s + np.arange(len(sig4)) / 4.0
        assert np.allclose(sig4.samples, natural_spline_eval(t, y, grid),
                           rtol=1e-9, atol=1e-12)

    def test_no_extrapolation_past_last_knot(self):
        sig = resample_cubic_spline(np.array([0.0, 1.1]), np.array([1.0, 2.0]), 4.0)
        assert sig.t0_s + (len(sig) - 1) / 4.0 <= 1.1 + 1e-12

    def test_nonzero_start_time(self):
        sig = resample_cubic_spline(np.array([0.8, 1.6, 2.4]), np.array([1.0, 2.0, 3.0]), 4.0)
        assert sig.t0_s == pytest.approx(0.8)

    def test_non_increasing_times_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            resample_cubic_spline(np.array([0.0, 1.0, 1.0]), np.zeros(3), 4.0)

    def test_rate_too_low(self):
        with pytest.raises(ValueError):
            resample_cubic_spline(np.array([0.0, 0.5]), np.array([1.0, 2.0]), 0.5)
        with pytest.raises(ValueError, match="positive"):
            resample_cubic_spline(np.array([0.0, 1.0]), np.array([1.0, 2.0]), 0.0)

    @settings(max_examples=50)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.5), min_size=2, max_size=20),
        st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=21, max_size=21),
    )
    def test_interpolation_property(self, gaps, values):
        t = np.concatenate([[0.0], np.cumsum(gaps)])
        y = np.array(values[: len(t)])
        sig = resample_cubic_spline(t, y, 36.0 / (t[-1] - t[0]))
        grid = sig.t0_s + np.arange(len(sig)) / sig.rate_hz
        assert np.allclose(
            sig.samples, natural_spline_eval(t, y, grid), rtol=1e-9, atol=1e-9
        )

    def test_determinism(self):
        t = np.array([0.0, 0.4, 1.0, 1.9, 3.2])
        y = np.array([5.0, 6.5, 4.2, 7.7, 5.5])
        a = resample_cubic_spline(t, y, 4.0)
        b = resample_cubic_spline(t, y, 4.0)
        assert np.array_equal(a.samples, b.samples)


class TestUniformSignal:
    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            UniformSignal(samples=np.array([1.0]), rate_hz=4.0)

    def test_non_positive_rate_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            UniformSignal(samples=np.zeros(4), rate_hz=0.0)


class TestConditioning:
    def test_truncates_to_block(self):
        sig = UniformSignal(samples=np.arange(150.0), rate_hz=4.0)
        out = truncate_to_block(sig, 5)
        assert len(out) == 128
        assert np.array_equal(out.samples, np.arange(128.0))

    def test_exact_multiple_untouched(self):
        sig = UniformSignal(samples=np.arange(128.0), rate_hz=4.0)
        assert truncate_to_block(sig, 5) is sig

    def test_too_short_rejected(self):
        sig = UniformSignal(samples=np.arange(63.0), rate_hz=4.0)
        with pytest.raises(ValueError, match="too short"):
            truncate_to_block(sig, 6)
