import bisect
import contextlib
import gzip
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hrvwp import ingest
from hrvwp.ingest import (
    Group,
    RRParseError,
    parse_rr_file,
    resample_cubic_spline,
    rr_to_tachogram,
    truncate_to_block,
)


def file_lines(text):
    """The lines of text, ended at LF, CR LF or CR only, each cut at its first '#'."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return [line.split("#")[0] for line in lines]


def line_loop(text, col):
    """Independent per-line parse: column col of every line with a token before any '#'."""
    return [float(line.split()[col]) for line in file_lines(text) if line.split()]


def is_data(line):
    return bool(line.split("#")[0].split())


# whitespace that separates tokens inside a line, but does not end it
SEPARATOR = st.sampled_from([" ", "\t", "  ", "\f", "\v", "\x1c", "\x85", "\xa0", "\u2028"])
PAD = st.sampled_from(["", " ", "  ", "\t", " \t ", "\f", "\x1e", "\u2029"])
COMMENT = st.sampled_from(["", "", "#", " # 1 2", "#x\x85y"])
EXTRAS = st.sampled_from([[], ["17"], ["# note"]])
NOISE = st.lists(st.sampled_from(["", "   ", "\t", "# comment", "  # indented 1 2", "#", "\f"]),
                 max_size=2)
NUMBER = st.builds(lambda v, form: form(v), st.floats(min_value=200.0, max_value=2000.0),
                   st.sampled_from([repr, "{:.3f}".format, "{:.6e}".format, "{:.0f}".format]))


@st.composite
def rr_files(draw):
    """(lines, newline, bom) of a valid RR file with comments, blanks and odd spacing.

    Half the files are plain (a number per column, nothing else); in the
    others data lines may carry extra tokens, which only the per-line pass
    accepts. A one-column file's first data line has no extra token, as it
    picks the format. Comments may follow data on a line; a file may start
    with a byte-order mark.
    """
    columns = draw(st.sampled_from([1, 2]))
    extras = EXTRAS if draw(st.booleans()) else st.just([])
    lines = []
    for k in range(draw(st.integers(min_value=2, max_value=40))):
        lines.extend(draw(NOISE))
        tokens = [draw(NUMBER) for _ in range(columns)]
        if columns == 2 or k > 0:
            tokens += draw(extras)
        lines.append(draw(PAD) + draw(SEPARATOR).join(tokens) + draw(PAD) + draw(COMMENT))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return lines, newline, draw(st.sampled_from(["", "\ufeff"]))


def rr_path(tmp_path, text, name="rr.txt"):
    """Write the UTF-8 bytes of text to tmp_path / name and return that path."""
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


def outcome(path, line_pass=False):
    """parse_rr_file's result, or the type and text of its error.

    With line_pass, numpy's reader declines everything, so only the line
    pass runs. An RRParseError's line attribute is the line its text names.
    """
    reader = mock.patch.object(ingest, "_read_table", return_value=None)
    with reader if line_pass else contextlib.nullcontext():
        try:
            return parse_rr_file(path)
        except (ValueError, OSError) as exc:
            assert not isinstance(exc, RRParseError) or str(exc).startswith(f"line {exc.line}: ")
            return type(exc), str(exc)


def routes(path):
    """The outcomes of parsing the file at path, and of the line pass alone."""
    return outcome(path), outcome(path, line_pass=True)


def assert_same(outcomes):
    """Equal errors, or float64 results equal bit for bit."""
    first = outcomes[0]
    for other in outcomes[1:]:
        assert type(other) is type(first)
        if isinstance(first, np.ndarray):
            assert other.dtype == first.dtype == np.float64
            assert other.tobytes() == first.tobytes()
        else:
            assert other == first


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
    def test_one_column(self, tmp_path):
        rr = parse_rr_file(str(rr_path(tmp_path, "800\n810\n790\n805\n")))
        assert rr.dtype == np.float64
        assert np.array_equal(rr, [800, 810, 790, 805])

    def test_two_column_takes_second(self, tmp_path):
        rr = parse_rr_file(rr_path(tmp_path, "0.800 800\n1.610 810\n"))
        assert np.array_equal(rr, [800, 810])

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        assert len(parse_rr_file(rr_path(tmp_path, "# header\n\n800\n# mid\n810\n"))) == 2

    def test_str_path_equals_pathlike(self, tmp_path):
        for text in ("800\n810\n", "0.8 800.25\n1.6 810 x\n"):  # reader, line pass
            path = rr_path(tmp_path, text)
            assert_same([parse_rr_file(str(path)), parse_rr_file(path)])

    def test_bytes_rejected(self, tmp_path):
        path = rr_path(tmp_path, "800\n810\n")
        with pytest.raises(TypeError):
            parse_rr_file(b"800\n810\n")
        with pytest.raises(TypeError):
            parse_rr_file(bytes(path))

    def test_first_data_line_picks_the_column(self, tmp_path):
        # later lines may carry extra tokens
        assert np.array_equal(parse_rr_file(rr_path(tmp_path, "# x\n800\n810 5\n")), [800, 810])
        assert np.array_equal(parse_rr_file(rr_path(tmp_path, "0.8 800 x\n1.61 810\n")),
                              [800, 810])
        with pytest.raises(RRParseError, match="line 2: expected 2 columns"):
            parse_rr_file(rr_path(tmp_path, "0.8 800\n810\n"))

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rr_files(), st.data())
    def test_matches_line_loop(self, tmp_path, generated, data):
        # the file through the reader and through the line pass alone agree
        # bit for bit, and on the type and text of every error
        lines, newline, bom = generated
        text = newline.join(lines) + newline
        first = next(line.split("#")[0].split() for line in lines if is_data(line))
        col = 1 if len(first) >= 2 else 0  # the first data line picks the column
        results = routes(rr_path(tmp_path, bom + text))
        assert_same(results)
        assert np.array_equal(results[0], line_loop(text, col))

        rows = [num for num, line in enumerate(lines, start=1) if is_data(line)]
        bad = data.draw(st.sampled_from(rows))
        tokens = lines[bad - 1].split("#")[0].split()
        tokens[col] = data.draw(st.sampled_from(["abc", "8OO", "1,5", "--5"]))
        lines[bad - 1] = "\t".join(tokens)
        results = routes(rr_path(tmp_path, bom + newline.join(lines)))
        assert_same(results)
        assert results[0][0] is RRParseError
        assert results[0][1].startswith(f"line {bad}: ")

    @pytest.mark.parametrize("text, expected", [
        ("800\r810\r", [800, 810]),
        ("800\r\n810\r\n", [800, 810]),
        ("0.8 800\r1.6 810", [800, 810]),
        ("\ufeff800\n810\n", [800, 810]),
        ("800 # first\n810#second\n", [800, 810]),
        ("0.8 800#7\n1.6 810 # 9 9\n", [800, 810]),
        # a form feed, vertical tab or U+2028 separates tokens, it ends no line
        ("0.8\f800\n1.6\v810\u2028\n", [800, 810]),
        # Python's float() takes these, numpy's reader leaves them to the line pass
        ("8_00\n\uff18\uff11\uff10\n", [800, 810]),
        ("800\f810\n", (ValueError, "need at least 2 RR intervals, got 1")),
        ("", (ValueError, "need at least 2 RR intervals, got 0")),
        ("# only\n\n  # a comment\n", (ValueError, "need at least 2 RR intervals, got 0")),
        ("800\n810 #\n-5\n",
         (ValueError, "non-positive or non-finite RR interval at position 3: -5.0")),
        ("800\n\ufeff810\n", (RRParseError, "line 2: non-numeric token '\\ufeff810'")),
        ("0.8 800\n810 # 5\n", (RRParseError, "line 2: expected 2 columns, got 1")),
        ("800\nnan\n", (ValueError, "non-positive or non-finite RR interval at position 2: nan")),
        ("0.8 800\n1.6 inf\n2.4 810\n",
         (ValueError, "non-positive or non-finite RR interval at position 2: inf")),
        ("800\n-5\n0\n", (ValueError, "non-positive or non-finite RR interval at position 2: -5.0")),
        ("# c\n800\nabc\n", (RRParseError, "line 3: non-numeric token 'abc'")),
    ], ids=["cr-line-ends", "crlf-line-ends", "two-columns-unterminated", "leading-bom",
            "comments", "numbers-in-comments", "ff-vt-u2028-split-tokens", "float-only-syntax",
            "form-feed-ends-no-line", "empty", "comments-only", "negative-interval",
            "bom-after-line-1", "column-count-changes", "nan-interval", "inf-interval",
            "first-bad-interval-named", "line-number-counts-comments"])
    def test_line_rules(self, tmp_path, text, expected):
        results = routes(rr_path(tmp_path, text))
        assert_same(results)
        if isinstance(expected, list):
            assert results[0].tolist() == expected
        else:
            assert results[0] == expected

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.txt"
        with pytest.raises(FileNotFoundError) as expected:
            path.read_text(encoding="utf-8-sig")
        with pytest.raises(FileNotFoundError) as err:
            parse_rr_file(path)
        assert str(err.value) == str(expected.value)

    def test_only_the_named_file_is_read(self, tmp_path):
        # numpy's reader would fall back to x.txt.gz, and decompress any *.gz
        with gzip.open(tmp_path / "x.txt.gz", "wt") as fh:
            fh.write("800\n810\n")
        with pytest.raises(FileNotFoundError, match="x.txt'$"):
            parse_rr_file(tmp_path / "x.txt")
        with pytest.raises(UnicodeDecodeError):
            parse_rr_file(tmp_path / "x.txt.gz")
        (tmp_path / "plain.gz").write_text("800\n810\n")
        assert parse_rr_file(tmp_path / "plain.gz").tolist() == [800, 810]

    def test_plain_input_skips_the_line_pass(self, tmp_path, monkeypatch):
        def line_pass(text):
            raise AssertionError("the line pass ran")

        monkeypatch.setattr(ingest, "_parse_lines", line_pass)
        texts = ["800\n810\n", "\ufeff# header\r\n0.8 800\r\n\r\n1.6 810 # x\r\n",
                 "  800.5\t\r 8.1e2 \r"]
        for k, text in enumerate(texts):
            path = rr_path(tmp_path, text, f"rr{k}.txt")
            expected = [800.5, 810] if k == 2 else [800, 810]
            assert parse_rr_file(path).tolist() == parse_rr_file(str(path)).tolist() == expected

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_files_past_one_reader_chunk(self, tmp_path, monkeypatch, newline):
        # numpy's reader takes a file 16,384 characters at a time; a header
        # whose length steps through more than one data line puts every
        # character of the lines around the chunk boundary on it, the CR of
        # a CR LF pair included. 606 rows take every text past that boundary.
        rng = np.random.default_rng(len(newline))
        rows = [f"{t:.3f} {v!r}" + (" # ok" if k % 5 == 0 else "")
                for k, (t, v) in enumerate(zip(np.arange(606) * 0.8,
                                               rng.uniform(300.0, 1500.0, 606).tolist()))]
        body = newline.join(rows) + newline
        expected = np.array([float(row.split()[1]) for row in rows])

        def no_line_pass(text):
            raise AssertionError("the line pass ran")

        splits = 0
        for header in range(max(map(len, rows)) + len(newline) + 1):
            text = f"#{'x' * header}{newline}{body}"
            assert len(text) > 16384
            splits += text[16383:16385] == "\r\n"
            path = rr_path(tmp_path, text)
            with monkeypatch.context() as patch:
                patch.setattr(ingest, "_parse_lines", no_line_pass)
                by_reader = parse_rr_file(path)
            assert_same([by_reader, outcome(path, line_pass=True), expected])
        assert (splits > 0) == (newline == "\r\n")

    def test_bad_token_past_many_chunks(self, tmp_path):
        lines = ["800"] * 20_000
        lines[15_000] = "8x0"
        results = routes(rr_path(tmp_path, "\r\n".join(lines) + "\r\n"))
        assert_same(results)
        assert results[0] == (RRParseError, "line 15001: non-numeric token '8x0'")

    def test_group_parsing(self):
        assert Group.from_string("control") is Group.CONTROL
        assert Group.from_string(" VT ") is Group.VT
        with pytest.raises(ValueError):
            Group.from_string("healthy")


class TestTachogram:
    def test_constant_intervals(self):
        times, values = rr_to_tachogram(np.array([1000.0, 1000.0, 1000.0]))
        assert np.allclose(times, [1.0, 2.0, 3.0])
        assert np.array_equal(values, [1000, 1000, 1000])

    def test_cumulative_sum(self):
        rr = np.array([800.0, 810.0])
        times, values = rr_to_tachogram(rr)
        assert np.allclose(times, [0.8, 1.61])
        assert np.array_equal(values, [800, 810])
        assert values is rr  # the values are the intervals themselves, not a copy
        assert rr_to_tachogram(np.array([]))[0].size == 0

    @given(st.lists(st.floats(min_value=200.0, max_value=2000.0), min_size=2, max_size=60))
    def test_times_strictly_increase(self, intervals):
        times, _ = rr_to_tachogram(np.array(intervals))
        assert np.all(np.diff(times) > 0.0)


PAIRS = "times and values must be 1-d arrays of equal length"
FINITE = "times and values must be finite"
RATE = "sampling rate must be positive and finite"
OVERFLOW = "spline values overflow: knots too close for the change in their values"


def wide_spline(moment):
    """The 1 Hz samples of a zero-valued spline on knots 0, 1e4 and 2e4 s, middle moment given."""
    knots = ingest.spline_knots([0.0, 1e4, 2e4], np.zeros(3), 1.0)
    return ingest.spline_samples(knots, np.array([0.0, moment, 0.0]))


class TestResample:
    def test_linear_reproduction(self):
        t = np.array([0.0, 0.7, 1.3, 2.9, 4.0])
        sig = resample_cubic_spline(t, 2.0 * t, 4.0)
        grid = t[0] + np.arange(len(sig)) / 4.0
        assert np.allclose(sig, 2.0 * grid, rtol=1e-9, atol=1e-12)

    def test_constant_reproduction(self):
        t = np.array([0.0, 0.5, 1.7, 3.0])
        sig = resample_cubic_spline(t, np.full(4, 7.0), 4.0)
        assert np.allclose(sig, 7.0, rtol=1e-9)

    # 2 knots need no solve; 3, 4, 5, 64, 65 and 1000 knots leave 1, 2, 3,
    # 62, 63 and 998 unknowns, so the solve pads none, some or most of a
    # 2**k - 1 system
    @pytest.mark.parametrize("knots", [2, 3, 4, 5, 64, 65, 1000])
    def test_knot_interpolation_against_tridiagonal_oracle(self, knots):
        rng = np.random.default_rng(knots)
        y = rng.uniform(-1.0, 1.0, knots)
        # on unit-spaced knots the 1 Hz grid is the knots themselves
        sig = resample_cubic_spline(np.arange(knots, dtype=float), y, 1.0)
        assert np.allclose(sig, y, rtol=1e-9, atol=1e-12)
        # non-uniform knots: full 4 Hz grid against the independent solve
        t = np.concatenate([[0.3], 0.3 + np.cumsum(rng.uniform(0.2, 1.5, knots - 1))])
        sig4 = resample_cubic_spline(t, y, 4.0)
        grid = t[0] + np.arange(len(sig4)) / 4.0
        assert np.allclose(sig4, natural_spline_eval(t, y, grid),
                           rtol=1e-9, atol=1e-12)

    def test_padded_stack_solves_each_system_alone(self):
        # bitwise: a chunk's spline systems are solved as one stack, padded
        # at the end with x = 0 equations up to 2**k - 1 unknowns; alone,
        # each is padded to its own 2**j - 1
        rng = np.random.default_rng(7)
        systems = []
        for n in rng.permutation([1, 2, 3, 4, 5, 8, 37, 64, 1023, 1024, 1025]):
            h = rng.uniform(0.2, 1.5, n + 1)
            systems.append((2.0 * (h[:-1] + h[1:]), h[1:-1], 6.0 * np.diff(rng.normal(size=n + 1))))

        def padded(batch, width):
            diag = np.ones((len(batch), width))
            off, rhs = np.zeros((len(batch), width - 1)), np.zeros((len(batch), width))
            for row, (d, o, r) in enumerate(batch):
                diag[row, :d.size], off[row, :o.size], rhs[row, :r.size] = d, o, r
            return diag, off, rhs

        width = 2047  # 2**11 - 1, the fewest that hold the longest
        stacked = ingest._solve_tridiagonal(*padded(systems, width))
        for row, (d, o, r) in enumerate(systems):
            alone = ingest._solve_tridiagonal(*padded([(d, o, r)], (1 << d.size.bit_length()) - 1))[0]
            assert stacked[row, :d.size].tobytes() == alone[:d.size].tobytes()
            assert stacked[row, d.size:].tobytes() == bytes(8 * (width - d.size))  # +0.0
            matrix = np.diag(d) + np.diag(o, 1) + np.diag(o, -1)
            assert np.allclose(matrix @ alone[:d.size], r, rtol=1e-12, atol=1e-12)

    def test_stacked_splines_resample_each_alone(self):
        rng = np.random.default_rng(8)
        splines = []
        for knots in (40, 2, 3, 4, 97):
            t = np.cumsum(rng.uniform(0.4, 1.2, knots))
            splines.append((t, rng.normal(800.0, 30.0, knots)))
        knotted = [ingest.spline_knots(t, v, 4.0) for t, v in splines]
        moments = ingest.spline_moments(knotted)
        for (t, v), knots, row in zip(splines, knotted, moments):
            assert (ingest.spline_samples(knots, row).tobytes()
                    == resample_cubic_spline(t, v, 4.0).tobytes())

    def test_no_extrapolation_past_last_knot(self):
        sig = resample_cubic_spline(np.array([0.0, 1.1]), np.array([1.0, 2.0]), 4.0)
        assert (len(sig) - 1) / 4.0 <= 1.1 + 1e-12

    def test_last_knot_a_rounding_error_off_the_grid_is_kept(self):
        # span * rate is 14.999999999999998 here, not 15: the grid still ends
        # on the last beat, so the last sample is that beat's value
        times, values = rr_to_tachogram(np.array([1100.0, 650.0, 1000.0, 1100.0, 1000.0]))
        sig = resample_cubic_spline(times, values, 4.0)
        assert len(sig) == 16
        assert sig[-1] == 1000.0

    def test_nonzero_start_time(self):
        # the grid starts at the first beat, so on these collinear knots the
        # first sample is the first beat's value, not an extrapolation to t = 0
        sig = resample_cubic_spline(np.array([0.8, 1.6, 2.4]), np.array([1.0, 2.0, 3.0]), 4.0)
        assert sig[0] == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(sig, 1.0 + 1.25 * np.arange(7) / 4.0, rtol=1e-12)

    @pytest.mark.parametrize("call, message", [
        (lambda: rr_to_tachogram([1e308, 1e308, 800.0]),
         "beat times overflow: the RR intervals sum past the float range"),
        (lambda: resample_cubic_spline(*rr_to_tachogram([500.0]), 4.0),
         "need at least 2 points to resample"),
        (lambda: resample_cubic_spline(np.zeros((2, 2)), np.zeros(4), 4.0), PAIRS),
        (lambda: resample_cubic_spline([0.0, 1.0, 2.0], [0.0, 0.0], 4.0), PAIRS),
        (lambda: resample_cubic_spline([0.0, 1.0, np.inf], [1.0, 2.0, 3.0], 4.0), FINITE),
        (lambda: resample_cubic_spline([0.0, np.nan], [1.0, 2.0], 4.0), FINITE),
        (lambda: resample_cubic_spline([0.0, 1.0], [1.0, -np.inf], 4.0), FINITE),
        (lambda: resample_cubic_spline([0.0, 1.0, 1.0], [0.0, 0.0, 0.0], 4.0),
         "times must be strictly increasing"),
        (lambda: resample_cubic_spline([0.0, 0.5], [1.0, 2.0], 0.5),
         "rate 0.5 Hz yields 1 sample(s) over a 0.500 s span"),
        (lambda: resample_cubic_spline([0.0, 1.0], [1.0, 2.0], 0.0), f"{RATE}, got 0.0"),
        (lambda: resample_cubic_spline([0.0, 1.0], [1.0, 2.0], np.inf), f"{RATE}, got inf"),
        (lambda: resample_cubic_spline([0.0, 1.0], [1.0, 2.0], np.nan), f"{RATE}, got nan"),
        # knots 1e-292 s apart around a 1e-274 ms step: the second derivatives
        # pass 1e308, and no RuntimeWarning escapes on the way to the error
        (lambda: resample_cubic_spline(*rr_to_tachogram([1e-274, 1e-289, 1000.0]), 4.0), OVERFLOW),
        # one moment of 1e302 between knots 1e4 s apart: the samples reach -inf
        # while their maximum stays finite, and with -1e302 +inf while their
        # minimum does, so each half of the min/max check refuses one of them
        (lambda: wide_spline(1e302), OVERFLOW),
        (lambda: wide_spline(-1e302), OVERFLOW),
    ], ids=["overflowing-beat-times", "one-point", "2-d-times", "unequal-lengths", "infinite-time",
            "nan-time", "infinite-value", "repeated-time", "one-sample-grid", "zero-rate",
            "infinite-rate", "nan-rate", "overflowing-spline", "minus-inf-samples",
            "plus-inf-samples"])
    def test_rejected(self, call, message):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message

    def test_grid_cap_boundary(self, monkeypatch):
        # the cap read from a depth-6 tree: a (2**6 - 1) / 4 s span at 4 Hz is
        # 64 samples, its last on the last knot, and 1e-9 s more is refused
        monkeypatch.setattr(ingest, "MAX_DEPTH", 6)
        assert resample_cubic_spline(np.array([0.0, 15.75]), np.ones(2), 4.0).size == 64
        with pytest.raises(ValueError) as err:
            resample_cubic_spline(np.array([0.0, 15.75 + 1e-9]), np.ones(2), 4.0)
        assert str(err.value) == "a 15.75 s span at 4.0 Hz needs over 2**6 samples"

    def test_span_times_rate_overflow_rejected(self):
        # span * rate is inf here; the grid cap is checked on span, before any allocation
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^a 1e\+304 s span at 1e\+300 Hz needs over "
                                                 r"2\*\*24 samples$"):
                resample_cubic_spline(np.array([1e304, 2e304]), np.array([1e307, 1e307]), 1e300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        with pytest.raises(ValueError, match=r"needs over 2\*\*24 samples$"):  # just past the cap
            resample_cubic_spline(np.array([0.0, 2.0**24 - 0.5]), np.array([1.0, 1.0]), 1.0)

    @settings(max_examples=50)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.5), min_size=2, max_size=20),
        st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=21, max_size=21),
    )
    def test_interpolation_property(self, gaps, values):
        t = np.concatenate([[0.0], np.cumsum(gaps)])
        y = np.array(values[: len(t)])
        rate_hz = 36.0 / (t[-1] - t[0])
        sig = resample_cubic_spline(t, y, rate_hz)
        grid = t[0] + np.arange(len(sig)) / rate_hz
        assert np.allclose(sig, natural_spline_eval(t, y, grid), rtol=1e-9, atol=1e-9)


class TestConditioning:
    def test_truncates_to_block(self):
        out = truncate_to_block(np.arange(150.0), 5)
        assert len(out) == 128
        assert np.array_equal(out, np.arange(128.0))

    def test_exact_multiple_untouched(self):
        sig = np.arange(128.0)
        out = truncate_to_block(sig, 5)
        assert np.array_equal(out, sig) and np.shares_memory(out, sig)
        assert len(truncate_to_block(np.arange(2.0), 1)) == len(truncate_to_block(sig[:2], 0)) == 2

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            truncate_to_block(np.arange(63.0), 6)
        with pytest.raises(ValueError, match="too short"):
            truncate_to_block(np.arange(1.0), 0)
        with pytest.raises(ValueError, match="depth must be >= 0"):
            truncate_to_block(np.arange(8.0), -1)
