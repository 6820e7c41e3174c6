import csv
import ctypes
import dataclasses
import json
import os
import platform
import tempfile
import tracemalloc
import types
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hrvwp
from hrvwp import RunReport, emit_report, run_pipeline
from hrvwp.ingest import Group
from hrvwp.features import FeatureVector
from hrvwp.pipeline import (
    DEPTH, HF_BAND_HZ, HF_LEAVES, LF_BAND_HZ, LF_LEAVES, RATE_HZ, TAPS, WAVELET_ORDER,
    FEATURE_COLUMNS, AnovaReport, BandReport, RecordingReport, ToolInfo, _encode,
    load_manifest,
)
from hrvwp.stats import AnovaRow, AnovaTable, anova_two_way
from hrvwp.wavelet import band_nodes, daubechies_filters
from hrvwp.cli import main
from conftest import (
    SET_PAGES, balanced_spec, loop_faults, no_libc, synthetic_rr, write_dataset,
)


HEADER = "manifest must start with header path,subject_id,group"
UNKNOWN = "unknown group 'Healthy'; expected one of ['Control', 'VT', 'VF', 'Unlabeled']"
NOT_FINITE = "ValueError: non-positive or non-finite RR interval at position 2:"
# one RR file (None: no file) per way the README says a recording fails, and
# the error its report row carries
FAILING = [
    ("missing", None, "FileNotFoundError: [Errno 2] No such file or directory: '{path}'"),
    ("latin1", b"800\n8\xe910\n", "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xe9 "
                                   "in position 5: invalid continuation byte"),
    ("malformed", "800\n8x0\n", "RRParseError: line 2: non-numeric token '8x0'"),
    ("one-interval", "800\n", "ValueError: need at least 2 RR intervals, got 1"),
    ("zero-interval", "800\n0\n810\n", f"{NOT_FINITE} 0.0"),
    ("nan-interval", "800\nnan\n", f"{NOT_FINITE} nan"),
    # each interval is finite, but their sum is not
    ("huge-intervals", "1e308\n1e308\n800\n",
     "ValueError: beat times overflow: the RR intervals sum past the float range"),
    ("huge-span", "800\n1e12\n800\n",
     "ValueError: a 1e+09 s span at 4.0 Hz needs over 2**24 samples"),
    ("spline-overflow", "1.0 1e-274\n1.0 1e-289\n1.0 1000.0\n",
     "ValueError: spline values overflow: knots too close for the change in their values"),
    ("short", "800\n" * 15,
     "ValueError: signal of 45 samples too short for depth 6 (needs at least 64)"),
]


def _rr_value(x):
    """10**x ms for x in [-320, 303.5], the decades from 1e6 to 10**10.5 ms cut out."""
    return repr(10.0 ** (x if x <= 6.0 else x + 4.5))


@st.composite
def rr_files(draw):
    """The text of an RR file: up to 40 lines of 1 to 3 tokens, some non-finite.

    Values are log-uniform over four decades around a drawn centre, or over the
    whole range, from 1e-320 to 1e308 ms. At most 40 values up to 1e6 ms span
    fewer than 1.6e5 samples at 4 Hz; one value past 10**10.5 ms after the first
    spans more than 2**24, so no drawn file allocates near that cap.
    """
    centre = draw(st.floats(-320.0, 303.5))
    spread = draw(st.sampled_from([2.0, 624.0]))
    value = st.floats(max(-320.0, centre - spread), min(303.5, centre + spread)).map(_rr_value)
    columns = draw(st.integers(1, 3))
    lines = draw(st.lists(st.lists(value, min_size=columns, max_size=3), max_size=40))
    for _ in range(draw(st.integers(0, 2)) if lines else 0):
        tokens = draw(st.sampled_from(lines))
        at = draw(st.integers(0, len(tokens) - 1))
        tokens[at] = draw(st.sampled_from(["nan", "inf", "-inf"]))
    return "".join(" ".join(tokens) + "\n" for tokens in lines)


@pytest.fixture(scope="module")
def balanced_report(tmp_path_factory):
    manifest = write_dataset(tmp_path_factory.mktemp("balanced"), balanced_spec())
    return manifest, run_pipeline(manifest)


def with_failing(manifest):
    """Put FAILING's k-th row after manifest's (k+1)-th, its file in data/; return the lines."""
    lines = manifest.read_text().splitlines()
    for k, (name, content, _) in enumerate(FAILING):
        if content is not None:
            data = content if isinstance(content, bytes) else content.encode()
            (manifest.parent / "data" / f"{name}.txt").write_bytes(data)
        lines.insert(2 + 2 * k, f"data/{name}.txt,{name},VT")
    manifest.write_text("\n".join(lines) + "\n")
    return lines


@pytest.fixture(scope="module")
def failing_batch(tmp_path_factory):
    """FAILING's rows between the 12 ok rows of a balanced design, run as one batch."""
    manifest = write_dataset(tmp_path_factory.mktemp("failing"), balanced_spec(per_group=4))
    with_failing(manifest)
    return manifest, run_pipeline(manifest)


def _report_dataclasses(tp, seen):
    """Every dataclass reachable from annotation tp through field annotations."""
    if dataclasses.is_dataclass(tp) and tp not in seen:
        seen.add(tp)
        for f in dataclasses.fields(tp):
            assert not isinstance(f.type, str), f"{tp.__name__}.{f.name}: {f.type!r}"
            _report_dataclasses(f.type, seen)
    for arg in typing.get_args(tp):
        _report_dataclasses(arg, seen)
    return seen


def _instances(value):
    """Every dataclass instance within a report value, value itself included."""
    if dataclasses.is_dataclass(value):
        yield value
        for f in dataclasses.fields(value):
            yield from _instances(getattr(value, f.name))
    elif isinstance(value, tuple):
        for item in value:
            yield from _instances(item)


def _assert_report_files(out, report):
    """report.json and coefficients.npy under out hold report, byte for byte."""
    assert (out / "report.json").read_text(encoding="utf-8") == report.to_json() + "\n"
    vector = np.load(out / "coefficients.npy", allow_pickle=False)
    assert vector.dtype == np.float64 and vector.ndim == 1
    assert vector.tobytes() == report.coefficients().tobytes()


class TestConfig:
    def test_constants_are_the_reference_configuration(self):
        # the paper's 4 Hz grid and depth-6 db4 tree; LF and HF are leaves 1-4 and 5-12
        assert (RATE_HZ, WAVELET_ORDER, DEPTH) == (4.0, 4, 6)
        assert LF_LEAVES == (1, 2, 3, 4)
        assert HF_LEAVES == tuple(range(5, 13))
        assert tuple(band_nodes(LF_BAND_HZ, DEPTH, RATE_HZ)) == LF_LEAVES
        assert tuple(band_nodes(HF_BAND_HZ, DEPTH, RATE_HZ)) == HF_LEAVES
        assert np.array_equal(TAPS, daubechies_filters(4))
        assert not TAPS.flags.writeable


class TestManifest:
    @pytest.mark.parametrize("text, message", [
        ("file,id,label\nx.txt,a,Control\n", HEADER),
        # csv keeps the spaces in the keys, so every row would miss its columns
        ("path, subject_id, group\nx.txt,a,Control\n", HEADER),
        ("path,subject_id,group\n", "manifest {path} lists no recordings"),
        ("path,subject_id,group\nx.txt,a,Control\ny,b\n", "manifest line 3: expected 3 columns"),
        ("path,subject_id,group\nx.txt,a,Control\ny.txt,b,VT,extra\n",
         "manifest line 3: expected 3 columns"),
        # an empty path would resolve to the manifest's directory
        ("path,subject_id,group\n ,a,Control\ny.txt,b,VT\n", "manifest line 2: empty path"),
        ("path,subject_id,group\nx.txt,a,Control\ny.txt,  ,VT\n",
         "manifest line 3: empty subject_id"),
        ("path,subject_id,group\nx.txt,a,Healthy\n", f"manifest line 2: {UNKNOWN}"),
        # the quoted path spans lines 2-3, so the bad row is line 4, not record 3
        ('path,subject_id,group\n"a\nb.txt",s1,Control\nx.txt,s2,Healthy\n',
         f"manifest line 4: {UNKNOWN}"),
    ], ids=["wrong-header", "spaced-header", "no-rows", "short-row", "long-row", "empty-path",
            "empty-subject", "unknown-group", "line-after-a-quoted-line-break"])
    def test_rejected(self, tmp_path, text, message):
        manifest = tmp_path / "m.csv"
        manifest.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_manifest(manifest)
        assert str(err.value) == message.format(path=manifest)

    def test_duplicate_subjects_rejected(self, tmp_path, write_dataset):
        manifest = write_dataset([("s0", "Control", synthetic_rr(200, seed=1))])
        text = manifest.read_text()
        manifest.write_text(text + text.splitlines()[1] + "\n")
        with pytest.raises(ValueError, match="unique"):
            run_pipeline(manifest)

    def test_repeated_subject_reports_line(self, tmp_path):
        # ids are compared after stripping, as they are stored
        bad = tmp_path / "m.csv"
        bad.write_text("path,subject_id,group\nx.txt,a,Control\ny.txt,b,VT\nz.txt, a ,VF\n")
        with pytest.raises(ValueError) as err:
            load_manifest(bad)
        assert str(err.value) == "manifest line 4: subject_id 'a' is not unique"

    def test_malformed_csv_is_an_error_line(self, tmp_path, capsys):
        # a field past csv's 131072-character limit is malformed CSV, not a crash
        bad = tmp_path / "m.csv"
        bad.write_text(f"path,subject_id,group\n{'x' * 200_000}.txt,a,Control\n")
        assert main(["--manifest", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: manifest line 2: field larger")

    def test_non_utf8_manifest_names_the_file(self, tmp_path, capsys):
        # no line is claimed: a decode error's byte position is within a read chunk
        bad = tmp_path / "m.csv"
        bad.write_bytes(b"path,subject_id,group\nx.txt,\xff,Control\n")
        assert main(["--manifest", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: manifest {bad} is not UTF-8 text\n"

    def test_relative_paths_resolve_against_manifest_dir(self, write_dataset):
        manifest = write_dataset([("s0", "Control", synthetic_rr(200, seed=1))])
        ((path, subject, group),) = load_manifest(manifest)
        assert path.endswith("data/s0.txt")
        assert subject == "s0"

    def test_absolute_paths_kept(self, tmp_path):
        recording = tmp_path / "elsewhere" / "x.txt"
        (tmp_path / "sub").mkdir()
        manifest = tmp_path / "sub" / "m.csv"
        manifest.write_text(f"path,subject_id,group\n{recording},a,Control\n")
        ((path, _, _),) = load_manifest(manifest)
        assert path == str(recording)

    @pytest.mark.parametrize("pair", [("a b", "a_b"), ("A", "a")], ids=["punctuation", "case"])
    def test_ids_alike_after_case_or_punctuation_both_run(self, write_dataset, tmp_path, pair):
        # only an exact duplicate is rejected: no output file is named after a subject
        manifest = write_dataset([(pair[0], "Control", synthetic_rr(300, seed=1)),
                                  (pair[1], "VT", synthetic_rr(300, seed=2))])
        out = tmp_path / "out"
        assert main(["--manifest", str(manifest), "--out", str(out)]) == 1  # ANOVA skipped
        with open(out / "features.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[0] for row in rows] == sorted(pair)  # one row per ok recording

    def test_blank_lines_skipped(self, tmp_path):
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,subject_id,group\n\nx.txt,a,Control\n\n\ny.txt,b,VT\n\n")
        rows = load_manifest(manifest)
        assert rows == [(str(tmp_path / "x.txt"), "a", Group.CONTROL),
                        (str(tmp_path / "y.txt"), "b", Group.VT)]


class TestRunPipeline:
    def test_balanced_design_df(self, balanced_report):
        _, report = balanced_report
        stats_table = report.anova[0]
        assert stats_table.name == "coefficient_stats"
        assert stats_table.status == "ok"
        assert stats_table.column_labels == ("STDLF", "MEANLF", "STDHF", "MEANHF")
        assert stats_table.row_labels == ("Control", "VT", "VF")
        assert [r.df for r in stats_table.table.rows] == [3, 2, 6, 24, 35]
        energy_table = report.anova[1]
        assert energy_table.column_labels == ("E_LF", "E_HF", "R_E")
        assert [r.df for r in energy_table.table.rows] == [2, 2, 4, 18, 26]
        assert report.all_ok

    def test_identical_replicates_skip_both_tables(self, write_dataset, tmp_path):
        # two copies of one file per group: each cell mean is exact, so the
        # error mean square is exactly 0 and no F ratio is defined
        manifest = write_dataset([(f"{g.lower()}{i}", g, synthetic_rr(300, seed=k))
                                  for k, g in enumerate(("Control", "VT", "VF"))
                                  for i in range(2)])
        report = run_pipeline(manifest)
        assert not report.all_ok
        assert [(a.status, a.reason) for a in report.anova] == [
            ("skipped", "error mean square is zero; F is undefined")] * 2
        out = tmp_path / "out"
        assert main(["--manifest", str(manifest), "--out", str(out)]) == 1
        assert (out / "report.json").exists() and not list(out.glob("anova_*.csv"))

    def test_anova_columns_hold_their_features(self, balanced_report):
        # a two-way ANOVA is blind to column order, so only a column fed from
        # the wrong feature shows; each grid is rebuilt here from its labels
        _, report = balanced_report
        feature = {"STDLF": "std_lf", "MEANLF": "mean_lf", "STDHF": "std_hf",
                   "MEANHF": "mean_hf", "E_LF": "e_lf", "E_HF": "e_hf", "R_E": "r_e"}
        for a in report.anova:
            grid = [[[getattr(r.features, feature[col]) for r in report.recordings
                      if r.group.value == group] for col in a.column_labels]
                    for group in a.row_labels]
            expected = anova_two_way(grid)
            for row, want in zip(a.table.rows, expected.rows, strict=True):
                assert row.ss == pytest.approx(want.ss, rel=1e-12)
                assert (row.f is None) == (want.f is None)
                if row.f is not None:
                    assert row.f == pytest.approx(want.f, rel=1e-12)
                    assert row.p == pytest.approx(want.p, rel=1e-12)

    @pytest.mark.parametrize("name, content, error", FAILING, ids=[row[0] for row in FAILING])
    def test_failing_recording_isolated(self, failing_batch, name, content, error):
        # the row carries its error; the rows around it and both ANOVA tables run
        manifest, report = failing_batch
        by_id = {r.subject_id: r for r in report.recordings}
        assert by_id[name].error == error.format(path=manifest.parent / "data" / f"{name}.txt")
        assert sum(r.status == "ok" for r in report.recordings) == 12
        assert [a.status for a in report.anova] == ["ok", "ok"] and not report.all_ok

    def test_two_column_input_format(self, tmp_path):
        rr = synthetic_rr(300, seed=20)
        times = np.cumsum(rr) / 1000.0
        data = tmp_path / "data"
        data.mkdir()
        (data / "two_col.txt").write_text(
            "\n".join(f"{t:.6f} {v:.6f}" for t, v in zip(times, rr)) + "\n"
        )
        (data / "one_col.txt").write_text("\n".join(f"{v:.6f}" for v in rr) + "\n")
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "path,subject_id,group\n"
            "data/two_col.txt,two,Control\n"
            "data/one_col.txt,one,Control\n"
        )
        report = run_pipeline(manifest)
        by_id = {r.subject_id: r for r in report.recordings}
        assert by_id["two"].status == by_id["one"].status == "ok"
        assert by_id["two"].features.e_lf == by_id["one"].features.e_lf

    @pytest.mark.parametrize("text", ["800\n1e12\n800\n"], ids=["grid-of-4e9-samples"])
    def test_oversized_grid_isolated(self, tmp_path, text):
        (tmp_path / "long.txt").write_text(text)
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,subject_id,group\nlong.txt,long,VT\n")
        tracemalloc.start()
        try:
            (rec,) = run_pipeline(manifest).recordings
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec.error.startswith("ValueError: a ")
        assert rec.error.endswith(" Hz needs over 2**24 samples")
        assert peak < 2**20  # refused before the grid is allocated

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rr_files())
    def test_no_exception_escapes_a_recording(self, tmp_path, text):
        (tmp_path / "drawn.txt").write_text(text)
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,subject_id,group\ndrawn.txt,drawn,VT\n")
        (rec,) = run_pipeline(manifest).recordings
        if rec.status == "ok":
            assert np.all(np.isfinite(dataclasses.astuple(rec.features)))

    def test_internal_error_propagates(self, write_dataset, monkeypatch):
        manifest = write_dataset([("ok0", "Control", synthetic_rr(300, seed=6))])

        def broken(*args, **kwargs):
            raise TypeError("internal bug")

        monkeypatch.setattr("hrvwp.pipeline.extract_features", broken)
        with pytest.raises(TypeError, match="internal bug"):
            run_pipeline(manifest)

    def test_unbalanced_design_skipped(self, write_dataset):
        spec = balanced_spec(per_group=2)[:5]  # 2+2+1 across the three groups
        manifest = write_dataset(spec)
        report = run_pipeline(manifest)
        for a in report.anova:
            assert a.status == "skipped"
            assert "unbalanced" in a.reason

    def test_two_groups_are_a_design(self, write_dataset):
        spec = [row for row in balanced_spec(per_group=2) if row[1] != "VF"]
        report = run_pipeline(write_dataset(spec))
        assert [(a.status, a.row_labels) for a in report.anova] == [("ok", ("Control", "VT"))] * 2

    def test_unlabeled_recording_left_out_of_anova(self, write_dataset):
        spec = balanced_spec(per_group=2) + [("extra", "Unlabeled", synthetic_rr(300, seed=40))]
        report = run_pipeline(write_dataset(spec))
        assert [r.status for r in report.recordings] == ["ok"] * 7
        for a in report.anova:
            assert a.status == "ok"
            assert a.row_labels == ("Control", "VT", "VF") and a.replicates == 2

    @pytest.mark.parametrize("budget", [None, 1000], ids=["default-chunks", "1000-intervals"])
    def test_chunking_cannot_change_a_result(self, write_dataset, tmp_path, monkeypatch, budget):
        # recordings of 250-450 beats give padded spline stacks and several
        # signal lengths per chunk; the failing rows sit between and after them
        beats = np.random.default_rng(3).integers(250, 451, 9)
        spec = [(f"r{k}", "VT", synthetic_rr(int(n), seed=20 + k)) for k, n in enumerate(beats)]
        manifest = write_dataset(spec)
        lines = with_failing(manifest)
        stacks = []
        solve = hrvwp.pipeline.spline_moments
        monkeypatch.setattr("hrvwp.pipeline.spline_moments",
                            lambda splines: stacks.append(len(splines)) or solve(splines))
        if budget is not None:
            monkeypatch.setattr("hrvwp.pipeline.CHUNK_INTERVALS", budget)

        def row(rec):
            return (rec.status, rec.error, rec.n_intervals, rec.n_resampled, rec.n_analyzed,
                    rec.features, [(b.band, b.lam, b.values.tobytes()) for b in rec.bands])

        batch = run_pipeline(manifest).recordings
        chunks, stacks[:] = list(stacks), []
        assert sum(chunks) == len(spec) + 2  # every spline but the refused ones
        assert len(chunks) == (1 if budget is None else 5)
        for rec, line in zip(batch, sorted(lines[1:], key=lambda ln: ln.split(",")[1])):
            alone = tmp_path / f"{rec.subject_id}.csv"
            alone.write_text(f"{lines[0]}\n{line}\n")
            assert row(rec) == row(run_pipeline(alone).recordings[0]), rec.subject_id
        assert {r.subject_id for r in batch if r.status == "failed"} == {r[0] for r in FAILING}

    def test_transform_splits_only_the_band_ancestors(self, write_dataset, monkeypatch):
        # the 12 LF/HF leaves of a depth-6 tree need about 2.5 N input samples, the full tree 6 N
        sizes = []
        step = hrvwp.wavelet.analysis_step

        def counted(signal, taps):
            sizes.append(np.size(signal))
            return step(signal, taps)

        monkeypatch.setattr(hrvwp.wavelet, "analysis_step", counted)
        manifest = write_dataset([("w0", "Control", synthetic_rr(300, seed=11))])
        rec = run_pipeline(manifest).recordings[0]
        assert rec.status == "ok" and len(sizes) == 6
        assert sum(sizes) <= 2.5 * rec.n_analyzed

    def test_coefficients_are_the_band_values_in_report_order(self, balanced_report):
        _, report = balanced_report
        vector = report.coefficients()
        assert vector.dtype == np.float64 and vector.ndim == 1
        bands = [b for r in report.recordings for b in r.bands]
        assert [b.band for b in bands[:2]] == ["LF", "HF"]
        ends = np.cumsum([b.n for b in bands])
        for band, part in zip(bands, np.split(vector, ends[:-1])):
            assert np.array_equal(part, band.values)
        assert vector.size == ends[-1]

    def test_report_schema_version(self, balanced_report):
        _, report = balanced_report
        assert report.to_json().startswith('{\n  "tool": {\n    "name": "hrvwp",')  # indent 2
        payload = json.loads(report.to_json())
        assert payload["tool"] == {"name": "hrvwp", "version": hrvwp.__version__, "schema": 8}
        with pytest.raises(TypeError):  # the label always names the layout written
            RunReport(tool=ToolInfo(schema=7), recordings=(), anova=())
        # schema 8: no echo of the analysis configuration
        assert list(payload) == ["tool", "recordings", "anova"]
        # schema 5: a recording's identity is stored once, beside its features
        assert list(payload["recordings"][0])[:2] == ["subject_id", "group"]
        assert list(payload["recordings"][0]["features"]) == [
            "std_lf", "mean_lf", "std_hf", "mean_hf", "e_lf", "e_hf", "r_e"]
        # schema 6: a band keeps its summaries, and its values live in coefficients.npy
        assert list(payload["recordings"][0]["bands"][0]) == [
            "band", "lam", "h", "n", "n_background", "n_significant",
            "energy_background", "energy_significant", "leaves"]

    def test_json_keys_are_the_non_array_fields(self, balanced_report):
        # the writer's one rule, by annotation: a field annotated np.ndarray is
        # no JSON key, and every other field is one, in field order
        classes = _report_dataclasses(RunReport, set())
        assert classes == {RunReport, ToolInfo, RecordingReport, FeatureVector, BandReport,
                           AnovaReport, AnovaTable, AnovaRow}
        _, report = balanced_report
        failed = RecordingReport("gone", Group.CONTROL, error="OSError: gone")
        report = dataclasses.replace(report, recordings=(report.recordings[0], failed))
        seen, left_out = set(), set()
        for obj in _instances(report):
            seen.add(type(obj))
            names, keys = [f.name for f in dataclasses.fields(obj)], list(_encode(obj))
            assert keys == [name for name in names if name in keys]
            left_out |= {(type(obj), name) for name in names if name not in keys}
        assert seen == classes
        assert left_out == {(BandReport, "values"), (BandReport, "significant")}
        assert {f.name for f in dataclasses.fields(BandReport)
                if f.type is np.ndarray} == {"values", "significant"}

    def test_status_is_derived(self, balanced_report):
        # status follows from error (recording) and table (ANOVA), and is no argument
        _, report = balanced_report
        rec, table = report.recordings[0], report.anova[0]
        assert (rec.status, table.status) == ("ok", "ok")
        failed = dataclasses.replace(rec, error="OSError: gone", features=None, bands=())
        assert failed.status == "failed"
        assert dataclasses.replace(table, table=None).status == "skipped"
        with pytest.raises(TypeError, match="status"):
            RecordingReport(subject_id="s", group=Group.VT, status="ok")
        with pytest.raises(TypeError, match="status"):
            AnovaReport("energy", status="ok")

    @pytest.mark.parametrize("error,with_features", [
        ("OSError: gone", True), (None, False), (None, True),
    ], ids=["failed-with-features", "ok-without-bands", "features-without-bands"])
    def test_recording_result_checked(self, balanced_report, error, with_features):
        # an ok recording has features and bands, a failed one neither; no case has bands
        rec = balanced_report[1].recordings[0]
        with pytest.raises(ValueError, match="an ok recording has features and bands"):
            RecordingReport(rec.subject_id, rec.group, error=error,
                            features=rec.features if with_features else None)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf")],
                             ids=["NaN", "Infinity", "-Infinity"])
    def test_stored_threshold_must_be_finite(self, balanced_report, lam):
        # json would write NaN and Infinity; a band split at such a threshold is
        # refused when it is built, so none reaches report.json
        _, report = balanced_report
        band = report.recordings[0].bands[0]
        with pytest.raises(ValueError, match="threshold must be finite and non-negative"):
            BandReport(band.band, lam, band.h, band.leaves, band.values)

    def test_recording_counts(self, balanced_report):
        _, report = balanced_report
        rec = report.recordings[0]
        assert rec.n_analyzed % 64 == 0
        assert rec.n_analyzed <= rec.n_resampled
        lf, hf = rec.bands
        assert lf.band == "LF" and hf.band == "HF"
        assert lf.n == rec.n_analyzed // 64 * 4
        assert hf.n == rec.n_analyzed // 64 * 8
        assert lf.n_background + lf.n_significant == lf.n
        assert len(lf.values) == lf.n


class TestKeepFreedBuffers:
    # run_pipeline sets glibc's thresholds before it reads the manifest, so a
    # missing manifest still sets them; the CLI gets them only through it

    def test_sets_the_documented_thresholds(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(
            mallopt=lambda *args: calls.append(args)))
        with pytest.raises(FileNotFoundError):
            run_pipeline(tmp_path / "missing.csv")
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's allocator only")
    def test_keeps_freed_buffers_in_the_heap(self, tmp_path):
        # the first set's first touch is then the only fault of the loop
        missing = str(tmp_path / "missing.csv")
        applied = loop_faults(
            "from hrvwp import run_pipeline\n"
            f"try:\n    run_pipeline({missing!r})\n"
            "except FileNotFoundError:\n    pass\n"
            "else:\n    raise AssertionError('a missing manifest ran')")
        assert applied < 1.5 * SET_PAGES

    @pytest.mark.parametrize("cdll", [no_libc, lambda name: types.SimpleNamespace()],
                             ids=["no-library", "no-mallopt"])
    def test_runs_without_mallopt(self, write_dataset, monkeypatch, cdll):
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        report = run_pipeline(write_dataset([("only", "Control", synthetic_rr(300, seed=12))]))
        assert [r.status for r in report.recordings] == ["ok"]


class TestEmit:
    def test_csv_outputs(self, balanced_report, tmp_path):
        _, report = balanced_report
        out = tmp_path / "out"
        written = emit_report(report, out)
        assert {p.name for p in written} == {
            "report.json", "coefficients.npy", "features.csv",
            "anova_coefficient_stats.csv", "anova_energy.csv"}
        assert {p.name for p in out.iterdir()} == {p.name for p in written}
        with open(out / "anova_coefficient_stats.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["Source", "SS", "df", "MS", "F", "p"]
        assert [r[0] for r in rows[1:]] == ["Columns", "Rows", "Interaction", "Error", "Total"]
        assert rows[4][4] == "" and rows[5][3] == ""  # no F for error, no MS for total
        with open(out / "features.csv", newline="") as fh:
            frows = list(csv.reader(fh))
        assert len(frows) == 1 + 9
        assert frows[0][:3] == ["subject_id", "group", "std_lf"]
        assert [row[:2] for row in frows[1:]] == sorted(
            [subject, group] for subject, group, _ in balanced_spec())
        # CSV numbers carry the 12 significant digits the README promises
        coeff = next(a for a in report.anova if a.name == "coefficient_stats")
        assert rows[1][1] == f"{coeff.table.rows[0].ss:.12g}"
        assert frows[1][2] == f"{report.recordings[0].features.std_lf:.12g}"

    def test_all_failed_run_round_trips_with_an_empty_vector(self, write_dataset, tmp_path):
        manifest = write_dataset([("only", "Control", synthetic_rr(300, seed=12))])
        manifest.write_text("path,subject_id,group\ndata/missing.txt,gone,Control\n")
        report = run_pipeline(manifest)
        assert [r.status for r in report.recordings] == ["failed"]
        out = tmp_path / "failed_out"
        emit_report(report, out)
        vector = np.load(out / "coefficients.npy", allow_pickle=False)
        assert vector.dtype == np.float64 and vector.shape == (0,)
        _assert_report_files(out, report)
        assert (out / "features.csv").read_text().splitlines() == [",".join(FEATURE_COLUMNS)]

    def test_skipped_anova_writes_no_table(self, balanced_report, write_dataset, tmp_path):
        # nor leaves one that an earlier, balanced run wrote into the same directory
        out = tmp_path / "skip_out"
        emit_report(balanced_report[1], out)
        manifest = write_dataset([("a0", "Control", synthetic_rr(300, seed=13))])
        report = run_pipeline(manifest)
        written = emit_report(report, out)
        assert not any("anova" in p.name for p in written)
        assert not list(out.glob("anova_*.csv"))

    @pytest.mark.parametrize("failing", ["coefficients", "report.json"])
    def test_failed_write_leaves_the_earlier_run(self, balanced_report, write_dataset,
                                                 tmp_path, monkeypatch, failing):
        # the new run's files go in under temporary names and are renamed only
        # once all are written, so a failure while writing the first of them
        # or the last one (report.json, after the CSVs) leaves the earlier
        # run's files byte for byte, its ANOVA CSVs (which this skipped run
        # would remove) included, and no temporary file
        out = tmp_path / "out"
        emit_report(balanced_report[1], out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        report = run_pipeline(write_dataset([("a0", "Control", synthetic_rr(300, seed=13))]))

        def fail(*args, **kwargs):
            raise OSError("no space left")

        if failing == "coefficients":
            monkeypatch.setattr(np, "save", fail)
        else:
            monkeypatch.setattr(RunReport, "to_json", fail)
        with pytest.raises(OSError, match="cannot write report .*no space left"):
            emit_report(report, out)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("earlier_balanced", [True, False],
                             ids=["skipped-over-balanced", "balanced-over-skipped"])
    def test_interrupted_emit_leaves_no_partial_run(self, balanced_report, write_dataset,
                                                    tmp_path, monkeypatch, earlier_balanced):
        # the k-th rename or removal fails, for every k of a clean emit: the
        # directory then holds the earlier run byte for byte, or no report.json
        skipped = run_pipeline(write_dataset([("a0", "Control", synthetic_rr(300, seed=13))]))
        earlier, report = ((balanced_report[1], skipped) if earlier_balanced
                           else (skipped, balanced_report[1]))
        real_replace, real_unlink = os.replace, Path.unlink

        def emit_failing_at(k, out):
            calls = []

            def counted(real):
                def call(*args, **kwargs):
                    calls.append(args)
                    if len(calls) - 1 == k:
                        raise OSError("disk pulled")
                    return real(*args, **kwargs)
                return call

            with monkeypatch.context() as patch:
                patch.setattr("hrvwp.pipeline.os.replace", counted(real_replace))
                patch.setattr(Path, "unlink", counted(real_unlink))
                emit_report(report, out)
            return len(calls)

        steps = emit_failing_at(None, tmp_path / "fresh")
        new = {p.name: p.read_bytes() for p in (tmp_path / "fresh").iterdir()}
        assert steps == 6  # remove report.json, 2 or 4 data renames, 2 or 0 removals, rename it
        emit_report(earlier, tmp_path / "over")
        emit_report(report, tmp_path / "over")
        assert {p.name: p.read_bytes() for p in (tmp_path / "over").iterdir()} == new
        for k in range(steps):
            out = tmp_path / f"fail{k}"
            emit_report(earlier, out)
            before = {p.name: p.read_bytes() for p in out.iterdir()}
            with pytest.raises(OSError, match="cannot write report .*disk pulled"):
                emit_failing_at(k, out)
            after = {p.name: p.read_bytes() for p in out.iterdir()}
            assert not any(name.endswith(".tmp") for name in after)
            assert "report.json" not in after or after == before, k

    def test_unwritable_output_dir(self, balanced_report, tmp_path, capsys):
        manifest, report = balanced_report
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the directory should go")
        with pytest.raises(OSError, match="cannot write report"):
            emit_report(report, blocker)
        assert main(["--manifest", str(manifest), "--out", str(blocker)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write report under {blocker}: ")


@pytest.fixture(scope="module")
def cli_reference(tmp_path_factory):
    """A balanced dataset plus one unreadable unlabeled row, and the CLI's output for it."""
    tmp = tmp_path_factory.mktemp("permuted")
    rows = write_dataset(tmp, balanced_spec(per_group=2)).read_text().splitlines()[1:]
    rows.append("data/absent.txt,ghost,Unlabeled")
    (tmp / "manifest.csv").write_text("\n".join(["path,subject_id,group", *rows]) + "\n")
    assert main(["--manifest", str(tmp / "manifest.csv"), "--out", str(tmp / "out")]) == 1
    reference = {p.name: p.read_bytes() for p in (tmp / "out").iterdir()}
    return tmp, rows, reference


@settings(max_examples=10, deadline=None)
@given(order=st.permutations(range(7)))
def test_manifest_row_order_leaves_output_bytes_alone(cli_reference, order):
    tmp, rows, reference = cli_reference
    manifest = tmp / "permuted.csv"
    manifest.write_text("\n".join(["path,subject_id,group", *(rows[i] for i in order)]) + "\n")
    with tempfile.TemporaryDirectory(dir=tmp) as out:
        main(["--manifest", str(manifest), "--out", out])
        assert {p.name: p.read_bytes() for p in Path(out).iterdir()} == reference


class TestCli:
    def test_full_run_exit_zero(self, write_dataset, tmp_path, capsys):
        manifest = write_dataset(balanced_spec(per_group=2))
        code = main(["--manifest", str(manifest), "--out", str(tmp_path / "cli_out")])
        out = tmp_path / "cli_out"
        assert code == 0
        assert capsys.readouterr().out == (
            "processed 6 recording(s): 6 ok, 0 failed\n"
            "anova coefficient_stats: ok (3 groups x 4 features x 2 subjects)\n"
            "anova energy: ok (3 groups x 3 features x 2 subjects)\n"
            f"wrote 5 file(s) to {out}\n")
        # the CLI runs the reference configuration: depth-6 blocks, leaves 1-4 and 5-12
        assert {p.name for p in out.iterdir()} == {
            "report.json", "coefficients.npy", "features.csv",
            "anova_coefficient_stats.csv", "anova_energy.csv"}
        recordings = json.loads((out / "report.json").read_text(encoding="utf-8"))["recordings"]
        assert len(recordings) == 6
        for rec in recordings:
            assert rec["n_analyzed"] % 64 == 0
            assert [b["leaves"] for b in rec["bands"]] == [[1, 2, 3, 4], list(range(5, 13))]
        vector = np.load(out / "coefficients.npy", allow_pickle=False)
        assert vector.size == sum(b["n"] for rec in recordings for b in rec["bands"])

    def test_insufficient_design_exit_one(self, write_dataset, tmp_path, capsys):
        manifest = write_dataset([("one", "Control", synthetic_rr(300, seed=14))])
        manifest.write_text(manifest.read_text() + "data/absent.txt,ghost,VT\n")
        code = main(["--manifest", str(manifest), "--out", str(tmp_path / "o1")])
        assert code == 1
        skipped = "skipped (insufficient design: needs >= 2 labeled groups)"
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "processed 2 recording(s): 1 ok, 1 failed"
        assert lines[1].startswith("  failed ghost: FileNotFoundError: ")
        assert lines[2:] == [f"anova coefficient_stats: {skipped}", f"anova energy: {skipped}",
                             f"wrote 3 file(s) to {tmp_path / 'o1'}"]
