import csv
import dataclasses
import io
import json
import re
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hrvwp
from hrvwp import PipelineConfig, RunReport, emit_report, run_pipeline
from hrvwp.ingest import Group
from hrvwp.pipeline import AnovaReport, RecordingReport, load_manifest
from hrvwp.cli import main
from conftest import balanced_spec, synthetic_rr


@pytest.fixture(scope="module")
def balanced_report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("balanced")
    data = tmp / "data"
    data.mkdir()
    lines = ["path,subject_id,group"]
    for subject_id, group, rr in balanced_spec():
        (data / f"{subject_id}.txt").write_text(
            "\n".join(f"{v:.6f}" for v in rr) + "\n"
        )
        lines.append(f"data/{subject_id}.txt,{subject_id},{group}")
    manifest = tmp / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest, run_pipeline(manifest, PipelineConfig())


class TestConfig:
    def test_defaults_are_reference_configuration(self):
        echo = json.loads(RunReport(config=PipelineConfig(), recordings=(), anova=()).to_json())
        assert echo["config"] == {
            "rate_hz": 4.0, "wavelet_order": 4, "depth": 6,
            "lf_band_hz": [0.03125, 0.15625], "hf_band_hz": [0.15625, 0.40625],
            "mad_source": "per-band", "standardize_anova": False,
        }

    def test_round_trip(self):
        config = PipelineConfig(rate_hz=8.0, depth=4, mad_source="first-level")
        report = RunReport(config=config, recordings=(), anova=())
        assert RunReport.from_json(report.to_json(), report.coefficients()).config == config

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate_hz": 0.0},
            {"wavelet_order": 0},
            {"wavelet_order": 11},
            {"depth": -1},
            {"lf_band_hz": (0.2, 0.1)},
            {"mad_source": "global"},
            {"mad_source": "first-level", "depth": 0},
            {"wavelet_order": 4.5},
            {"depth": 5.0},
            {"depth": True},
            {"depth": 25},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)


class TestManifest:
    def test_missing_header(self, tmp_path):
        bad = tmp_path / "m.csv"
        bad.write_text("file,id,label\nx.txt,a,Control\n")
        with pytest.raises(ValueError, match="header"):
            load_manifest(bad)

    def test_empty_manifest(self, tmp_path):
        empty = tmp_path / "m.csv"
        empty.write_text("path,subject_id,group\n")
        with pytest.raises(ValueError, match="no recordings"):
            load_manifest(empty)

    def test_relative_paths_resolve_against_manifest_dir(self, write_dataset):
        manifest = write_dataset([("s0", "Control", synthetic_rr(200, seed=1))])
        ((path, subject, group),) = load_manifest(manifest)
        assert path.endswith("data/s0.txt")
        assert subject == "s0"

    def test_duplicate_subjects_rejected(self, tmp_path, write_dataset):
        manifest = write_dataset([("s0", "Control", synthetic_rr(200, seed=1))])
        text = manifest.read_text()
        manifest.write_text(text + text.splitlines()[1] + "\n")
        with pytest.raises(ValueError, match="unique"):
            run_pipeline(manifest, PipelineConfig())

    def test_band_dump_name_collision_rejected(self, write_dataset, tmp_path, capsys):
        # "a b" and "a_b" would both write bands_a_b.csv, one over the other
        manifest = write_dataset([("a b", "Control", synthetic_rr(300, seed=1)),
                                  ("a_b", "VT", synthetic_rr(300, seed=2))])
        with pytest.raises(ValueError, match="'a b' and 'a_b'.*bands_a_b.csv"):
            run_pipeline(manifest, PipelineConfig())
        out = tmp_path / "collide_out"
        assert main(["--manifest", str(manifest), "--out", str(out)]) == 2
        assert "bands_a_b.csv" in capsys.readouterr().err
        assert not out.exists()
        # "A" and "a" share bands_A.csv on a case-insensitive filesystem
        manifest = write_dataset([("A", "Control", synthetic_rr(300, seed=1)),
                                  ("a", "VT", synthetic_rr(300, seed=2))])
        with pytest.raises(ValueError, match="'A' and 'a'"):
            run_pipeline(manifest, PipelineConfig())

    def test_short_row_reports_line(self, tmp_path):
        bad = tmp_path / "m.csv"
        bad.write_text("path,subject_id,group\nx.txt,a,Control\ny.txt,b\n")
        with pytest.raises(ValueError, match="row 3"):
            load_manifest(bad)

    def test_unknown_group_reports_line(self, tmp_path):
        bad = tmp_path / "m.csv"
        bad.write_text("path,subject_id,group\nx.txt,a,Healthy\n")
        with pytest.raises(ValueError, match="row 2.*unknown group"):
            load_manifest(bad)


class TestRunPipeline:
    def test_single_recording_skips_anova(self, write_dataset):
        manifest = write_dataset([("solo", "Control", synthetic_rr(300, seed=3))])
        report = run_pipeline(manifest, PipelineConfig())
        assert len(report.recordings) == 1
        assert report.recordings[0].status == "ok"
        assert report.recordings[0].features is not None
        for a in report.anova:
            assert a.status == "skipped"
            assert "insufficient design" in a.reason
        assert not report.all_ok

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

    def test_missing_file_isolated(self, write_dataset, tmp_path):
        manifest = write_dataset(
            [
                ("good1", "Control", synthetic_rr(300, seed=4)),
                ("good2", "VT", synthetic_rr(300, seed=5)),
            ]
        )
        text = manifest.read_text()
        manifest.write_text(text + "data/absent.txt,ghost,VF\n")
        report = run_pipeline(manifest, PipelineConfig())
        by_id = {r.subject_id: r for r in report.recordings}
        assert by_id["ghost"].status == "failed"
        assert "FileNotFoundError" in by_id["ghost"].error
        assert by_id["good1"].status == "ok"
        assert by_id["good2"].status == "ok"
        assert not report.all_ok

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
        report = run_pipeline(manifest, PipelineConfig())
        by_id = {r.subject_id: r for r in report.recordings}
        assert by_id["two"].status == by_id["one"].status == "ok"
        assert by_id["two"].features.e_lf == by_id["one"].features.e_lf

    def test_corrupt_file_isolated(self, write_dataset, tmp_path):
        manifest = write_dataset([("ok0", "Control", synthetic_rr(300, seed=6))])
        bad = tmp_path / "data" / "bad.txt"
        bad.write_text("800\noops\n")
        manifest.write_text(manifest.read_text() + "data/bad.txt,bad,VT\n")
        report = run_pipeline(manifest, PipelineConfig())
        by_id = {r.subject_id: r for r in report.recordings}
        assert by_id["bad"].status == "failed"
        assert "line 2" in by_id["bad"].error

    def test_undecodable_file_isolated(self, write_dataset, tmp_path):
        manifest = write_dataset([("ok0", "Control", synthetic_rr(300, seed=6))])
        (tmp_path / "data" / "latin1.txt").write_bytes(b"800\n8\xe910\n")
        manifest.write_text(manifest.read_text() + "data/latin1.txt,latin1,VT\n")
        report = run_pipeline(manifest, PipelineConfig())
        by_id = {r.subject_id: r for r in report.recordings}
        assert by_id["latin1"].status == "failed"
        assert "UnicodeDecodeError" in by_id["latin1"].error
        assert by_id["ok0"].status == "ok"

    def test_internal_error_propagates(self, write_dataset, monkeypatch):
        manifest = write_dataset([("ok0", "Control", synthetic_rr(300, seed=6))])

        def broken(*args, **kwargs):
            raise TypeError("internal bug")

        monkeypatch.setattr("hrvwp.pipeline.extract_features", broken)
        with pytest.raises(TypeError, match="internal bug"):
            run_pipeline(manifest, PipelineConfig())

    def test_unbalanced_design_skipped(self, write_dataset):
        spec = balanced_spec(per_group=2)[:5]  # 2+2+1 across the three groups
        manifest = write_dataset(spec)
        report = run_pipeline(manifest, PipelineConfig())
        for a in report.anova:
            assert a.status == "skipped"
            assert "unbalanced" in a.reason

    def test_unlabeled_recording_left_out_of_anova(self, write_dataset):
        spec = balanced_spec(per_group=2) + [("extra", "Unlabeled", synthetic_rr(300, seed=40))]
        report = run_pipeline(write_dataset(spec), PipelineConfig())
        assert [r.status for r in report.recordings] == ["ok"] * 7
        for a in report.anova:
            assert a.status == "ok"
            assert a.row_labels == ("Control", "VT", "VF") and a.replicates == 2

    def test_row_order_independence(self, write_dataset, tmp_path):
        spec = balanced_spec(per_group=2)
        manifest = write_dataset(spec)
        lines = manifest.read_text().strip().splitlines()
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("\n".join([lines[0]] + lines[1:][::-1]) + "\n")
        a = run_pipeline(manifest, PipelineConfig())
        b = run_pipeline(shuffled, PipelineConfig())
        assert a.to_json() == b.to_json()
        assert a.coefficients().tobytes() == b.coefficients().tobytes()

    def test_determinism(self, write_dataset):
        manifest = write_dataset([("r0", "Control", synthetic_rr(300, seed=8)),
                                  ("r1", "VT", synthetic_rr(300, seed=9))])
        a, b = (run_pipeline(manifest, PipelineConfig()) for _ in range(2))
        assert a.to_json() == b.to_json()
        assert a.coefficients().tobytes() == b.coefficients().tobytes()

    def test_mad_source_first_level_shares_noise_scale(self, write_dataset):
        manifest = write_dataset([("m0", "Control", synthetic_rr(300, seed=10))])
        per_band = run_pipeline(manifest, PipelineConfig()).recordings[0]
        first = run_pipeline(
            manifest, PipelineConfig(mad_source="first-level")
        ).recordings[0]
        assert first.bands[0].h == first.bands[1].h
        assert per_band.bands[0].h != per_band.bands[1].h
        # same coefficients either way, only the threshold moved
        assert per_band.bands[0].n == first.bands[0].n

    def test_transform_splits_only_the_band_ancestors(self, write_dataset, monkeypatch):
        # the 12 LF/HF leaves of a depth-6 tree need about 2.5 N input samples, the full tree 6 N
        sizes = []
        step = hrvwp.wavelet.analysis_step

        def counted(signal, bank):
            sizes.append(np.size(signal))
            return step(signal, bank)

        monkeypatch.setattr(hrvwp.wavelet, "analysis_step", counted)
        manifest = write_dataset([("w0", "Control", synthetic_rr(300, seed=11))])
        rec = run_pipeline(manifest, PipelineConfig()).recordings[0]
        assert rec.status == "ok" and len(sizes) == 6
        assert sum(sizes) <= 2.5 * rec.n_analyzed

    def test_report_round_trip(self, balanced_report):
        _, report = balanced_report
        assert RunReport.from_json(report.to_json(), report.coefficients()) == report

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
        coefficients = report.coefficients()
        payload = json.loads(report.to_json())
        assert payload["tool"] == {"name": "hrvwp", "version": hrvwp.__version__, "schema": 6}
        # schema 5: a recording's identity is stored once, beside its features
        assert list(payload["recordings"][0])[:2] == ["subject_id", "group"]
        assert list(payload["recordings"][0]["features"]) == [
            "std_lf", "mean_lf", "std_hf", "mean_hf", "e_lf", "e_hf", "r_e"]
        # schema 6: a band keeps its summaries, and its values live in coefficients.npy
        assert list(payload["recordings"][0]["bands"][0]) == [
            "band", "lam", "h", "n", "n_background", "n_significant",
            "energy_background", "energy_significant", "leaves"]
        payload["tool"]["schema"] = 4
        with pytest.raises(ValueError, match="schema 4"):
            RunReport.from_json(json.dumps(payload), coefficients)
        del payload["tool"]["schema"]
        with pytest.raises(ValueError, match="schema"):
            RunReport.from_json(json.dumps(payload), coefficients)

    def test_schema_5_report_rejected(self, balanced_report):
        # schema 5 held each band's values and significant positions in the JSON
        _, report = balanced_report
        payload = json.loads(report.to_json())
        payload["tool"]["schema"] = 5
        for rec, stored in zip(report.recordings, payload["recordings"]):
            for band, data in zip(rec.bands, stored["bands"]):
                data.update(values=band.values.tolist(), significant=band.significant.tolist())
        with pytest.raises(ValueError, match="report schema 5 is not readable, only schema 6"):
            RunReport.from_json(json.dumps(payload), np.empty(0))
        payload["tool"]["schema"] = 6
        with pytest.raises(ValueError, match="BandReport: unknown key 'values'"):
            RunReport.from_json(json.dumps(payload), report.coefficients())
        del payload["recordings"][0]["bands"][0]["values"]
        with pytest.raises(ValueError, match="BandReport: unknown key 'significant'"):
            RunReport.from_json(json.dumps(payload), report.coefficients())

    @pytest.mark.parametrize("edit,message", [
        (lambda d: d["recordings"][0]["bands"][0].pop("lam"), "BandReport: missing key 'lam'"),
        (lambda d: d["recordings"][0]["bands"][0].update(extra=1),
         "BandReport: unknown key 'extra'"),
        (lambda d: d.pop("tool"), "RunReport: missing key 'tool'"),
        (lambda d: d.update(extra=1), "RunReport: unknown key 'extra'"),
        (lambda d: d["config"].pop("depth"), "PipelineConfig: missing key 'depth'"),
        (lambda d: d["recordings"][0].update(features=[]),
         "FeatureVector: expected a JSON object, got list"),
        (lambda d: d["recordings"][0].update(bands={}), "expected a JSON array, got dict"),
        (lambda d: d.update(config=None), "PipelineConfig: expected a JSON object, got NoneType"),
        (lambda d: d["anova"][0]["table"].update(rows="x"), "expected a JSON array, got str"),
        (lambda d: d["recordings"][0].update(n_intervals="12"),
         "RecordingReport: key 'n_intervals': expected int, got str"),
        (lambda d: d["tool"].update(schema=6.0), "ToolInfo: key 'schema': expected int, got float"),
        (lambda d: d["config"].update(rate_hz="x"),
         "PipelineConfig: key 'rate_hz': expected float, got str"),
        (lambda d: d["config"].update(rate_hz=None),
         "PipelineConfig: key 'rate_hz': expected float, got NoneType"),
        (lambda d: d["config"].update(depth=True),
         "PipelineConfig: key 'depth': expected int, got bool"),
        (lambda d: d["recordings"][0]["bands"][0].update(lam=False),
         "BandReport: key 'lam': expected float, got bool"),
        (lambda d: d["config"].update(standardize_anova=0),
         "PipelineConfig: key 'standardize_anova': expected bool, got int"),
        (lambda d: d["recordings"][0].update(subject_id=7),
         "RecordingReport: key 'subject_id': expected str, got int"),
        (lambda d: d["config"]["lf_band_hz"].__setitem__(0, "0.03"),
         "PipelineConfig: key 'lf_band_hz': expected float, got str"),
        (lambda d: d["recordings"][0]["bands"][0]["leaves"].__setitem__(0, 1.0),
         "BandReport: key 'leaves': expected int, got float"),
        (lambda d: d["recordings"][0].update(group="Healthy"),
         "RecordingReport: key 'group': expected one of ['Control', 'VT', 'VF', 'Unlabeled'], "
         "got 'Healthy'"),
        (lambda d: d["recordings"][0].update(group=1),
         "RecordingReport: key 'group': expected one of ['Control', 'VT', 'VF', 'Unlabeled'], "
         "got 1"),
        (lambda d: d["recordings"][0]["bands"][0].pop("n"),
         "BandReport: key 'n': expected int, got NoneType"),
        (lambda d: d["recordings"][0]["bands"][0].update(n=1.5),
         "BandReport: key 'n': expected int, got float"),
        (lambda d: d["config"].update(depth=99),
         "RunReport: key 'config': PipelineConfig: depth must be in [0, 24]"),
        (lambda d: d["recordings"][0].update(error="OSError: edited"),
         "RunReport: key 'recordings': RecordingReport: an ok recording has features and "
         "bands, a failed one neither"),
        (lambda d: d["recordings"][0].update(features=None),
         "RunReport: key 'recordings': RecordingReport: an ok recording has features and "
         "bands, a failed one neither"),
    ], ids=["missing-band-key", "unknown-band-key", "missing-tool", "unknown-top-key",
            "missing-config-key", "features-not-object", "bands-not-array",
            "config-null", "rows-not-array", "int-as-string", "schema-as-float",
            "float-as-string", "float-null", "int-as-bool", "float-as-bool", "bool-as-int",
            "str-as-int", "tuple-item-kind", "leaf-as-float", "unknown-group",
            "group-as-number", "missing-band-n", "band-n-as-float", "config-check",
            "failed-row-keeps-results", "ok-row-without-features"])
    def test_report_keys_checked(self, balanced_report, edit, message):
        _, report = balanced_report
        payload = json.loads(report.to_json())
        edit(payload)
        with pytest.raises(ValueError, match=re.escape(message)):
            RunReport.from_json(json.dumps(payload), report.coefficients())

    def test_int_accepted_for_float(self, balanced_report):
        _, report = balanced_report
        payload = json.loads(report.to_json())
        payload["config"].update(rate_hz=4, lf_band_hz=[0, 0.15625])
        config = RunReport.from_json(json.dumps(payload), report.coefficients()).config
        assert config.rate_hz == 4.0
        assert config.lf_band_hz == (0.0, 0.15625)

    @pytest.mark.parametrize("text", ["[]", "3", '"report"', "null"])
    def test_report_not_an_object(self, text):
        with pytest.raises(ValueError, match="RunReport: expected a JSON object"):
            RunReport.from_json(text, np.empty(0))

    def test_stored_band_summaries_are_recomputed(self, balanced_report):
        # n is kept as stored: it says where the band's values sit in the vector
        _, report = balanced_report
        payload = json.loads(report.to_json())
        band = payload["recordings"][0]["bands"][0]
        band.update(n_background=-1, n_significant=-1, energy_background=-1.0,
                    energy_significant=-1.0)
        rebuilt = RunReport.from_json(json.dumps(payload), report.coefficients())
        assert rebuilt == report
        assert rebuilt.to_json() == report.to_json()

    @pytest.mark.parametrize("sign,message", [
        (-1, r"coefficients.npy holds (\d+) values, not (?!\1)\d+"),
        (1, "coefficients.npy holds no band of n="),
    ], ids=["short", "long"])
    def test_stored_band_n_must_fit_the_vector(self, balanced_report, sign, message):
        # one value per leaf more or fewer: the band itself stays well formed
        _, report = balanced_report
        payload = json.loads(report.to_json())
        band = payload["recordings"][-1]["bands"][-1]
        band["n"] += sign * len(band["leaves"])
        with pytest.raises(ValueError, match=message):
            RunReport.from_json(json.dumps(payload), report.coefficients())
        payload["recordings"][0]["bands"][0]["n"] = -4
        with pytest.raises(ValueError, match="coefficients.npy holds no band of n=-4 at 0"):
            RunReport.from_json(json.dumps(payload), report.coefficients())

    def test_stored_status_is_recomputed(self, balanced_report):
        # status follows from error (recording) and table (ANOVA); a stored
        # status is accepted as a key and ignored
        _, report = balanced_report
        payload = json.loads(report.to_json())
        payload["recordings"][0]["status"] = "maybe"
        payload["anova"][0]["status"] = "failed"
        rebuilt = RunReport.from_json(json.dumps(payload), report.coefficients())
        assert rebuilt == report and rebuilt.all_ok
        assert rebuilt.to_json() == report.to_json()
        rec, table = report.recordings[0], report.anova[0]
        assert (rec.status, table.status) == ("ok", "ok")
        failed = dataclasses.replace(rec, error="OSError: gone", features=None, bands=())
        assert failed.status == "failed"
        assert dataclasses.replace(table, table=None).status == "skipped"
        with pytest.raises(TypeError, match="status"):
            RecordingReport(subject_id="s", group=Group.VT, status="ok")
        with pytest.raises(TypeError, match="status"):
            AnovaReport("energy", status="ok")

    @pytest.mark.parametrize("lam", ["NaN", "Infinity", "-Infinity"])
    def test_stored_threshold_must_be_finite(self, balanced_report, lam):
        # json reads NaN and Infinity; a band split at such a threshold is meaningless
        _, report = balanced_report
        text = re.sub(r'"lam": [^,]*,', f'"lam": {lam},', report.to_json(), count=1)
        with pytest.raises(ValueError, match="RecordingReport: key 'bands': BandReport: "
                                             "threshold must be finite and non-negative"):
            RunReport.from_json(text, report.coefficients())

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


class TestEmit:
    def test_csv_outputs(self, balanced_report, tmp_path):
        _, report = balanced_report
        out = tmp_path / "out"
        written = emit_report(report, out)
        names = {p.name for p in written}
        assert "report.json" in names
        assert "features.csv" in names
        assert "anova_coefficient_stats.csv" in names
        assert "anova_energy.csv" in names
        assert "bands_control0.csv" in names
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
        with open(out / "bands_control0.csv", newline="") as fh:
            brows = list(csv.reader(fh))
        assert brows[0] == ["band", "node", "offset", "coefficient", "component"]
        assert {r[0] for r in brows[1:]} == {"LF", "HF"}
        assert {r[4] for r in brows[1:]} <= {"background", "significant"}
        assert {r[1] for r in brows[1:] if r[0] == "LF"} == {"1", "2", "3", "4"}

    # "%" in a name must reach the file as it is, not act as a format directive
    @pytest.mark.parametrize("names", [None, ('L,%sF', 'H"%F\r\n')], ids=["pipeline", "quoted"])
    def test_band_csv_bytes_match_csv_writer(self, write_dataset, tmp_path, names):
        rr = synthetic_rr(300, seed=30)
        rr[150:153] += 300.0  # a burst gives both bands significant coefficients
        report = run_pipeline(write_dataset([("spike", "Control", rr)]), PipelineConfig())
        (rec,) = report.recordings
        assert all(b.n_significant > 0 for b in rec.bands)
        if names is not None:  # band names that need quoting, as a read-back report may hold
            rec = dataclasses.replace(rec, bands=tuple(
                dataclasses.replace(b, band=name) for b, name in zip(rec.bands, names)))
            report = dataclasses.replace(report, recordings=(rec,))
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["band", "node", "offset", "coefficient", "component"])
        for band in rec.bands:
            leaf_len = band.n // len(band.leaves)
            significant = set(band.significant)
            for i, value in enumerate(band.values):
                writer.writerow([
                    band.band, band.leaves[i // leaf_len], i % leaf_len,
                    format(value, ".12g"),
                    "significant" if i in significant else "background",
                ])
        emit_report(report, tmp_path / "out")
        written = (tmp_path / "out" / "bands_spike.csv").read_bytes()
        assert written == buf.getvalue().encode("utf-8")

    def test_json_outputs(self, balanced_report, tmp_path):
        # report.json is the one JSON output, and it holds the features and
        # the ANOVA tables the CSV files mirror; the band values are in
        # coefficients.npy
        _, report = balanced_report
        out = tmp_path / "json_out"
        written = emit_report(report, out)
        assert [p.name for p in written if p.suffix == ".json"] == ["report.json"]
        assert out / "coefficients.npy" in written
        rebuilt = RunReport.read(out)
        assert rebuilt == report

    def test_all_failed_run_round_trips_with_an_empty_vector(self, write_dataset, tmp_path):
        manifest = write_dataset([("only", "Control", synthetic_rr(300, seed=12))])
        manifest.write_text("path,subject_id,group\ndata/missing.txt,gone,Control\n")
        report = run_pipeline(manifest, PipelineConfig())
        assert [r.status for r in report.recordings] == ["failed"]
        out = tmp_path / "failed_out"
        emit_report(report, out)
        vector = np.load(out / "coefficients.npy", allow_pickle=False)
        assert vector.dtype == np.float64 and vector.shape == (0,)
        assert RunReport.read(out) == report

    @pytest.mark.parametrize("edit,message", [
        (lambda v: v[:-1], "coefficients.npy holds no band of n="),
        (lambda v: np.append(v, 0.0), r"coefficients.npy holds (\d+) values, not (?!\1)\d+"),
        (lambda v: v.reshape(2, -1), "coefficients.npy must hold a 1-d float64 vector"),
        (lambda v: v.astype(np.int64), "coefficients.npy must hold a 1-d float64 vector"),
    ], ids=["one-short", "one-long", "2-d", "int64"])
    def test_read_rejects_a_wrong_vector(self, balanced_report, tmp_path, edit, message):
        _, report = balanced_report
        out = tmp_path / "bad_vector"
        emit_report(report, out)
        np.save(out / "coefficients.npy", edit(np.load(out / "coefficients.npy")))
        with pytest.raises(ValueError, match=message):
            RunReport.read(out)

    def test_read_names_the_schema_of_an_older_output_dir(self, balanced_report, tmp_path):
        # a schema-5 directory holds report.json only: the values were in the JSON
        _, report = balanced_report
        payload = json.loads(report.to_json())
        payload["tool"]["schema"] = 5
        out = tmp_path / "schema5"
        out.mkdir()
        (out / "report.json").write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match="report schema 5 is not readable"):
            RunReport.read(out)

    def test_read_rejects_a_pickled_vector(self, balanced_report, tmp_path):
        _, report = balanced_report
        out = tmp_path / "pickled"
        emit_report(report, out)
        vector = np.load(out / "coefficients.npy").astype(object)
        np.save(out / "coefficients.npy", vector, allow_pickle=True)
        with pytest.raises(ValueError, match="coefficients.npy: .*allow_pickle"):
            RunReport.read(out)
        with pytest.raises(ValueError, match="coefficients.npy must hold a 1-d float64 vector"):
            RunReport.from_json(report.to_json(), vector)

    def test_empty_feature_list_writes_header_only(self, write_dataset, tmp_path):
        manifest = write_dataset([("only", "Control", synthetic_rr(300, seed=12))])
        manifest.write_text(
            "path,subject_id,group\ndata/missing.txt,gone,Control\n"
        )
        report = run_pipeline(manifest, PipelineConfig())
        out = tmp_path / "empty_out"
        emit_report(report, out)
        with open(out / "features.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1

    def test_skipped_anova_writes_no_table(self, write_dataset, tmp_path):
        manifest = write_dataset([("a0", "Control", synthetic_rr(300, seed=13))])
        report = run_pipeline(manifest, PipelineConfig())
        written = emit_report(report, tmp_path / "skip_out")
        assert not any("anova" in p.name for p in written)

    def test_unwritable_output_dir(self, balanced_report, tmp_path):
        _, report = balanced_report
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the directory should go")
        with pytest.raises(OSError, match="cannot write report"):
            emit_report(report, blocker)


@pytest.fixture(scope="module")
def cli_reference(tmp_path_factory):
    """A balanced dataset plus one unreadable unlabeled row, and the CLI's output for it."""
    tmp = tmp_path_factory.mktemp("permuted")
    (tmp / "data").mkdir()
    rows = []
    for subject_id, group, rr in balanced_spec(per_group=2):
        (tmp / "data" / f"{subject_id}.txt").write_text("\n".join(f"{v:.6f}" for v in rr) + "\n")
        rows.append(f"data/{subject_id}.txt,{subject_id},{group}")
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
        captured = capsys.readouterr()
        assert code == 0
        assert "6 ok" in captured.out
        # the CLI's defaults are the reference configuration
        report = RunReport.read(tmp_path / "cli_out")
        assert report.config == PipelineConfig()

    def test_insufficient_design_exit_one(self, write_dataset, tmp_path, capsys):
        manifest = write_dataset([("one", "Control", synthetic_rr(300, seed=14))])
        code = main(["--manifest", str(manifest), "--out", str(tmp_path / "o1")])
        assert code == 1
        assert "skipped" in capsys.readouterr().out

    def test_missing_manifest_exit_two(self, tmp_path, capsys):
        code = main(["--manifest", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_config_exit_two(self, write_dataset, tmp_path, capsys):
        manifest = write_dataset([("c0", "Control", synthetic_rr(300, seed=15))])
        code = main(["--manifest", str(manifest), "--out", str(tmp_path / "o2"),
                     "--depth", "-3"])
        assert code == 2

    def test_huge_depth_exit_two_promptly(self, write_dataset, tmp_path, capsys):
        # a typo for --depth 6 is a prompt usage error, not a scan over 2**60 leaves
        manifest = write_dataset([("c0", "Control", synthetic_rr(300, seed=15))])
        start = time.perf_counter()
        code = main(["--manifest", str(manifest), "--out", str(tmp_path / "o4"),
                     "--depth", "60"])
        assert code == 2
        assert time.perf_counter() - start < 5.0
        assert "depth must be in [0, 24]" in capsys.readouterr().err

    def test_band_without_whole_leaf_exit_two(self, write_dataset, tmp_path, capsys):
        # at 8 Hz a depth-4 leaf spans 0.25 Hz, wider than the whole LF band
        manifest = write_dataset([("r0", "Control", synthetic_rr(300, seed=17))])
        code = main(["--manifest", str(manifest), "--out", str(tmp_path / "o3"),
                     "--rate", "8", "--depth", "4"])
        assert code == 2
        assert "no level-4 node fits" in capsys.readouterr().err

    def test_flag_overrides_reach_config(self, write_dataset, tmp_path):
        manifest = write_dataset([("f0", "Control", synthetic_rr(400, seed=16))])
        out = tmp_path / "cli_flags"
        code = main(["--manifest", str(manifest), "--out", str(out),
                     "--rate", "2", "--wavelet-order", "2", "--depth", "5",
                     "--mad-source", "first-level", "--standardize-anova"])
        assert code == 1  # single recording: anova skipped
        config = json.loads((out / "report.json").read_text())["config"]
        assert config["rate_hz"] == 2.0
        assert config["wavelet_order"] == 2
        assert config["depth"] == 5
        assert config["mad_source"] == "first-level"
        assert config["standardize_anova"] is True
