"""The whole chain against an independent implementation of it, perfbench/oracle.py.

The oracle imports no hrvwp: it reads the RR files with np.loadtxt and runs
scipy's natural CubicSpline, the published db4 taps, a whole-level np.roll
transform, np.median thresholds and scipy's fdtrc. It is loaded by file path,
and compared at the tolerances of the benchmark's output check.
"""

import csv
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from hrvwp import run_pipeline
from hrvwp.cli import main
from conftest import balanced_spec, write_dataset

ORACLE = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
REL_TOL, ABS_TOL = 1e-9, 1e-300


def load_oracle():
    spec = importlib.util.spec_from_file_location("oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = load_oracle()


def features_off(got, want):
    """The names of the features of got that differ from want by more than REL_TOL."""
    scale = [abs(w) for w in want]
    # a band mean sums coefficients of both signs, so its rounding error
    # scales with the band's spread (std_lf, std_hf), not with the mean
    scale[1] = max(scale[1], abs(want[0]))
    scale[3] = max(scale[3], abs(want[2]))
    return [name for name, g, w, s in zip(oracle.FEATURES, got, want, scale)
            if not abs(g - w) <= REL_TOL * s]


def assert_matches_oracle(features, anova, expected):
    """features: {subject: the 7 values}; anova: {table: {source: [F, p]}}."""
    assert features.keys() == expected["features"].keys()
    off = {s: features_off(features[s], w) for s, w in expected["features"].items()}
    assert {s: names for s, names in off.items() if names} == {}
    for name, want in expected["anova"].items():
        for source, (f, p) in want.items():
            got_f, got_p = anova[name][source]
            assert abs(got_f - f) <= REL_TOL * abs(f), (name, source, got_f, f)
            assert abs(got_p - p) <= REL_TOL * abs(p) + ABS_TOL, (name, source, got_p, p)


@pytest.fixture(scope="module")
def oracle_case(tmp_path_factory):
    """A balanced dataset's manifest, and the oracle's outputs for it."""
    manifest = write_dataset(tmp_path_factory.mktemp("oracle"), balanced_spec(per_group=4, n=375))
    return manifest, oracle.expected_outputs(manifest.parent)


def test_run_pipeline_matches_the_oracle(oracle_case):
    manifest, expected = oracle_case
    report = run_pipeline(manifest)
    assert report.all_ok
    assert_matches_oracle(
        {r.subject_id: [getattr(r.features, k) for k in oracle.FEATURES]
         for r in report.recordings},
        {a.name: {row.source.capitalize(): [row.f, row.p] for row in a.table.rows}
         for a in report.anova},
        expected,
    )
    # what has no rounding is equal: sizes, and the leaves the oracle's band
    # edges pick (its band of the slot numbers themselves)
    slots = np.arange(2 ** oracle.DEPTH)[:, None]
    for rec in report.recordings:
        leaves = oracle._leaves(np.loadtxt(manifest.parent / "data" / f"{rec.subject_id}.txt"))
        assert rec.n_analyzed == leaves.size
        for band, edges in zip(rec.bands, (oracle.LF_BAND_HZ, oracle.HF_BAND_HZ)):
            values = oracle._band(leaves, edges)
            assert list(band.leaves) == oracle._band(slots, edges).tolist()
            assert band.n == values.size
            assert band.n_background == oracle._background(values).size, rec.subject_id


def test_cli_tables_match_the_oracle(oracle_case, tmp_path):
    # the documented CSV tables, read as the benchmark's output check reads them
    manifest, expected = oracle_case
    out = tmp_path / "out"
    assert main(["--manifest", str(manifest), "--out", str(out)]) == 0
    with open(out / "features.csv", newline="", encoding="utf-8") as fh:
        features = {row["subject_id"]: [float(row[k]) for k in oracle.FEATURES]
                    for row in csv.DictReader(fh)}
    anova = {}
    for name in oracle.ANOVA_TABLES:
        with open(out / f"anova_{name}.csv", newline="", encoding="utf-8") as fh:
            rows = {row["Source"]: row for row in csv.DictReader(fh)}
        anova[name] = {s: [float(rows[s]["F"]), float(rows[s]["p"])] for s in oracle.ANOVA_SOURCES}
    assert_matches_oracle(features, anova, expected)
