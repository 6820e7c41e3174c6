"""Acceptance gate: one test per numbered criterion (run with -v for the lines).

The reference ANOVA tables print their SS, MS and F columns rounded, some to
fewer digits than the tolerances applied to values derived from them. The
suite therefore never derives a checked value from a rounded print alone:

* C06 evaluates the F upper tail at the unrounded ratio MS / MS_error of the
  reference source that owns the printed (F, df1, df2) point, and checks
  separately that this ratio rounds to the printed F.
* C07 compares each mean square with the printed MS at the combined print
  precision of the two columns involved: half a unit in the last printed
  digit of SS, divided by df, plus half a unit in the last printed digit of
  MS. The decimal counts are written beside the values in REFERENCE_ANOVA.
"""

import json
from math import log, sqrt

import numpy as np
import pytest

from hrvwp import (
    band_nodes,
    daubechies_filters,
    emit_report,
    extract_features,
    run_pipeline,
    threshold_band,
    wpt_leaves,
)
from hrvwp.ingest import truncate_to_block
from hrvwp.pipeline import DEPTH, HF_LEAVES, LF_LEAVES, RATE_HZ, TAPS
from hrvwp.stats import anova_two_way, f_tail_probability
from conftest import balanced_spec, rr_text, synthetic_rr
from test_wavelet import full_level, packet_matrix

# 14 printed rows of the depth-6 / 4 Hz node-frequency reference table
REFERENCE_NODE_RANGES = [
    (0, 0.0, 0.03125),
    (1, 0.03125, 0.0625),
    (2, 0.0625, 0.09375),
    (3, 0.09375, 0.125),
    (4, 0.125, 0.15625),
    (5, 0.15625, 0.1875),
    (6, 0.1875, 0.21875),
    (7, 0.21875, 0.25),
    (8, 0.25, 0.28125),
    (9, 0.28125, 0.3125),
    (10, 0.3125, 0.34375),
    (11, 0.34375, 0.375),
    (12, 0.375, 0.40625),
    (63, 1.96875, 2.0),
]

# reference two-way ANOVA tables: SS per source, published MS / F / p; the
# *_decimals entries give the number of decimals each value is printed with
REFERENCE_ANOVA = {
    "coeff": {
        "shape": (3, 4, 3),
        "ss": {"columns": 215.271, "rows": 35.261, "interaction": 27.162,
               "error": 348.852},
        "ss_decimals": {"columns": 3, "rows": 3, "interaction": 3, "error": 3},
        "ms": {"columns": 71.7571, "rows": 17.6305, "interaction": 4.5271,
               "error": 14.5355},
        "ms_decimals": {"columns": 4, "rows": 4, "interaction": 4, "error": 4},
        "f": {"columns": 4.94, "rows": 1.21, "interaction": 0.31},
        "f_decimals": {"columns": 2, "rows": 2, "interaction": 2},
        "p": {"columns": 0.0082, "rows": 0.3149, "interaction": 0.9247},
        "ss_total": 626.547,
    },
    "energy": {
        "shape": (3, 9, 3),
        "ss": {"columns": 248.64, "rows": 145.15, "interaction": 974.24,
               "error": 1004.66},
        "ss_decimals": {"columns": 2, "rows": 2, "interaction": 2, "error": 2},
        "ms": {"columns": 31.08, "rows": 72.5734, "interaction": 60.8901,
               "error": 18.6048},
        "ms_decimals": {"columns": 2, "rows": 4, "interaction": 4, "error": 4},
        "f": {"columns": 1.67, "rows": 3.9, "interaction": 3.27},
        "f_decimals": {"columns": 2, "rows": 1, "interaction": 2},
        "p": {"columns": 0.127, "rows": 0.0262, "interaction": 0.0006},
        "ss_total": 2372.69,
    },
}

REFERENCE_F_TAIL_POINTS = [
    (4.94, 3, 24, 0.0082, 0.0005),
    (1.21, 2, 24, 0.3149, 0.0005),
    (0.31, 6, 24, 0.9247, 0.0005),
    (3.9, 2, 54, 0.0262, 0.0005),
    (3.27, 16, 54, 0.0006, 0.0003),
]


def reference_df(shape):
    """Degrees of freedom per source of a balanced r x c x k design."""
    r, c, k = shape
    return {"columns": c - 1, "rows": r - 1, "interaction": (r - 1) * (c - 1),
            "error": r * c * (k - 1)}


def reference_source(f, df1, df2):
    """The REFERENCE_ANOVA table and source whose df pair and printed F match."""
    for ref in REFERENCE_ANOVA.values():
        df = reference_df(ref["shape"])
        for source, printed in ref["f"].items():
            if (df[source], df["error"], printed) == (df1, df2, f):
                return ref, source
    raise LookupError(f"no reference source prints F={f} at df=({df1}, {df2})")


def grid_with_prescribed_ss(shape, ss):
    """Balanced grid whose ANOVA decomposition hits the given SS exactly.

    Uses mutually orthogonal zero-margin patterns, one per source, each scaled
    to its target sum of squares.
    """
    r, c, k = shape
    grid = np.zeros(shape)

    rows = np.zeros(r)
    rows[0], rows[-1] = 1.0, -1.0
    grid += sqrt(ss["rows"] / (c * k * np.sum(rows ** 2))) * rows[:, None, None]

    cols = np.full(c, -1.0)
    cols[0] = c - 1.0
    grid += sqrt(ss["columns"] / (r * k * np.sum(cols ** 2))) * cols[None, :, None]

    alt = np.array([(-1.0) ** j for j in range(c)])
    if c % 2:
        alt[-1] = 0.0
    inter = rows[:, None] * alt[None, :]
    grid += sqrt(ss["interaction"] / (k * np.sum(inter ** 2))) * inter[:, :, None]

    noise = np.zeros(k)
    noise[0], noise[1] = 1.0, -1.0
    grid += sqrt(ss["error"] / (r * c * np.sum(noise ** 2))) * noise[None, None, :]
    return grid


def analyze_samples(samples):
    """Post-ingest chain on raw samples, as process_recording runs it: leaves, threshold, features."""
    signal = truncate_to_block(np.asarray(samples, float), DEPTH)
    leaves = wpt_leaves(signal, DEPTH, TAPS, LF_LEAVES + HF_LEAVES)
    splits = {
        "LF": threshold_band(leaves[:len(LF_LEAVES)].ravel(), leaf_ids=LF_LEAVES, band="LF"),
        "HF": threshold_band(leaves[len(LF_LEAVES):].ravel(), leaf_ids=HF_LEAVES, band="HF"),
    }
    return extract_features(splits["LF"], splits["HF"]), splits


@pytest.mark.parametrize("index,f_lo,f_hi", REFERENCE_NODE_RANGES)
def test_c01_node_frequency_map(index, f_lo, f_hi):
    # the printed interval of a leaf holds that leaf and no other
    assert band_nodes((f_lo, f_hi), 6, 4.0) == [index]


@pytest.mark.parametrize("order", [1, 4], ids=["haar", "db4"])
def test_c02_perfect_reconstruction_corpus(order):
    # the depth-6 transform of 1024 samples is an orthogonal map Q, so Q.T inverts it
    taps = daubechies_filters(order)
    q = packet_matrix(taps, 1024, 6)
    assert np.allclose(q @ q.T, np.eye(1024), rtol=0, atol=1e-12)
    rng = np.random.default_rng(2024)
    for _ in range(100):
        x = rng.standard_normal(1024)
        out = q.T @ full_level(x, 6, taps).ravel()
        assert np.max(np.abs(out - x)) < 1e-10 * np.max(np.abs(x))


@pytest.mark.parametrize("order", [1, 4], ids=["haar", "db4"])
def test_c03_parseval_every_level(order):
    taps = daubechies_filters(order)
    rng = np.random.default_rng(2024)
    for _ in range(100):
        x = rng.standard_normal(1024)
        energy = float(np.dot(x, x))
        for level in range(1, 7):
            assert abs(np.sum(full_level(x, level, taps) ** 2) - energy) < 1e-9 * energy


@pytest.mark.parametrize("slot", [1, 5, 9, 20, 40, 63])
def test_c04_frequency_ordering(slot):
    freq = (slot + 0.5) * 4.0 / 2 ** 7
    samples = np.sin(2 * np.pi * freq * np.arange(1024) / 4.0)
    energies = [float(np.dot(n, n)) for n in full_level(samples, 6, daubechies_filters(4))]
    assert int(np.argmax(energies)) == slot


def test_c05_threshold_law():
    # vectors with analytically known MAD
    for mad_value, n in ((0.6745, 256), (2.0, 64), (0.25, 1000)):
        half = n // 2
        values = np.array([mad_value, -mad_value] * half)
        band = threshold_band(values, leaf_ids=(0,))
        lam, h = band.lam, band.h
        assert band.n == n
        expected_h = mad_value / 0.6745
        assert h == pytest.approx(expected_h, rel=1e-12)
        assert lam == pytest.approx(expected_h * sqrt(2.0 * log(n)), rel=1e-12)
    band = threshold_band(np.array([0.6745, -0.6745] * 128), leaf_ids=(0,))
    lam, h = band.lam, band.h
    assert h == pytest.approx(1.0, rel=1e-12)
    assert lam == pytest.approx(3.3302, abs=1e-4)


@pytest.mark.parametrize("f,df1,df2,expected,tol", REFERENCE_F_TAIL_POINTS)
def test_c06_f_tail_reference_points(f, df1, df2, expected, tol):
    # the printed p comes from the unrounded MS ratio, not from the printed F
    ref, source = reference_source(f, df1, df2)
    ratio = ref["ms"][source] / ref["ms"]["error"]
    assert round(ratio, ref["f_decimals"][source]) == f
    assert f_tail_probability(ratio, df1, df2) == pytest.approx(expected, abs=tol)


@pytest.mark.parametrize("table", ["coeff", "energy"])
@pytest.mark.parametrize("source", ["columns", "rows", "interaction"])
def test_c06_companion_unrounded_f_reproduces_reference_p(table, source):
    ref = REFERENCE_ANOVA[table]
    df = reference_df(ref["shape"])
    f = ref["ms"][source] / ref["ms"]["error"]
    assert f_tail_probability(f, df[source], df["error"]) == pytest.approx(
        ref["p"][source], abs=1e-4
    )


@pytest.mark.parametrize("table", ["coeff", "energy"])
class TestC07AnovaConsistency:
    def _table(self, name):
        ref = REFERENCE_ANOVA[name]
        grid = grid_with_prescribed_ss(ref["shape"], ref["ss"])
        return ref, anova_two_way(grid)

    def test_c07_prescribed_ss_recovered(self, table):
        ref, result = self._table(table)
        for source, ss in ref["ss"].items():
            assert result[source].ss == pytest.approx(ss, rel=1e-9)

    @pytest.mark.parametrize("source", ["columns", "rows", "interaction", "error"])
    def test_c07_mean_squares(self, table, source):
        # MS = SS / df is computed from a rounded SS and compared with a
        # rounded MS, so the window is the sum of both rounding half-units
        ref, result = self._table(table)
        df = reference_df(ref["shape"])[source]
        tol = (0.5 * 10.0 ** -ref["ss_decimals"][source] / df
               + 0.5 * 10.0 ** -ref["ms_decimals"][source])
        assert result[source].ms == pytest.approx(ref["ms"][source], abs=tol)

    @pytest.mark.parametrize("source", ["columns", "rows", "interaction"])
    def test_c07_f_ratios(self, table, source):
        ref, result = self._table(table)
        assert result[source].f == pytest.approx(ref["f"][source], abs=0.01)

    def test_c07_ss_total(self, table):
        ref, result = self._table(table)
        assert result["total"].ss == pytest.approx(ref["ss_total"], abs=0.01)


def test_c07_companion_ms_from_unrounded_ss():
    # the energy table's rows SS prints as 145.15 but its MS implies 145.1468;
    # rebuilding the grid from SS = 2 * MS makes every cell agree with the
    # printed MS to 0.001 without the print-precision window of C07
    ref = dict(REFERENCE_ANOVA["energy"]["ss"])
    ref["rows"] = REFERENCE_ANOVA["energy"]["ms"]["rows"] * 2
    grid = grid_with_prescribed_ss((3, 9, 3), ref)
    result = anova_two_way(grid)
    for source, ms in REFERENCE_ANOVA["energy"]["ms"].items():
        assert result[source].ms == pytest.approx(ms, abs=0.001)


def test_c08_brute_force_equivalence():
    from test_stats import fitted_means_ss

    rng = np.random.default_rng(88)
    for _ in range(50):
        grid = rng.standard_normal((3, 4, 3)) * rng.uniform(0.5, 20.0)
        table = anova_two_way(grid)
        oracle = fitted_means_ss(grid.tolist())
        for source, expected in oracle.items():
            assert table[source].ss == pytest.approx(expected, rel=1e-9, abs=1e-12)
        parts = [table[s] for s in ("columns", "rows", "interaction", "error")]
        assert sum(row.ss for row in parts) == pytest.approx(
            table["total"].ss, rel=1e-9
        )
        assert sum(row.df for row in parts) == table["total"].df


def test_c09_determinism_and_scale_law(tmp_path):
    rr = synthetic_rr(n=1024, seed=99)
    data = tmp_path / "data"
    data.mkdir()
    (data / "subject.txt").write_text(rr_text(rr))
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,subject_id,group\ndata/subject.txt,subject,Control\n")

    first = run_pipeline(manifest)
    second = run_pipeline(manifest)
    assert first.recordings[0].status == "ok"
    assert first.to_json() == second.to_json()

    # scale law on the uniform tachogram amplitudes (doubling raw RR intervals
    # would also stretch the beat times and move spectral content downward)
    from hrvwp.ingest import resample_cubic_spline, rr_to_tachogram

    times, values = rr_to_tachogram(rr)
    signal = resample_cubic_spline(times, values, RATE_HZ)
    base_feats, base_splits = analyze_samples(signal)
    scaled_feats, scaled_splits = analyze_samples(2.0 * signal)

    assert scaled_feats.e_lf == pytest.approx(4.0 * base_feats.e_lf, rel=1e-9)
    assert scaled_feats.e_hf == pytest.approx(4.0 * base_feats.e_hf, rel=1e-9)
    assert scaled_feats.r_e == pytest.approx(base_feats.r_e, rel=1e-9)
    for band in ("LF", "HF"):
        assert base_splits[band].n_background == scaled_splits[band].n_background
        assert base_splits[band].n_significant == scaled_splits[band].n_significant


def test_c10_smoke_batch_emits_well_formed_report(write_dataset, tmp_path):
    # group-level findings are not reproducible without the original subject
    # selection; this asserts only that a realistic batch completes cleanly
    manifest = write_dataset(balanced_spec(per_group=3, n=400))
    report = run_pipeline(manifest)
    assert all(r.status == "ok" for r in report.recordings)
    assert report.all_ok

    out = tmp_path / "smoke_out"
    written = emit_report(report, out)
    payload = json.loads((out / "report.json").read_text())
    assert set(payload) == {"tool", "recordings", "anova"}
    assert len(payload["recordings"]) == 9
    assert {a["name"] for a in payload["anova"]} == {"coefficient_stats", "energy"}
    assert all(a["status"] == "ok" for a in payload["anova"])
    for rec in payload["recordings"]:
        assert rec["features"]["e_lf"] > 0.0
        assert rec["features"]["e_hf"] > 0.0
    # the reference configuration: depth-6 blocks, leaves 1-4 and 5-12
    for rec in payload["recordings"]:
        assert rec["n_analyzed"] % 64 == 0
        assert [b["leaves"] for b in rec["bands"]] == [[1, 2, 3, 4], list(range(5, 13))]
    coefficients = np.load(out / "coefficients.npy", allow_pickle=False)
    assert coefficients.dtype == np.float64
    assert coefficients.shape == (sum(b["n"] for r in payload["recordings"] for b in r["bands"]),)
    # report, coefficients, features, two anova
    assert {p.name for p in written} == {
        "report.json", "coefficients.npy", "features.csv",
        "anova_coefficient_stats.csv", "anova_energy.csv"}
