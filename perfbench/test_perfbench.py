"""Tests of the benchmark itself, on a tiny corpus.

    python3 -m pytest perfbench -q
"""

import json

import pytest

import run
import spans
from corpus import CorpusSpec, ensure_corpus

TINY = CorpusSpec("tiny", per_group=2, beats=400)
SEED = 7
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench")


@pytest.fixture(scope="module")
def corpus(work):
    return ensure_corpus(run.ROOT, TINY, SEED, work / "corpus")


@pytest.fixture(scope="module")
def expected(corpus):
    return json.loads((corpus / "expected.json").read_text(encoding="utf-8"))


@pytest.fixture
def run_dir(tmp_path):
    return tmp_path


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(run, "MIN_BATCHES", 2)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


@pytest.mark.parametrize("workload", ["short-term", "holter-analyze"])
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_prints_every_metric_with_its_unit(quick, work, capsys, workload, trace):
    line, shown = run.measure(workload, SEED, 0, trace, work, spec=TINY)
    run.print_metrics(shown)
    printed = capsys.readouterr().out

    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 12
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in line["metrics"].items()}
    if not trace:
        assert set(shown) == set(line["metrics"]) | {"output_mb", "failed_frac"}
    for name, metric in shown.items():
        assert any(row.split()[0] == name and row.split()[-1] == metric["unit"]
                   for row in printed.splitlines() if row.startswith("  "))


def test_workloads_separate_the_layers(quick, work):
    recordings = 3 * TINY.per_group
    _, cli = run.measure("short-term", SEED, 0, True, work, spec=TINY)
    _, analyze = run.measure("holter-analyze", SEED, 0, True, work, spec=TINY)

    for shown in (cli, analyze):
        assert shown["wavelet.analysis_step.calls"]["value"] == 63 * recordings
        assert shown["wavelet.useful_ratio"]["value"] == pytest.approx(12 / 64 / 6)
    assert cli["pipeline.RunReport.to_json.self_s"]["value"] > 0
    # report.json, features.csv, two ANOVA tables, one band dump per recording
    assert cli["pipeline.emit_report.files"]["value"] == 4 + recordings
    for name in ("pipeline.RunReport.to_json.self_s", "pipeline.emit_report.self_s",
                 "pipeline.json_mb", "output_mb"):
        assert analyze[name]["value"] == 0


def test_perturbed_feature_value_fails_the_check(corpus, expected, run_dir):
    batch = run.run_batch(run_dir, corpus, "cli", expected, traced=False)
    assert batch["rc"] == 0 and batch["failed"] == 0

    features = run_dir / "out" / "features.csv"
    rows = features.read_text(encoding="utf-8").splitlines()
    cells = rows[1].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-6))
    rows[1] = ",".join(cells)
    features.write_text("\n".join(rows) + "\n", encoding="utf-8")

    assert run.count_failed(0, run.read_tables(run_dir / "out"), expected) == 1


def test_child_self_times_fit_inside_each_recording_span(corpus, expected, run_dir):
    batch = run.run_batch(run_dir, corpus, "cli", expected, traced=True)
    assert batch["failed"] == 0
    recorded = json.loads((run_dir / "spans.json").read_text(encoding="utf-8"))
    own = spans.self_times(recorded)
    assert min(own) >= 0.0

    def recording_span(i):
        while i >= 0 and recorded[i][0] != "pipeline.process_recording":
            i = recorded[i][3]
        return i

    inside = {}
    for i, span in enumerate(recorded):
        top = recording_span(span[3])
        if top >= 0:
            inside[top] = inside.get(top, 0.0) + own[i]
            assert span[4] == recorded[top][4]  # recording id inherited
    assert len(inside) == 3 * TINY.per_group
    for top, children in inside.items():
        assert children <= recorded[top][2] - recorded[top][1]


def test_oracle_matches_the_recorded_reference(tmp_path):
    spec = run.CORPORA["short-term"]
    corpus = ensure_corpus(run.ROOT, spec, run.DEFAULT_SEED, tmp_path)
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))["short-term"]
    computed = json.loads((corpus / "expected.json").read_text(encoding="utf-8"))
    assert run.count_failed(0, reference, computed) == 0
