#!/usr/bin/env python3
"""Batch benchmark for hrvwp: times the real entry points on seeded corpora.

    python3 perfbench/run.py --workload {short-term,holter,holter-analyze,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository; nothing needs installing. Each batch
runs in a fresh process (batch.py), one at a time, so every batch pays the
import and per-process set-up as a CLI user does. BLAS threads are capped at
the number of usable CPUs. Corpus generation and the reference values happen
once per seed, before any timing, and are cached under .perfbench/.

Every batch's output is checked against reference values (see oracle.py);
a wrong or missing value counts its recording as failed. With --trace 0 the
last line reports the end-to-end metrics, measured untraced; with --trace 1
it reports the per-layer metrics of traced batches (spans.py), which
alternate with untraced ones so the tracing overhead can be measured. The
lines before it print every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

import oracle
import spans
from corpus import CorpusSpec, ensure_corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MB = spans.MB

CORPORA = {
    "short-term": CorpusSpec("short-term", per_group=100, beats=375),   # ~5 min each
    "holter": CorpusSpec("holter", per_group=2, beats=108_000),         # ~24 h each
}
# workload -> (corpus, entry point)
WORKLOADS = {
    "short-term": ("short-term", "cli"),
    "holter": ("holter", "cli"),
    "holter-analyze": ("holter", "analyze"),
}
END_TO_END = {"setup_s": "s", "batch_s": "s", "beats_per_s": "beats/s", "peak_rss_mb": "MB"}
# printed beside the end-to-end metrics; not bounded, as they read 0 on some workloads
ALSO_PRINTED = {"output_mb": "MB", "failed_frac": "ratio"}
PER_LAYER = {
    "ingest.parse_rr_file.self_s": "s",
    "ingest.detect_format.self_s": "s",
    "ingest.resample_cubic_spline.self_s": "s",
    "ingest.lines": "count",
    "ingest.samples": "count",
    "ingest.truncate_kept_ratio": "ratio",
    "wavelet.daubechies_filters.calls": "count",
    "wavelet.daubechies_filters.self_s": "s",
    "wavelet.wpt_decompose.self_s": "s",
    "wavelet.analysis_step.calls": "count",
    "wavelet.analysis_step.self_s": "s",
    "wavelet.band_nodes.calls": "count",
    "wavelet.gflop_computed": "GFLOP",
    "wavelet.gflops": "GFLOP/s",
    "wavelet.useful_ratio": "ratio",
    "threshold.threshold_band.self_s": "s",
    "threshold.coeffs": "count",
    "features.extract_features.self_s": "s",
    "stats.anova_two_way.self_s": "s",
    "stats.f_tail_probability.calls": "count",
    "stats.f_tail_probability.self_s": "s",
    "pipeline.load_manifest.self_s": "s",
    "pipeline.run_pipeline.self_s": "s",
    "pipeline.process_recording.self_s": "s",
    "pipeline.process_recording.p50_ms": "ms",
    "pipeline.process_recording.p90_ms": "ms",
    "pipeline.BandReport.from_split.self_s": "s",
    "pipeline.RunReport.to_json.self_s": "s",
    "pipeline.json_mb": "MB",
    "pipeline.emit_report.self_s": "s",
    "pipeline.emit_report.files": "count",
    "pipeline.emit_mb_per_s": "MB/s",
    "cli.main.self_s": "s",
    "output_mb": "MB",
    "trace.overhead_s": "s",
}

DEFAULT_SEED = 0
# hrvwp's own outputs on the seed-0 corpora, recorded by record_reference.py
REFERENCE = HERE / "reference_seed0.json"
MIN_BATCHES = 3
SETUP_SAMPLES = 7
BATCH_TIMEOUT_S = 150
REL_TOL = 1e-9
# p values this small sit at the edge of double range, where exp() and the
# incomplete beta lose relative precision (the F tail can underflow to 0)
ABS_TOL = 1e-300
NPROC = len(os.sched_getaffinity(0))
CHILD_ENV = {
    # bytecode is written, so hrvwp is compiled once, as on install, not per batch
    **{k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"},
    **{var: str(NPROC) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    # with a random hash seed, peak RSS of one batch moves by up to 5 % from
    # one process to the next
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def environment() -> str:
    return (f"env: nproc={NPROC} blas_threads={NPROC} python={platform.python_version()} "
            f"numpy={version('numpy')} scipy={version('scipy')}")


def _features_match(got, want) -> bool:
    if got is None or len(got) != len(want):
        return False
    scale = [abs(w) for w in want]
    # A band mean sums coefficients of both signs, so its rounding error
    # scales with the band's spread (std_lf, std_hf), not with the mean.
    scale[1] = max(scale[1], abs(want[0]))
    scale[3] = max(scale[3], abs(want[2]))
    return all(abs(g - w) <= REL_TOL * s + ABS_TOL for g, w, s in zip(got, want, scale))


def count_failed(rc: int, values, expected: dict) -> int:
    """Recordings failed or wrong; a bad exit code or ANOVA fails the whole batch."""
    n = len(expected["features"])
    if rc != 0 or values is None:
        return n
    for name, want in expected["anova"].items():
        got = values["anova"].get(name)
        if got is None or not all(
            abs(got[s][i] - want[s][i]) <= REL_TOL * abs(want[s][i]) + ABS_TOL
            for s in want for i in (0, 1)
        ):
            return n
    return sum(not _features_match(values["features"].get(s), w)
               for s, w in expected["features"].items())


def read_tables(out: Path):
    """Features and ANOVA (F, p) from the documented CSV tables, or None."""
    try:
        with open(out / "features.csv", newline="", encoding="utf-8") as fh:
            features = {row["subject_id"]: [float(row[k]) for k in oracle.FEATURES]
                        for row in csv.DictReader(fh)}
        anova = {}
        for name in oracle.ANOVA_TABLES:
            with open(out / f"anova_{name}.csv", newline="", encoding="utf-8") as fh:
                rows = {row["Source"]: row for row in csv.DictReader(fh)}
            anova[name] = {s: [float(rows[s]["F"]), float(rows[s]["p"])]
                           for s in oracle.ANOVA_SOURCES}
    except (OSError, KeyError, ValueError):
        return None
    return {"features": features, "anova": anova}


def child(run_dir: Path, *args: str) -> dict:
    """Run batch.py in a fresh process and return its result."""
    result = run_dir / "batch.json"
    result.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "batch.py"), str(ROOT), str(result), *args],
        cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True, timeout=BATCH_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"batch process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result.read_text(encoding="utf-8"))


def run_batch(run_dir: Path, corpus: Path, mode: str, expected: dict, traced: bool) -> dict:
    out = run_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    trace_file = run_dir / "spans.json"
    args = ["--mode", mode, "--manifest", str(corpus / "manifest.csv"), "--out", str(out)]
    res = child(run_dir, *args, *(["--spans", str(trace_file)] if traced else []))
    output_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    values = res["values"] if mode == "analyze" else read_tables(out)
    res.update(traced=traced, output_bytes=output_bytes,
               failed=count_failed(res["rc"], values, expected))
    if traced:
        res["layer"] = spans.layer_metrics(
            json.loads(trace_file.read_text(encoding="utf-8")), output_bytes)
    return res


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path,
            spec: CorpusSpec | None = None) -> tuple[dict, dict]:
    """Run one workload; return (result line, every metric printed with it)."""
    corpus_name, mode = WORKLOADS[workload]
    spec = spec or CORPORA[corpus_name]
    corpus = ensure_corpus(ROOT, spec, seed, work / "corpus")
    summary = json.loads((corpus / "corpus.json").read_text(encoding="utf-8"))
    expected = json.loads((corpus / "expected.json").read_text(encoding="utf-8"))
    if seed == DEFAULT_SEED and spec == CORPORA[corpus_name]:
        expected = json.loads(REFERENCE.read_text(encoding="utf-8"))[corpus_name]
    print(f"corpus {spec.name} seed {seed}: {summary['recordings']} recordings, "
          f"{summary['rr_intervals']} RR intervals, {summary['bytes']} bytes")

    run_dir = work / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        child(run_dir, "--setup-only")  # untimed: byte-compiles hrvwp, warms the file cache
        batches = []
        deadline = time.perf_counter() + seconds
        while len(batches) < MIN_BATCHES or time.perf_counter() < deadline:
            traced = trace and len(batches) % 2 == 1
            batches.append(run_batch(run_dir, corpus, mode, expected, traced))
        setups = [b["setup_s"] for b in batches]
        while len(setups) < SETUP_SAMPLES:
            setups.append(child(run_dir, "--setup-only")["setup_s"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = summary["recordings"] * len(batches)
    failed = sum(b["failed"] for b in batches)
    plain = [b for b in batches if not b["traced"]]
    batch_s = statistics.median(b["batch_s"] for b in plain)
    output_mb = statistics.median(b["output_bytes"] for b in plain) / MB
    if trace:
        traced = [b for b in batches if b["traced"]]
        values = {name: statistics.median(b["layer"][name] for b in traced)
                  for name in traced[0]["layer"]}
        values["output_mb"] = output_mb
        values["trace.overhead_s"] = statistics.median(b["batch_s"] for b in traced) - batch_s
        units, printed = PER_LAYER, {}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "batch_s": batch_s,
            "beats_per_s": summary["rr_intervals"] / batch_s,
            "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in plain),
        }
        units = END_TO_END
        printed = {"output_mb": output_mb, "failed_frac": failed / attempted}
    if set(values) != set(units):
        raise BenchError(f"metric set mismatch: {sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    shown = {**metrics, **{k: {"value": v, "unit": ALSO_PRINTED[k]} for k, v in printed.items()}}
    print(f"workload {workload}: {len(plain)} untraced and {len(batches) - len(plain)} traced "
          f"batches, {len(setups)} set-ups, {failed} of {attempted} recordings failed")
    return line, shown


def print_metrics(shown: dict) -> None:
    for name, metric in shown.items():
        print(f"  {name:<42} {metric['value']:>16.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    for needed in (ROOT / "src" / "hrvwp" / "__init__.py",
                   ROOT / "scripts" / "make_synthetic_dataset.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a checkout of hrvwp",
                  file=sys.stderr)
            return 2

    print(environment())
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for workload in workloads:
        try:
            line, shown = measure(workload, args.seed, args.seconds, bool(args.trace),
                                  ROOT / ".perfbench")
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print_metrics(shown)
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
