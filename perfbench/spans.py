"""Outside-in tracing of hrvwp's layers, and the per-layer metrics from it.

`install()` wraps the public functions that hrvwp's modules call each other
through, by reassigning the names those modules look up at call time; no file
under src/ is changed. Each call becomes a span (name, start, end, parent,
recording id, counts) kept in memory and written out by `Recorder.dump` once
the batch has returned. `layer_metrics` turns a span file into the
per-layer metrics: a layer's self time is its span's duration minus the
duration of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from time import perf_counter

MB = 2.0 ** 20

# (module, attribute looked up at call time, span name, counts taken from the
# bound arguments and the result). Module paths are under hrvwp.
WRAPPED = (
    ("cli", "main", "cli.main", None),
    ("pipeline", "load_manifest", "pipeline.load_manifest", None),
    ("pipeline", "process_recording", "pipeline.process_recording", None),
    ("pipeline", "detect_format", "ingest.detect_format", None),
    ("pipeline", "parse_rr_file", "ingest.parse_rr_file",
     lambda a, r: {"lines": len(r)}),
    ("pipeline", "rr_to_tachogram", "ingest.rr_to_tachogram", None),
    ("pipeline", "resample_cubic_spline", "ingest.resample_cubic_spline",
     lambda a, r: {"samples": len(r)}),
    ("pipeline", "truncate_to_block", "ingest.truncate_to_block",
     lambda a, r: {"kept": len(r)}),
    ("pipeline", "daubechies_filters", "wavelet.daubechies_filters", None),
    ("pipeline", "wpt_decompose", "wavelet.wpt_decompose",
     lambda a, r: {"computed": len(a["signal"]) * a["depth"],
                   "flop": 2 * len(a["bank"].dec_lo) * len(a["signal"]) * a["depth"]}),
    ("wavelet", "analysis_step", "wavelet.analysis_step", None),
    ("pipeline", "band_nodes", "wavelet.band_nodes", None),
    ("pipeline", "threshold_band", "threshold.threshold_band",
     lambda a, r: {"coeffs": len(a["band_coeffs"])}),
    ("pipeline", "extract_features", "features.extract_features", None),
    ("pipeline", "anova_two_way", "stats.anova_two_way", None),
    ("stats", "f_tail_probability", "stats.f_tail_probability", None),
    ("cli", "emit_report", "pipeline.emit_report",
     lambda a, r: {"files": len(r)}),
)


class Recorder:
    """Spans of one single-threaded batch, as lists [name, start, end, parent, rec, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = spans[parent][4] if parent >= 0 else None
            if name == "pipeline.process_recording":
                rec = args[1] if len(args) > 1 else kwargs["subject_id"]
            span = [name, 0.0, 0.0, parent, rec, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def install() -> Recorder:
    """Wrap hrvwp's layer functions in place and return the recorder."""
    import hrvwp.cli
    from hrvwp import pipeline

    rec = Recorder()
    modules = {"cli": hrvwp.cli, "pipeline": pipeline,
               "stats": sys.modules["hrvwp.stats"], "wavelet": sys.modules["hrvwp.wavelet"]}
    for module, attr, name, count in WRAPPED:
        target = modules[module]
        if not hasattr(target, attr):
            print(f"trace: hrvwp.{module}.{attr} not found; {name} reads 0", file=sys.stderr)
            continue
        setattr(target, attr, rec.wrap(name, getattr(target, attr), count))
    # cli imported run_pipeline by name, so both modules get the same wrapper
    pipeline.run_pipeline = hrvwp.cli.run_pipeline = rec.wrap(
        "pipeline.run_pipeline", pipeline.run_pipeline)

    run_report, band_report = pipeline.RunReport, pipeline.BandReport
    if hasattr(run_report, "to_json"):
        run_report.to_json = rec.wrap("pipeline.RunReport.to_json", run_report.to_json,
                                      lambda a, r: {"bytes": len(r)})
    if isinstance(band_report.__dict__.get("from_split"), classmethod):
        band_report.from_split = classmethod(rec.wrap(
            "pipeline.BandReport.from_split", band_report.__dict__["from_split"].__func__))
    return rec


SELF_TIMED = (
    "ingest.parse_rr_file", "ingest.detect_format", "ingest.resample_cubic_spline",
    "wavelet.daubechies_filters", "wavelet.wpt_decompose", "wavelet.analysis_step",
    "threshold.threshold_band", "features.extract_features",
    "stats.anova_two_way", "stats.f_tail_probability",
    "pipeline.load_manifest", "pipeline.run_pipeline", "pipeline.process_recording",
    "pipeline.BandReport.from_split", "pipeline.RunReport.to_json",
    "pipeline.emit_report", "cli.main",
)
CALL_COUNTED = (
    "wavelet.daubechies_filters", "wavelet.analysis_step", "wavelet.band_nodes",
    "stats.f_tail_probability",
)


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its children's durations."""
    self_s = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    return self_s


def layer_metrics(spans, output_bytes: int) -> dict:
    """Per-layer metric values (unit-free) from one batch's spans."""
    self_s = self_times(spans)
    total_self, calls, counts = {}, {}, {}
    inclusive: dict[str, list[float]] = {}
    for (name, start, end, _, _, span_counts), own in zip(spans, self_s):
        total_self[name] = total_self.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        inclusive.setdefault(name, []).append(end - start)
        for key, value in (span_counts or {}).items():
            counts[key] = counts.get(key, 0) + value

    out = {f"{name}.self_s": total_self.get(name, 0.0) for name in SELF_TIMED}
    out.update({f"{name}.calls": calls.get(name, 0) for name in CALL_COUNTED})
    samples = counts.get("samples", 0)
    out["ingest.lines"] = counts.get("lines", 0)
    out["ingest.samples"] = samples
    out["ingest.truncate_kept_ratio"] = counts.get("kept", 0) / samples if samples else 0.0
    gflop = counts.get("flop", 0) / 1e9
    wavelet_s = total_self.get("wavelet.wpt_decompose", 0.0) + total_self.get(
        "wavelet.analysis_step", 0.0)
    out["wavelet.gflop_computed"] = gflop
    out["wavelet.gflops"] = gflop / wavelet_s if wavelet_s > 0 else 0.0
    computed = counts.get("computed", 0)
    out["wavelet.useful_ratio"] = counts.get("coeffs", 0) / computed if computed else 0.0
    out["threshold.coeffs"] = counts.get("coeffs", 0)

    per_recording_ms = sorted(1e3 * d for d in inclusive.get("pipeline.process_recording", []))
    out["pipeline.process_recording.p50_ms"] = (
        statistics.median(per_recording_ms) if per_recording_ms else 0.0)
    out["pipeline.process_recording.p90_ms"] = (
        statistics.quantiles(per_recording_ms, n=10, method="inclusive")[8]
        if len(per_recording_ms) > 1 else sum(per_recording_ms))
    emit_s = sum(inclusive.get("pipeline.emit_report", []))
    out["pipeline.json_mb"] = counts.get("bytes", 0) / MB
    out["pipeline.emit_report.files"] = counts.get("files", 0)
    out["pipeline.emit_mb_per_s"] = output_bytes / MB / emit_s if emit_s > 0 else 0.0
    return out
