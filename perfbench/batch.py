"""One timed batch in a fresh process; started by run.py, not by hand.

    batch.py ROOT RESULT [--setup-only] [--mode cli|analyze --manifest M --out DIR] [--spans FILE]

Times `import hrvwp` (setup_s) and then one entry call (batch_s):
`hrvwp.cli.main` for mode cli, `hrvwp.pipeline.run_pipeline` for mode
analyze. With --spans, the layer functions are wrapped before the entry call
and the spans are written to FILE afterwards. Writes a JSON result to RESULT.
Only the standard library is imported before hrvwp, so numpy and scipy
count toward setup_s as they do for a user of the CLI.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

# as in oracle.py, which cannot be imported here: it loads numpy and scipy
FEATURES = ("std_lf", "mean_lf", "std_hf", "mean_hf", "e_lf", "e_hf", "r_e")
ANOVA_SOURCES = {"columns": "Columns", "rows": "Rows", "interaction": "Interaction"}


def report_values(report) -> dict:
    """Per-recording status and features, and ANOVA (F, p), from a RunReport."""
    recordings = {
        r.subject_id: [getattr(r.features, k) for k in FEATURES] if r.status == "ok" else None
        for r in report.recordings
    }
    anova = {
        a.name: {ANOVA_SOURCES[row.source]: [row.f, row.p]
                 for row in a.table.rows if row.source in ANOVA_SOURCES}
        if a.status == "ok" else None
        for a in report.anova
    }
    return {"features": recordings, "anova": anova}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("root")
    parser.add_argument("result")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--mode", choices=("cli", "analyze"))
    parser.add_argument("--manifest")
    parser.add_argument("--out")
    parser.add_argument("--spans")
    args = parser.parse_args()
    src = Path(args.root, "src").resolve()
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import hrvwp.cli
    setup_s = time.perf_counter() - t0
    if not Path(hrvwp.__file__).resolve().is_relative_to(src):
        print(f"hrvwp imported from {hrvwp.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}

    if not args.setup_only:
        recorder = None
        if args.spans:
            sys.path.insert(1, str(Path(__file__).resolve().parent))
            import spans
            recorder = spans.install()
        if args.mode == "cli":
            t0 = time.perf_counter()
            rc = hrvwp.cli.main(["--manifest", args.manifest, "--out", args.out])
            batch_s = time.perf_counter() - t0
            values = None
        else:
            t0 = time.perf_counter()
            report = hrvwp.pipeline.run_pipeline(args.manifest)
            batch_s = time.perf_counter() - t0
            rc = 0 if report.all_ok else 1
            values = report_values(report)
        result.update(
            batch_s=batch_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            rc=rc,
            values=values,
        )
        if recorder is not None:
            recorder.dump(args.spans)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
