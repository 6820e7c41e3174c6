"""Command line front end for the batch pipeline."""

import argparse
import sys

from .pipeline import emit_report, run_pipeline


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrvwp",
        description=(
            "Analyze RR-interval recordings: 4 Hz resampling, depth-6 db4 wavelet "
            "packet band decomposition, background/significant coefficient split, "
            "band features, and a balanced two-way ANOVA across subject groups."
        ),
    )
    parser.add_argument("--manifest", required=True,
                        help="CSV manifest with header path,subject_id,group")
    parser.add_argument("--out", required=True, help="output directory for reports")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = run_pipeline(args.manifest)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        written = emit_report(report, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    n_ok = sum(1 for r in report.recordings if r.status == "ok")
    print(f"processed {len(report.recordings)} recording(s): {n_ok} ok, "
          f"{len(report.recordings) - n_ok} failed")
    for rec in report.recordings:
        if rec.status != "ok":
            print(f"  failed {rec.subject_id}: {rec.error}")
    for a in report.anova:
        if a.status == "ok":
            print(f"anova {a.name}: ok "
                  f"({len(a.row_labels)} groups x {len(a.column_labels)} features "
                  f"x {a.replicates} subjects)")
        else:
            print(f"anova {a.name}: skipped ({a.reason})")
    print(f"wrote {len(written)} file(s) to {args.out}")
    return 0 if report.all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
