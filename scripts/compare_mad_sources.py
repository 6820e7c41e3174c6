#!/usr/bin/env python3
"""Compare the two noise-scale estimation modes on one manifest.

Runs the pipeline twice, with the noise scale h estimated per band (default)
and from the first-level detail coefficients, and prints the resulting
lambda / h / component counts side by side for every recording. The split
membership is what feeds the features, so this shows directly how much the
mode choice matters on a given dataset.
"""

import argparse

from hrvwp import PipelineConfig, run_pipeline


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True)
    reference = PipelineConfig()
    parser.add_argument("--rate", type=float, default=reference.rate_hz)
    parser.add_argument("--depth", type=int, default=reference.depth)
    args = parser.parse_args()

    reports = {
        mode: run_pipeline(
            args.manifest,
            PipelineConfig(rate_hz=args.rate, depth=args.depth, mad_source=mode),
        )
        for mode in ("per-band", "first-level")
    }

    header = (f"{'subject':<14} {'band':<4} "
              f"{'h(band)':>10} {'h(lvl1)':>10} "
              f"{'lam(band)':>10} {'lam(lvl1)':>10} {'sig(band)':>9} {'sig(lvl1)':>9}")
    print(header)
    print("-" * len(header))
    per_band = {r.subject_id: r for r in reports["per-band"].recordings}
    first = {r.subject_id: r for r in reports["first-level"].recordings}
    for subject, rec in sorted(per_band.items()):
        if rec.status != "ok" or first[subject].status != "ok":
            print(f"{subject:<14} failed: {rec.error or first[subject].error}")
            continue
        for band_a, band_b in zip(rec.bands, first[subject].bands):
            print(f"{subject:<14} {band_a.band:<4} "
                  f"{band_a.h:>10.4f} {band_b.h:>10.4f} "
                  f"{band_a.lam:>10.4f} {band_b.lam:>10.4f} "
                  f"{band_a.n_significant:>9d} {band_b.n_significant:>9d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
