#!/usr/bin/env python3
"""Record hrvwp's own outputs on the default-seed corpora as reference_seed0.json.

    python3 perfbench/record_reference.py

Run once, at the commit whose outputs are the reference; run.py then checks
every default-seed batch against the recorded values.
"""

import json
import sys

import run
from batch import report_values
from corpus import ensure_corpus

sys.path.insert(0, str(run.ROOT / "src"))
from hrvwp.pipeline import run_pipeline  # noqa: E402


def main() -> int:
    reference = {}
    for name, spec in run.CORPORA.items():
        corpus = ensure_corpus(run.ROOT, spec, run.DEFAULT_SEED, run.ROOT / ".perfbench" / "corpus")
        reference[name] = report_values(run_pipeline(corpus / "manifest.csv"))
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
