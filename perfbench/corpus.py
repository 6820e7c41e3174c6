"""Seeded synthetic RR-interval corpora for the benchmark.

A corpus is a manifest plus one RR file per recording, laid out as
`scripts/make_synthetic_dataset.py` writes it and generated with that
script's `synthetic_rr`. Subject parameters are drawn per recording from the
corpus seed and stay in a resting-adult range (mean RR 750-890 ms, LF and HF
modulation a few tens of ms), so batch size never pushes them out of range.
The groups differ in their means, which keeps both ANOVA tables well posed.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oracle import expected_outputs

GROUPS = ("Control", "VT", "VF")


@dataclass(frozen=True)
class CorpusSpec:
    name: str
    per_group: int
    beats: int


def _synthetic_rr(root: Path):
    path = root / "scripts" / "make_synthetic_dataset.py"
    spec = importlib.util.spec_from_file_location("make_synthetic_dataset", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.synthetic_rr


def _subject_params(seed: int, index: int, gi: int) -> dict:
    """Per-recording modulation parameters around the group's mean."""
    rng = np.random.default_rng([seed, index, 1])
    return {
        "base_ms": 780.0 + 40.0 * gi + rng.uniform(-30.0, 30.0),
        "lf_amp": 35.0 + 6.0 * gi + rng.uniform(-5.0, 5.0),
        "hf_amp": 18.0 + 5.0 * gi + rng.uniform(-4.0, 4.0),
        "noise_ms": 6.0,
    }


def write_corpus(root: Path, spec: CorpusSpec, seed: int, dest: Path) -> dict:
    """Write manifest.csv and data/*.txt under dest; return the corpus summary."""
    synthetic_rr = _synthetic_rr(root)
    data = dest / "data"
    data.mkdir(parents=True)
    lines = ["path,subject_id,group"]
    index = 0
    for gi, group in enumerate(GROUPS):
        for i in range(spec.per_group):
            rr = synthetic_rr(n=spec.beats, seed=[seed, index, 0],
                              **_subject_params(seed, index, gi))
            subject = f"{group.lower()}{i:03d}"
            (data / f"{subject}.txt").write_text(
                "# synthetic RR intervals (ms)\n"
                + "\n".join(f"{v:.3f}" for v in rr) + "\n",
                encoding="utf-8",
            )
            lines.append(f"data/{subject}.txt,{subject},{group}")
            index += 1
    (dest / "manifest.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {
        "recordings": index,
        "rr_intervals": index * spec.beats,
        "bytes": sum(p.stat().st_size for p in data.iterdir()),
    }


def ensure_corpus(root: Path, spec: CorpusSpec, seed: int, cache: Path) -> Path:
    """Return the cached corpus directory for (spec, seed), generating it once.

    The oracle's reference outputs are stored beside the corpus as
    expected.json. The directory is built under a temporary name and renamed
    into place, so an interrupted run never leaves a partial corpus.
    """
    dest = cache / f"{spec.name}-{spec.per_group}x{spec.beats}-seed{seed}"
    if (dest / "corpus.json").is_file():
        return dest
    tmp = cache / f".tmp-{dest.name}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    summary = write_corpus(root, spec, seed, tmp)
    (tmp / "expected.json").write_text(json.dumps(expected_outputs(tmp)), encoding="utf-8")
    (tmp / "corpus.json").write_text(json.dumps(summary), encoding="utf-8")
    shutil.rmtree(dest, ignore_errors=True)
    os.replace(tmp, dest)
    return dest
