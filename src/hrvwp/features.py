"""Per-recording features from the background-variability band components.

Statistics (mean, population std) and energies are computed on the background
vectors of the LF and HF splits; the energy ratio r_e = e_lf / e_hf summarizes
the sympatho-vagal balance of the diffuse component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import Group
from .threshold import BandSplit

__all__ = ["FeatureVector", "FeatureError", "band_energy", "extract_features"]


class FeatureError(ValueError):
    """Recording cannot yield a valid feature vector (flagged, not zeroed)."""


@dataclass(frozen=True)
class FeatureVector:
    """Background-component features for one recording."""

    std_lf: float
    mean_lf: float
    std_hf: float
    mean_hf: float
    e_lf: float
    e_hf: float
    r_e: float
    subject_id: str = ""
    group: Group = Group.UNLABELED


def band_energy(coeffs: np.ndarray) -> float:
    """Sum of squared coefficients; an empty vector has zero energy."""
    v = np.asarray(coeffs, dtype=float)
    return float(np.dot(v, v))


def extract_features(
    lf_split: BandSplit,
    hf_split: BandSplit,
    subject_id: str = "",
    group: Group = Group.UNLABELED,
) -> FeatureVector:
    """Build the feature vector from the two band splits.

    All statistics use the background vectors; std is the population standard
    deviation (divisor n). An empty background or zero HF energy raises
    FeatureError so the recording is flagged rather than silently zeroed.
    """
    bv_lf = lf_split.background
    bv_hf = hf_split.background
    if bv_lf.size == 0 or bv_hf.size == 0:
        empty = "LF" if bv_lf.size == 0 else "HF"
        raise FeatureError(f"{empty} background component is empty")

    e_lf = band_energy(bv_lf)
    e_hf = band_energy(bv_hf)
    if e_hf == 0.0:
        raise FeatureError("HF background energy is zero; energy ratio undefined")

    return FeatureVector(
        std_lf=float(np.std(bv_lf)),
        mean_lf=float(np.mean(bv_lf)),
        std_hf=float(np.std(bv_hf)),
        mean_hf=float(np.mean(bv_hf)),
        e_lf=e_lf,
        e_hf=e_hf,
        r_e=e_lf / e_hf,
        subject_id=subject_id,
        group=group,
    )
