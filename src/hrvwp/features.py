"""Per-recording features from the background-variability band components.

Statistics (mean, population std) and energies are those of the background
coefficients of the LF and HF bands; the energy ratio r_e = e_lf / e_hf summarizes
the sympatho-vagal balance of the diffuse component.
"""

from dataclasses import dataclass

import numpy as np

from .threshold import BandReport

__all__ = ["FeatureVector", "FeatureError", "extract_features"]


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


def extract_features(lf: BandReport, hf: BandReport) -> FeatureVector:
    """Build the feature vector from the two thresholded bands.

    All statistics use the background coefficients; std is the population
    standard deviation (divisor n). An empty background or zero HF energy
    raises FeatureError so the recording is flagged rather than silently zeroed.
    """
    if lf.n_background == 0 or hf.n_background == 0:
        empty = "LF" if lf.n_background == 0 else "HF"
        raise FeatureError(f"{empty} background component is empty")
    if hf.energy_background == 0.0:
        raise FeatureError("HF background energy is zero; energy ratio undefined")

    bv_lf, bv_hf = lf.background, hf.background
    return FeatureVector(
        std_lf=float(np.std(bv_lf)),
        mean_lf=float(np.mean(bv_lf)),
        std_hf=float(np.std(bv_hf)),
        mean_hf=float(np.mean(bv_hf)),
        e_lf=lf.energy_background,
        e_hf=hf.energy_background,
        r_e=lf.energy_background / hf.energy_background,
    )
