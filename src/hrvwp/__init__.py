"""Wavelet packet analysis of RR-interval variability.

Pipeline: RR intervals -> tachogram -> natural-spline resampling -> wavelet
packet leaves of the LF/HF bands (frequency-ordered) -> per-band adaptive
MAD threshold separating background variability from significant changes ->
band features -> balanced two-way ANOVA across subject groups.
"""

__version__ = "0.1.0"

from .features import extract_features
from .pipeline import RunReport, emit_report, run_pipeline
from .threshold import threshold_band
from .wavelet import band_nodes, daubechies_filters, wpt_leaves

# the public API as the README's "Library use" section lists it; everything
# else is imported from its submodule (hrvwp.ingest, hrvwp.wavelet, ...)
__all__ = [
    "run_pipeline", "emit_report", "RunReport",
    "daubechies_filters", "wpt_leaves", "band_nodes",
    "threshold_band", "extract_features",
]
