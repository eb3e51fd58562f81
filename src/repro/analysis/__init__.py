"""Statistical utilities, interference modelling and report rendering.

This subpackage collects the analysis substrates used throughout the
reproduction:

* :mod:`repro.analysis.stats` — exact and streaming statistics (running
  max, the P-square streaming percentile estimator, Pearson correlation).
* :mod:`repro.analysis.interference` — the analytical last-level-cache
  contention model that substitutes for the Xenoprof hardware-counter
  measurements behind Table I of the paper.
* :mod:`repro.analysis.reporting` — plain-text tables, histograms and
  series renderers used by the experiment drivers and benchmarks.
"""

from repro.analysis.stats import (
    PSquarePercentile,
    RunningMax,
    RunningPercentile,
    pearson,
    percentile,
)
from repro.analysis.interference import (
    CacheSystem,
    InterferenceResult,
    WorkloadProfile,
    colocation_metrics,
)
from repro.analysis.reporting import ascii_histogram, ascii_series, ascii_table

__all__ = [
    "PSquarePercentile",
    "RunningMax",
    "RunningPercentile",
    "pearson",
    "percentile",
    "CacheSystem",
    "InterferenceResult",
    "WorkloadProfile",
    "colocation_metrics",
    "ascii_table",
    "ascii_histogram",
    "ascii_series",
]
