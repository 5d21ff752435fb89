"""Bundled reference data.

The glass-fibre strengths (63 specimens of 1.5 cm fibre measured at the
National Physical Laboratory) are the standard positive-data benchmark
for this family; published fit results for them ship alongside so the
reproduction command can report side-by-side comparisons.
"""

from __future__ import annotations

import numpy as np

from .distribution import Sample

__all__ = ["GLASS_FIBRE_STRENGTHS", "glass_fibre_sample", "GLASS_FIBRE_REFERENCE",
           "GLASS_FIBRE_TOLERANCES"]

GLASS_FIBRE_STRENGTHS = (
    0.55, 0.93, 1.25, 1.36, 1.49, 1.52, 1.58, 1.61, 1.64, 1.68, 1.73, 1.81, 2.00,
    0.74, 1.04, 1.27, 1.39, 1.49, 1.53, 1.59, 1.61, 1.66, 1.68, 1.76, 1.82, 2.01,
    0.77, 1.11, 1.28, 1.42, 1.50, 1.54, 1.60, 1.62, 1.66, 1.69, 1.76, 1.84, 2.24,
    0.81, 1.13, 1.29, 1.48, 1.50, 1.55, 1.61, 1.62, 1.66, 1.70, 1.77, 1.84,
    0.84, 1.24, 1.30, 1.48, 1.51, 1.55, 1.61, 1.63, 1.67, 1.70, 1.78, 1.89,
)


def glass_fibre_sample() -> Sample:
    """The 63 glass-fibre strength observations as a validated Sample."""
    return Sample(np.array(GLASS_FIBRE_STRENGTHS), label="glass fibre strengths (n=63)")


#: Published reference estimates for the glass-fibre benchmark.  The
#: full-model and beta-exponential values are not stationary points of
#: the likelihood (the surface rises along a b -> infinity ridge toward
#: a generalized-gamma limit); see errata.json at the repository root.
GLASS_FIBRE_REFERENCE = {
    "bge": {"a": 0.4125, "b": 93.4655, "lambda": 0.92271, "alpha": 22.6124,
            "loglik": -15.5995},
    "be": {"a": 17.7786, "b": 22.7222, "lambda": 0.3898, "loglik": -24.1270},
    "ge": {"lambda": 2.6105, "alpha": 31.3032, "loglik": -31.3834},
    "lr": {"be_vs_bge": {"statistic": 17.0550, "p_value": 3.63e-5},
           "ge_vs_bge": {"statistic": 31.5678, "p_value": 1.39e-7}},
}

#: Tolerances at which a glass-fibre fit is compared with
#: GLASS_FIBRE_REFERENCE: "rel" relative on every parameter, "loglik"
#: and "statistic" absolute, "loglik_floor" the lowest accepted BGE
#: loglik, and "p_factor" the factor by which an LR p-value may differ
#: from the published one either way.
GLASS_FIBRE_TOLERANCES = {
    "ge": {"rel": 0.01, "loglik": 0.02},
    "be": {"rel": 0.02, "loglik": 0.05},
    "bge": {"rel": 0.10, "loglik": 0.05, "loglik_floor": -15.6495},
    "lr": {"statistic": 0.1, "p_factor": 2},
}
