"""Beta generalized exponential distribution library.

Core surface:

- :class:`bgedist.BGE` -- the four-parameter distribution object
  (pdf/cdf/survival/hazard/quantile/sampling, sub-model constructors);
- :mod:`bgedist.series` -- series expansions of the cdf and density;
  mgf, moments and entropy;
- :mod:`bgedist.order_stats` -- order-statistic densities (direct and
  mixture forms), moments and mgfs;
- :mod:`bgedist.inference` -- likelihood, score, expected information,
  maximum-likelihood fitting, confidence intervals, LR tests;
- :mod:`bgedist.specfun` -- the special-function kernel.

Importing the package loads the distribution and the datasets only, and
no part of scipy.  ``series``, ``order_stats`` and ``inference`` load on
first access to one of their names here (PEP 562), and each function
imports the scipy module it needs on first use.
"""

import importlib

from .datasets import GLASS_FIBRE_STRENGTHS, glass_fibre_sample
from .distribution import BGE, Sample

__version__ = "0.1.0"

#: The names each lazily loaded submodule exports from the package.
_LAZY = {
    "inference": ("FitResult", "InfoMatrix", "LrTestResult", "ScoreVector",
                  "confidence_intervals", "fit_mle", "information_matrix",
                  "log_likelihood", "lr_test", "score", "t_expectation"),
    "order_stats": ("OrderStatIndex", "order_stat_mgf", "order_stat_moment",
                    "order_stat_pdf_direct", "order_stat_pdf_mixture"),
    "series": ("MomentSet", "cdf_series", "closed_form_cdf_integer", "mgf",
               "moment_set", "pdf_mixture", "raw_moment", "shannon_entropy",
               "skewness_kurtosis"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = ["BGE", "Sample", "GLASS_FIBRE_STRENGTHS", "glass_fibre_sample", *_HOME]


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
