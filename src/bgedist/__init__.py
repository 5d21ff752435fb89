"""Beta generalized exponential distribution library.

Core surface:

- :class:`bgedist.BGE` -- the four-parameter distribution object
  (pdf/cdf/survival/hazard/quantile/sampling, sub-model constructors);
- :mod:`bgedist.series` -- series expansions of the cdf, density,
  mgf, moments and entropy;
- :mod:`bgedist.order_stats` -- order-statistic densities, moments
  and mgfs (direct and mixture forms);
- :mod:`bgedist.inference` -- likelihood, score, expected information,
  maximum-likelihood fitting, confidence intervals, LR tests;
- :mod:`bgedist.specfun` -- the special-function kernel.

Importing the package loads no part of scipy; each function imports the
scipy module it needs on first use.
"""

from .distribution import BGE, Sample
from .datasets import GLASS_FIBRE_STRENGTHS, glass_fibre_sample
from .inference import (FitResult, InfoMatrix, LrTestResult, ScoreVector,
                        confidence_intervals, fit_mle, information_matrix,
                        log_likelihood, lr_test, score, t_expectation)
from .order_stats import (MixtureTermBudget, OrderStatIndex, order_stat_mgf,
                          order_stat_moment, order_stat_pdf_direct,
                          order_stat_pdf_mixture)
from .series import (MomentSet, SeriesControl, cdf_series,
                     closed_form_cdf_integer, mgf, moment_set, pdf_mixture,
                     raw_moment, shannon_entropy, skewness_kurtosis)

__version__ = "0.1.0"

__all__ = [
    "BGE", "Sample", "GLASS_FIBRE_STRENGTHS", "glass_fibre_sample",
    "FitResult", "InfoMatrix", "LrTestResult", "ScoreVector",
    "confidence_intervals", "fit_mle", "information_matrix",
    "log_likelihood", "lr_test", "score", "t_expectation",
    "MixtureTermBudget", "OrderStatIndex", "order_stat_mgf",
    "order_stat_moment", "order_stat_pdf_direct", "order_stat_pdf_mixture",
    "MomentSet", "SeriesControl", "cdf_series", "closed_form_cdf_integer",
    "mgf", "moment_set", "pdf_mixture", "raw_moment", "shannon_entropy",
    "skewness_kurtosis",
]
