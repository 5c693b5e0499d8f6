"""Statistics substrate: descriptive statistics, empirical CDFs, binomial
confidence intervals, and the pair-difference test used to compare
measurement techniques against each other (paper §IV-B).
"""

from repro.stats.cdf import EmpiricalCdf, quantile_index
from repro.stats.descriptive import (
    mean,
    median,
    quantile,
    stddev,
    summarize,
    variance,
)
from repro.stats.intervals import BinomialEstimate, binomial_estimate, wilson_interval
from repro.stats.pair_difference import PairDifferenceResult, paired_difference_test
from repro.stats.student_t import t_quantile

__all__ = [
    "BinomialEstimate",
    "EmpiricalCdf",
    "PairDifferenceResult",
    "binomial_estimate",
    "mean",
    "median",
    "paired_difference_test",
    "quantile",
    "quantile_index",
    "stddev",
    "summarize",
    "t_quantile",
    "variance",
    "wilson_interval",
]
