"""Closed-form information measures for exponential families.

Renyi, Tsallis and Shannon entropies, cross-entropy, and the
Renyi/Tsallis/Kullback-Leibler divergences (plus Bhattacharyya coefficient,
Hellinger distance, skew Jensen and Bregman gaps) all reduce to arithmetic
on the log-normalizer when both distributions belong to the same
exponential family. This package implements those closed forms for six
families, an independent numerical oracle that recomputes every measure
from the raw log-density, and closed-form maximum-likelihood estimation.

Quick start::

    from efmeasures import get_family, GaussianParams, measures

    fam = get_family("gaussian")
    theta = fam.to_natural(GaussianParams(mu=0.0, var=1.0))
    measures.evaluate_measure(fam, "renyi", theta, alpha=2.0).value

The ``efmeasures`` console script exposes the same operations, plus a
closed-form-versus-oracle verification grid, as a CLI.
"""

from . import estimation, families, measures, oracle
from .errors import (
    ConvergenceError,
    DegenerateSampleError,
    DomainError,
    ExpectationDomainError,
    MixedParameterError,
    NaturalDomainError,
    ParameterDomainError,
    ScaledParameterError,
    SupportError,
)
from .estimation import Estimate, SampleSet, mle, plugin_measure
from .families import (
    BERNOULLI,
    EXPONENTIAL,
    GAUSSIAN,
    LAPLACIAN,
    POISSON,
    BernoulliParams,
    ExponentialParams,
    Family,
    GaussianParams,
    LaplacianParams,
    MultivariateGaussianFamily,
    MultivariateGaussianParams,
    NaturalParam,
    PoissonParams,
    get_family,
    family_names,
)
from .measures import MeasureResult, evaluate_measure
from .oracle import OracleConfig, OracleEstimate, oracle_measure

__version__ = "0.1.0"

__all__ = [
    "families",
    "measures",
    "oracle",
    "estimation",
    "Family",
    "NaturalParam",
    "ExponentialParams",
    "PoissonParams",
    "BernoulliParams",
    "GaussianParams",
    "MultivariateGaussianParams",
    "LaplacianParams",
    "EXPONENTIAL",
    "POISSON",
    "BERNOULLI",
    "GAUSSIAN",
    "LAPLACIAN",
    "MultivariateGaussianFamily",
    "get_family",
    "family_names",
    "MeasureResult",
    "evaluate_measure",
    "OracleConfig",
    "OracleEstimate",
    "oracle_measure",
    "SampleSet",
    "Estimate",
    "mle",
    "plugin_measure",
    "DomainError",
    "ParameterDomainError",
    "NaturalDomainError",
    "ScaledParameterError",
    "MixedParameterError",
    "SupportError",
    "ExpectationDomainError",
    "DegenerateSampleError",
    "ConvergenceError",
]
