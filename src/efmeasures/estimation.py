"""Closed-form maximum likelihood and plug-in measure estimation.

The MLE of a natural parameter from i.i.d. observations inverts the moment
map: theta_hat is the natural parameter whose expected sufficient statistic
equals the sample mean of the statistics. Every implemented family inverts
that map in closed form, so no iterative fitting is involved. Plug-in
measures evaluate the closed forms of ``measures`` at the estimates; no
bias correction is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, ExpectationDomainError
from .families import Family, NaturalParam
from .measures import MeasureResult, evaluate_measure, measure_needs_pair

__all__ = ["SampleSet", "Estimate", "MeasureRequest", "mle", "plugin_measure"]


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Observations from one family; validated against the support on construction."""

    family: Family
    observations: np.ndarray

    def __post_init__(self) -> None:
        fam = self.family
        obs = np.asarray(self.observations)
        if fam.support.kind == "real-vector":
            obs = np.asarray(obs, dtype=float).reshape(-1, fam.support.dim)
        else:
            obs = np.atleast_1d(obs)
            if obs.ndim != 1:
                raise ValueError("observations must form a flat sequence")
        ok = fam.in_support_batch(obs)
        if not ok.all():
            fam.require_support(obs[int(np.argmin(ok))])
        if len(obs) < 1:
            raise ValueError("a sample set needs at least one observation")
        obs = np.array(obs, dtype=float)
        obs.setflags(write=False)
        object.__setattr__(self, "observations", obs)

    def __len__(self) -> int:
        return len(self.observations)


@dataclass(frozen=True, eq=False)
class Estimate:
    """A fitted natural parameter and the moment it was inverted from."""

    theta: NaturalParam
    n: int
    mean_sufficient_stat: NaturalParam


def _compensated_column_means(stats: np.ndarray) -> np.ndarray:
    # math.fsum is exact up to the final rounding; at 1e5+ observations a
    # naive accumulation would eat into the acceptance bands.
    n = stats.shape[0]
    return np.asarray([math.fsum(stats[:, j]) / n for j in range(stats.shape[1])])


def mle(sample: SampleSet) -> Estimate:
    """Closed-form maximum-likelihood natural parameter for a sample set.

    Raises DegenerateSampleError when the mean sufficient statistic sits on
    the boundary of the expectation space (all-equal Bernoulli draws, zero
    empirical variance, singular empirical second moment, ...).
    """
    fam = sample.family
    stats = fam.sufficient_stat_batch(sample.observations)
    mean = fam.compose(_compensated_column_means(stats))
    try:
        theta = fam.grad_inverse(mean)
    except ExpectationDomainError as exc:
        raise DegenerateSampleError(
            f"{fam.name}: sample moments are degenerate ({exc})"
        ) from exc
    return Estimate(theta=theta, n=len(sample), mean_sufficient_stat=mean)


@dataclass(frozen=True)
class MeasureRequest:
    """Which measure to evaluate, and at which order when applicable."""

    measure: str
    alpha: float | None = None


def plugin_measure(
    request: MeasureRequest,
    sample_p: SampleSet,
    sample_q: SampleSet | None = None,
) -> MeasureResult:
    """Evaluate a measure at the MLE(s) of one or two sample sets."""
    theta = mle(sample_p).theta
    theta2 = None
    if measure_needs_pair(request.measure):
        if sample_q is None:
            raise ValueError(f"measure {request.measure!r} needs two sample sets")
        if sample_q.family != sample_p.family:
            raise ValueError(
                f"sample sets come from different families: "
                f"{sample_p.family.name} vs {sample_q.family.name}"
            )
        theta2 = mle(sample_q).theta
    return evaluate_measure(sample_p.family, request.measure, theta, theta2, request.alpha)
