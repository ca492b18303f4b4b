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
from .families import Family, Member, NaturalParam
from .measures import MeasureResult, evaluate_measure, measure_needs_pair

__all__ = ["SampleSet", "Estimate", "mle", "plugin_measure"]


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

    theta: Member
    n: int
    mean_sufficient_stat: NaturalParam


def _compensated_column_means(stats: np.ndarray) -> np.ndarray:
    # math.fsum is exact up to the final rounding; at 1e5+ observations a
    # naive accumulation would eat into the acceptance bands.
    n = stats.shape[0]
    return np.asarray([math.fsum(col) / n for col in stats.T.tolist()])


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


def plugin_measure(
    measure: str,
    estimate_p: Estimate,
    estimate_q: Estimate | None = None,
    alpha: float | None = None,
) -> MeasureResult:
    """Evaluate a measure at one or two fits from ``mle``, in the fits' family."""
    fam = estimate_p.theta.family
    theta2 = None
    if estimate_q is not None and measure_needs_pair(measure):
        theta2 = estimate_q.theta
        if theta2.family != fam:
            raise ValueError(f"fits of different families: {fam.name} vs {theta2.family.name}")
    return evaluate_measure(fam, measure, estimate_p.theta, theta2, alpha)
