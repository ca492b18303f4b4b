"""Closed-form maximum likelihood and plug-in measure estimation.

The MLE of a natural parameter from i.i.d. observations inverts the moment
map: theta_hat is the natural parameter whose expected sufficient statistic
equals the sample mean of the statistics. Every implemented family inverts
that map in closed form, so no iterative fitting is involved. Plug-in
measures evaluate the closed forms of ``measures`` at the estimates; no
bias correction is applied.

The mean statistic is exact up to its final rounding: each column's sum is
the float ``math.fsum`` gives, bit for bit, found without a Python float per
observation. ``np.frexp`` writes each statistic as m 2^e, and m 2^27 splits
exactly into an integer head and a tail in multiples of 2^-26; summed per
(column, exponent) bucket over at most 2^16 rows, both stay integers below
2^53 in their units, so every bucket sum is exact (the error-free splitting of
Rump, Ogita and Oishi, *Accurate floating-point summation, part I*, SIAM J.
Sci. Comput. 31(1), 2008). ``math.fsum`` of a column's scaled bucket sums is
then the correctly rounded total. A statistic or a sum beyond the float range
raises ``OverflowError``.
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


# Rows per bucketing pass: their heads sum to below 2^43 and their tails to below
# 2^42 units of 2^-26, so each bucket sum is an exact float.
_SUM_ROWS = 2**16
_EXPONENTS = 2098  # np.frexp's exponents of finite floats, -1073 to 1024


def _exact_column_means(stats: np.ndarray) -> np.ndarray:
    """``math.fsum(col) / n`` of each column of an (n, c) array, bit for bit.

    Each finite x = m 2^e (``np.frexp``, 1/2 <= |m| < 1) splits into the
    integer head h = floor(m 2^27) and the tail m 2^27 - h in [0, 1), a
    multiple of 2^-26; both are exact. ``np.bincount`` sums the heads and the
    tails per (column, exponent) over ``_SUM_ROWS`` rows at a time, exactly,
    and ``np.ldexp`` scales each bucket sum by 2^(e - 27), exactly unless it
    overflows. ``math.fsum`` of a column's parts, two per exponent in the
    block's range (a few dozen), is the correctly rounded total. Raises
    ``OverflowError`` on a statistic that is not finite, or on a part or a
    total beyond the float range.
    """
    n, c = stats.shape
    parts: list[list[float]] = [[] for _ in range(c)]
    for start in range(0, n, _SUM_ROWS):
        block = stats.T[:, start : start + _SUM_ROWS]  # a column a row: numpy runs along them
        mant, exp = np.frexp(block, out=(np.empty(block.shape), np.empty(block.shape, np.intp)))
        low = int(exp.min())
        span = int(exp.max()) - low + 1
        # inf or nan leaves a nan tail, so a part that is not finite below; C leaves
        # its exponent unspecified, and one out of range is caught here.
        if span > _EXPONENTS:
            raise OverflowError("a sufficient statistic is not finite")
        exp += np.arange(-low, c * span - low, span)[:, None]  # the (column, exponent) bucket
        sums = np.empty((c, 2, span))
        with np.errstate(over="ignore", invalid="ignore"):
            mant *= 2.0**27
            head = np.floor(mant)
            mant -= head  # the tails
            for k, w in enumerate((head, mant)):
                sums[:, k] = np.bincount(exp.ravel(), w.ravel(), c * span).reshape(c, span)
            sums = np.ldexp(sums, np.arange(low - 27, low - 27 + span))
        if not np.isfinite(sums).all():
            raise OverflowError("a sufficient statistic or a column sum of them overflows")
        for col, part in zip(parts, sums.reshape(c, -1).tolist()):
            col += part
    return np.array([math.fsum(col) / n for col in parts])


def mle(sample: SampleSet) -> Estimate:
    """Closed-form maximum-likelihood natural parameter for a sample set.

    Raises DegenerateSampleError when the mean sufficient statistic sits on
    the boundary of the expectation space (all-equal Bernoulli draws, zero
    empirical variance, singular empirical second moment, ...), and
    OverflowError when a sufficient statistic (x^2 of a Gaussian draw of
    1e200, say) or a column sum of them is beyond the float range.
    """
    fam = sample.family
    stats = fam.sufficient_stat_batch(sample.observations)
    mean = fam.compose(_exact_column_means(stats))
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
