"""Closed-form information measures for same-family exponential distributions.

Every measure is arithmetic on the family's Shannon entropy H and Bregman gap
B(theta : theta') = F(theta) - F(theta') - <theta - theta', grad F(theta')>,
which the family computes from the step theta - theta'. With the mixture
m = a theta + (1 - a) theta' and phi(x) = expm1(x) / x:

    shannon entropy    H(theta); cross entropy H(theta) + B(theta' : theta)
    kl divergence      B(theta' : theta); bregman B(theta_q : theta_p)
    skew jensen        J = a B(theta : m) + (1 - a) B(theta' : m)  (grad F cancels)
    renyi divergence   D = J / (1 - a) = B(theta' : m) + a B(theta : m) / (1 - a)
    tsallis divergence expm1((a - 1) D) / (a - 1) = D phi((a - 1) D)
    renyi entropy      H_a = H + G / (1 - a), G = log(integral of p^a) - (1 - a) H
    tsallis entropy    expm1((1 - a) H_a) / (1 - a) = H_a phi((1 - a) H_a)
    bhattacharyya      exp(-J at a = 1/2); hellinger = sqrt(-expm1(-J at a = 1/2))

One form per measure at every order: at a = 1 a gap over 1 - a is 0/0 and is
taken at its limit, 0, at that one point. Natural logarithms, so values are in nats.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .errors import DomainError
from .families import Family, Member, NaturalParam

__all__ = [
    "CLOSED_FORM",
    "MeasureResult",
    "i_alpha_self",
    "renyi_entropy",
    "tsallis_entropy",
    "shannon_entropy",
    "shannon_cross_entropy",
    "skew_jensen",
    "bregman",
    "renyi_divergence",
    "tsallis_divergence",
    "kl_divergence",
    "i_alpha_cross",
    "bhattacharyya_coefficient",
    "hellinger_distance",
    "renyi_to_tsallis",
    "tsallis_to_renyi",
    "Measure",
    "MEASURES",
    "MEASURE_NAMES",
    "measure_needs_alpha",
    "measure_needs_pair",
    "evaluate_measure",
]

CLOSED_FORM = "closed-form"


@dataclass(frozen=True)
class MeasureResult:
    """A measure value plus which formula produced it (always the closed form)."""

    value: float
    branch: str
    alpha_used: float | None = None


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha > 0):
        raise DomainError(f"alpha must be a positive real, got {alpha}")
    return alpha


def _over(gap: float, denom: float) -> float:
    """gap / denom for a gap that vanishes with denom, and their limit 0 at denom = 0."""
    return gap / denom if denom else 0.0


def _phi(x: float) -> float:
    """expm1(x) / x, and its limit 1 at x = 0."""
    return math.expm1(x) / x if x else 1.0


# The public forms check each member they are given once (fam.member), the family what it derives.


def _renyi_entropy(fam: Family, theta: Member, alpha: float) -> float:
    entropy, gap = fam._renyi_gap(theta, alpha)
    return entropy + _over(gap, 1.0 - alpha)


def _renyi_divergence(fam: Family, theta: Member, theta2: Member, alpha: float) -> float:
    gap, gap2 = fam._jensen_gaps(theta, theta2, alpha)
    return gap2 + _over(alpha * gap, 1.0 - alpha)


def _members(fam: Family, theta: NaturalParam, theta2: NaturalParam) -> tuple[Member, Member]:
    return fam.member(theta), fam.member(theta2, "second natural parameter")


def i_alpha_self(fam: Family, theta: NaturalParam, alpha: float) -> float:
    """Integral of p^alpha over the support, in closed form."""
    alpha = _check_alpha(alpha)
    return math.exp((1.0 - alpha) * _renyi_entropy(fam, fam.member(theta), alpha))


def renyi_entropy(fam: Family, theta: NaturalParam, alpha: float) -> MeasureResult:
    alpha = _check_alpha(alpha)
    return MeasureResult(_renyi_entropy(fam, fam.member(theta), alpha), CLOSED_FORM, alpha)


def tsallis_entropy(fam: Family, theta: NaturalParam, alpha: float) -> MeasureResult:
    alpha = _check_alpha(alpha)
    h = _renyi_entropy(fam, fam.member(theta), alpha)
    return MeasureResult(h * _phi((1.0 - alpha) * h), CLOSED_FORM, alpha)


def shannon_entropy(fam: Family, theta: NaturalParam) -> float:
    return fam._entropy(fam.member(theta))


def shannon_cross_entropy(fam: Family, theta: NaturalParam, theta2: NaturalParam) -> float:
    """Cross entropy of the theta member against the theta' model."""
    theta, theta2 = _members(fam, theta, theta2)
    return fam._entropy(theta) + fam._gap(theta2, theta)


def skew_jensen(fam: Family, theta: NaturalParam, theta2: NaturalParam, alpha: float) -> float:
    """Jensen gap of the log-normalizer at mixing weight alpha.

    Non-negative for alpha in [0, 1]; non-positive outside, where the mixed
    parameter may also leave the natural domain (reported as an error).
    """
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha}")
    gap, gap2 = fam._jensen_gaps(*_members(fam, theta, theta2), alpha)
    return alpha * gap + (1.0 - alpha) * gap2


def bregman(fam: Family, theta_q: NaturalParam, theta_p: NaturalParam) -> float:
    """Bregman gap F(q) - F(p) - <q - p, grad F(p)>; zero iff q = p."""
    return fam._gap(*_members(fam, theta_q, theta_p))


def kl_divergence(fam: Family, theta: NaturalParam, theta2: NaturalParam) -> float:
    """Relative entropy of theta against theta2: the Bregman gap with swapped arguments."""
    theta, theta2 = _members(fam, theta, theta2)
    return fam._gap(theta2, theta)


def renyi_divergence(
    fam: Family, theta: NaturalParam, theta2: NaturalParam, alpha: float
) -> MeasureResult:
    alpha = _check_alpha(alpha)
    d = _renyi_divergence(fam, *_members(fam, theta, theta2), alpha)
    return MeasureResult(d, CLOSED_FORM, alpha)


def tsallis_divergence(
    fam: Family, theta: NaturalParam, theta2: NaturalParam, alpha: float
) -> MeasureResult:
    alpha = _check_alpha(alpha)
    d = _renyi_divergence(fam, *_members(fam, theta, theta2), alpha)
    return MeasureResult(d * _phi((alpha - 1.0) * d), CLOSED_FORM, alpha)


def i_alpha_cross(
    fam: Family, theta: NaturalParam, theta2: NaturalParam, alpha: float
) -> float:
    """Integral of p^alpha q^(1-alpha); equals exp(-jensen gap)."""
    alpha = _check_alpha(alpha)
    return math.exp(-skew_jensen(fam, theta, theta2, alpha))


def bhattacharyya_coefficient(
    fam: Family, theta: NaturalParam, theta2: NaturalParam
) -> float:
    """Overlap integral of sqrt(p q); in (0, 1], equal to 1 iff p = q."""
    return math.exp(-skew_jensen(fam, theta, theta2, 0.5))


def hellinger_distance(fam: Family, theta: NaturalParam, theta2: NaturalParam) -> float:
    # 1 - bhattacharyya as -expm1(-J), which keeps its digits for near-identical members.
    return math.sqrt(max(0.0, -math.expm1(-skew_jensen(fam, theta, theta2, 0.5))))


def renyi_to_tsallis(h_renyi: float, alpha: float) -> float:
    """Monotone conversion between the two entropy scales at the same order."""
    alpha = _check_alpha(alpha)
    if alpha == 1.0:
        raise DomainError("conversion is undefined at alpha = 1")
    return math.expm1((1.0 - alpha) * h_renyi) / (1.0 - alpha)


def tsallis_to_renyi(h_tsallis: float, alpha: float) -> float:
    alpha = _check_alpha(alpha)
    if alpha == 1.0:
        raise DomainError("conversion is undefined at alpha = 1")
    arg = (1.0 - alpha) * h_tsallis
    if arg <= -1.0:
        raise DomainError(
            f"(1-alpha)*h + 1 must be positive, got {arg + 1.0} (log of a non-positive value)"
        )
    return math.log1p(arg) / (1.0 - alpha)


# --------------------------------------------------------------------------
# The measure table: one row per measure, read by the name-based dispatch
# below, the CLI, `verify` and the plug-in estimator.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Measure:
    """One measure: its name, what it takes, and its closed form
    ``closed_form(fam, theta, theta2, alpha)``, which ignores what it does not take."""

    name: str
    needs_pair: bool
    needs_alpha: bool
    closed_form: Callable[..., MeasureResult]


def _plain(fn) -> Callable[..., MeasureResult]:
    """Table form of a plain-valued measure ``fn(fam, theta, theta2)``."""
    return lambda fam, p, q, a: MeasureResult(fn(fam, p, q), CLOSED_FORM)


MEASURES: tuple[Measure, ...] = (
    Measure("renyi", False, True, lambda fam, p, q, a: renyi_entropy(fam, p, a)),
    Measure("tsallis", False, True, lambda fam, p, q, a: tsallis_entropy(fam, p, a)),
    Measure("shannon", False, False, _plain(lambda fam, p, q: shannon_entropy(fam, p))),
    Measure("cross-entropy", True, False, _plain(shannon_cross_entropy)),
    Measure("kl", True, False, _plain(kl_divergence)),
    Measure("renyi-div", True, True, renyi_divergence),
    Measure("tsallis-div", True, True, tsallis_divergence),
    Measure("bhattacharyya", True, False, _plain(bhattacharyya_coefficient)),
    Measure("hellinger", True, False, _plain(hellinger_distance)),
    Measure(
        "jensen", True, True,
        lambda fam, p, q, a: MeasureResult(skew_jensen(fam, p, q, a), CLOSED_FORM, float(a)),
    ),
    Measure("bregman", True, False, _plain(bregman)),
)

_BY_NAME = {m.name: m for m in MEASURES}

MEASURE_NAMES = tuple(_BY_NAME)


def measure_needs_alpha(measure: str) -> bool:
    return measure in _BY_NAME and _BY_NAME[measure].needs_alpha


def measure_needs_pair(measure: str) -> bool:
    return measure in _BY_NAME and _BY_NAME[measure].needs_pair


def evaluate_measure(
    fam: Family,
    measure: str,
    theta: NaturalParam,
    theta2: NaturalParam | None = None,
    alpha: float | None = None,
) -> MeasureResult:
    """Evaluate a measure by name, wrapping plain values as closed-form results."""
    row = _BY_NAME.get(measure)
    if row is None:
        raise ValueError(f"unknown measure {measure!r}; known: {', '.join(MEASURE_NAMES)}")
    if row.needs_pair and theta2 is None:
        raise ValueError(f"measure {measure!r} needs a second parameter")
    if row.needs_alpha and alpha is None:
        raise ValueError(f"measure {measure!r} needs an alpha order")
    return row.closed_form(fam, theta, theta2, alpha)
