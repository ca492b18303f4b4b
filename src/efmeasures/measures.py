"""Closed-form information measures for same-family exponential distributions.

Everything is generated by the log-normalizer F. With G(a) = F(a*theta) -
a*F(theta) and C(a) the carrier moment (1 for zero-carrier families):

    renyi entropy      (G(a) + log C(a)) / (1 - a)
    tsallis entropy    expm1(G(a) + log C(a)) / (1 - a)
    shannon entropy    F(theta) - <theta, grad F(theta)> - E[k(x)]
    cross entropy      F(theta') - <theta', grad F(theta)> - E[k(x)]
    skew jensen        a F(theta) + (1-a) F(theta') - F(a theta + (1-a) theta')
    renyi divergence   J / (1 - a)
    tsallis divergence expm1(-J) / (a - 1)
    kl divergence      bregman gap of F with swapped arguments
    bhattacharyya      exp(-J at a = 1/2); hellinger = sqrt(-expm1(-J at a = 1/2))

Inside a narrow band around a = 1 the generic forms are 0/0; those calls are
routed to the Shannon/KL limit formulas and the branch taken is recorded on
the result. Natural logarithms throughout, so values are in nats.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .errors import DomainError, MixedParameterError, ScaledParameterError
from .families import Family, NaturalParam

__all__ = [
    "EPS_LIMIT",
    "CLOSED_FORM",
    "SHANNON_LIMIT",
    "KL_LIMIT",
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

# Width of the band around alpha = 1 inside which the generic closed forms
# cancel catastrophically; such calls take the explicit limit branch.
EPS_LIMIT = 1e-6

CLOSED_FORM = "closed-form"
SHANNON_LIMIT = "shannon-limit"
KL_LIMIT = "kl-limit"


@dataclass(frozen=True)
class MeasureResult:
    """A measure value plus which formula branch produced it."""

    value: float
    branch: str
    alpha_used: float | None = None


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha > 0):
        raise DomainError(f"alpha must be a positive real, got {alpha}")
    return alpha


# The public closed forms check each member they are given once, then hand
# the checked members to these private forms, which check only the members
# they derive. F, grad F and the carrier terms they call keep an inline guard.
# Each form first centres its members (Family.centred) and derives the rest
# from the centred ones, so that the F values it subtracts are not of size
# mu^2 / (2 var).


def _log_i_alpha_self(fam: Family, theta: NaturalParam, alpha: float) -> float:
    (theta,) = fam.centred(theta)
    scaled = theta.scaled(alpha)
    fam.require_natural(scaled, "alpha-scaled parameter", ScaledParameterError)
    gap = fam.log_normalizer(scaled) - alpha * fam.log_normalizer(theta)
    return gap + fam.log_carrier_moment(theta, alpha) if fam.has_carrier else gap


def _cross_entropy(fam: Family, theta: NaturalParam, theta2: NaturalParam) -> float:
    theta, theta2 = fam.centred(theta, theta2)
    value = fam.log_normalizer(theta2) - theta2.dot(fam.grad_log_normalizer(theta))
    return value - fam.carrier_expectation(theta) if fam.has_carrier else value


def _jensen(fam: Family, theta: NaturalParam, theta2: NaturalParam, alpha: float) -> float:
    theta, theta2 = fam.centred(theta, theta2)
    mixed = theta.mix(theta2, alpha)
    label = f"mixed parameter alpha*theta + (1-alpha)*theta' at alpha={alpha:g}"
    fam.require_natural(mixed, label, MixedParameterError)
    return (
        alpha * fam.log_normalizer(theta)
        + (1.0 - alpha) * fam.log_normalizer(theta2)
        - fam.log_normalizer(mixed)
    )


def _bregman(fam: Family, theta_q: NaturalParam, theta_p: NaturalParam) -> float:
    theta_q, theta_p = fam.centred(theta_q, theta_p)
    grad_p = fam.grad_log_normalizer(theta_p)
    gap = fam.log_normalizer(theta_q) - fam.log_normalizer(theta_p)
    return gap - (theta_q.dot(grad_p) - theta_p.dot(grad_p))


def _check_pair(fam: Family, theta: NaturalParam, theta2: NaturalParam) -> None:
    fam.require_natural(theta)
    fam.require_natural(theta2, "second natural parameter")


def i_alpha_self(fam: Family, theta: NaturalParam, alpha: float) -> float:
    """Integral of p^alpha over the support, in closed form."""
    alpha = _check_alpha(alpha)
    fam.require_natural(theta)
    return math.exp(_log_i_alpha_self(fam, theta, alpha))


def renyi_entropy(fam: Family, theta: NaturalParam, alpha: float) -> MeasureResult:
    alpha = _check_alpha(alpha)
    fam.require_natural(theta)
    if abs(alpha - 1.0) < EPS_LIMIT:
        return MeasureResult(_cross_entropy(fam, theta, theta), SHANNON_LIMIT, alpha)
    value = _log_i_alpha_self(fam, theta, alpha) / (1.0 - alpha)
    return MeasureResult(value, CLOSED_FORM, alpha)


def tsallis_entropy(fam: Family, theta: NaturalParam, alpha: float) -> MeasureResult:
    alpha = _check_alpha(alpha)
    fam.require_natural(theta)
    if abs(alpha - 1.0) < EPS_LIMIT:
        return MeasureResult(_cross_entropy(fam, theta, theta), SHANNON_LIMIT, alpha)
    value = math.expm1(_log_i_alpha_self(fam, theta, alpha)) / (1.0 - alpha)
    return MeasureResult(value, CLOSED_FORM, alpha)


def shannon_entropy(fam: Family, theta: NaturalParam) -> float:
    fam.require_natural(theta)
    return _cross_entropy(fam, theta, theta)


def shannon_cross_entropy(fam: Family, theta: NaturalParam, theta2: NaturalParam) -> float:
    """Cross entropy of the theta member against the theta' model."""
    _check_pair(fam, theta, theta2)
    return _cross_entropy(fam, theta, theta2)


def skew_jensen(fam: Family, theta: NaturalParam, theta2: NaturalParam, alpha: float) -> float:
    """Jensen gap of the log-normalizer at mixing weight alpha.

    Non-negative for alpha in [0, 1]; non-positive outside, where the mixed
    parameter may also leave the natural domain (reported as an error).
    """
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha}")
    _check_pair(fam, theta, theta2)
    return _jensen(fam, theta, theta2, alpha)


def bregman(fam: Family, theta_q: NaturalParam, theta_p: NaturalParam) -> float:
    """Bregman gap F(q) - F(p) - <q - p, grad F(p)>; zero iff q = p."""
    _check_pair(fam, theta_q, theta_p)
    return _bregman(fam, theta_q, theta_p)


def kl_divergence(fam: Family, theta: NaturalParam, theta2: NaturalParam) -> float:
    """Relative entropy of theta against theta2: the Bregman gap with swapped arguments."""
    return bregman(fam, theta2, theta)


def renyi_divergence(
    fam: Family, theta: NaturalParam, theta2: NaturalParam, alpha: float
) -> MeasureResult:
    alpha = _check_alpha(alpha)
    _check_pair(fam, theta, theta2)
    if abs(alpha - 1.0) < EPS_LIMIT:
        return MeasureResult(_bregman(fam, theta2, theta), KL_LIMIT, alpha)
    value = _jensen(fam, theta, theta2, alpha) / (1.0 - alpha)
    return MeasureResult(value, CLOSED_FORM, alpha)


def tsallis_divergence(
    fam: Family, theta: NaturalParam, theta2: NaturalParam, alpha: float
) -> MeasureResult:
    alpha = _check_alpha(alpha)
    _check_pair(fam, theta, theta2)
    if abs(alpha - 1.0) < EPS_LIMIT:
        return MeasureResult(_bregman(fam, theta2, theta), KL_LIMIT, alpha)
    value = math.expm1(-_jensen(fam, theta, theta2, alpha)) / (alpha - 1.0)
    return MeasureResult(value, CLOSED_FORM, alpha)


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
        lambda fam, p, q, a: MeasureResult(skew_jensen(fam, p, q, a), CLOSED_FORM, a),
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
