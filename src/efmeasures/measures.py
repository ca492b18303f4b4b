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

Each row of MEASURES holds one of these forms. ``evaluate_measure`` is the one
entry point: it checks the pair, the order and each member once, and calls the
row. One form per measure at every order: at a = 1 a gap over 1 - a is 0/0 and
is taken at its limit, 0, at that one point. Natural logarithms, so values are
in nats.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError
from .families import Family, Member, NaturalParam

__all__ = [
    "CLOSED_FORM",
    "MeasureResult",
    "Measure",
    "MEASURES",
    "MEASURE_NAMES",
    "measure_needs_alpha",
    "measure_needs_pair",
    "evaluate_measure",
]

CLOSED_FORM = "closed-form"


class MeasureResult(NamedTuple):
    """A measure value plus which formula produced it (always the closed form)."""

    value: float
    branch: str
    alpha_used: float | None = None


def _over(gap: float, denom: float) -> float:
    """gap / denom for a gap that vanishes with denom, and their limit 0 at denom = 0."""
    return gap / denom if denom else 0.0


def _tsallis(value: float, k: float) -> float:
    """The Tsallis form expm1(k value) / k of a Renyi value, as value phi(k value)."""
    x = k * value
    return value * (math.expm1(x) / x if x else 1.0)


def _renyi_entropy(fam: Family, p: Member, alpha: float) -> float:
    entropy, gap = fam._renyi_gap(p, alpha)
    return entropy + _over(gap, 1.0 - alpha)


def _renyi_divergence(fam: Family, p: Member, q: Member, alpha: float) -> float:
    gap, gap2 = fam._jensen_gaps(p, q, alpha)
    return gap2 + _over(alpha * gap, 1.0 - alpha)


def _jensen(fam: Family, p: Member, q: Member, alpha: float) -> float:
    """Non-negative for alpha in [0, 1]; non-positive outside, where the mixed
    parameter may also leave the natural domain (reported as an error)."""
    gap, gap2 = fam._jensen_gaps(p, q, alpha)
    return alpha * gap + (1.0 - alpha) * gap2


@dataclass(frozen=True)
class Measure:
    """One measure: its name, whether it takes a second member, the orders it takes
    (``None`` for none, ``"positive"`` or ``"finite"`` reals), and its closed form
    ``closed_form(fam, p, q, alpha)``. The form gets checked members and a checked
    float order, ignores what the measure does not take, and returns a float."""

    name: str
    needs_pair: bool
    order: str | None
    closed_form: Callable[[Family, Member, Member | None, float | None], float]


MEASURES: tuple[Measure, ...] = (
    Measure("renyi", False, "positive", lambda fam, p, q, a: _renyi_entropy(fam, p, a)),
    Measure(
        "tsallis", False, "positive",
        lambda fam, p, q, a: _tsallis(_renyi_entropy(fam, p, a), 1.0 - a),
    ),
    Measure("shannon", False, None, lambda fam, p, q, a: fam._entropy(p)),
    Measure("cross-entropy", True, None, lambda fam, p, q, a: fam._entropy(p) + fam._gap(q, p)),
    Measure("kl", True, None, lambda fam, p, q, a: fam._gap(q, p)),
    Measure("renyi-div", True, "positive", _renyi_divergence),
    Measure(
        "tsallis-div", True, "positive",
        lambda fam, p, q, a: _tsallis(_renyi_divergence(fam, p, q, a), a - 1.0),
    ),
    # The overlap integral of sqrt(p q), in (0, 1]; hellinger takes 1 - it as -expm1(-J),
    # which keeps its digits for near-identical members.
    Measure("bhattacharyya", True, None, lambda fam, p, q, a: math.exp(-_jensen(fam, p, q, 0.5))),
    Measure(
        "hellinger", True, None,
        lambda fam, p, q, a: math.sqrt(max(0.0, -math.expm1(-_jensen(fam, p, q, 0.5)))),
    ),
    Measure("jensen", True, "finite", _jensen),
    # B(p : q), zero iff p = q.
    Measure("bregman", True, None, lambda fam, p, q, a: fam._gap(p, q)),
)

_BY_NAME = {m.name: m for m in MEASURES}

MEASURE_NAMES = tuple(_BY_NAME)


def measure_needs_alpha(measure: str) -> bool:
    return measure in _BY_NAME and _BY_NAME[measure].order is not None


def measure_needs_pair(measure: str) -> bool:
    return measure in _BY_NAME and _BY_NAME[measure].needs_pair


def evaluate_measure(
    fam: Family,
    measure: str,
    theta: NaturalParam,
    theta2: NaturalParam | None = None,
    alpha: float | None = None,
) -> MeasureResult:
    """Evaluate a measure by name. The pair and the order are checked against the
    measure's row, then each member once; a second member or an order the measure
    does not take is ignored, and ``alpha_used`` is the float order it took."""
    row = _BY_NAME.get(measure)
    if row is None:
        raise ValueError(f"unknown measure {measure!r}; known: {', '.join(MEASURE_NAMES)}")
    if row.needs_pair and theta2 is None:
        raise ValueError(f"measure {measure!r} needs a second parameter")
    if row.order is None:
        alpha = None
    elif alpha is None:
        raise ValueError("the measure needs an alpha order")
    else:
        alpha = float(alpha)
        if not (math.isfinite(alpha) and (alpha > 0 or row.order == "finite")):
            raise DomainError(f"alpha must be a {row.order} real, got {alpha}")
    p = fam.member(theta)
    q = fam.member(theta2, "second natural parameter") if row.needs_pair else None
    # One tuple of the fields, without the keyword binding of the record's constructor.
    return tuple.__new__(MeasureResult, (row.closed_form(fam, p, q, alpha), CLOSED_FORM, alpha))
