"""Independent numerical verification of the closed forms.

``oracle_measure`` is the one entry point per measure, public beside the
power integrals it reads. Each measure is recomputed directly from the
members' log-densities: exact rules of a few nodes for the continuous
families, and windowed summation with a certified tail bound for the
discrete ones. Nothing in this module consults ``measures``.

Every log-density is built from source parameters (a rate, a scale, a
Gaussian mean and variance or precision Cholesky), never from the
log-normalizer F. Every family log-density subtracts F, so a sum of
``log_density_batch`` values would reproduce F's differences term by term
and agree with a wrong F.

The continuous integrals are expectations under a proposal member g: the
alpha-scaled member for power integrals, the alpha-mixture for cross
integrals and p itself otherwise. Within an exponential family p^a q^(1-a)
is a constant times another member, so every integrand divided by g is a
constant or a polynomial of degree at most 2 in the standardized variable:
z = (x - m) / s for a Gaussian g = N(m, s^2) (or x = m + L z with L = P^-T
for the factor P P^T of its precision), and z = |x| / scale for an
exponential or zero-mean Laplacian g, under which z is Exp(1). Two rules
integrate that exactly: the 2- and 2d + 1-node fully symmetric degree-3
rules for z ~ N(0, I_d) (Stroud, Approximate Calculation of Multiple
Integrals, 1971; at d = 1 the 2- and 3-point Gauss-Hermite rules), and the
1- and 2-point Gauss-Laguerre rules for z ~ Exp(1). The value is the finer
rule's sum, and its bound the gap between the two rules plus rounding, which
is at the rounding level. Rules run node by node on floats, one ``np.exp`` a rule.

Summed terms carry a rounding bound proportional to the magnitudes their
exponents are computed from, not to the exponents: at a Poisson rate of 900,
log p(k) is about -4 but is summed from pieces of size ~6000. A series is
divided by the summed masses of its first member p, computed from the same
log p(k), so that rounding cancels except through the spread of the
integrand over p around the value: a power integral near alpha = 1, whose
Renyi value divides by |1 - alpha|, keeps a rounding bound of order eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ConvergenceError, DomainError, NaturalDomainError
from .families import Family, GaussianParams, LaplacianParams
from .families import NaturalParam, _log_factorials, _lower_inverse, _tail, count_series

__all__ = [
    "OracleConfig",
    "OracleEstimate",
    "DISCRETE_SUM",
    "CUBATURE",
    "oracle_i_alpha_self",
    "oracle_i_alpha_cross",
    "oracle_grad_check",
    "oracle_measure",
]

DISCRETE_SUM = "discrete-sum"
CUBATURE = "cubature"

_EPS = float(np.finfo(float).eps)
_LOG_2PI = math.log(2.0 * math.pi)

# A summed term's rounding error, in units of eps times the magnitudes its
# exponent and weight are computed from: each piece and each operation on
# them rounds once.
_ROUNDING_ULPS = 4.0


@dataclass(frozen=True)
class OracleConfig:
    """The last argument of ``oracle_measure``, accepted and read by nothing:
    every oracle backend is an exact rule or a certified sum, with nothing to
    tune or sample. No other oracle function takes it.

    It and ``mc_samples`` and ``seed``, validated, remain only because the
    benchmark harness (``bench/workloads.py``, ``bench/probe.py``) still
    builds it and passes it to ``oracle_measure``, and go once it stops.
    """

    mc_samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mc_samples < 1000:
            raise ValueError(f"mc_samples must be >= 1000, got {self.mc_samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass(frozen=True)
class OracleEstimate:
    """A numerical value, a defensible error bound, and how it was obtained.

    ``evaluations`` counts integrand evaluations: series terms, or the
    nodes of both cubature rules.
    """

    value: float
    error_bound: float
    method: str
    evaluations: int


@dataclass(frozen=True)
class _Integrand:
    """w(x) exp(e(x)), with e = sum_j a_j log p_j(x) and w = sum_j b_j log p_j(x)
    over ``members`` (w = 1 when ``b`` is None)."""

    members: tuple[NaturalParam, ...]
    a: tuple[float, ...]
    b: tuple[float, ...] | None = None


def _combine(coeffs, logs, mags) -> tuple:
    """sum_j c_j log p_j and sum_j |c_j| mag_j, mag_j the summed magnitudes of the pieces
    log p_j is computed from; each is a point's float or an array, added left to right."""
    total = mag = 0
    for c, v, u in zip(coeffs, logs, mags):
        total += c * v
        mag += abs(c) * u
    return total, mag


def _terms(p, mag, logs, mags, b) -> tuple:
    """An integrand's terms w exp(e), given p = exp(e) and the magnitudes ``mag``
    e is combined from; a bound on each term's rounding error; and w itself."""
    if b is None:
        return p, _ROUNDING_ULPS * _EPS * p * (1.0 + mag), 1.0
    w, mw = _combine(b, logs, mags)
    return w * p, _ROUNDING_ULPS * _EPS * p * (abs(w) * (1.0 + mag) + mw), w


# --------------------------------------------------------------------------
# Series backend (count and binary supports).
# --------------------------------------------------------------------------


def _log_masses(fam: Family, members, ks: np.ndarray):
    """Each member's log-masses at the counts ks, and the summed magnitudes of
    the pieces each is computed from."""
    thetas = [float(m.vector[0]) for m in members]
    if fam.support.kind == "binary":
        # x theta - log(1 + e^theta) = -log(1 + e^((1 - 2x) theta)), which cannot overflow.
        logs = [-np.logaddexp(0.0, (1.0 - 2.0 * ks) * t) for t in thetas]
        return logs, [np.abs(v) for v in logs]
    # log p(k) = k log(rate) - rate - log k!, from the source rate; theta is log(rate).
    lf = _log_factorials(ks)
    rates = [fam.from_natural(m).rate for m in members]
    logs = [ks * t - r - lf for t, r in zip(thetas, rates)]
    return logs, [ks * abs(t) + r + lf for t, r in zip(thetas, rates)]


def _series(fam: Family, integrand: _Integrand, around, alpha: float) -> OracleEstimate:
    """Add the terms over the support: both points of a binary one, or a window
    of counts around the rates of ``around``, as wide as a p^alpha power needs.

    The terms t_k = exp(log p_k + r_k) are built on the first member's log-mass
    log p_k, with r_k the rest of the exponent, and their sum is divided by the
    sum of the masses p_k = exp(log p_k) over the same counts: p sums to 1 over
    the support, and rounding log p_k then scales t_k and p_k alike. The
    integrand p itself is summed as it is, so that its sum still checks the
    log-masses.
    """
    members, a, b = integrand.members, integrand.a, integrand.b
    # The first member enters once more as the base p, with coefficient 1 and
    # its value as magnitude: the rounding of its pieces is bounded apart.
    coeffs = (1.0, a[0] - 1.0, *a[1:])
    weights = None if b is None else (0.0, *b)
    last = {}

    def terms(ks):
        logs, mags = _log_masses(fam, members, ks)
        pieces = [logs[0], *logs], [np.abs(logs[0]), *mags]
        e, mag = _combine(coeffs, *pieces)
        ts, rounding, _ = _terms(np.exp(e), mag, *pieces, weights)
        last.update(ks=ks, ts=ts, rounding=rounding, ps=np.exp(logs[0]), mag_p=mags[0])
        return ts

    if fam.support.kind == "binary":
        terms(np.array([0.0, 1.0]))
        tail = p_tail = 0.0
    else:
        peaks = [fam.from_natural(m).rate for m in around]
        # count_series sums the last window it evaluated; p is log-concave
        # past it too.
        _, _, tail, _ = count_series(terms, peaks, alpha)
        p0, p1, p2, p3 = last["ps"][[0, 1, -2, -1]].tolist()
        p_tail = _tail(p3, p2) + (_tail(p0, p1) if last["ks"][0] > 0 else 0.0)
    ks, ts, ps = last["ks"], last["ts"], last["ps"]
    # Each p_k is off by a factor 1 + delta_k, |delta_k| <= slack_k, which t_k shares.
    slack = _ROUNDING_ULPS * _EPS * (1.0 + last["mag_p"])
    mass = math.fsum(ps.tolist())
    if b is None and not any(coeffs[1:]):
        return OracleEstimate(mass, tail + float(slack @ ps), DISCRETE_SUM, ks.size)
    value = math.fsum(ts.tolist()) / mass
    # The shared factors move the value by sum_k (t_k - value p_k)(delta_k - mean delta) / mass.
    shared = float(np.abs(ts - value * ps) @ (slack + float(slack @ ps) / mass))
    rounding = (shared + float(last["rounding"].sum())) / mass + 2.0 * _EPS * abs(value)
    # Past the window the terms' tail is missing, and the division counts p's
    # mass there as summed, which moves the value by at most value times it.
    return OracleEstimate(value, tail + abs(value) * p_tail + rounding, DISCRETE_SUM, ks.size)


# --------------------------------------------------------------------------
# Cubature backend (continuous families).
# --------------------------------------------------------------------------


def _symmetric_rule(d: int, origin: bool) -> tuple[np.ndarray, list[float]]:
    """A degree-3 rule for E[h(z)], z ~ N(0, I_d): nodes and log weights.

    Without the origin: the 2d points +-sqrt(d) e_i, each with weight 1/(2d).
    With it: the origin with weight 2/(d+2) and the 2d points +-sqrt(d+2) e_i,
    each with weight 1/(2(d+2)). At d = 1 these are the 2- and 3-point
    Gauss-Hermite rules.
    """
    r2 = d + 2 if origin else d
    nodes = math.sqrt(r2) * np.concatenate([-np.eye(d), np.eye(d)])
    weights = np.full(2 * d, 1.0 / (2 * r2))
    if origin:
        nodes = np.concatenate([np.zeros((1, d)), nodes])
        weights = np.concatenate([[2.0 / r2], weights])
    return nodes, np.log(weights).tolist()


# The 2- and 3-point Gauss-Hermite rules for z ~ N(0, 1), nodes as floats.
_HERMITE_RULES = [(z[:, 0].tolist(), w) for z, w in map(_symmetric_rule, (1, 1), (False, True))]

# The 1- and 2-point Gauss-Laguerre rules for z ~ Exp(1), exact to degree 1 and 3.
_ROOT2 = math.sqrt(2.0)
_LAGUERRE_RULES = [
    ([1.0], [0.0]),
    ([2.0 - _ROOT2, 2.0 + _ROOT2], np.log([(2.0 + _ROOT2) / 4.0, (2.0 - _ROOT2) / 4.0]).tolist()),
]


def _two_rules(integrand: _Integrand, rules, log_densities, moves=None) -> OracleEstimate:
    """E_g[integrand / g] over a coarse and a fine rule for z, with ``log_densities(z)``
    the members' and then g's log-densities at the nodes and the summed magnitudes of their
    pieces, as lists of floats: the value is the fine rule's sum, and the bound its gap to the
    coarse one plus rounding. Each node's terms are evaluated on floats, cheaper than numpy on a
    few points, with one ``np.exp`` per rule. ``moves(zs)`` lists per member the first-order
    changes of its log-density at the nodes zs under each rounding of its recovered parameters;
    the bound adds the fine sum's change under each, summed with signs like the value, since
    they move the members, not the terms."""
    # The proposal g enters with coefficient -1, and the rule's log weights
    # as one more log-density with coefficient 1.
    a = (*integrand.a, -1.0, 1.0)
    b = None if integrand.b is None else (*integrand.b, 0.0, 0.0)
    sums = []
    for z, log_w in rules:
        logs, mags = log_densities(z)
        logs, mags = list(zip(*logs, log_w)), list(zip(*mags, map(abs, log_w)))
        es, ms = zip(*map(_combine, repeat(a), logs, mags))
        ps = np.exp(es).tolist()
        ts, rounding, ws = zip(*map(_terms, ps, ms, logs, mags, repeat(b)))
        sums.append(math.fsum(ts))
    coarse, value = sums
    rounding = float(np.add.reduce(rounding))  # in numpy's order, as over an array
    if moves is not None:
        # d(w exp(e)) / d log p_j = (a_j w + b_j) exp(e), at the fine rule's nodes z.
        bs = integrand.b or [0.0] * len(integrand.a)
        for a_j, b_j, changes in zip(integrand.a, bs, moves(z)):
            slopes = [(a_j * wn + b_j) * pn for wn, pn in zip(ws, ps)]
            for d in changes:
                rounding += abs(math.fsum(map(float.__mul__, slopes, d)))
    nodes = sum(len(z) for z, _ in rules)
    return OracleEstimate(value, abs(value - coarse) + rounding, CUBATURE, nodes)


def _univariate(fam: Family, integrand: _Integrand, proposal: NaturalParam) -> OracleEstimate:
    """Integrate over the line in z = (x - m) / s for a Gaussian proposal
    N(m, s^2), and over the half-line in z = |x| / scale for an exponential or
    zero-mean Laplacian one, whose integrands depend on |x| only. Member j's
    log-density is -u_j - n_j there, with u_j = y_j^2 / 2 or y_j for a y_j
    affine in z."""
    members = list(map(fam.from_natural, (*integrand.members, proposal)))
    g = members[-1]
    gaussian = isinstance(g, GaussianParams)
    if gaussian:
        # y_j = (x - mu_j) / s_j = (m - mu_j) / s_j + (s / s_j) z; n_j = log(s_j sqrt(2 pi)).
        sds = [math.sqrt(p.var) for p in members]
        affine = [((g.mu - p.mu) / sd, sds[-1] / sd) for p, sd in zip(members, sds)]
        norms = [math.log(sd) + 0.5 * _LOG_2PI for sd in sds]
    elif isinstance(g, LaplacianParams):
        # y_j = |x| / scale_j = (scale / scale_j) z; n_j = log(2 scale_j).
        affine = [(0.0, g.scale / p.scale) for p in members]
        norms = [math.log(2.0 * p.scale) for p in members]
    else:
        # y_j = rate_j x = (rate_j / rate) z; n_j = -log(rate_j).
        affine = [(0.0, p.rate / g.rate) for p in members]
        norms = [-math.log(p.rate) for p in members]

    # Loops, not comprehensions: before Python 3.12 each comprehension is a function call.
    def log_densities(zs):
        logs, mags = [], []
        for (shift, lin), n in zip(affine, norms):
            logs.append([])
            mags.append([])
            for z in zs:
                y = shift + lin * z
                u = 0.5 * y * y if gaussian else y
                logs[-1].append(-u - n)
                mags[-1].append(u + abs(n))
        return logs, mags

    def moves(zs):
        # from_natural's var = -1 / (2 t2) and mu = t1 var carry up to eps var_j and
        # 2 eps |mu_j|, which move log p_j by (y_j^2 - 1) / (2 var_j) and y_j / s_j per unit.
        out = []
        for (shift, lin), p, sd in zip(affine, members[:-1], sds):
            ys = [shift + lin * z for z in zs]
            per_mu = 2.0 * _EPS * abs(p.mu) / sd
            out.append(([per_mu * y for y in ys], [0.5 * _EPS * (y * y - 1.0) for y in ys]))
        return out

    rules = _HERMITE_RULES if gaussian else _LAGUERRE_RULES
    return _two_rules(integrand, rules, log_densities, moves if gaussian else None)


def _member(fam: Family, theta: NaturalParam):
    """Mean, factor P of -2M = P P^T and its inverse, log normalizer (d/2 log 2 pi - log det P)
    and a rounding bound per mean coordinate of a member, from a factor made here: the closed
    forms read the factor and moments the family keeps on a member, so the oracle reads neither."""
    prec_chol = np.linalg.cholesky(-2.0 * theta.matrix)
    inv_chol = _lower_inverse(prec_chol)
    with np.errstate(over="ignore", invalid="ignore"):
        cov = inv_chol.T @ inv_chol
        mu = cov @ theta.vector
    fam._guard(bool(np.isfinite(mu).all()))  # an overflowed covariance fails as in the closed forms
    # The mean solves -2M mu = v through the factor P, whose backward error is a few
    # eps |P| |P^T| per dimension; it moves mu by |cov| times that times |mu|.
    scale = np.abs(cov) @ (np.abs(prec_chol) @ (np.abs(prec_chol.T) @ np.abs(mu)))
    norm = 0.5 * fam.dim * _LOG_2PI - float(np.sum(np.log(np.diag(prec_chol))))
    return mu, prec_chol, inv_chol, norm, _ROUNDING_ULPS * fam.dim * _EPS * scale


def _gaussian(fam: Family, integrand: _Integrand, proposal) -> OracleEstimate:
    """Integrate over R^d through x = m + L z, for the proposal member N(m, L L^T)
    with L = P^-T from its precision factor, with z over both symmetric rules."""
    mean, _, inv_g, norm_g, _ = _member(fam, proposal)
    # Member j at x is -|y|^2/2 - norm_j with y = P_j^T (m - mu_j) + (P_j^T L) z;
    # the proposal itself has y = z.
    affine, norms = [], []
    for mu, prec_chol, _, norm, slack in (_member(fam, m) for m in integrand.members):
        affine.append((prec_chol.T @ (mean - mu), prec_chol.T @ inv_g.T, prec_chol.T * slack))
        norms.append(norm)
    norms.append(norm_g)

    def log_densities(z):
        logs, mags = [], []
        for y, norm in zip([shift + z @ lin.T for shift, lin, _ in affine] + [z], norms):
            half = 0.5 * np.einsum("ij,ij->i", y, y)
            logs.append((-half - norm).tolist())
            mags.append((half + abs(norm)).tolist())
        return logs, mags

    def moves(zs):
        # A change dmu_j of member j's mean moves its log-density by y_j^T P_j^T dmu_j:
        # one change per coordinate i, |dmu_ji| up to the rounding bound of mu_ji.
        return [((shift + zs @ lin.T) @ dmu).T.tolist() for shift, lin, dmu in affine]

    rules = [_symmetric_rule(fam.dim, origin) for origin in (False, True)]
    return _two_rules(integrand, rules, log_densities, moves)


# --------------------------------------------------------------------------
# One entry point for every backend.
# --------------------------------------------------------------------------


def _integrate(
    fam: Family, integrand: _Integrand, *, around, proposal: NaturalParam, alpha: float = 1.0
) -> OracleEstimate:
    """Integrate or sum ``integrand`` over the support. A count series centres its
    window on the modes of the members ``around``, as wide as a p^alpha power needs;
    the continuous rules run under ``proposal``, the member the integrand is closest to.
    """
    if fam.support.is_discrete:
        return _series(fam, integrand, around, alpha)
    if fam.support.kind == "real-vector":
        return _gaussian(fam, integrand, proposal)
    return _univariate(fam, integrand, proposal)


# --------------------------------------------------------------------------
# Oracle operations.
# --------------------------------------------------------------------------


def _check_alpha(alpha: float | None, *, positive: bool = True) -> float:
    # A missing argument raises the ValueError the closed-form dispatch raises,
    # and a bad order the DomainError the closed forms raise.
    if alpha is None:
        raise ValueError("the measure needs an alpha order")
    alpha = float(alpha)
    if not (math.isfinite(alpha) and (alpha > 0 or not positive)):
        kind = "positive" if positive else "finite"
        raise DomainError(f"alpha must be a {kind} real, got {alpha}")
    return alpha


def _check_pair(fam: Family, theta: NaturalParam, theta2: NaturalParam | None):
    if theta2 is None:
        raise ValueError("the measure needs a second parameter")
    return fam.member(theta), fam.member(theta2, "second natural parameter")


def oracle_i_alpha_self(fam: Family, theta: NaturalParam, alpha: float) -> OracleEstimate:
    """Direct integral/sum of p^alpha over the support; at alpha = 1 it is the
    mass of p itself, which should be 1."""
    alpha = _check_alpha(alpha)
    theta = fam.member(theta)
    # Without a carrier, p^alpha is proportional to the alpha-scaled member's
    # density; a Poisson p^alpha still peaks at the rate of p.
    integrand = _Integrand((theta,), (alpha,))
    return _integrate(fam, integrand, around=[theta], proposal=theta.scaled(alpha), alpha=alpha)


def _i_alpha_cross(
    fam: Family, theta: NaturalParam, theta2: NaturalParam, alpha: float
) -> OracleEstimate:
    theta, theta2 = _check_pair(fam, theta, theta2)
    mixed = theta.mix(theta2, alpha)
    if not fam.in_natural_domain(mixed):
        raise ConvergenceError(
            "the alpha-mixture parameter leaves the natural domain; "
            "the cross integral diverges"
        )
    # p^alpha q^(1-alpha) is proportional to the mixture member's density, so
    # that member carries the mass; both members' modes widen a series window.
    integrand = _Integrand((theta, theta2), (alpha, 1.0 - alpha))
    return _integrate(fam, integrand, around=[mixed, theta, theta2], proposal=mixed)


def oracle_i_alpha_cross(
    fam: Family, theta: NaturalParam, theta2: NaturalParam, alpha: float
) -> OracleEstimate:
    """Direct integral/sum of p^alpha q^(1-alpha)."""
    return _i_alpha_cross(fam, theta, theta2, _check_alpha(alpha))


def _log_integral(fam: Family, b: tuple[float, ...], members) -> OracleEstimate:
    """Direct integral/sum of p sum_j b_j log p_j over the checked ``members``,
    p the first: -p log p, -p log q and p log(p/q) for b = (-1), (0, -1), (1, -1)."""
    integrand = _Integrand(members, (1.0,) + (0.0,) * (len(members) - 1), b)
    return _integrate(fam, integrand, around=members, proposal=members[0])


def oracle_grad_check(fam: Family, theta: NaturalParam, step: float = 1e-5) -> float:
    """Max relative gap between central differences of F and its gradient.

    Matrix coordinates are perturbed symmetrically (half the step on each of
    the two mirrored entries), matching the trace pairing.
    """
    if not (math.isfinite(step) and step != 0.0):
        raise ValueError(f"finite-difference step must be finite and nonzero, got {step}")
    theta = fam.member(theta)
    grad = fam.grad_log_normalizer(theta).flat()
    base = theta.flat()
    worst = 0.0
    for i in range(base.size):
        unit = np.zeros(base.size)
        if i < fam.vector_dim:
            unit[i] = 1.0
        else:
            d = fam.matrix_dim
            flat_index = i - fam.vector_dim
            row, col = divmod(flat_index, d)
            if row == col:
                unit[i] = 1.0
            else:
                mirror = fam.vector_dim + col * d + row
                unit[i] = 0.5
                unit[mirror] = 0.5
        plus = fam.compose(base + step * unit)
        minus = fam.compose(base - step * unit)
        if not (fam.in_natural_domain(plus) and fam.in_natural_domain(minus)):
            raise NaturalDomainError(
                f"{fam.name}: finite-difference step leaves the natural domain"
            )
        fd = (fam.log_normalizer(plus) - fam.log_normalizer(minus)) / (2.0 * step)
        worst = max(worst, abs(fd - grad[i]) / (1.0 + abs(grad[i])))
    return worst


# --------------------------------------------------------------------------
# Assembled oracle values for whole measures (used by `verify` and tests).
# --------------------------------------------------------------------------


def _renyi(est: OracleEstimate, denom: float) -> OracleEstimate:
    """log(I) / denom for a power integral I, with denom = +-(1 - alpha)."""
    err = est.error_bound / (abs(est.value) * abs(denom))
    return OracleEstimate(math.log(est.value) / denom, err, est.method, est.evaluations)


def _tsallis(est: OracleEstimate, denom: float) -> OracleEstimate:
    """(I - 1) / denom for a power integral I, with denom = +-(1 - alpha)."""
    err = est.error_bound / abs(denom)
    return OracleEstimate((est.value - 1.0) / denom, err, est.method, est.evaluations)


def _jensen(est: OracleEstimate) -> OracleEstimate:
    err = est.error_bound / abs(est.value)
    return OracleEstimate(-math.log(est.value), err, est.method, est.evaluations)


def _hellinger(est: OracleEstimate) -> OracleEstimate:
    gap = max(0.0, 1.0 - est.value)
    # d sqrt(1-b)/db = -1/(2 sqrt(1-b)); guard the coincident-member case.
    err = est.error_bound / (2.0 * math.sqrt(max(gap, 1e-12)))
    return OracleEstimate(math.sqrt(gap), err, est.method, est.evaluations)


# How each measure is assembled from the oracle primitives, keyed and ordered
# like the closed-form measure table. Kept here rather than in that table:
# this module must not import the closed forms it checks.
_ASSEMBLY = {
    "renyi": lambda fam, p, q, a: _renyi(oracle_i_alpha_self(fam, p, a), 1.0 - a),
    "tsallis": lambda fam, p, q, a: _tsallis(oracle_i_alpha_self(fam, p, a), 1.0 - a),
    "shannon": lambda fam, p, q, a: _log_integral(fam, (-1.0,), (fam.member(p),)),
    "cross-entropy": lambda fam, p, q, a: _log_integral(fam, (0.0, -1.0), _check_pair(fam, p, q)),
    "kl": lambda fam, p, q, a: _log_integral(fam, (1.0, -1.0), _check_pair(fam, p, q)),
    "renyi-div": lambda fam, p, q, a: _renyi(oracle_i_alpha_cross(fam, p, q, a), a - 1.0),
    "tsallis-div": lambda fam, p, q, a: _tsallis(oracle_i_alpha_cross(fam, p, q, a), a - 1.0),
    "bhattacharyya": lambda fam, p, q, a: oracle_i_alpha_cross(fam, p, q, 0.5),
    "hellinger": lambda fam, p, q, a: _hellinger(oracle_i_alpha_cross(fam, p, q, 0.5)),
    # The skew Jensen gap takes any finite order, as its closed form does.
    "jensen": lambda fam, p, q, a: _jensen(
        _i_alpha_cross(fam, p, q, _check_alpha(a, positive=False))
    ),
    # B(p : q) is the relative entropy of q against p; the pair is checked as given.
    "bregman": lambda fam, p, q, a: _log_integral(fam, (1.0, -1.0), _check_pair(fam, p, q)[::-1]),
}


def oracle_measure(
    fam: Family, measure: str, theta: NaturalParam, theta2: NaturalParam | None = None,
    alpha: float | None = None, cfg: OracleConfig = OracleConfig(),
) -> OracleEstimate:
    """Numerical value of a named measure, assembled from oracle primitives only.

    ``cfg`` is accepted, positionally too, and read by nothing: the benchmark
    harness still passes it (see OracleConfig)."""
    assemble = _ASSEMBLY.get(measure)
    if assemble is None:
        raise ValueError(f"unknown measure {measure!r}")
    return assemble(fam, theta, theta2, alpha)
