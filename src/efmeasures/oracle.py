"""Independent numerical verification of the closed forms.

``oracle_measure`` is the one entry point per measure, public beside the power integrals it
reads. Each measure is recomputed directly from the members' log-densities: exact rules of a
few nodes for the continuous families, and windowed summation with a certified tail bound for
the discrete ones. Nothing in this module consults ``measures``.

Every log-density is built from source parameters (a rate, a scale, a Gaussian mean and
variance or precision Cholesky), never from the log-normalizer F. Every family log-density
subtracts F, so a sum of ``log_density_batch`` values would reproduce F's differences term by
term and agree with a wrong F.

The continuous integrals are expectations under a proposal member g: the alpha-scaled member
for power integrals, the alpha-mixture for cross integrals and p itself otherwise. Within an
exponential family p^a q^(1-a) is a constant times another member, so every integrand divided
by g is a constant or a polynomial of degree at most 2 in the standardized variable: z = (x -
m) / s for a Gaussian g = N(m, s^2) (or x = m + L z with L = P^-T for the factor P P^T of its
precision), and z = |x| / scale for an exponential or zero-mean Laplacian g, under which z is
Exp(1). Two rules integrate that exactly: the 2- and 2d + 1-node fully symmetric degree-3
rules for z ~ N(0, I_d) (Stroud, Approximate Calculation of Multiple Integrals, 1971; at d = 1
the 2- and 3-point Gauss-Hermite rules), and the 1- and 2-point Gauss-Laguerre rules for z ~
Exp(1). The value is the finer rule's sum, and its bound the gap between the two rules plus
rounding, which is at the rounding level. One node loop on floats serves every rule: given
each member's u_j at the nodes and its normalizer n_j, it forms log p_j = -u_j - n_j, its
magnitude u_j + |n_j|, and each node's exponent, weight, term and rounding in one pass, with
one ``np.exp`` a cell. An mvn cell factors its members and proposal as one stack.

Summed terms carry a rounding bound proportional to the magnitudes their exponents are
computed from, not to the exponents: at a Poisson rate of 900, log p(k) is about -4 but is
summed from pieces of size ~6000. A series is divided by the summed masses of its first member
p, computed from the same log p(k), so that rounding cancels except through the spread of the
integrand over p around the value: a power integral near alpha = 1, whose Renyi value divides
by |1 - alpha|, keeps a rounding bound of order eps. A binary support's two points are the
nodes of a rule of unit weights in the same loop. A count window takes its rates e^theta from
the members' floats and its terms as stacked rows, a few array operations a window, which
``count_series`` sums as one row. A measure assembled from an integral adds the rounding of
the operations that finish it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError, NaturalDomainError, ParameterDomainError
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
    """The last argument of ``oracle_measure``, accepted and read by nothing: every oracle
    backend is an exact rule or a certified sum, with nothing to tune or sample. It and its
    validated ``mc_samples`` and ``seed`` remain only because the benchmark harness
    (``bench/workloads.py``, ``bench/probe.py``) still passes it, and go once it stops."""

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


class _Integrand(NamedTuple):
    """w(x) exp(e(x)), with e = sum_j a_j log p_j(x) and w = sum_j b_j log p_j(x)
    over ``members`` (w = 1 when ``b`` is None)."""

    members: tuple[NaturalParam, ...]
    a: tuple[float, ...]
    b: tuple[float, ...] | None = None


def _node_terms(coeffs, weights, norms, us, log_w, also=()) -> tuple:
    """An integrand's terms w exp(e) at a rule's nodes, and a bound on each one's rounding.

    Piece j's log-density at node i is log p_j = -u - n_j, with u = ``us[i * len(norms) + j]``
    and n_j = ``norms[j]``, from pieces of magnitude u + |n_j|. At each node e = sum_j c_j log p_j
    + ``log_w[i]`` and w = sum_j b_j log p_j (w = 1 where ``weights`` b is None) are added left
    to right, beside the magnitudes sum_j |c_j| (u + |n_j|) + |log_w[i]| and sum_j |b_j| (u +
    |n_j|) that bound their rounding. One ``np.exp`` takes every e and then ``also``. Returns the
    terms, their bounds, w and exp(e) per node, and exp(``also``)."""
    unit = _ROUNDING_ULPS * _EPS
    weighted = weights is not None
    pieces = [(c, abs(c), b, abs(b), n, abs(n))
              for c, b, n in zip(coeffs, weights or repeat(0.0), norms)]
    es, ms, ws, mws = [], [], [], []
    us = iter(us)  # zip takes one u a piece, and stops at the last piece of a node
    # Loops, not comprehensions: before Python 3.12 each comprehension is a function call.
    for lw in log_w:
        e = m = mw = 0.0
        w = 0.0 if weighted else 1.0
        for (c, ac, b, ab, n, an), u in zip(pieces, us):
            log_p, mag = -u - n, u + an
            e += c * log_p
            m += ac * mag
            if weighted:
                w += b * log_p
                mw += ab * mag
        es.append(e + lw)
        ms.append(m + abs(lw))
        ws.append(w)
        mws.append(mw)
    ps = np.exp([*es, *also]).tolist()
    ts, rs = [], []
    for p, m, w, mw in zip(ps, ms, ws, mws):
        ts.append(w * p)
        rs.append(unit * p * (abs(w) * (1.0 + m) + mw))
    return ts, rs, ws, ps[: len(es)], ps[len(es) :]


# --------------------------------------------------------------------------
# Series backend (count and binary supports).
# --------------------------------------------------------------------------


def _series(fam: Family, integrand: _Integrand, around, alpha: float) -> OracleEstimate:
    """Add the terms over the support: both points of a binary one, or a window of counts
    around the rates of ``around``, as wide as a p^alpha power needs.

    The terms t_k = exp(log p_k + r_k) are built on the first member's log-mass log p_k, with
    r_k the rest of the exponent, and their sum is divided by the sum of the masses p_k =
    exp(log p_k) over the same counts: p sums to 1 over the support, and rounding log p_k then
    scales t_k and p_k alike. The integrand p itself is summed as it is, so that its sum still
    checks the log-masses.
    """
    members, a, b = integrand.members, integrand.a, integrand.b
    # The first member enters once more as the base p, with coefficient 1 and
    # its value as magnitude: the rounding of its pieces is bounded apart.
    coeffs = (1.0, a[0] - 1.0, *a[1:])
    weights = None if b is None else (0.0, *b)
    thetas = [float(m.vector[0]) for m in members]
    if fam.support.kind == "binary":
        return _binary(thetas, coeffs, weights)
    # log p(k) = k log(rate) - rate - log k!, from the source rate e^theta, once a member: the
    # members are among ``around``, whose modes centre the window. One row a piece, p and then
    # every member, with the log-masses on the first n rows and the magnitudes they are computed
    # from on the last n; the coefficients for e and then w add the rows top to bottom.
    rates = {id(m): math.exp(float(m.vector[0])) for m in around}
    if 0.0 in rates.values():  # below the float range, as from_natural finds too
        raise ParameterDomainError("rate must be > 0, got 0.0")
    rows, rate_rows = [thetas[0], *thetas], [rates[id(m)] for m in (members[0], *members)]
    n = len(rows)
    slopes = np.array([*rows, *map(abs, rows)])[:, None]
    offsets = np.array([*rate_rows, *map(float.__neg__, rate_rows)])[:, None]
    coef = np.array([*coeffs, *map(abs, coeffs), *(weights or ()), *map(abs, weights or ())])
    coef = coef.reshape(-1, 2, n, 1)
    unit = _ROUNDING_ULPS * _EPS
    last = {}

    def terms(ks):
        x = ks * slopes - offsets  # k theta - rate, then k |theta| + rate
        log_factorials = _log_factorials(ks)
        x[:n] -= log_factorials  # from each log-mass, and onto its magnitude
        x[n:] += log_factorials
        np.abs(x[0], out=x[n])  # p's magnitude is its value's
        sums = np.add.reduce(coef * x.reshape(2, n, -1), axis=-2)  # (e, mag), then (w, mw)
        ts = np.exp(sums[0, 0])
        last["window"] = ks, x, sums, ts
        return ts if b is None else sums[1, 0] * ts

    # count_series sums the last window it evaluated; p is log-concave past it too.
    _, _, tail, _ = count_series(terms, rates.values(), alpha)
    ks, x, sums, ts = last["window"]
    ps = np.exp(x[0])
    masses = ps.tolist()
    p_tail = _tail(masses[-1], masses[-2]) + (_tail(masses[0], masses[1]) if ks[0] > 0 else 0.0)
    # Each p_k is off by a factor 1 + delta_k, |delta_k| <= slack_k, which t_k shares.
    slack = unit * (1.0 + x[n + 1])
    slack_p = float(slack @ ps)
    mass = math.fsum(masses)
    if b is None and not any(coeffs[1:]):
        return OracleEstimate(mass, tail + slack_p, DISCRETE_SUM, ks.size)
    # Each term w exp(e) and its rounding bound, as at a cubature node.
    if b is None:
        rounding = unit * ts * (1.0 + sums[0, 1])
    else:
        rounding = unit * ts * (np.abs(sums[1, 0]) * (1.0 + sums[0, 1]) + sums[1, 1])
        ts = sums[1, 0] * ts
    value = math.fsum(ts.tolist()) / mass
    # The shared factors move the value by sum_k (t_k - value p_k)(delta_k - mean delta) / mass.
    shared = float(np.abs(ts - value * ps) @ (slack + slack_p / mass))
    rounding = (shared + float(np.add.reduce(rounding))) / mass + 2.0 * _EPS * abs(value)
    # Past the window the terms' tail is missing, and the division counts p's
    # mass there as summed, which moves the value by at most value times it.
    return OracleEstimate(value, tail + abs(value) * p_tail + rounding, DISCRETE_SUM, ks.size)


def _binary(thetas, coeffs, weights) -> OracleEstimate:
    """``_series`` over the two points of a binary support: the nodes of a rule of unit weights,
    bit for bit as over arrays but for the two-term dot products, which numpy may round as one
    fused multiply-add. At each point the pieces are p, then every member, and each log-mass is
    x theta - log(1 + e^theta) = -log(1 + e^((1 - 2x) theta)), which cannot overflow."""
    flat = np.logaddexp(0.0, [s * t for t in thetas for s in (1.0, -1.0)]).tolist()
    us = [flat[0], *flat[::2], flat[1], *flat[1::2]]  # u = -log p at x = 0, then at x = 1
    out = _node_terms(coeffs, weights, [0.0] * len(coeffs), us, (0.0, 0.0), (-flat[0], -flat[1]))
    (t0, t1), (r0, r1), _, _, (p0, p1) = out
    # As in _series: each p_x is off by a factor 1 + delta_x, |delta_x| <= slack_x.
    s0, s1 = (_ROUNDING_ULPS * _EPS * (1.0 + u) for u in flat[:2])
    slack_p = s0 * p0 + s1 * p1
    mass = math.fsum((p0, p1))
    if weights is None and not any(coeffs[1:]):
        return OracleEstimate(mass, slack_p, DISCRETE_SUM, 2)
    value = math.fsum((t0, t1)) / mass
    shared = abs(t0 - value * p0) * (s0 + slack_p / mass)
    shared += abs(t1 - value * p1) * (s1 + slack_p / mass)
    rounding = (shared + (r0 + r1)) / mass + 2.0 * _EPS * abs(value)
    return OracleEstimate(value, rounding, DISCRETE_SUM, 2)


# --------------------------------------------------------------------------
# Cubature backend (continuous families).
# --------------------------------------------------------------------------


def _symmetric_rule(d: int, origin: bool) -> tuple[np.ndarray, tuple[float, ...]]:
    """A degree-3 rule for E[h(z)], z ~ N(0, I_d): nodes and log weights.

    Without the origin: the 2d points +-sqrt(d) e_i, each with weight 1/(2d). With it: the
    origin with weight 2/(d+2) and the 2d points +-sqrt(d+2) e_i, each with weight
    1/(2(d+2)). At d = 1 these are the 2- and 3-point Gauss-Hermite rules.
    """
    r2 = d + 2 if origin else d
    nodes = math.sqrt(r2) * np.concatenate([-np.eye(d), np.eye(d)])
    weights = np.full(2 * d, 1.0 / (2 * r2))
    if origin:
        nodes = np.concatenate([np.zeros((1, d)), nodes])
        weights = np.concatenate([[2.0 / r2], weights])
    nodes.setflags(write=False)
    return nodes, tuple(np.log(weights).tolist())


@functools.cache
def _symmetric_rules(d: int) -> tuple:
    """Both symmetric rules at dimension d, as every pair of rules is given: both rules'
    nodes, the coarse rule's first, their log weights and the coarse rule's node count.
    Constants, made once a dimension."""
    (coarse, coarse_w), (fine, fine_w) = (_symmetric_rule(d, origin) for origin in (False, True))
    nodes = np.concatenate((coarse, fine))
    nodes.setflags(write=False)
    return nodes, (*coarse_w, *fine_w), len(coarse)


# The 2- and 3-point Gauss-Hermite rules for z ~ N(0, 1), nodes as floats, and the 1- and
# 2-point Gauss-Laguerre rules for z ~ Exp(1), exact to degree 1 and 3.
_HERMITE_RULES = (_symmetric_rules(1)[0][:, 0].tolist(), *_symmetric_rules(1)[1:])
_ROOT2 = math.sqrt(2.0)
_LAGUERRE_W = np.log([(2.0 + _ROOT2) / 4.0, (2.0 - _ROOT2) / 4.0]).tolist()
_LAGUERRE_RULES = ([1.0, 2.0 - _ROOT2, 2.0 + _ROOT2], (0.0, *_LAGUERRE_W), 1)


def _cubature(integrand: _Integrand, rules, us, norms, moves=None) -> OracleEstimate:
    """E_g[integrand / g] over a coarse and a fine rule for z, with ``us`` the members' and then
    g's u node by node, each log-density being -u - n_j with ``norms`` n_j: the value is the
    fine rule's sum, and the bound its gap to the coarse one plus rounding. ``moves`` lists per
    member the first-order changes of its log-density at the fine nodes under each rounding of
    its recovered parameters; the bound adds the fine sum's change under each, summed with signs
    like the value, since they move the members, not the terms."""
    _, log_w, k = rules
    a, b = integrand.a, integrand.b
    # The proposal g enters with coefficient -1, and the rule's log weights with 1.
    weights = None if b is None else (*b, 0.0)
    ts, rs, ws, ps, _ = _node_terms((*a, -1.0), weights, norms, us, log_w)
    coarse, value = math.fsum(ts[:k]), math.fsum(ts[k:])
    # The fine roundings in numpy's order: left to right below 8 terms, pairwise from 8.
    fine = rs[k:]
    rounding = float(np.add.reduce(fine) if len(fine) > 7 else functools.reduce(float.__add__, fine))
    # d(w exp(e)) / d log p_j = (a_j w + b_j) exp(e), at the fine rule's nodes.
    for a_j, b_j, changes in zip(a, b or repeat(0.0), moves or ()):
        slopes = [(a_j * w + b_j) * p for w, p in zip(ws[k:], ps[k:])]
        for d in changes:
            rounding += abs(math.fsum(map(float.__mul__, slopes, d)))
    return OracleEstimate(value, abs(value - coarse) + rounding, CUBATURE, len(ts))


def _univariate(fam: Family, integrand: _Integrand, proposal: NaturalParam) -> OracleEstimate:
    """Integrate over the line in z = (x - m) / s for a Gaussian proposal
    N(m, s^2), and over the half-line in z = |x| / scale for an exponential or
    zero-mean Laplacian one, whose integrands depend on |x| only. Member j's
    log-density is -u_j - n_j there, with u_j = y_j^2 / 2 or y_j for a y_j
    affine in z."""
    members = list(map(fam.from_natural, (*integrand.members, proposal)))
    g = members[-1]
    if isinstance(g, GaussianParams):
        # y_j = (x - mu_j) / s_j = (m - mu_j) / s_j + (s / s_j) z; n_j = log(s_j sqrt(2 pi)).
        sds = [math.sqrt(p.var) for p in members]
        affine = [((g.mu - p.mu) / sd, sds[-1] / sd) for p, sd in zip(members, sds)]
        norms = [math.log(sd) + 0.5 * _LOG_2PI for sd in sds]
        zs, _, k = _HERMITE_RULES
        ys = [shift + lin * z for z in zs for shift, lin in affine]  # node by node
        # from_natural's var = -1 / (2 t2) and mu = t1 var carry up to eps var_j and
        # 2 eps |mu_j|, which move log p_j by (y_j^2 - 1) / (2 var_j) and y_j / s_j per unit.
        moves = []
        for j, (p, sd) in enumerate(zip(members[:-1], sds)):
            fine = ys[k * len(members) + j :: len(members)]
            per_mu = 2.0 * _EPS * abs(p.mu) / sd
            moves.append(([per_mu * y for y in fine], [0.5 * _EPS * (y * y - 1.0) for y in fine]))
        return _cubature(integrand, _HERMITE_RULES, [0.5 * y * y for y in ys], norms, moves)
    if isinstance(g, LaplacianParams):
        # y_j = |x| / scale_j = (scale / scale_j) z; n_j = log(2 scale_j).
        lins = [g.scale / p.scale for p in members]
        norms = [math.log(2.0 * p.scale) for p in members]
    else:
        # y_j = rate_j x = (rate_j / rate) z; n_j = -log(rate_j).
        lins = [p.rate / g.rate for p in members]
        norms = [-math.log(p.rate) for p in members]
    us = [lin * z for z in _LAGUERRE_RULES[0] for lin in lins]  # node by node
    return _cubature(integrand, _LAGUERRE_RULES, us, norms)


def _factors(fam: Family, thetas):
    """Each member's mean, factor P of -2M = P P^T and its inverse, log normalizer (d/2 log 2 pi
    - log det P) and a rounding bound per mean coordinate, stacked over the members, from one
    factorization of them all made here: the closed forms read the factor and moments the family
    keeps on a member, so the oracle reads neither."""
    prec_chol = np.linalg.cholesky(-2.0 * np.stack([t.matrix for t in thetas]))
    inv_chol, chol_t = _lower_inverse(prec_chol), np.swapaxes(prec_chol, 1, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        cov = np.swapaxes(inv_chol, 1, 2) @ inv_chol
        mu = cov @ np.stack([t.vector for t in thetas])[..., None]
    fam._guard(bool(np.isfinite(mu).all()))  # an overflowed covariance fails as in the closed forms
    # The mean solves -2M mu = v through the factor P, whose backward error is a few
    # eps |P| |P^T| per dimension; it moves mu by |cov| times that times |mu|.
    scale = np.abs(cov) @ (np.abs(prec_chol) @ (np.abs(chol_t) @ np.abs(mu)))
    norms = 0.5 * fam.dim * _LOG_2PI - np.log(np.diagonal(prec_chol, 0, 1, 2)).sum(axis=1)
    return mu[..., 0], chol_t, inv_chol, norms, _ROUNDING_ULPS * fam.dim * _EPS * scale[..., 0]


def _gaussian(fam: Family, integrand: _Integrand, proposal) -> OracleEstimate:
    """Integrate over R^d through x = m + L z, for the proposal member N(m, L L^T)
    with L = P^-T from its precision factor, with z over both symmetric rules."""
    mus, chol_t, inv_chol, norms, slack = _factors(fam, (*integrand.members, proposal))
    zs, _, k = rules = _symmetric_rules(fam.dim)
    # Member j at x is -|y|^2/2 - norm_j with y = P_j^T (m - mu_j) + (P_j^T L) z;
    # the proposal itself, last, has y = z.
    chol_t = chol_t[:-1]
    shift = (chol_t @ (mus[-1] - mus[:-1])[..., None])[..., 0]
    lin = np.swapaxes(chol_t @ inv_chol[-1].T, 1, 2)  # (P_j^T L)^T, for z @ lin
    ys = np.concatenate((shift[:, None, :] + zs @ lin, zs[None]))
    us = (0.5 * np.einsum("...ij,...ij->...i", ys, ys)).T.ravel().tolist()
    # A change dmu_j of member j's mean moves its log-density by y_j^T P_j^T dmu_j:
    # one change per coordinate i, |dmu_ji| up to the rounding bound of mu_ji.
    moves = np.swapaxes(ys[:-1, k:] @ (chol_t * slack[:-1, None, :]), 1, 2).tolist()
    return _cubature(integrand, rules, us, norms.tolist(), moves)


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
    # density; a Poisson p^alpha still peaks at the rate of p, and a series needs no proposal.
    integrand = _Integrand((theta,), (alpha,))
    proposal = None if fam.support.is_discrete else theta.scaled(alpha)
    return _integrate(fam, integrand, around=[theta], proposal=proposal, alpha=alpha)


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
        row, col = divmod(i - fam.vector_dim, fam.matrix_dim or 1)
        if i < fam.vector_dim or row == col:
            unit[i] = 1.0
        else:  # half the step on this entry and half on its mirror
            unit[i] = unit[fam.vector_dim + col * fam.matrix_dim + row] = 0.5
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


def _finish(est: OracleEstimate, value: float, err: float, roundings: int) -> OracleEstimate:
    """A measure's value from its integral's estimate: the integral's error carried to it as
    ``err``, plus eps |value| for each rounding of the operations that finish it."""
    return OracleEstimate(value, err + roundings * _EPS * abs(value), est.method, est.evaluations)


def _renyi(est: OracleEstimate, denom: float) -> OracleEstimate:
    """log(I) / denom for a power integral I, with denom = +-(1 - alpha)."""
    err = est.error_bound / (abs(est.value) * abs(denom))
    return _finish(est, math.log(est.value) / denom, err, 2)


def _tsallis(est: OracleEstimate, denom: float) -> OracleEstimate:
    """(I - 1) / denom for a power integral I, with denom = +-(1 - alpha)."""
    return _finish(est, (est.value - 1.0) / denom, est.error_bound / abs(denom), 2)


def _jensen(est: OracleEstimate) -> OracleEstimate:
    return _finish(est, -math.log(est.value), est.error_bound / abs(est.value), 1)


def _hellinger(est: OracleEstimate) -> OracleEstimate:
    gap = max(0.0, 1.0 - est.value)
    # d sqrt(1-b)/db = -1/(2 sqrt(1-b)); guard the coincident-member case.
    return _finish(est, math.sqrt(gap), est.error_bound / (2.0 * math.sqrt(max(gap, 1e-12))), 2)


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
