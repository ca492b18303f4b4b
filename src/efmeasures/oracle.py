"""Independent numerical verification of the closed forms.

Each measure is recomputed directly from the members' log-densities:
adaptive quadrature for continuous univariate families, windowed summation
with a certified tail bound for discrete ones, and symmetric cubature for
the multivariate Gaussian. Nothing in this module consults ``measures``.

The discrete and multivariate log-densities are built from source
parameters (a Poisson rate, a Gaussian mean and covariance Cholesky), never
from the log-normalizer F. Every log-density subtracts F, so a sum of
``log_density_batch`` values would reproduce F's differences term by term
and agree with a wrong F.

Continuous integrals run on a finite window {x : log p(x) >= peak - 60},
computed analytically per family; densities below exp(-60) of the peak
contribute less than 1e-20 of the mass, so no improper-integral machinery
is needed. For cross integrals the window is the hull of both members'
windows plus the alpha-mixture's window when that parameter exists.

The multivariate integrals substitute x = m + L z, with (m, L L^T) the mean
and covariance of a proposal member: the alpha-scaled member for power
integrals, the alpha-mixture for cross integrals and p itself otherwise.
Every integrand divided by that proposal's density is then a constant or a
quadratic in x. Two fully symmetric degree-3 rules for z ~ N(0, I_d), of
2d and 2d + 1 nodes (Stroud, Approximate Calculation of Multiple Integrals,
1971), both integrate it exactly at every dimension, so a cubature bound
(the gap between the two rules plus rounding) is at the rounding level.

Summed terms carry a rounding bound proportional to the magnitudes their
exponents are computed from, not to the exponents: at a Poisson rate of 900,
log p(k) is about -4 but is summed from pieces of size ~6000. A series is
divided by the summed masses of its first member p, computed from the same
log p(k), so that rounding cancels except through the spread of the
integrand over p around the value: a power integral near alpha = 1, whose
Renyi value divides by |1 - alpha|, keeps a rounding bound of order eps.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NaturalDomainError
from .families import Family, NaturalParam, _log_factorials, _lower_inverse, _tail, count_series

__all__ = [
    "OracleConfig",
    "OracleEstimate",
    "QUADRATURE",
    "DISCRETE_SUM",
    "CUBATURE",
    "oracle_i_alpha_self",
    "oracle_i_alpha_cross",
    "oracle_shannon_entropy",
    "oracle_shannon_cross_entropy",
    "oracle_kl",
    "oracle_normalization",
    "oracle_grad_check",
    "oracle_measure",
]

QUADRATURE = "quadrature"
DISCRETE_SUM = "discrete-sum"
CUBATURE = "cubature"

WINDOW_NATS = 60.0

_EPS = float(np.finfo(float).eps)
_LOG_2PI = math.log(2.0 * math.pi)

_QUAD_REL_TOL = 1e-10
_QUAD_MAX_SUBDIVISIONS = 2000

# The smallest band `verify` passes a quadrature cell in. Quadrature's error
# bound grows with abs_tol, so a larger abs_tol would widen that band.
QUADRATURE_FLOOR = 1e-7

# A summed term's rounding error, in units of eps times the magnitudes its
# exponent and weight are computed from: each piece and each operation on
# them rounds once.
_ROUNDING_ULPS = 4.0


@dataclass(frozen=True)
class OracleConfig:
    """Quadrature absolute tolerance.

    ``mc_samples`` and ``seed`` are accepted and validated but read by
    nothing: no oracle backend samples. They remain only because the
    benchmark harness (``bench/workloads.py``, ``bench/probe.py``) still
    passes them, and go once it stops.
    """

    abs_tol: float = 1e-10
    mc_samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0):
            raise ValueError(f"abs_tol must be positive and finite, got {self.abs_tol}")
        if self.abs_tol > QUADRATURE_FLOOR:
            raise ValueError(
                f"abs_tol must be at most the quadrature pass floor {QUADRATURE_FLOOR:g}, "
                f"got {self.abs_tol:g}"
            )
        if self.mc_samples < 1000:
            raise ValueError(f"mc_samples must be >= 1000, got {self.mc_samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass(frozen=True)
class OracleEstimate:
    """A numerical value, a defensible error bound, and how it was obtained.

    ``evaluations`` counts integrand evaluations: quadrature points, series
    terms or cubature nodes.
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


def _terms(logs, mags, a, b) -> tuple[np.ndarray, np.ndarray]:
    """An integrand's terms w exp(e) from log-densities at an array of points,
    and a bound on each term's rounding error.

    ``mags`` holds, per log-density, the summed magnitudes of the pieces it
    was computed from, which its rounding error scales with.
    """
    e = sum(c * v for c, v in zip(a, logs))
    m = 1.0 + sum(abs(c) * v for c, v in zip(a, mags))
    p = np.exp(e)
    if b is None:
        return p, _ROUNDING_ULPS * _EPS * p * m
    w = sum(c * v for c, v in zip(b, logs))
    mw = sum(abs(c) * v for c, v in zip(b, mags))
    return w * p, _ROUNDING_ULPS * _EPS * p * (np.abs(w) * m + mw)


# --------------------------------------------------------------------------
# Quadrature backend (continuous univariate families).
# --------------------------------------------------------------------------


def _quad(fn, lo: float, hi: float, cfg: OracleConfig, points=None) -> tuple[float, float, int]:
    # Imported here: scipy is needed only by the oracle, not by the closed forms or `estimate`.
    # scipy.special first: on scipy 1.17 that order imports both ~20 ms faster
    # than scipy.integrate alone (median of 16 fresh interpreters each).
    from scipy import special  # noqa: F401
    from scipy import integrate

    pts = None
    if points:
        pts = sorted(p for p in points if lo < p < hi)
        pts = pts or None
    result = integrate.quad(
        fn,
        lo,
        hi,
        epsabs=cfg.abs_tol,
        epsrel=_QUAD_REL_TOL,
        limit=_QUAD_MAX_SUBDIVISIONS,
        points=pts,
        full_output=1,
    )
    if len(result) > 3:
        raise ConvergenceError(f"quadrature did not converge on [{lo:g}, {hi:g}]: {result[3]}")
    return float(result[0]), float(result[1]), int(result[2]["neval"])


def _mode(fam: Family, theta: NaturalParam) -> float:
    lo, hi = fam.window(theta, 1e-9)
    return 0.5 * (lo + hi)


def _fast_log_density(fam: Family, members, coeffs):
    """x -> sum_j c_j log p_j(x) as one scalar closure, for quad's pointwise calls.

    These log-densities are <theta, t(x)> - F(theta), so a combination of
    them is one more of the same form.
    """
    v = sum(c * m.vector for c, m in zip(coeffs, members))
    norm = sum(c * fam.log_normalizer(m) for c, m in zip(coeffs, members))
    if fam.name == "exponential":
        t = float(v[0])
        return lambda x: t * x - norm
    if fam.name == "gaussian":
        t1, t2 = float(v[0]), float(v[1])
        return lambda x: t1 * x + t2 * x * x - norm
    if fam.name == "laplacian":
        t = float(v[0])
        return lambda x: t * abs(x) - norm
    raise ValueError(f"{fam.name}: no pointwise log-density for quadrature")


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
        ts, rounding = _terms([logs[0], *logs], [np.abs(logs[0]), *mags], coeffs, weights)
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
# Cubature backend (multivariate Gaussian).
# --------------------------------------------------------------------------


def _symmetric_rule(d: int, origin: bool) -> tuple[np.ndarray, np.ndarray]:
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
    return nodes, np.log(weights)


def _mean_chol(fam: Family, theta: NaturalParam) -> tuple[np.ndarray, np.ndarray, float]:
    """Mean, covariance Cholesky factor and log normalizer (log det + d/2 log 2 pi) of a member."""
    p = fam.from_natural(theta)
    chol = np.linalg.cholesky(p.cov)
    return p.mu, chol, float(np.sum(np.log(np.diag(chol)))) + 0.5 * fam.dim * _LOG_2PI


def _gaussian(fam: Family, integrand: _Integrand, proposal) -> OracleEstimate:
    """Integrate over R^d through x = m + L z, for the proposal member N(m, L L^T),
    with z over both symmetric rules: the value is the rule with the origin,
    and the bound its gap to the other plus rounding."""
    mean, chol, norm_g = _mean_chol(fam, proposal)
    # Member j at x is -|y|^2/2 - norm_j with y = C_j^-1 (m - mu_j) + (C_j^-1 L) z;
    # the proposal itself has y = z.
    affine, norms = [], []
    for mu, c, norm in (_mean_chol(fam, m) for m in integrand.members):
        inv = _lower_inverse(c)
        affine.append((inv @ (mean - mu), inv @ chol))
        norms.append(norm)
    norms.append(norm_g)

    # The integrand over the proposal's density: the proposal enters with
    # coefficient -1, and the rule's log weights as one more log-density with
    # coefficient 1.
    a = (*integrand.a, -1.0, 1.0)
    b = None if integrand.b is None else (*integrand.b, 0.0, 0.0)
    sums = []
    for origin in (False, True):
        z, log_w = _symmetric_rule(fam.dim, origin)
        logs, mags = [], []
        for y, norm in zip([shift + z @ lin.T for shift, lin in affine] + [z], norms):
            half = 0.5 * np.einsum("ij,ij->i", y, y)
            logs.append(-half - norm)
            mags.append(half + abs(norm))
        ts, rounding = _terms([*logs, log_w], [*mags, np.abs(log_w)], a, b)
        sums.append((math.fsum(ts.tolist()), float(rounding.sum())))
    (coarse, _), (value, rounding) = sums
    return OracleEstimate(value, abs(value - coarse) + rounding, CUBATURE, 4 * fam.dim + 1)


# --------------------------------------------------------------------------
# One entry point for every backend.
# --------------------------------------------------------------------------


def _integrate(
    fam: Family,
    integrand: _Integrand,
    cfg: OracleConfig,
    *,
    around,
    proposal: NaturalParam,
    alpha: float = 1.0,
) -> OracleEstimate:
    """Integrate or sum ``integrand`` over the support.

    Its mass lies near the modes of the members ``around`` (quadrature
    breakpoints, count-series peaks, with ``alpha`` the power that widens a
    count window) and under ``proposal``, whose window quadrature also covers
    and on which the multivariate rules are centred.
    """
    if fam.support.kind == "real-vector":
        return _gaussian(fam, integrand, proposal)
    if fam.support.is_discrete:
        return _series(fam, integrand, around, alpha)
    e = _fast_log_density(fam, integrand.members, integrand.a)
    if integrand.b is None:
        fn = lambda x: math.exp(e(x))  # noqa: E731
    else:
        w = _fast_log_density(fam, integrand.members, integrand.b)
        fn = lambda x: w(x) * math.exp(e(x))  # noqa: E731
    starts, ends = zip(*(fam.window(m, WINDOW_NATS) for m in (*around, proposal)))
    lo, hi = min(starts), max(ends)
    value, err, neval = _quad(fn, lo, hi, cfg, points=[_mode(fam, m) for m in around])
    return OracleEstimate(value, err, QUADRATURE, neval)


# --------------------------------------------------------------------------
# Oracle operations.
# --------------------------------------------------------------------------


def _check_alpha(alpha: float | None) -> float:
    # A missing argument raises the ValueError the closed-form dispatch raises.
    if alpha is None:
        raise ValueError("the measure needs an alpha order")
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be a positive real, got {alpha}")
    return alpha


def _check_pair(fam: Family, theta: NaturalParam, theta2: NaturalParam | None) -> None:
    # Either may be missing: `bregman` passes the second member first.
    if theta is None or theta2 is None:
        raise ValueError("the measure needs a second parameter")
    fam.require_natural(theta)
    fam.require_natural(theta2, "second natural parameter")


def oracle_i_alpha_self(
    fam: Family, theta: NaturalParam, alpha: float, cfg: OracleConfig
) -> OracleEstimate:
    """Direct integral/sum of p^alpha over the support."""
    alpha = _check_alpha(alpha)
    fam.require_natural(theta)
    # Without a carrier, p^alpha is proportional to the alpha-scaled member's
    # density; a Poisson p^alpha still peaks at the rate of p.
    integrand = _Integrand((theta,), (alpha,))
    return _integrate(fam, integrand, cfg, around=[theta], proposal=theta.scaled(alpha), alpha=alpha)


def oracle_i_alpha_cross(
    fam: Family,
    theta: NaturalParam,
    theta2: NaturalParam,
    alpha: float,
    cfg: OracleConfig,
) -> OracleEstimate:
    """Direct integral/sum of p^alpha q^(1-alpha)."""
    alpha = _check_alpha(alpha)
    _check_pair(fam, theta, theta2)
    mixed = theta.mix(theta2, alpha)
    if not fam.in_natural_domain(mixed):
        raise ConvergenceError(
            "the alpha-mixture parameter leaves the natural domain; "
            "the cross integral diverges"
        )
    # p^alpha q^(1-alpha) is proportional to the mixture member's density, so
    # that member carries the mass; both members' modes are added as margin
    # (quadrature breakpoints, series peaks).
    integrand = _Integrand((theta, theta2), (alpha, 1.0 - alpha))
    return _integrate(fam, integrand, cfg, around=[mixed, theta, theta2], proposal=mixed)


def oracle_shannon_entropy(fam: Family, theta: NaturalParam, cfg: OracleConfig) -> OracleEstimate:
    """Direct -integral/sum of p log p."""
    fam.require_natural(theta)
    integrand = _Integrand((theta,), (1.0,), (-1.0,))
    return _integrate(fam, integrand, cfg, around=[theta], proposal=theta)


def oracle_shannon_cross_entropy(
    fam: Family, theta: NaturalParam, theta2: NaturalParam, cfg: OracleConfig
) -> OracleEstimate:
    """Direct -integral/sum of p log q."""
    _check_pair(fam, theta, theta2)
    integrand = _Integrand((theta, theta2), (1.0, 0.0), (0.0, -1.0))
    return _integrate(fam, integrand, cfg, around=[theta, theta2], proposal=theta)


def oracle_kl(
    fam: Family, theta: NaturalParam, theta2: NaturalParam, cfg: OracleConfig
) -> OracleEstimate:
    """Direct integral/sum of p log(p/q)."""
    _check_pair(fam, theta, theta2)
    integrand = _Integrand((theta, theta2), (1.0, 0.0), (1.0, -1.0))
    return _integrate(fam, integrand, cfg, around=[theta, theta2], proposal=theta)


def oracle_normalization(fam: Family, theta: NaturalParam, cfg: OracleConfig) -> OracleEstimate:
    """Integral/sum of the density itself; should be 1."""
    return oracle_i_alpha_self(fam, theta, 1.0, cfg)


def oracle_grad_check(fam: Family, theta: NaturalParam, step: float = 1e-5) -> float:
    """Max relative gap between central differences of F and its gradient.

    Matrix coordinates are perturbed symmetrically (half the step on each of
    the two mirrored entries), matching the trace pairing.
    """
    fam.require_natural(theta)
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
    return dataclasses.replace(est, value=math.log(est.value) / denom, error_bound=err)


def _tsallis(est: OracleEstimate, denom: float) -> OracleEstimate:
    """(I - 1) / denom for a power integral I, with denom = +-(1 - alpha)."""
    return dataclasses.replace(
        est, value=(est.value - 1.0) / denom, error_bound=est.error_bound / abs(denom)
    )


def _jensen(est: OracleEstimate) -> OracleEstimate:
    return dataclasses.replace(
        est, value=-math.log(est.value), error_bound=est.error_bound / abs(est.value)
    )


def _hellinger(est: OracleEstimate) -> OracleEstimate:
    gap = max(0.0, 1.0 - est.value)
    # d sqrt(1-b)/db = -1/(2 sqrt(1-b)); guard the coincident-member case.
    err = est.error_bound / (2.0 * math.sqrt(max(gap, 1e-12)))
    return dataclasses.replace(est, value=math.sqrt(gap), error_bound=err)


# How each measure is assembled from the oracle primitives, keyed and ordered
# like the closed-form measure table. Kept here rather than in that table:
# this module must not import the closed forms it checks.
_ASSEMBLY = {
    "renyi": lambda fam, p, q, a, cfg: _renyi(oracle_i_alpha_self(fam, p, a, cfg), 1.0 - a),
    "tsallis": lambda fam, p, q, a, cfg: _tsallis(oracle_i_alpha_self(fam, p, a, cfg), 1.0 - a),
    "shannon": lambda fam, p, q, a, cfg: oracle_shannon_entropy(fam, p, cfg),
    "cross-entropy": lambda fam, p, q, a, cfg: oracle_shannon_cross_entropy(fam, p, q, cfg),
    "kl": lambda fam, p, q, a, cfg: oracle_kl(fam, p, q, cfg),
    "renyi-div": lambda fam, p, q, a, cfg: _renyi(oracle_i_alpha_cross(fam, p, q, a, cfg), a - 1.0),
    "tsallis-div": lambda fam, p, q, a, cfg: _tsallis(
        oracle_i_alpha_cross(fam, p, q, a, cfg), a - 1.0
    ),
    "bhattacharyya": lambda fam, p, q, a, cfg: oracle_i_alpha_cross(fam, p, q, 0.5, cfg),
    "hellinger": lambda fam, p, q, a, cfg: _hellinger(oracle_i_alpha_cross(fam, p, q, 0.5, cfg)),
    "jensen": lambda fam, p, q, a, cfg: _jensen(oracle_i_alpha_cross(fam, p, q, a, cfg)),
    # The Bregman gap of (q, p) is the relative entropy of p against q.
    "bregman": lambda fam, p, q, a, cfg: oracle_kl(fam, q, p, cfg),
}


def oracle_measure(
    fam: Family,
    measure: str,
    theta: NaturalParam,
    theta2: NaturalParam | None = None,
    alpha: float | None = None,
    cfg: OracleConfig = OracleConfig(),
) -> OracleEstimate:
    """Numerical value of a named measure, assembled from oracle primitives only."""
    assemble = _ASSEMBLY.get(measure)
    if assemble is None:
        raise ValueError(f"unknown measure {measure!r}")
    return assemble(fam, theta, theta2, alpha, cfg)
