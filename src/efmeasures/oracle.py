"""Independent numerical verification of the closed forms.

Each measure is recomputed directly from the log-density: adaptive
quadrature for continuous univariate families, exact truncated summation
for discrete ones, and seeded Monte Carlo for the multivariate Gaussian.
Nothing in this module consults ``measures``; the only family surface used
is the log-density (scalar and batch), the sampler, and the support
description, so agreement between the two routes is a real check.

Continuous integrals run on a finite window {x : log p(x) >= peak - 60},
computed analytically per family; densities below exp(-60) of the peak
contribute less than 1e-20 of the mass, so no improper-integral machinery
is needed. For cross integrals the window is the hull of both members'
windows plus the alpha-mixture's window when that parameter exists.

Monte Carlo uses the alpha-mixture member as importance proposal when it is
in-domain (the natural variance reducer for power integrals) and reports a
3-sigma error bound with a small floating-point floor. Substreams are
derived deterministically from (seed, operation tag), so identical configs
give bit-identical estimates regardless of call order.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NaturalDomainError
from .families import Family, NaturalParam, _kahan_sum_terms

__all__ = [
    "OracleConfig",
    "OracleEstimate",
    "QUADRATURE",
    "DISCRETE_SUM",
    "MONTE_CARLO",
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
MONTE_CARLO = "monte-carlo"

WINDOW_NATS = 60.0

_EPS = float(np.finfo(float).eps)

_QUAD_REL_TOL = 1e-10
_QUAD_MAX_SUBDIVISIONS = 2000

# A discrete sum stops once its term falls below this share of the running sum.
_TAIL_MASS_BOUND = 1e-15


@dataclass(frozen=True)
class OracleConfig:
    """Quadrature absolute tolerance and the Monte Carlo sample count and seed."""

    abs_tol: float = 1e-10
    mc_samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0):
            raise ValueError(f"abs_tol must be positive and finite, got {self.abs_tol}")
        if self.mc_samples < 1000:
            raise ValueError(f"mc_samples must be >= 1000, got {self.mc_samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass(frozen=True)
class OracleEstimate:
    """A numerical value, a defensible error bound, and how it was obtained."""

    value: float
    error_bound: float
    method: str


def _substream_seed(seed: int, tag: str) -> int:
    ss = np.random.SeedSequence([seed, zlib.crc32(tag.encode("ascii"))])
    return int(ss.generate_state(1, np.uint64)[0])


# --------------------------------------------------------------------------
# Quadrature backend (continuous univariate families).
# --------------------------------------------------------------------------


def _quad(fn, lo: float, hi: float, cfg: OracleConfig, points=None) -> tuple[float, float]:
    # Imported here: scipy is needed only by the oracle, not by the closed forms or `estimate`.
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
    return float(result[0]), float(result[1])


def _mode(fam: Family, theta: NaturalParam) -> float:
    lo, hi = fam.window(theta, 1e-9)
    return 0.5 * (lo + hi)


# Fast scalar closures; quad calls the integrand pointwise, so the generic
# batch path would dominate the runtime.
def _fast_log_density(fam: Family, theta: NaturalParam):
    name = fam.name
    v = theta.vector
    norm = fam.log_normalizer(theta)
    if name == "exponential":
        t = float(v[0])
        return lambda x: t * x - norm
    if name == "gaussian":
        t1, t2 = float(v[0]), float(v[1])
        return lambda x: t1 * x + t2 * x * x - norm
    if name == "laplacian":
        t = float(v[0])
        return lambda x: t * abs(x) - norm
    return lambda x: float(fam.log_density_batch(theta, np.asarray([x]))[0])


# --------------------------------------------------------------------------
# One backend for the univariate families: sum or integrate an integrand.
# --------------------------------------------------------------------------


def _poisson_rate(theta: NaturalParam) -> float:
    return math.exp(float(theta.vector[0]))


def _univariate(fam: Family, integrand, members, cfg, *, margin=(), peak=None) -> OracleEstimate:
    """Sum or integrate one pointwise integrand over a univariate support.

    Binary supports add the two terms. Counts are summed out past ``peak()``,
    by default the largest rate among ``members``. Continuous supports are
    integrated by quadrature over the hull of the windows of ``members`` and
    ``margin``, with breakpoints at the modes of ``members``.
    """
    kind = fam.support.kind
    if kind == "binary":
        t0, t1 = integrand(0), integrand(1)
        return OracleEstimate(t0 + t1, 4.0 * _EPS * (abs(t0) + abs(t1)), DISCRETE_SUM)
    if kind == "nonneg-int":
        top = peak() if peak else max(_poisson_rate(m) for m in members)
        total, abs_total, last, _ = _kahan_sum_terms(integrand, top, _TAIL_MASS_BOUND)
        # Terms decay super-exponentially past the cutoff; a dozen copies of the
        # last term dominates the discarded tail. Kahan keeps round-off at eps.
        return OracleEstimate(total, 12.0 * last + 4.0 * _EPS * abs_total, DISCRETE_SUM)
    windows = [fam.window(m, WINDOW_NATS) for m in (*members, *margin)]
    lo, hi = min(w[0] for w in windows), max(w[1] for w in windows)
    value, err = _quad(integrand, lo, hi, cfg, points=[_mode(fam, m) for m in members])
    return OracleEstimate(value, err, QUADRATURE)


# --------------------------------------------------------------------------
# Monte Carlo backend (multivariate families).
# --------------------------------------------------------------------------


def _mc_mean(values: np.ndarray) -> tuple[float, float]:
    value = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(values.size))
    err = 3.0 * se + 8.0 * _EPS * (1.0 + abs(value))
    return value, err


def _mc_importance(
    fam: Family,
    proposal: NaturalParam,
    log_integrand,
    cfg: OracleConfig,
    tag: str,
) -> OracleEstimate:
    seed = _substream_seed(cfg.seed, tag)
    draws = fam.sample(proposal, cfg.mc_samples, seed)
    log_w = log_integrand(draws) - fam.log_density_batch(proposal, draws)
    value, err = _mc_mean(np.exp(log_w))
    return OracleEstimate(value, err, MONTE_CARLO)


def _mc_plain(
    fam: Family,
    theta: NaturalParam,
    integrand,
    cfg: OracleConfig,
    tag: str,
) -> OracleEstimate:
    seed = _substream_seed(cfg.seed, tag)
    draws = fam.sample(theta, cfg.mc_samples, seed)
    value, err = _mc_mean(integrand(draws))
    return OracleEstimate(value, err, MONTE_CARLO)


# --------------------------------------------------------------------------
# Oracle operations.
# --------------------------------------------------------------------------


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be a positive real, got {alpha}")
    return alpha


def oracle_i_alpha_self(
    fam: Family, theta: NaturalParam, alpha: float, cfg: OracleConfig
) -> OracleEstimate:
    """Direct integral/sum of p^alpha over the support."""
    alpha = _check_alpha(alpha)
    fam.require_natural(theta)
    if fam.support.kind == "real-vector":
        scaled = theta.scaled(alpha)
        if fam.in_natural_domain(scaled):
            return _mc_importance(
                fam,
                scaled,
                lambda xs: alpha * fam.log_density_batch(theta, xs),
                cfg,
                f"i-self:{alpha!r}",
            )
        return _mc_plain(
            fam,
            theta,
            lambda xs: np.exp((alpha - 1.0) * fam.log_density_batch(theta, xs)),
            cfg,
            f"i-self:{alpha!r}",
        )
    ld = _fast_log_density(fam, theta)
    # p^alpha is proportional to the alpha-scaled member's density, so that
    # member's window covers the integrand's mass exactly.
    return _univariate(
        fam, lambda x: math.exp(alpha * ld(x)), [theta], cfg, margin=[theta.scaled(alpha)]
    )


def oracle_i_alpha_cross(
    fam: Family,
    theta: NaturalParam,
    theta2: NaturalParam,
    alpha: float,
    cfg: OracleConfig,
) -> OracleEstimate:
    """Direct integral/sum of p^alpha q^(1-alpha)."""
    alpha = _check_alpha(alpha)
    fam.require_natural(theta)
    fam.require_natural(theta2, "second natural parameter")
    mixed = theta.mix(theta2, alpha)
    if not fam.in_natural_domain(mixed):
        raise ConvergenceError(
            "the alpha-mixture parameter leaves the natural domain; "
            "the cross integral diverges"
        )
    if fam.support.kind == "real-vector":
        return _mc_importance(
            fam,
            mixed,
            lambda xs: alpha * fam.log_density_batch(theta, xs)
            + (1.0 - alpha) * fam.log_density_batch(theta2, xs),
            cfg,
            f"i-cross:{alpha!r}",
        )
    ldp = _fast_log_density(fam, theta)
    ldq = _fast_log_density(fam, theta2)

    def count_peak() -> float:
        rp, rq = _poisson_rate(theta), _poisson_rate(theta2)
        return max(rp, rq, rp**alpha * rq ** (1.0 - alpha))

    # p^alpha q^(1-alpha) is proportional to the mixture member's density for
    # the zero-carrier continuous families, so its window carries the mass;
    # both members' windows are added as margin.
    return _univariate(
        fam,
        lambda x: math.exp(alpha * ldp(x) + (1.0 - alpha) * ldq(x)),
        [mixed, theta, theta2],
        cfg,
        peak=count_peak,
    )


def oracle_shannon_entropy(fam: Family, theta: NaturalParam, cfg: OracleConfig) -> OracleEstimate:
    """Direct -integral/sum of p log p."""
    fam.require_natural(theta)
    if fam.support.kind == "real-vector":
        return _mc_plain(
            fam, theta, lambda xs: -fam.log_density_batch(theta, xs), cfg, "shannon"
        )
    ld = _fast_log_density(fam, theta)

    def integrand(x) -> float:
        lp = ld(x)
        return -math.exp(lp) * lp

    return _univariate(fam, integrand, [theta], cfg)


def oracle_shannon_cross_entropy(
    fam: Family, theta: NaturalParam, theta2: NaturalParam, cfg: OracleConfig
) -> OracleEstimate:
    """Direct -integral/sum of p log q."""
    fam.require_natural(theta)
    fam.require_natural(theta2, "second natural parameter")
    if fam.support.kind == "real-vector":
        return _mc_plain(
            fam, theta, lambda xs: -fam.log_density_batch(theta2, xs), cfg, "cross-entropy"
        )
    ldp = _fast_log_density(fam, theta)
    ldq = _fast_log_density(fam, theta2)
    return _univariate(fam, lambda x: -math.exp(ldp(x)) * ldq(x), [theta, theta2], cfg)


def oracle_kl(
    fam: Family, theta: NaturalParam, theta2: NaturalParam, cfg: OracleConfig
) -> OracleEstimate:
    """Direct integral/sum of p log(p/q)."""
    fam.require_natural(theta)
    fam.require_natural(theta2, "second natural parameter")
    if fam.support.kind == "real-vector":
        return _mc_plain(
            fam,
            theta,
            lambda xs: fam.log_density_batch(theta, xs) - fam.log_density_batch(theta2, xs),
            cfg,
            "kl",
        )
    ldp = _fast_log_density(fam, theta)
    ldq = _fast_log_density(fam, theta2)

    def integrand(x) -> float:
        lp = ldp(x)
        return math.exp(lp) * (lp - ldq(x))

    return _univariate(fam, integrand, [theta, theta2], cfg)


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
    return OracleEstimate(math.log(est.value) / denom, err, est.method)


def _tsallis(est: OracleEstimate, denom: float) -> OracleEstimate:
    """(I - 1) / denom for a power integral I, with denom = +-(1 - alpha)."""
    return OracleEstimate((est.value - 1.0) / denom, est.error_bound / abs(denom), est.method)


def _jensen(est: OracleEstimate) -> OracleEstimate:
    return OracleEstimate(-math.log(est.value), est.error_bound / abs(est.value), est.method)


def _hellinger(est: OracleEstimate) -> OracleEstimate:
    gap = max(0.0, 1.0 - est.value)
    # d sqrt(1-b)/db = -1/(2 sqrt(1-b)); guard the coincident-member case.
    err = est.error_bound / (2.0 * math.sqrt(max(gap, 1e-12)))
    return OracleEstimate(math.sqrt(gap), err, est.method)


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
