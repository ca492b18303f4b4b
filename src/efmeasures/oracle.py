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


@dataclass(frozen=True)
class OracleConfig:
    """Tolerances, truncation rules, and the Monte Carlo seed."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000
    mc_samples: int = 1_000_000
    seed: int = 0
    tail_mass_bound: float = 1e-15

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0 and self.rel_tol > 0 and self.tail_mass_bound > 0):
            raise ValueError("all tolerances must be strictly positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if self.mc_samples < 1000:
            raise ValueError("mc_samples must be >= 1000")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


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
        epsrel=cfg.rel_tol,
        limit=cfg.max_subdivisions,
        points=pts,
        full_output=1,
    )
    if len(result) > 3:
        raise ConvergenceError(f"quadrature did not converge on [{lo:g}, {hi:g}]: {result[3]}")
    return float(result[0]), float(result[1])


def _hull(*windows: tuple[float, float]) -> tuple[float, float]:
    los, his = zip(*windows)
    return min(los), max(his)


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


def _quad_estimate(fam, integrand, windows, cfg, points) -> OracleEstimate:
    lo, hi = _hull(*windows)
    value, err = _quad(integrand, lo, hi, cfg, points=points)
    return OracleEstimate(value, err, QUADRATURE)


# --------------------------------------------------------------------------
# Discrete backend.
# --------------------------------------------------------------------------


def _discrete_sum(term_fn, peak: float, cfg: OracleConfig) -> OracleEstimate:
    total, abs_total, last, _ = _kahan_sum_terms(term_fn, peak, cfg.tail_mass_bound)
    # Terms decay super-exponentially past the cutoff; a dozen copies of the
    # last term dominates the discarded tail. Kahan keeps round-off at eps.
    err = 12.0 * last + 4.0 * _EPS * abs_total
    return OracleEstimate(total, err, DISCRETE_SUM)


def _binary_sum(term_fn) -> OracleEstimate:
    total = term_fn(0) + term_fn(1)
    err = 4.0 * _EPS * (abs(term_fn(0)) + abs(term_fn(1)))
    return OracleEstimate(total, err, DISCRETE_SUM)


def _poisson_rate(theta: NaturalParam) -> float:
    return math.exp(float(theta.vector[0]))


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
    kind = fam.support.kind
    if kind == "binary":
        ld = _fast_log_density(fam, theta)
        return _binary_sum(lambda k: math.exp(alpha * ld(float(k))))
    if kind == "nonneg-int":
        ldb = fam.log_density_batch
        return _discrete_sum(
            lambda k: math.exp(alpha * float(ldb(theta, np.asarray([k]))[0])),
            _poisson_rate(theta),
            cfg,
        )
    if kind == "real-vector":
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
    # p^alpha is proportional to the alpha-scaled member's density, so that
    # member's window covers the integrand's mass exactly.
    ld = _fast_log_density(fam, theta)
    windows = [fam.window(theta.scaled(alpha), WINDOW_NATS), fam.window(theta, WINDOW_NATS)]
    return _quad_estimate(
        fam,
        lambda x: math.exp(alpha * ld(x)),
        windows,
        cfg,
        points=[_mode(fam, theta)],
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
    kind = fam.support.kind
    mixed = theta.mix(theta2, alpha)
    mixed_ok = fam.in_natural_domain(mixed)

    if kind == "binary":
        ldp = _fast_log_density(fam, theta)
        ldq = _fast_log_density(fam, theta2)
        return _binary_sum(
            lambda k: math.exp(alpha * ldp(float(k)) + (1.0 - alpha) * ldq(float(k)))
        )
    if kind == "nonneg-int":
        ldb = fam.log_density_batch
        rp, rq = _poisson_rate(theta), _poisson_rate(theta2)
        peak = max(rp, rq, rp**alpha * rq ** (1.0 - alpha))

        def term(k: int) -> float:
            arr = np.asarray([k])
            return math.exp(
                alpha * float(ldb(theta, arr)[0]) + (1.0 - alpha) * float(ldb(theta2, arr)[0])
            )

        return _discrete_sum(term, peak, cfg)
    if kind == "real-vector":
        if not mixed_ok:
            raise ConvergenceError(
                "the alpha-mixture parameter leaves the natural domain; "
                "the cross integral diverges"
            )
        return _mc_importance(
            fam,
            mixed,
            lambda xs: alpha * fam.log_density_batch(theta, xs)
            + (1.0 - alpha) * fam.log_density_batch(theta2, xs),
            cfg,
            f"i-cross:{alpha!r}",
        )

    if not mixed_ok:
        raise ConvergenceError(
            "the alpha-mixture parameter leaves the natural domain; "
            "the cross integral diverges"
        )
    # p^alpha q^(1-alpha) is proportional to the mixture member's density for
    # these zero-carrier families, so its window carries the mass; both
    # members' windows are added as margin.
    ldp = _fast_log_density(fam, theta)
    ldq = _fast_log_density(fam, theta2)
    windows = [
        fam.window(mixed, WINDOW_NATS),
        fam.window(theta, WINDOW_NATS),
        fam.window(theta2, WINDOW_NATS),
    ]
    points = [_mode(fam, mixed), _mode(fam, theta), _mode(fam, theta2)]
    return _quad_estimate(
        fam,
        lambda x: math.exp(alpha * ldp(x) + (1.0 - alpha) * ldq(x)),
        windows,
        cfg,
        points=points,
    )


def oracle_shannon_entropy(fam: Family, theta: NaturalParam, cfg: OracleConfig) -> OracleEstimate:
    """Direct -integral/sum of p log p."""
    fam.require_natural(theta)
    kind = fam.support.kind
    if kind == "binary":
        ld = _fast_log_density(fam, theta)
        return _binary_sum(lambda k: -math.exp(ld(float(k))) * ld(float(k)))
    if kind == "nonneg-int":
        ldb = fam.log_density_batch

        def term(k: int) -> float:
            lp = float(ldb(theta, np.asarray([k]))[0])
            return -math.exp(lp) * lp

        return _discrete_sum(term, _poisson_rate(theta), cfg)
    if kind == "real-vector":
        return _mc_plain(
            fam, theta, lambda xs: -fam.log_density_batch(theta, xs), cfg, "shannon"
        )
    ld = _fast_log_density(fam, theta)
    return _quad_estimate(
        fam,
        lambda x: -math.exp(ld(x)) * ld(x),
        [fam.window(theta, WINDOW_NATS)],
        cfg,
        points=[_mode(fam, theta)],
    )


def oracle_shannon_cross_entropy(
    fam: Family, theta: NaturalParam, theta2: NaturalParam, cfg: OracleConfig
) -> OracleEstimate:
    """Direct -integral/sum of p log q."""
    fam.require_natural(theta)
    fam.require_natural(theta2, "second natural parameter")
    kind = fam.support.kind
    if kind == "binary":
        ldp = _fast_log_density(fam, theta)
        ldq = _fast_log_density(fam, theta2)
        return _binary_sum(lambda k: -math.exp(ldp(float(k))) * ldq(float(k)))
    if kind == "nonneg-int":
        ldb = fam.log_density_batch

        def term(k: int) -> float:
            arr = np.asarray([k])
            return -math.exp(float(ldb(theta, arr)[0])) * float(ldb(theta2, arr)[0])

        return _discrete_sum(term, max(_poisson_rate(theta), _poisson_rate(theta2)), cfg)
    if kind == "real-vector":
        return _mc_plain(
            fam, theta, lambda xs: -fam.log_density_batch(theta2, xs), cfg, "cross-entropy"
        )
    ldp = _fast_log_density(fam, theta)
    ldq = _fast_log_density(fam, theta2)
    windows = [fam.window(theta, WINDOW_NATS), fam.window(theta2, WINDOW_NATS)]
    return _quad_estimate(
        fam,
        lambda x: -math.exp(ldp(x)) * ldq(x),
        windows,
        cfg,
        points=[_mode(fam, theta), _mode(fam, theta2)],
    )


def oracle_kl(
    fam: Family, theta: NaturalParam, theta2: NaturalParam, cfg: OracleConfig
) -> OracleEstimate:
    """Direct integral/sum of p log(p/q)."""
    fam.require_natural(theta)
    fam.require_natural(theta2, "second natural parameter")
    kind = fam.support.kind
    if kind == "binary":
        ldp = _fast_log_density(fam, theta)
        ldq = _fast_log_density(fam, theta2)
        return _binary_sum(
            lambda k: math.exp(ldp(float(k))) * (ldp(float(k)) - ldq(float(k)))
        )
    if kind == "nonneg-int":
        ldb = fam.log_density_batch

        def term(k: int) -> float:
            arr = np.asarray([k])
            lp = float(ldb(theta, arr)[0])
            return math.exp(lp) * (lp - float(ldb(theta2, arr)[0]))

        return _discrete_sum(term, max(_poisson_rate(theta), _poisson_rate(theta2)), cfg)
    if kind == "real-vector":
        return _mc_plain(
            fam,
            theta,
            lambda xs: fam.log_density_batch(theta, xs) - fam.log_density_batch(theta2, xs),
            cfg,
            "kl",
        )
    ldp = _fast_log_density(fam, theta)
    ldq = _fast_log_density(fam, theta2)
    windows = [fam.window(theta, WINDOW_NATS), fam.window(theta2, WINDOW_NATS)]
    return _quad_estimate(
        fam,
        lambda x: math.exp(ldp(x)) * (ldp(x) - ldq(x)),
        windows,
        cfg,
        points=[_mode(fam, theta), _mode(fam, theta2)],
    )


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


def oracle_measure(
    fam: Family,
    measure: str,
    theta: NaturalParam,
    theta2: NaturalParam | None = None,
    alpha: float | None = None,
    cfg: OracleConfig = OracleConfig(),
) -> OracleEstimate:
    """Numerical value of a named measure, assembled from oracle primitives only."""
    if measure == "shannon":
        return oracle_shannon_entropy(fam, theta, cfg)
    if measure == "cross-entropy":
        return oracle_shannon_cross_entropy(fam, theta, theta2, cfg)
    if measure == "kl":
        return oracle_kl(fam, theta, theta2, cfg)
    if measure == "bregman":
        # The Bregman gap of (q, p) is the relative entropy of p against q.
        return oracle_kl(fam, theta2, theta, cfg)
    if measure == "renyi":
        est = oracle_i_alpha_self(fam, theta, alpha, cfg)
        value = math.log(est.value) / (1.0 - alpha)
        err = est.error_bound / (abs(est.value) * abs(1.0 - alpha))
        return OracleEstimate(value, err, est.method)
    if measure == "tsallis":
        est = oracle_i_alpha_self(fam, theta, alpha, cfg)
        return OracleEstimate(
            (est.value - 1.0) / (1.0 - alpha), est.error_bound / abs(1.0 - alpha), est.method
        )
    if measure == "renyi-div":
        est = oracle_i_alpha_cross(fam, theta, theta2, alpha, cfg)
        value = math.log(est.value) / (alpha - 1.0)
        err = est.error_bound / (abs(est.value) * abs(1.0 - alpha))
        return OracleEstimate(value, err, est.method)
    if measure == "tsallis-div":
        est = oracle_i_alpha_cross(fam, theta, theta2, alpha, cfg)
        return OracleEstimate(
            (est.value - 1.0) / (alpha - 1.0), est.error_bound / abs(1.0 - alpha), est.method
        )
    if measure == "jensen":
        est = oracle_i_alpha_cross(fam, theta, theta2, alpha, cfg)
        return OracleEstimate(-math.log(est.value), est.error_bound / abs(est.value), est.method)
    if measure == "bhattacharyya":
        return oracle_i_alpha_cross(fam, theta, theta2, 0.5, cfg)
    if measure == "hellinger":
        est = oracle_i_alpha_cross(fam, theta, theta2, 0.5, cfg)
        gap = max(0.0, 1.0 - est.value)
        value = math.sqrt(gap)
        # d sqrt(1-b)/db = -1/(2 sqrt(1-b)); guard the coincident-member case.
        err = est.error_bound / (2.0 * math.sqrt(max(gap, 1e-12)))
        return OracleEstimate(value, err, est.method)
    raise ValueError(f"unknown measure {measure!r}")
