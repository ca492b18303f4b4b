"""Closed forms against 50-digit references, over the whole natural domain.

Each reference is a source-parameter formula (rates, scales, means and
variances, probabilities) evaluated in 50-digit mpmath at the source
parameters the float member encodes, recovered from its natural coordinates
at 50 digits. Nothing here calls F, grad F or a carrier moment, so the
references measure the arithmetic of the closed forms alone.
"""

import functools
import math

import numpy as np
import pytest

import efmeasures as em
from efmeasures import measures as M
from efmeasures.errors import ConvergenceError, MixedParameterError
from efmeasures.families import NaturalParam

from conftest import ALL_FAMILY_NAMES, make_family, random_theta_pair

mpmath = pytest.importorskip("mpmath")
mpf = mpmath.mpf

DPS = 50


# --------------------------------------------------------------------------
# 50-digit references.
# --------------------------------------------------------------------------


def _source(name: str, theta: NaturalParam):
    """The source parameters a float member encodes, at 50 digits."""
    v = [mpf(float(x)) for x in theta.vector]
    if name == "exponential":
        return -v[0]  # rate
    if name == "laplacian":
        return -1 / v[0]  # scale
    if name == "poisson":
        return mpmath.exp(v[0])  # rate
    if name == "bernoulli":  # (p, 1 - p), each to full relative precision
        return 1 / (1 + mpmath.exp(-v[0])), 1 / (1 + mpmath.exp(v[0]))
    if name == "gaussian":
        var = -1 / (2 * v[1])
        return v[0] * var, var
    cov = (-2 * mpmath.matrix([[mpf(float(x)) for x in row] for row in theta.matrix])) ** -1
    return cov * mpmath.matrix(v), cov


@functools.lru_cache(maxsize=None)
def _poisson_log_masses(rate):
    """log p_k over counts +-(40 sqrt(rate) + 40) around the rate: the tails of
    p^alpha are below 1e-150 for the orders used here, alpha >= 1/2."""
    half = 40 * mpmath.sqrt(rate) + 40
    lo, hi = max(0, int(rate - half)), int(rate + half) + 1
    log_rate = mpmath.log(rate)
    return tuple((k, k * log_rate - rate - mpmath.loggamma(k + 1)) for k in range(lo, hi + 1))


def _primitives(name: str, s, s2):
    """entropy(), cross(), kl(p || q), power(a) = integral of p^a and
    overlap(a) = integral of p^a q^(1-a), for source parameters s, s2."""
    if name in ("exponential", "laplacian"):
        # Work in rates r = 1 / scale for the Laplacian: p(x) = (r/2) e^(-r|x|).
        r1, r2 = (s, s2) if name == "exponential" else (1 / s, 1 / s2 if s2 is not None else None)
        c = 0 if name == "exponential" else mpmath.log(2)
        return dict(
            entropy=lambda: 1 - mpmath.log(r1) + c,
            cross=lambda: r2 / r1 - mpmath.log(r2) + c,
            kl=lambda: mpmath.log(r1 / r2) + r2 / r1 - 1,
            power=lambda a: r1 ** (a - 1) / a * mpmath.exp((1 - a) * c),
            overlap=lambda a: r1**a * r2 ** (1 - a) / (a * r1 + (1 - a) * r2),
        )
    if name == "gaussian":
        (m1, v1), (m2, v2) = s, s2 if s2 is not None else (None, None)

        def overlap(a):
            va = a * v2 + (1 - a) * v1
            spread = mpmath.sqrt(v1 ** (1 - a) * v2**a / va)
            return spread * mpmath.exp(-a * (1 - a) * (m1 - m2) ** 2 / (2 * va))

        return dict(
            entropy=lambda: mpmath.log(2 * mpmath.pi * mpmath.e * v1) / 2,
            cross=lambda: mpmath.log(2 * mpmath.pi * v2) / 2 + (v1 + (m1 - m2) ** 2) / (2 * v2),
            kl=lambda: (mpmath.log(v2 / v1) + (v1 + (m1 - m2) ** 2) / v2 - 1) / 2,
            power=lambda a: (2 * mpmath.pi * v1) ** ((1 - a) / 2) / mpmath.sqrt(a),
            overlap=overlap,
        )
    if name == "mvn":
        (m1, c1), (m2, c2) = s, s2 if s2 is not None else (None, None)
        d = c1.rows

        def quad(cov):
            diff = m1 - m2
            return (diff.T * cov**-1 * diff)[0]

        def overlap(a):
            ca = a * c2 + (1 - a) * c1
            dets = mpmath.det(c1) ** (1 - a) * mpmath.det(c2) ** a / mpmath.det(ca)
            return mpmath.sqrt(dets) * mpmath.exp(-a * (1 - a) * quad(ca) / 2)

        def trace(cov):
            prod = c2**-1 * cov
            return sum(prod[i, i] for i in range(d))

        log_2pi, log_det1 = mpmath.log(2 * mpmath.pi), mpmath.log(mpmath.det(c1))
        log_det2 = mpmath.log(mpmath.det(c2)) if c2 is not None else None
        return dict(
            entropy=lambda: (d * (1 + log_2pi) + log_det1) / 2,
            cross=lambda: (d * log_2pi + log_det2 + trace(c1) + quad(c2)) / 2,
            kl=lambda: (trace(c1) - d + quad(c2) + log_det2 - log_det1) / 2,
            power=lambda a: mpmath.exp((1 - a) * (d * log_2pi + log_det1) / 2) / a ** (mpf(d) / 2),
            overlap=overlap,
        )
    if name == "bernoulli":
        (p1, q1), (p2, q2) = s, s2 if s2 is not None else (None, None)
        return dict(
            entropy=lambda: -p1 * mpmath.log(p1) - q1 * mpmath.log(q1),
            cross=lambda: -p1 * mpmath.log(p2) - q1 * mpmath.log(q2),
            kl=lambda: p1 * mpmath.log(p1 / p2) + q1 * mpmath.log(q1 / q2),
            power=lambda a: p1**a + q1**a,
            overlap=lambda a: p1**a * p2 ** (1 - a) + q1**a * q2 ** (1 - a),
        )
    # poisson
    r1, r2 = s, s2
    masses = _poisson_log_masses(r1)
    return dict(
        entropy=lambda: -mpmath.fsum(mpmath.exp(lp) * lp for _, lp in masses),
        cross=lambda: r2 - r1 * mpmath.log(r2)
        + mpmath.fsum(mpmath.exp(lp) * mpmath.loggamma(k + 1) for k, lp in masses),
        kl=lambda: r1 * mpmath.log(r1 / r2) + r2 - r1,
        power=lambda a: mpmath.fsum(mpmath.exp(a * lp) for _, lp in masses),
        overlap=lambda a: mpmath.exp(r1**a * r2 ** (1 - a) - a * r1 - (1 - a) * r2),
    )


def _spread_digits(theta, theta2) -> int:
    """Decimal digits of the mvn members' precision spread, the largest eigenvalue of
    -2M over the smallest, both members together: mpmath's matrix inverse calls a
    matrix singular whose pivots spread by more than 10^dps, and a mixture's
    covariance spreads no more than the members' for orders in [0, 1]."""
    members = [t for t in (theta, theta2) if t is not None]
    eigs = np.concatenate([np.linalg.eigvalsh(-2.0 * t.matrix) for t in members])
    return max(0, math.ceil(math.log10(eigs.max()) - math.log10(eigs.min())))


def reference(name: str, measure: str, theta, theta2, alpha, dps: int = DPS) -> float:
    """50-digit value of a measure at the members theta, theta2 (alpha != 1); more
    digits where 1 - alpha needs them, and for mvn members, as many more as their
    precision spread takes."""
    if name == "mvn":
        dps += _spread_digits(theta, theta2)
    with mpmath.workdps(dps):
        s = _source(name, theta)
        s2 = _source(name, theta2) if theta2 is not None else None
        f = _primitives(name, s, s2)
        a = mpf(alpha) if alpha is not None else None
        if measure == "renyi":
            value = mpmath.log(f["power"](a)) / (1 - a)
        elif measure == "tsallis":
            value = (1 - f["power"](a)) / (a - 1)
        elif measure == "shannon":
            value = f["entropy"]()
        elif measure == "cross-entropy":
            value = f["cross"]()
        elif measure == "kl":
            value = f["kl"]()
        elif measure == "bregman":  # B(theta : theta2) = KL(theta2 || theta)
            value = _primitives(name, s2, s)["kl"]()
        elif measure == "renyi-div":
            value = mpmath.log(f["overlap"](a)) / (a - 1)
        elif measure == "tsallis-div":
            value = (f["overlap"](a) - 1) / (a - 1)
        elif measure == "jensen":
            value = -mpmath.log(f["overlap"](a))
        elif measure == "bhattacharyya":
            value = f["overlap"](mpf(1) / 2)
        else:  # hellinger; 1 - overlap may round below 0 at equal members
            value = mpmath.sqrt(max(0, 1 - f["overlap"](mpf(1) / 2)))
        return float(value)


def _evaluate(fam, measure, theta, theta2, alpha) -> float:
    second = theta2 if M.measure_needs_pair(measure) else None
    return M.evaluate_measure(fam, measure, theta, second, alpha).value


def _rel_error(got: float, want: float) -> float:
    return abs(got - want) / abs(want) if want else abs(got)


# --------------------------------------------------------------------------
# The measured defects of the F-difference forms, one row each.
# --------------------------------------------------------------------------


def _mvn_pair_shifted(shift):
    fam = em.get_family("mvn", 2)
    cov = np.array([[1.0, 0.2], [0.2, 0.8]])
    return fam, fam.to_natural(em.MultivariateGaussianParams(mu=[shift, shift], cov=cov))


# (id, family, first member, second member, measure, alpha, relative bound)
_ROWS = [
    ("poisson-renyi-div-600-900-0.9999", "poisson", 600.0, 900.0, "renyi-div", 0.9999, 1e-13),
    ("poisson-renyi-div-600-900-1-5e-7", "poisson", 600.0, 900.0, "renyi-div", 1 - 5e-7, 1e-13),
    ("poisson-shannon-900", "poisson", 900.0, None, "shannon", None, 1e-12),
    ("poisson-shannon-1e4", "poisson", 1e4, None, "shannon", None, 2e-11),
    ("poisson-renyi-9999-alpha-3", "poisson", 9999.0, None, "renyi", 3.0, 1e-11),
    ("poisson-renyi-9999-alpha-5", "poisson", 9999.0, None, "renyi", 5.0, 1e-11),
    ("exponential-hellinger-1-1+1e-6", "exponential", 1.0, 1.0 + 1e-6, "hellinger", None, 1e-13),
    ("gaussian-kl-0-1e-6", "gaussian", (0.0, 1.0), (1e-6, 1.0), "kl", None, 1e-13),
    ("gaussian-renyi-1-0.99e-6", "gaussian", (0.3, 2.0), None, "renyi", 1 - 0.99e-6, 1e-14),
    ("bernoulli-kl-0.5-0.5+1e-9", "bernoulli", 0.5, 0.5 + 1e-9, "kl", None, 1e-12),
    ("bernoulli-hellinger-0.5-0.5+1e-9", "bernoulli", 0.5, 0.5 + 1e-9, "hellinger", None, 1e-12),
    ("bernoulli-renyi-div-0.5-0.5+1e-9-0.9", "bernoulli", 0.5, 0.5 + 1e-9, "renyi-div", 0.9, 1e-12),
]

_SOURCE = {
    "poisson": lambda r: em.PoissonParams(rate=r),
    "exponential": lambda r: em.ExponentialParams(rate=r),
    "bernoulli": lambda p: em.BernoulliParams(p=p),
    "gaussian": lambda mv: em.GaussianParams(mu=mv[0], var=mv[1]),
}


class TestMeasuredDefects:
    """Each row failed at the F-difference forms: a large relative error, an
    OverflowError, or a zero or negative value where the truth is positive."""

    @pytest.mark.parametrize("row", _ROWS, ids=[r[0] for r in _ROWS])
    def test_row_matches_50_digits(self, row):
        _, name, first, second, measure, alpha, bound = row
        fam = make_family(name)
        theta = fam.to_natural(_SOURCE[name](first))
        theta2 = fam.to_natural(_SOURCE[name](second)) if second is not None else None
        want = reference(name, measure, theta, theta2, alpha)
        got = _evaluate(fam, measure, theta, theta2, alpha)
        assert _rel_error(got, want) <= bound, (got, want)

    @pytest.mark.parametrize("shift", [1e3, 1e7])
    def test_mvn_renyi_entropy_does_not_depend_on_the_mean(self, shift):
        # log(2 pi) + log det(cov) / 2 + 2 log 2 at alpha = 1/2, exactly the
        # value at the origin: the far mean must not leak into it.
        fam, theta = _mvn_pair_shifted(shift)
        want = reference("mvn", "renyi", _mvn_pair_shifted(0.0)[1], None, 0.5)
        got = M.evaluate_measure(fam, "renyi", theta, alpha=0.5).value
        assert abs(got - want) <= 1e-14 * abs(want), (got, want)


@pytest.mark.parametrize("alpha", [1e-8, 1e-12, 1e-17, 1e-300])
@pytest.mark.parametrize("name", ["gaussian", "mvn"])
def test_small_orders_keep_the_digits_of_log_alpha(name, alpha):
    """alpha theta has the variance / alpha, so the Renyi gap is (alpha - 1 - log alpha) / 2
    per axis. Rounding alpha - 1 before the log lost log alpha's digits: 2.5e-10 relative
    at alpha = 1e-8, and a math domain error from alpha = 1e-17 on."""
    if name == "mvn":
        fam, theta = _mvn_pair_shifted(0.0)
    else:
        fam = em.GAUSSIAN
        theta = fam.to_natural(em.GaussianParams(mu=0.0, var=1.0))
    renyi = reference(name, "renyi", theta, None, alpha)
    got = _evaluate(fam, "renyi", theta, None, alpha)
    assert _rel_error(got, renyi) <= 5e-16, (got, renyi)
    # Tsallis is expm1((1 - alpha) renyi) / (1 - alpha): exp scales renyi's rounding by renyi.
    want = reference(name, "tsallis", theta, None, alpha)
    got = _evaluate(fam, "tsallis", theta, None, alpha)
    assert _rel_error(got, want) <= 1e-15 * renyi, (got, want)


@functools.lru_cache(maxsize=None)
def _poisson_power_sum(theta: float, alpha: float):
    """sum_k p_k^alpha at 50 digits, from k = 0 on until the tail, at most t_k r / (1 - r)
    for the falling ratio r = t_k / t_(k-1) of these log-concave terms, is below 1e-60."""
    with mpmath.workdps(DPS):
        rate, a = _source("poisson", NaturalParam([theta])), mpf(alpha)
        log_rate, log_p = mpmath.log(rate), -rate
        total, last, k = mpf(0), None, 0
        while True:
            term = mpmath.exp(a * log_p)
            total += term
            if last is not None and term < last:
                r = term / last
                if term * r / (1 - r) < mpf(10) ** -60 * total:
                    return total
            last, k = term, k + 1
            log_p += log_rate - mpmath.log(k)


# Small orders at small rates: the terms (k!)^-alpha decay slowly, and the four windows
# around the rate fell short (ConvergenceError); a fifth, sized from the tail bound, holds them.
_SMALL_ORDERS = [(1.0, 0.005), (1.0, 0.002), (0.1, 0.005)]


@pytest.mark.parametrize("measure", ["renyi", "tsallis"])
@pytest.mark.parametrize("rate, alpha", _SMALL_ORDERS, ids=[f"{r:g}-{a:g}" for r, a in _SMALL_ORDERS])
def test_poisson_small_orders_converge(rate, alpha, measure):
    theta = em.POISSON.to_natural(em.PoissonParams(rate=rate))
    with mpmath.workdps(DPS):
        power, a = _poisson_power_sum(float(theta.vector[0]), alpha), mpf(alpha)
        want = mpmath.log(power) / (1 - a) if measure == "renyi" else (power - 1) / (1 - a)
    got = _evaluate(em.POISSON, measure, theta, None, alpha)
    assert _rel_error(got, float(want)) <= 1e-13, (got, float(want))


def test_poisson_order_whose_window_passes_the_cap_still_raises():
    # At rate 1 and alpha = 1e-8 the tail bound asks for ~3e8 counts, past the 2^22 cap.
    theta = em.POISSON.to_natural(em.PoissonParams(rate=1.0))
    with pytest.raises(ConvergenceError):
        _evaluate(em.POISSON, "renyi", theta, None, 1e-8)


# Renyi entropies where alpha theta leaves the float range, or underflows to the domain's
# boundary 0. G = B(alpha theta : theta) = c (alpha - 1 - log alpha) whatever theta, so
# alpha theta is never formed; each raised ScaledParameterError when it was.
_UNSCALED = [
    ("exponential-rate-1e307-alpha-20", em.ExponentialParams(rate=1e307), 20.0),
    ("laplacian-scale-1e-307-alpha-20", em.LaplacianParams(scale=1e-307), 20.0),
    ("gaussian-var-1e-300-alpha-1e10", em.GaussianParams(mu=0.0, var=1e-300), 1e10),
    (
        "mvn-var-1e-300-alpha-1e10",
        em.MultivariateGaussianParams(mu=[0.0, 0.0], cov=1e-300 * np.eye(2)),
        1e10,
    ),
    ("exponential-rate-1e-30-alpha-1e-300", em.ExponentialParams(rate=1e-30), 1e-300),
]


@pytest.mark.parametrize("row", _UNSCALED, ids=[r[0] for r in _UNSCALED])
def test_renyi_entropy_never_forms_alpha_theta(row):
    cell, src, alpha = row
    name = cell.split("-")[0]
    fam = make_family(name)
    theta = fam.to_natural(src)
    want = reference(name, "renyi", theta, None, alpha)
    got = _evaluate(fam, "renyi", theta, None, alpha)
    assert _rel_error(got, want) <= 1e-14, (got, want)


# --------------------------------------------------------------------------
# A seeded grid of moderate members: every measure near rounding.
# --------------------------------------------------------------------------

_GRID_ALPHAS = (0.5, 0.9, 1 - 1e-4, 1 + 1e-4, 1 - 1e-7, 1 + 1e-7, 2.0)


@pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
def test_seeded_grid_is_within_1e13(name):
    fam = make_family(name)
    rng = np.random.default_rng(2024)
    worst = []
    for _ in range(3):
        theta, theta2 = random_theta_pair(name, rng)
        for measure in M.MEASURE_NAMES:
            for alpha in _GRID_ALPHAS if M.measure_needs_alpha(measure) else (None,):
                want = reference(name, measure, theta, theta2, alpha)
                got = _evaluate(fam, measure, theta, theta2, alpha)
                worst.append((_rel_error(got, want), measure, alpha))
    assert max(worst)[0] <= 1e-13, max(worst)


_FAR_APART = {
    "exponential": (em.ExponentialParams(rate=1.0), em.ExponentialParams(rate=12.0)),
    "laplacian": (em.LaplacianParams(scale=1.0), em.LaplacianParams(scale=0.2)),
    "poisson": (em.PoissonParams(rate=1.5), em.PoissonParams(rate=20.0)),
    "bernoulli": (em.BernoulliParams(p=0.2), em.BernoulliParams(p=0.9)),
    "gaussian": (em.GaussianParams(mu=0.3, var=1.0), em.GaussianParams(mu=-1.0, var=16.0)),
    "mvn": (
        em.MultivariateGaussianParams(mu=[0.0, 0.0], cov=np.eye(2)),
        em.MultivariateGaussianParams(mu=[0.5, -1.0], cov=[[16.0, 1.0], [1.0, 0.5]]),
    ),
}


@pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
def test_members_far_apart_are_within_1e13(name):
    # Steps far from 0 (a rate ratio of 12, a precision ratio below 1/2 in some
    # direction, |theta - theta'| > 1) take each gap's far branch.
    fam = make_family(name)
    members = [fam.to_natural(src) for src in _FAR_APART[name]]
    for theta, theta2 in (members, members[::-1]):
        for measure in M.MEASURE_NAMES:
            for alpha in (0.5, 0.9, 1 - 1e-7) if M.measure_needs_alpha(measure) else (None,):
                want = reference(name, measure, theta, theta2, alpha)
                got = _evaluate(fam, measure, theta, theta2, alpha)
                assert _rel_error(got, want) <= 1e-13, (measure, alpha, got, want)


# Precisions far apart, at orders near the ends of [0, 1]. The mixture's precision
# keeps its digits only as a sum of positives (Gaussian, 1e12 apart); a small
# whitened mvn eigenvalue only from the inverse (diagonal, 1e6 apart both ways);
# and the mvn step only with the mean of the better-conditioned member (rotated,
# 1e3 apart both ways; its covariance's condition, 1e6, bounds what is left).
def _mvn_graded(cov2):
    return (
        em.MultivariateGaussianParams(mu=[0.0, 0.0], cov=[[1.0, 0.2], [0.2, 0.8]]),
        em.MultivariateGaussianParams(mu=[1.0, 0.5], cov=cov2),
    )


_ROTATION = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])
_GRADED = [
    ("gaussian-1e12", "gaussian",
     (em.GaussianParams(mu=0.0, var=1.0), em.GaussianParams(mu=1.0, var=1e12)), 1e-13),
    ("mvn-diagonal-1e6-both-ways", "mvn", _mvn_graded(np.diag([1e6, 1e-6])), 1e-13),
    ("mvn-rotated-1e3-both-ways", "mvn",
     _mvn_graded(_ROTATION @ np.diag([1e3, 1e-3]) @ _ROTATION.T), 1e-11),
]


@pytest.mark.parametrize("row", _GRADED, ids=[r[0] for r in _GRADED])
def test_graded_pairs_keep_their_digits(row):
    _, name, sources, bound = row
    fam = make_family(name)
    members = [fam.to_natural(src) for src in sources]
    for theta, theta2 in (members, members[::-1]):
        for measure in ("renyi-div", "tsallis-div", "jensen", "bhattacharyya", "hellinger",
                        "kl", "cross-entropy", "bregman"):
            alphas = (1e-8, 1e-4, 0.5, 1 - 1e-4, 1 - 1e-8)
            for alpha in alphas if M.measure_needs_alpha(measure) else (None,):
                want = reference(name, measure, theta, theta2, alpha)
                got = _evaluate(fam, measure, theta, theta2, alpha)
                assert _rel_error(got, want) <= bound, (measure, alpha, got, want)


def test_mvn_precisions_a_float_range_apart_keep_their_digits():
    # Zero means, precisions diag(1e200, 1) and diag(1e-110, 2): whitened by the first, the
    # second's precision is 1e-310 along one axis, where the refinement's 1 / |y|^2 leaves the
    # float range and log lam comes from the logs of y's entries. KL the other way round is
    # ~5e309, beyond the float range, and inf in both. The references take 310 more digits
    # for the members' precision spread of 1e310.
    fam = make_family("mvn")
    p, q = (fam.member(NaturalParam(np.zeros(2), -0.5 * np.diag(d)))
            for d in ([1e200, 1.0], [1e-110, 2.0]))
    assert _rel_error(_evaluate(fam, "kl", p, q, None), 356.554115823797108) <= 1e-12
    for theta, theta2 in ((p, q), (q, p)):
        for measure, alpha in (("kl", None), ("bhattacharyya", None), ("renyi-div", 0.5)):
            want = reference("mvn", measure, theta, theta2, alpha)
            got = _evaluate(fam, measure, theta, theta2, alpha)
            assert got == want or _rel_error(got, want) <= 1e-12, (measure, got, want)


# --------------------------------------------------------------------------
# Members at the ends of the domain: finite wherever the value is.
# --------------------------------------------------------------------------

_EXTREMES = {
    "bernoulli": [[-800.0], [-30.0], [0.0], [30.0], [800.0]],
    "exponential": [[-1e-300], [-1.0], [-1e300]],
    "laplacian": [[-1e-300], [-1.0], [-1e300]],
    "poisson": [[-5.0], [-1.0], [0.0], [2.0], [4.0], [6.5]],
    "gaussian": [[mu / var, -0.5 / var] for mu in (-1e10, 0.0, 1e10) for var in (0.5, 1.0)],
}
_EXTREME_ALPHAS = (0.5, 0.9, 1 - 1e-7, 1 + 1e-7, 2.0)


@pytest.mark.parametrize("name", sorted(_EXTREMES))
def test_extreme_members_give_finite_values(name):
    """Every value that fits a float comes back finite; only a mixture outside
    the domain (alpha > 1) raises, and only a value beyond the float range may
    overflow. The Gaussian forms never round a mixture's natural coordinates, so
    even at means of 1e10 next to alpha = 1 they hold 1e-13; the other families'
    bound is loose (Poisson rounds its own members' log-masses at these rates)."""
    fam = make_family(name)
    bound = 1e-13 if name == "gaussian" else 1e-3
    members = [NaturalParam(v) for v in _EXTREMES[name]]
    for theta in members:
        for theta2 in members:
            for measure in M.MEASURE_NAMES:
                if not M.measure_needs_pair(measure) and theta2 is not members[0]:
                    continue
                for alpha in _EXTREME_ALPHAS if M.measure_needs_alpha(measure) else (None,):
                    cell = (measure, alpha, theta.vector, theta2.vector)
                    mixed = theta.mix(theta2, alpha) if alpha is not None else None
                    leaves = mixed is not None and not fam.in_natural_domain(mixed)
                    if measure in ("renyi-div", "tsallis-div", "jensen") and leaves:
                        with pytest.raises(MixedParameterError):
                            _evaluate(fam, measure, theta, theta2, alpha)
                        continue
                    want = reference(name, measure, theta, theta2, alpha)
                    if not math.isfinite(want):
                        continue  # beyond the float range: inf or OverflowError
                    got = _evaluate(fam, measure, theta, theta2, alpha)
                    assert math.isfinite(got), cell
                    assert abs(got - want) <= bound * abs(want) + 1e-15, (cell, got, want)


# Variances and precisions whose ratios leave the float range, and mean steps
# whose squares overflow before they are scaled.
_EXTREME_GAP_MEMBERS = {
    "gaussian": [em.GaussianParams(mu=mu, var=var) for mu in (0.0, 3.0) for var in (1e-300, 1.0, 1e300)],
    "mvn": [
        em.MultivariateGaussianParams(mu=[0.0, 1.0], cov=cov)
        for cov in (np.diag([1e-20, 1e20]), np.eye(2), np.diag([1e20, 1e-20]))
    ],
}


@pytest.mark.parametrize("name", sorted(_EXTREME_GAP_MEMBERS))
def test_extreme_gaps_are_finite_wherever_the_value_is(name):
    """KL, cross entropy and Bregman are one gap B(theta : theta'): finite and within
    1e-13 wherever the value fits a float, the infinity where it does not, and never
    a mixture error, since the only mixture they take is theta' itself."""
    fam = make_family(name)
    members = [fam.to_natural(src) for src in _EXTREME_GAP_MEMBERS[name]]
    for theta in members:
        for theta2 in members:
            for measure in ("kl", "cross-entropy", "bregman"):
                cell = (measure, theta.vector, theta2.vector)
                want = reference(name, measure, theta, theta2, None)
                got = _evaluate(fam, measure, theta, theta2, None)
                if math.isfinite(want):
                    assert _rel_error(got, want) <= 1e-13, (cell, got, want)
                else:
                    assert got == want, (cell, got, want)


# Gaussian variance scales across the float range, and ratios near and far from 1.
_GAP_SCALES = (1.0, 1e100, 1e-100, 1e200, 1e-200, 1e300, 1e-300)
_GAP_RATIOS = (1.001, 3.0, 1.0 / 3.0, 1e5, 1e-5)


def test_gaussian_gaps_keep_their_digits_at_every_variance_scale():
    """B(theta : theta') reads log lam for the variance ratio lam as the log of the
    ratio, not as a difference of logs of size ~690 at variances near 1e+-300."""
    fam = em.GAUSSIAN
    for var in _GAP_SCALES:
        for ratio in _GAP_RATIOS:
            for step in (0.0, 3.0):  # the mean step, in sds of the first member
                sources = ((0.0, var), (step * math.sqrt(var), ratio * var))
                p, q = (fam.to_natural(em.GaussianParams(mu=mu, var=v)) for mu, v in sources)
                for theta, theta2 in ((p, q), (q, p)):
                    for measure in ("kl", "cross-entropy", "bregman"):
                        cell = (measure, theta.vector, theta2.vector)
                        want = reference("gaussian", measure, theta, theta2, None)
                        got = _evaluate(fam, measure, theta, theta2, None)
                        assert _rel_error(got, want) <= 2e-15, (cell, got, want)


_RATE_GAP_SOURCES = {
    "exponential": lambda x: em.ExponentialParams(rate=x),
    "laplacian": lambda x: em.LaplacianParams(scale=x),
}

# The cross entropy of Exp(rate 1e5) against Exp(rate 1) is H + B = -10.51 + 10.51 =
# 1e-5, which keeps an absolute, not a relative, 2e-15: a defect of H + B near 0
# apart from the gap, 3.8e-11 relative off.
_CANCELLING_CROSS_ENTROPY = ("exponential", "cross-entropy", (-1e5,), (-1.0,))


@pytest.mark.parametrize("name", sorted(_RATE_GAP_SOURCES))
def test_rate_gaps_keep_their_digits_at_every_scale(name):
    """The exponential and Laplacian B(theta : theta') reads log q for the ratio q of
    the coordinates as the log of the ratio, as the Gaussian reads its log lam."""
    fam = make_family(name)
    for x in _GAP_SCALES:
        for ratio in _GAP_RATIOS:
            p, q = (fam.to_natural(_RATE_GAP_SOURCES[name](v)) for v in (x, ratio * x))
            for theta, theta2 in ((p, q), (q, p)):
                for measure in ("kl", "cross-entropy", "bregman"):
                    cell = (measure, theta.vector, theta2.vector)
                    want = reference(name, measure, theta, theta2, None)
                    got = _evaluate(fam, measure, theta, theta2, None)
                    if (name, *cell) == _CANCELLING_CROSS_ENTROPY:
                        assert _rel_error(got, want) > 2e-15, "mended: check this cell too"
                        continue
                    assert _rel_error(got, want) <= 2e-15, (cell, got, want)


# --------------------------------------------------------------------------
# Orders far outside [0, 1], which jensen takes: finite, or the mixture leaves.
# --------------------------------------------------------------------------

_HUGE_ALPHAS = (1e300, -1e300, 1e200, -1e200, -1e17, -1e3, 50.0, 3.0, -2.0)
_HUGE_DPS = 700  # 1 - alpha exactly, for |alpha| up to 1e300
_HUGE_PAIRS = {
    "gaussian": [
        _FAR_APART["gaussian"],
        (em.GaussianParams(mu=0.3, var=1.0), em.GaussianParams(mu=-1.0, var=1.0)),
        (em.GaussianParams(mu=0.0, var=1.0), em.GaussianParams(mu=1e8, var=1e5)),
    ],
    "mvn": [
        (
            em.MultivariateGaussianParams(mu=[0.0, 0.0], cov=np.eye(2)),
            em.MultivariateGaussianParams(mu=[0.5, -1.0], cov=np.diag([2.0, 4.0])),
        ),
        (
            em.MultivariateGaussianParams(mu=[0.0, 0.0], cov=[[1.0, 0.2], [0.2, 0.8]]),
            em.MultivariateGaussianParams(mu=[0.5, -1.0], cov=[[4.0, 0.5], [0.5, 3.5]]),
        ),
        (
            em.MultivariateGaussianParams(mu=[0.0, 0.0], cov=[[1.0, 0.2], [0.2, 0.8]]),
            em.MultivariateGaussianParams(mu=[0.5, -1.0], cov=[[1.0, 0.2], [0.2, 0.8]]),
        ),
    ],
}


def _mixture_leaves(name: str, theta, theta2, alpha) -> bool:
    """Whether the exact mixture alpha theta + (1 - alpha) theta' is outside the domain."""
    with mpmath.workdps(_HUGE_DPS):
        a = mpf(alpha)
        if name == "gaussian":
            return a * mpf(float(theta.vector[1])) + (1 - a) * mpf(float(theta2.vector[1])) >= 0
        m, m2 = (mpmath.matrix(t.matrix.tolist()) for t in (theta, theta2))
        mix = a * m + (1 - a) * m2
        try:
            mpmath.cholesky(-2 * mix)
        except ValueError:
            return True
        return False


@pytest.mark.parametrize("name", sorted(_HUGE_PAIRS))
def test_huge_orders_give_the_value_or_a_mixture_error(name):
    """Each cell is within 1e-12 of the reference, exactly 0 at equal members and the
    infinity beyond the float range, or raises MixedParameterError: where the exact
    mixture leaves the domain, where the value is beyond the float range, or from
    |alpha| ~ 2^53 on, where 1 - alpha is no float and the float weights miss 1.
    No nan, OverflowError or RuntimeWarning."""
    fam = make_family(name)
    for src, src2 in _HUGE_PAIRS[name]:
        p, q = fam.to_natural(src), fam.to_natural(src2)
        for theta, theta2 in ((p, q), (q, p), (p, p), (q, q)):
            for measure in ("jensen", "renyi-div"):
                alphas = _HUGE_ALPHAS if measure == "jensen" else [a for a in _HUGE_ALPHAS if a > 0]
                for alpha in alphas:
                    cell = (measure, alpha, theta.vector, theta2.vector)
                    if theta is theta2:
                        assert _evaluate(fam, measure, theta, theta2, alpha) == 0.0, cell
                        continue
                    if _mixture_leaves(name, theta, theta2, alpha):
                        with pytest.raises(MixedParameterError):
                            _evaluate(fam, measure, theta, theta2, alpha)
                        continue
                    want = reference(name, measure, theta, theta2, alpha, _HUGE_DPS)
                    try:
                        got = _evaluate(fam, measure, theta, theta2, alpha)
                    except MixedParameterError:
                        unresolved = alpha + (1.0 - alpha) != 1.0
                        assert unresolved or not math.isfinite(want), cell
                        continue
                    if math.isfinite(want):
                        assert _rel_error(got, want) <= 1e-12, (cell, got, want)
                    else:
                        assert got == want, (cell, got, want)
