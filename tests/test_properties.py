"""Cross-cutting invariants: limits, identities, signs, and oracle agreement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import efmeasures as em
from efmeasures import measures as M
from efmeasures import oracle as O

from conftest import (
    ALL_FAMILY_NAMES,
    SCALAR_FAMILY_NAMES,
    make_family,
    random_source,
    random_theta_pair,
)

CFG = em.OracleConfig(mc_samples=120_000, seed=9)


def _thetas(name, count, seed):
    fam = make_family(name)
    rng = np.random.default_rng(seed)
    return fam, [fam.to_natural(random_source(name, rng)) for _ in range(count)]


def _pairs(name, count, seed):
    rng = np.random.default_rng(seed)
    return make_family(name), [random_theta_pair(name, rng) for _ in range(count)]


class TestLimitConvergence:
    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_entropies_approach_shannon(self, name):
        fam, thetas = _thetas(name, 5, 42)
        for theta in thetas:
            h = M.shannon_entropy(fam, theta)
            bound_scale = 1.0 + abs(h)
            for delta in (1e-3, -1e-3, 1e-4, -1e-4):
                r = M.renyi_entropy(fam, theta, 1.0 + delta).value
                t = M.tsallis_entropy(fam, theta, 1.0 + delta).value
                assert abs(r - h) < 10.0 * abs(delta) * bound_scale
                assert abs(t - h) < 10.0 * abs(delta) * bound_scale

    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_divergences_approach_kl(self, name):
        fam, pairs = _pairs(name, 5, 43)
        for a, b in pairs:
            kl = M.kl_divergence(fam, a, b)
            bound_scale = 1.0 + abs(kl)
            for delta in (1e-3, -1e-3, 1e-4, -1e-4):
                r = M.renyi_divergence(fam, a, b, 1.0 + delta).value
                t = M.tsallis_divergence(fam, a, b, 1.0 + delta).value
                assert abs(r - kl) < 10.0 * abs(delta) * bound_scale
                assert abs(t - kl) < 10.0 * abs(delta) * bound_scale


class TestIdentities:
    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_jensen_swap_symmetry(self, name):
        fam, pairs = _pairs(name, 5, 44)
        for a, b in pairs:
            for alpha in (0.1, 0.35, 0.5, 0.8, 1.5, 2.0):
                lhs = M.skew_jensen(fam, a, b, alpha)
                rhs = M.skew_jensen(fam, b, a, 1.0 - alpha)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_bhattacharyya_bridge(self, name):
        fam, pairs = _pairs(name, 5, 45)
        for a, b in pairs:
            coeff = M.bhattacharyya_coefficient(fam, a, b)
            div = M.renyi_divergence(fam, a, b, 0.5).value
            assert div == pytest.approx(-2.0 * math.log(coeff), abs=1e-12)
            hell = M.hellinger_distance(fam, a, b)
            assert hell * hell == pytest.approx(1.0 - coeff, abs=1e-12)

    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_cross_entropy_decomposition(self, name):
        fam, pairs = _pairs(name, 5, 46)
        for a, b in pairs:
            lhs = M.shannon_cross_entropy(fam, a, b) - M.shannon_entropy(fam, a)
            assert lhs == pytest.approx(M.kl_divergence(fam, a, b), abs=1e-10)

    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_entropy_scale_conversions_commute(self, name):
        fam, thetas = _thetas(name, 3, 47)
        for theta in thetas:
            for alpha in (0.5, 2.0):
                h_r = M.renyi_entropy(fam, theta, alpha).value
                h_t = M.tsallis_entropy(fam, theta, alpha).value
                assert M.renyi_to_tsallis(h_r, alpha) == pytest.approx(h_t, abs=1e-12)
                assert M.tsallis_to_renyi(h_t, alpha) == pytest.approx(h_r, abs=1e-12)


class TestSignsAndOrdering:
    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_jensen_gap_sign(self, name):
        fam, pairs = _pairs(name, 5, 48)
        for a, b in pairs:
            for alpha in (0.1, 0.5, 0.9):
                assert M.skew_jensen(fam, a, b, alpha) >= -1e-12
            for alpha in (1.5, 2.0):
                assert M.skew_jensen(fam, a, b, alpha) <= 1e-12

    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_divergences_nonnegative_and_faithful(self, name):
        fam, pairs = _pairs(name, 5, 49)
        for a, b in pairs:
            assert M.kl_divergence(fam, a, b) >= 0.0
            assert M.bregman(fam, a, b) >= 0.0
            for alpha in (0.5, 0.9, 2.0):
                assert M.renyi_divergence(fam, a, b, alpha).value >= 0.0
                assert M.tsallis_divergence(fam, a, b, alpha).value >= 0.0
            assert M.kl_divergence(fam, a, a) == pytest.approx(0.0, abs=1e-12)
            assert M.renyi_divergence(fam, a, a, 0.5).value == pytest.approx(0.0, abs=1e-12)

    def test_renyi_divergence_is_oriented(self):
        fam = em.EXPONENTIAL
        a = fam.to_natural(em.ExponentialParams(rate=1.0))
        b = fam.to_natural(em.ExponentialParams(rate=3.0))
        forward = M.renyi_divergence(fam, a, b, 0.5).value
        backward = M.renyi_divergence(fam, b, a, 0.5).value
        assert abs(forward - backward) > 1e-6 or forward == backward  # witness below
        c = fam.to_natural(em.ExponentialParams(rate=1.7))
        assert M.kl_divergence(fam, a, c) != M.kl_divergence(fam, c, a)


class TestOracleEquivalence:
    @pytest.mark.parametrize("name", SCALAR_FAMILY_NAMES)
    def test_divergence_measures_match_oracle(self, name):
        fam, pairs = _pairs(name, 2, 50)
        tol = 1e-9 if fam.support.is_discrete else 1e-7
        for a, b in pairs:
            for measure, alpha in (
                ("renyi-div", 0.5),
                ("renyi-div", 2.0),
                ("tsallis-div", 0.5),
                ("jensen", 0.9),
                ("cross-entropy", None),
                ("bregman", None),
            ):
                closed = M.evaluate_measure(fam, measure, a, b, alpha).value
                est = O.oracle_measure(fam, measure, a, b, alpha, CFG)
                assert closed == pytest.approx(est.value, abs=max(tol, est.error_bound))

    def test_mvn_divergence_spot_check(self):
        fam, pairs = _pairs("mvn", 1, 51)
        a, b = pairs[0]
        for measure, alpha in (("renyi-div", 2.0), ("tsallis-div", 0.5), ("jensen", 0.9)):
            closed = M.evaluate_measure(fam, measure, a, b, alpha).value
            est = O.oracle_measure(fam, measure, a, b, alpha, CFG)
            assert abs(closed - est.value) <= est.error_bound + 1e-10 * (1 + abs(closed))

    def test_three_dimensional_mvn_agreement(self):
        fam = em.get_family("mvn", 3)
        a = fam.to_natural(
            em.MultivariateGaussianParams(
                mu=[1.0, -2.0, 0.5],
                cov=[[2.0, 0.4, -0.2], [0.4, 1.0, 0.1], [-0.2, 0.1, 0.7]],
            )
        )
        b = fam.to_natural(
            em.MultivariateGaussianParams(mu=[0.5, -1.5, 0.2], cov=1.1 * np.eye(3))
        )
        for measure, alpha in (
            ("renyi", 2.0),
            ("shannon", None),
            ("kl", None),
            ("bhattacharyya", None),
        ):
            second = b if M.measure_needs_pair(measure) else None
            closed = M.evaluate_measure(fam, measure, a, second, alpha).value
            est = O.oracle_measure(fam, measure, a, second, alpha, CFG)
            assert abs(closed - est.value) <= est.error_bound + 1e-12 * (1 + abs(closed))


@settings(max_examples=60, deadline=None)
@given(
    value=st.floats(min_value=-5.0, max_value=5.0),
    alpha=st.floats(min_value=0.05, max_value=4.0).filter(lambda a: abs(a - 1.0) > 1e-3),
)
def test_entropy_scale_conversions_are_mutual_inverses(value, alpha):
    converted = M.renyi_to_tsallis(value, alpha)
    assert M.tsallis_to_renyi(converted, alpha) == pytest.approx(value, rel=1e-9, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(rate=st.floats(min_value=1e-3, max_value=1e3))
def test_exponential_parameter_round_trip(rate):
    fam = em.EXPONENTIAL
    back = fam.from_natural(fam.to_natural(em.ExponentialParams(rate=rate)))
    assert back.rate == pytest.approx(rate, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    mu=st.floats(min_value=-50, max_value=50),
    var=st.floats(min_value=1e-3, max_value=1e3),
)
def test_gaussian_parameter_round_trip(mu, var):
    fam = em.GAUSSIAN
    back = fam.from_natural(fam.to_natural(em.GaussianParams(mu=mu, var=var)))
    assert back.mu == pytest.approx(mu, rel=1e-10, abs=1e-10)
    assert back.var == pytest.approx(var, rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(
    rate=st.floats(min_value=0.05, max_value=20.0),
    alpha=st.floats(min_value=0.2, max_value=3.0),
)
def test_poisson_power_integral_routes_agree(rate, alpha):
    """Factorized closed form vs direct truncated sum of p(k)^alpha."""
    theta = em.POISSON.to_natural(em.PoissonParams(rate=rate))
    closed = M.i_alpha_self(em.POISSON, theta, alpha)
    direct = O.oracle_i_alpha_self(em.POISSON, theta, alpha)
    assert closed == pytest.approx(direct.value, rel=1e-11, abs=1e-13)


_EPS = float(np.finfo(float).eps)


@settings(max_examples=200, deadline=None)
@given(
    mus=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    variances=st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0)),
    shift=st.floats(-1e9, 1e9),
    measure=st.sampled_from(M.MEASURE_NAMES),
    alpha=st.sampled_from([0.5, 0.9, 2.0]),
)
def test_gaussian_measures_are_shift_invariant(mus, variances, shift, measure, alpha):
    """Moving both members by one shift changes a Gaussian measure only through
    the rounding of mu + shift: the moved means carry an error of a few ulps of
    their size, which the tolerance turns into the measure's change when the
    second mean moves that far."""
    fam = em.GAUSSIAN
    shifted = [m + shift for m in mus]
    moved = 4.0 * _EPS * (abs(shifted[0]) + abs(shifted[1]) + abs(mus[0]) + abs(mus[1]))

    def value(means):
        p, q = (fam.to_natural(em.GaussianParams(mu=m, var=v)) for m, v in zip(means, variances))
        try:
            return M.evaluate_measure(fam, measure, p, q, alpha).value
        except em.DomainError:  # alpha = 2 can take the mixture out of the domain
            return None

    base = value(mus)
    if base is None:
        return
    nudged = [value((mus[0], mus[1] + s * moved)) for s in (-1.0, 1.0)]
    tol = max(abs(v - base) for v in nudged) + 1e-12 * (1.0 + abs(base))
    assert abs(value(shifted) - base) <= tol
