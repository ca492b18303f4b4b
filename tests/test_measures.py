"""Closed-form measures: values, branches, conversions, and error paths."""

import ast
import functools
import inspect
import math

import numpy as np
import pytest

import efmeasures as em
from efmeasures import families as F
from efmeasures import measures as M
from efmeasures import oracle as O
from efmeasures.errors import (
    ConvergenceError,
    DomainError,
    MixedParameterError,
    NaturalDomainError,
    ScaledParameterError,
)
from efmeasures.families import NaturalParam

from conftest import ALL_FAMILY_NAMES, make_family, random_source, random_theta_pair

LOG_2PI = math.log(2 * math.pi)


def _exp_theta(rate):
    return em.EXPONENTIAL.to_natural(em.ExponentialParams(rate=rate))


def _gauss_theta(mu, var):
    return em.GAUSSIAN.to_natural(em.GaussianParams(mu=mu, var=var))


@pytest.fixture(scope="module")
def std_gauss():
    return _gauss_theta(0.0, 1.0)


@pytest.fixture(scope="module")
def mvn_identity():
    fam = em.get_family("mvn", 2)
    return fam, fam.to_natural(em.MultivariateGaussianParams(mu=np.zeros(2), cov=np.eye(2)))


class TestPowerIntegralSelf:
    def test_standard_normal_alpha_two(self, std_gauss):
        assert M.i_alpha_self(em.GAUSSIAN, std_gauss, 2.0) == pytest.approx(
            1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-13
        )

    def test_alpha_one_is_total_mass(self, std_gauss):
        assert M.i_alpha_self(em.GAUSSIAN, std_gauss, 1.0) == pytest.approx(1.0, rel=1e-14)
        theta = em.POISSON.to_natural(em.PoissonParams(rate=2.0))
        assert M.i_alpha_self(em.POISSON, theta, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_exponential_alpha_two(self):
        assert M.i_alpha_self(em.EXPONENTIAL, _exp_theta(1.0), 2.0) == pytest.approx(
            0.5, rel=1e-14
        )

    def test_positive(self):
        rng = np.random.default_rng(2)
        for name in ("exponential", "gaussian", "poisson", "bernoulli", "laplacian"):
            fam = make_family(name)
            theta = fam.to_natural(random_source(name, rng))
            for alpha in (0.3, 0.9, 1.7):
                assert M.i_alpha_self(fam, theta, alpha) > 0


class TestRenyiEntropy:
    def test_standard_normal_alpha_two(self, std_gauss):
        want = 0.5 * LOG_2PI + 0.5 * math.log(2.0)
        res = M.renyi_entropy(em.GAUSSIAN, std_gauss, 2.0)
        assert res.value == pytest.approx(want, rel=1e-14)
        assert res.branch == M.CLOSED_FORM

    def test_exponential_alpha_two(self):
        res = M.renyi_entropy(em.EXPONENTIAL, _exp_theta(1.0), 2.0)
        assert res.value == pytest.approx(math.log(2.0), rel=1e-13)

    def test_mvn_identity_alpha_two(self, mvn_identity):
        fam, theta = mvn_identity
        res = M.renyi_entropy(fam, theta, 2.0)
        assert res.value == pytest.approx(math.log(4 * math.pi), rel=1e-13)

    def test_poisson_uses_carrier_series(self):
        # log(sum_k (e^-1/k!)^2) / (1 - 2), series summed to 40 digits externally
        theta = em.POISSON.to_natural(em.PoissonParams(rate=1.0))
        res = M.renyi_entropy(em.POISSON, theta, 2.0)
        assert res.value == pytest.approx(1.1760064585170437, rel=1e-13)

    def test_limit_branch(self, std_gauss):
        res = M.renyi_entropy(em.GAUSSIAN, std_gauss, 1.0 + 5e-7)
        assert res.branch == M.SHANNON_LIMIT
        assert res.value == M.shannon_entropy(em.GAUSSIAN, std_gauss)
        assert M.renyi_entropy(em.GAUSSIAN, std_gauss, 1.0 + 2e-6).branch == M.CLOSED_FORM


class TestTsallisEntropy:
    def test_standard_normal_alpha_two(self, std_gauss):
        res = M.tsallis_entropy(em.GAUSSIAN, std_gauss, 2.0)
        assert res.value == pytest.approx(1.0 - 1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-13)

    def test_exponential_alpha_two(self):
        res = M.tsallis_entropy(em.EXPONENTIAL, _exp_theta(1.0), 2.0)
        assert res.value == pytest.approx(0.5, rel=1e-14)

    def test_limit_branch_returns_shannon(self, std_gauss):
        res = M.tsallis_entropy(em.GAUSSIAN, std_gauss, 1.0 - 5e-7)
        assert res.branch == M.SHANNON_LIMIT
        assert res.value == M.shannon_entropy(em.GAUSSIAN, std_gauss)


class TestShannonEntropy:
    def test_unit_exponential(self):
        assert M.shannon_entropy(em.EXPONENTIAL, _exp_theta(1.0)) == pytest.approx(
            1.0, rel=1e-14
        )

    def test_standard_normal(self, std_gauss):
        want = 0.5 * math.log(2 * math.pi * math.e)
        assert M.shannon_entropy(em.GAUSSIAN, std_gauss) == pytest.approx(want, rel=1e-14)

    def test_poisson_includes_carrier_term(self):
        theta = em.POISSON.to_natural(em.PoissonParams(rate=1.0))
        assert M.shannon_entropy(em.POISSON, theta) == pytest.approx(
            1.3048422422562515, rel=1e-12
        )


class TestCrossEntropy:
    def test_self_cross_entropy_is_entropy(self, std_gauss):
        assert M.shannon_cross_entropy(em.GAUSSIAN, std_gauss, std_gauss) == pytest.approx(
            M.shannon_entropy(em.GAUSSIAN, std_gauss), rel=1e-14
        )

    def test_exponential_pair(self):
        value = M.shannon_cross_entropy(em.EXPONENTIAL, _exp_theta(1.0), _exp_theta(2.0))
        assert value == pytest.approx(2.0 - math.log(2.0), rel=1e-14)

    def test_shifted_gaussians(self):
        value = M.shannon_cross_entropy(em.GAUSSIAN, _gauss_theta(0, 1), _gauss_theta(1, 1))
        assert value == pytest.approx(0.5 * math.log(2 * math.pi * math.e) + 0.5, rel=1e-14)


class TestSkewJensen:
    def test_zero_at_equal_parameters(self, std_gauss):
        for alpha in (0.2, 0.5, 1.7):
            assert M.skew_jensen(em.GAUSSIAN, std_gauss, std_gauss, alpha) == pytest.approx(
                0.0, abs=1e-14
            )

    def test_exponential_midpoint(self):
        value = M.skew_jensen(em.EXPONENTIAL, _exp_theta(1.0), _exp_theta(2.0), 0.5)
        assert value == pytest.approx(math.log(1.5) - 0.5 * math.log(2.0), rel=1e-13)

    def test_negative_outside_unit_interval(self):
        value = M.skew_jensen(em.GAUSSIAN, _gauss_theta(0, 1), _gauss_theta(0, 4), 2.0)
        assert value == pytest.approx(0.5 * math.log(0.4375), rel=1e-13)
        assert value < 0

    def test_mixed_parameter_can_leave_domain(self):
        with pytest.raises(MixedParameterError):
            M.skew_jensen(em.GAUSSIAN, _gauss_theta(0, 1), _gauss_theta(0, 0.4), 2.0)


class TestBregman:
    def test_zero_iff_equal(self, std_gauss):
        assert M.bregman(em.GAUSSIAN, std_gauss, std_gauss) == pytest.approx(0.0, abs=1e-14)

    def test_exponential_value(self):
        value = M.bregman(em.EXPONENTIAL, _exp_theta(2.0), _exp_theta(1.0))
        assert value == pytest.approx(1.0 - math.log(2.0), rel=1e-13)

    def test_gaussian_shifted_mean(self):
        value = M.bregman(em.GAUSSIAN, NaturalParam([0.0, -0.5]), NaturalParam([1.0, -0.5]))
        assert value == pytest.approx(0.5, rel=1e-13)


class TestDivergences:
    def test_renyi_divergence_exponential_pair(self):
        res = M.renyi_divergence(em.EXPONENTIAL, _exp_theta(1.0), _exp_theta(2.0), 0.5)
        assert res.value == pytest.approx(2.0 * math.log(1.5 / math.sqrt(2.0)), rel=1e-12)

    def test_renyi_divergence_zero_at_equal(self, std_gauss):
        assert M.renyi_divergence(em.GAUSSIAN, std_gauss, std_gauss, 0.5).value == pytest.approx(
            0.0, abs=1e-14
        )

    def test_renyi_divergence_shifted_gaussians(self):
        # equal-variance Gaussians: alpha (mu - mu')^2 / (2 var); also equals
        # -2 log of the quadrature value of the sqrt(p q) overlap integral
        res = M.renyi_divergence(em.GAUSSIAN, _gauss_theta(0, 1), _gauss_theta(1, 1), 0.5)
        assert res.value == pytest.approx(0.25, rel=1e-13)

    def test_tsallis_divergence_exponential_pair(self):
        res = M.tsallis_divergence(em.EXPONENTIAL, _exp_theta(1.0), _exp_theta(2.0), 0.5)
        assert res.value == pytest.approx(0.1143819168358732, rel=1e-12)

    def test_divergence_limit_branches(self):
        a, b = _exp_theta(1.0), _exp_theta(2.0)
        kl = M.kl_divergence(em.EXPONENTIAL, a, b)
        for fn in (M.renyi_divergence, M.tsallis_divergence):
            res = fn(em.EXPONENTIAL, a, b, 1.0 + 5e-7)
            assert res.branch == M.KL_LIMIT
            assert res.value == kl

    def test_kl_exponential(self):
        assert M.kl_divergence(em.EXPONENTIAL, _exp_theta(1.0), _exp_theta(2.0)) == pytest.approx(
            1.0 - math.log(2.0), rel=1e-13
        )

    def test_kl_poisson(self):
        a = em.POISSON.to_natural(em.PoissonParams(rate=2.0))
        b = em.POISSON.to_natural(em.PoissonParams(rate=1.0))
        assert M.kl_divergence(em.POISSON, a, b) == pytest.approx(
            2.0 * math.log(2.0) - 1.0, rel=1e-13
        )

    def test_kl_is_swapped_bregman(self):
        a, b = _gauss_theta(0.3, 1.1), _gauss_theta(-0.4, 0.8)
        assert M.kl_divergence(em.GAUSSIAN, a, b) == M.bregman(em.GAUSSIAN, b, a)


class TestCrossPowerIntegral:
    def test_equal_parameters(self, std_gauss):
        assert M.i_alpha_cross(em.GAUSSIAN, std_gauss, std_gauss, 0.7) == pytest.approx(
            1.0, rel=1e-14
        )

    def test_exponential_midpoint(self):
        value = M.i_alpha_cross(em.EXPONENTIAL, _exp_theta(1.0), _exp_theta(2.0), 0.5)
        assert value == pytest.approx(math.sqrt(2.0) / 1.5, rel=1e-13)

    def test_alpha_one_loses_discrimination(self):
        value = M.i_alpha_cross(em.EXPONENTIAL, _exp_theta(1.0), _exp_theta(3.0), 1.0)
        assert value == 1.0


class TestBhattacharyyaHellinger:
    def test_coefficient_one_at_equal(self, std_gauss):
        assert M.bhattacharyya_coefficient(em.GAUSSIAN, std_gauss, std_gauss) == pytest.approx(
            1.0, rel=1e-14
        )

    def test_exponential_pair(self):
        value = M.bhattacharyya_coefficient(em.EXPONENTIAL, _exp_theta(1.0), _exp_theta(2.0))
        assert value == pytest.approx(math.sqrt(2.0) / 1.5, rel=1e-13)

    def test_hellinger_values(self):
        assert M.hellinger_distance(em.EXPONENTIAL, _exp_theta(1.0), _exp_theta(1.0)) == 0.0
        value = M.hellinger_distance(em.EXPONENTIAL, _exp_theta(1.0), _exp_theta(2.0))
        assert value == pytest.approx(math.sqrt(1.0 - math.sqrt(2.0) / 1.5), rel=1e-12)

    def test_hellinger_grows_with_separation(self):
        near = M.hellinger_distance(em.EXPONENTIAL, _exp_theta(1.0), _exp_theta(2.0))
        far = M.hellinger_distance(em.EXPONENTIAL, _exp_theta(1.0), _exp_theta(4.0))
        assert far > near


class TestConversions:
    def test_zero_fixed_point(self):
        assert M.renyi_to_tsallis(0.0, 2.0) == 0.0

    @pytest.mark.parametrize("x", [-1.0, 0.5, 3.0])
    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_mutual_inverses(self, x, alpha):
        assert M.tsallis_to_renyi(M.renyi_to_tsallis(x, alpha), alpha) == pytest.approx(
            x, rel=1e-12, abs=1e-12
        )

    def test_commutes_with_closed_forms(self, std_gauss):
        h_r = M.renyi_entropy(em.GAUSSIAN, std_gauss, 2.0).value
        h_t = M.tsallis_entropy(em.GAUSSIAN, std_gauss, 2.0).value
        assert M.renyi_to_tsallis(h_r, 2.0) == pytest.approx(h_t, abs=1e-12)
        assert M.tsallis_to_renyi(h_t, 2.0) == pytest.approx(h_r, abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            M.renyi_to_tsallis(1.0, 1.0)
        with pytest.raises(DomainError):
            M.tsallis_to_renyi(3.0, 2.0)  # (1-2)*3 + 1 = -2


class TestAlphaValidation:
    def test_rejects_nonpositive_alpha(self, std_gauss):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                M.renyi_entropy(em.GAUSSIAN, std_gauss, bad)
            with pytest.raises(DomainError):
                M.renyi_divergence(em.GAUSSIAN, std_gauss, std_gauss, bad)

    def test_evaluate_measure_dispatch(self, std_gauss):
        res = M.evaluate_measure(em.GAUSSIAN, "renyi", std_gauss, alpha=2.0)
        assert res.value == M.renyi_entropy(em.GAUSSIAN, std_gauss, 2.0).value
        with pytest.raises(ValueError):
            M.evaluate_measure(em.GAUSSIAN, "nope", std_gauss)
        with pytest.raises(ValueError):
            M.evaluate_measure(em.GAUSSIAN, "kl", std_gauss)  # missing second parameter
        with pytest.raises(ValueError):
            M.evaluate_measure(em.GAUSSIAN, "renyi", std_gauss)  # missing alpha


class TestMeasureTable:
    def test_names_and_flags_are_pinned(self):
        assert M.MEASURE_NAMES == (
            "renyi", "tsallis", "shannon", "cross-entropy", "kl", "renyi-div",
            "tsallis-div", "bhattacharyya", "hellinger", "jensen", "bregman",
        )
        assert tuple(m.name for m in M.MEASURES) == M.MEASURE_NAMES
        assert {m for m in M.MEASURE_NAMES if M.measure_needs_alpha(m)} == {
            "renyi", "tsallis", "renyi-div", "tsallis-div", "jensen"
        }
        assert {m for m in M.MEASURE_NAMES if M.measure_needs_pair(m)} == {
            "cross-entropy", "kl", "renyi-div", "tsallis-div", "bhattacharyya",
            "hellinger", "jensen", "bregman",
        }
        assert not M.measure_needs_alpha("nope") and not M.measure_needs_pair("nope")

    def test_oracle_assembles_every_measure_in_table_order(self):
        assert tuple(O._ASSEMBLY) == M.MEASURE_NAMES

    def test_oracle_imports_nothing_from_measures(self):
        imported = set()
        for node in ast.walk(ast.parse(inspect.getsource(O))):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(f"{node.module or ''}.{a.name}" for a in node.names)
            elif isinstance(node, ast.Import):
                imported.update(a.name for a in node.names)
        assert not any("measures" in name.split(".") for name in imported), imported


# --------------------------------------------------------------------------
# Domain guards: every out-of-domain member raises, with the same class.
# --------------------------------------------------------------------------

_MVN_ZERO = np.zeros(2)
_EYE = np.eye(2)

# Per family: a member outside the natural domain; a member inside whose
# 20-fold scaling leaves it; and two members inside whose alpha = 2 mixture
# alpha*theta + (1-alpha)*theta' leaves it.
_OUTSIDE = {
    "exponential": ([0.5], [-1e307], ([-1.0], [-4.0])),
    "poisson": ([math.inf], [1e307], ([1e308], [-1e308])),
    "bernoulli": ([math.nan], [1e307], ([1e308], [-1e308])),
    "gaussian": ([0.0, 0.5], [0.0, -1e307], ([0.0, -0.5], [0.0, -2.0])),
    "laplacian": ([0.0], [-1e307], ([-1.0], [-4.0])),
    "mvn": (
        (_MVN_ZERO, 0.5 * _EYE),
        (_MVN_ZERO, -1e307 * _EYE),
        ((_MVN_ZERO, -0.5 * _EYE), (_MVN_ZERO, -2.0 * _EYE)),
    ),
}


def _param(spec) -> NaturalParam:
    return NaturalParam(*spec) if isinstance(spec, tuple) else NaturalParam(spec)


def _raises_exactly(cls, fn, *args):
    with pytest.raises(DomainError) as info:
        fn(*args)
    assert info.type is cls, f"{info.type.__name__}: {info.value}"


@pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
class TestDomainGuards:
    def _setup(self, name):
        fam = make_family(name)
        bad, big, (mix_p, mix_q) = _OUTSIDE[name]
        good, good2 = random_theta_pair(name, np.random.default_rng(4))
        return fam, good, good2, _param(bad), _param(big), _param(mix_p), _param(mix_q)

    @pytest.mark.parametrize("measure", M.MEASURE_NAMES)
    def test_measures(self, name, measure):
        fam, good, good2, bad, big, mix_p, mix_q = self._setup(name)
        for alpha in (0.5, 2.0, 1.0 + 1e-7):
            _raises_exactly(NaturalDomainError, M.evaluate_measure, fam, measure, bad, good2, alpha)
            if M.measure_needs_pair(measure):
                _raises_exactly(
                    NaturalDomainError, M.evaluate_measure, fam, measure, good, bad, alpha
                )
        if measure in ("renyi", "tsallis"):
            _raises_exactly(ScaledParameterError, M.evaluate_measure, fam, measure, big, None, 20.0)
        if measure in ("renyi-div", "tsallis-div", "jensen"):
            _raises_exactly(
                MixedParameterError, M.evaluate_measure, fam, measure, mix_p, mix_q, 2.0
            )

    def test_public_entry_points(self, name):
        fam, good, _, bad, big, _, _ = self._setup(name)
        for fn in (fam.log_normalizer, fam.grad_log_normalizer, fam.carrier_expectation):
            _raises_exactly(NaturalDomainError, fn, bad)
        for fn in (fam.log_carrier_moment, fam.carrier_moment):
            _raises_exactly(NaturalDomainError, fn, bad, 2.0)
            _raises_exactly(ScaledParameterError, fn, big, 20.0)
            _raises_exactly(DomainError, fn, good, 0.0)
        for fn in (M.i_alpha_self, M.renyi_entropy, M.tsallis_entropy):
            _raises_exactly(ScaledParameterError, fn, fam, big, 20.0)


# --------------------------------------------------------------------------
# Each closed form checks each member it touches once.
# --------------------------------------------------------------------------

# Distinct members a measure touches: theta, theta', alpha*theta, the mixture.
_MEMBERS = {
    "renyi": 2, "tsallis": 2, "shannon": 1, "cross-entropy": 2, "kl": 2, "bregman": 2,
    "renyi-div": 3, "tsallis-div": 3, "bhattacharyya": 3, "hellinger": 3, "jensen": 3,
}
# Most Cholesky factorizations of -2M an mvn measure may run: one check per
# member plus one per F or grad F evaluation.
_MVN_CHOLESKYS = {
    "renyi": 4, "tsallis": 4, "shannon": 3, "cross-entropy": 4, "kl": 5, "bregman": 5,
    "renyi-div": 6, "tsallis-div": 6, "bhattacharyya": 6, "hellinger": 6, "jensen": 6,
}


@pytest.fixture
def tally(monkeypatch):
    counts = {"validations": 0, "choleskys": 0}
    check, cholesky = F.Family.in_natural_domain, F.np.linalg.cholesky

    def counted_check(self, theta):
        counts["validations"] += 1
        return check(self, theta)

    def counted_cholesky(a):
        counts["choleskys"] += 1
        return cholesky(a)

    monkeypatch.setattr(F.Family, "in_natural_domain", counted_check)
    monkeypatch.setattr(F.np.linalg, "cholesky", counted_cholesky)
    return counts


@pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
@pytest.mark.parametrize("measure", M.MEASURE_NAMES)
def test_each_member_is_checked_once(tally, name, measure):
    fam = make_family(name)
    theta, theta2 = random_theta_pair(name, np.random.default_rng(8))
    for alpha in (0.5, 2.0):
        tally.update(validations=0, choleskys=0)
        M.evaluate_measure(fam, measure, theta, theta2, alpha)
        assert tally["validations"] == _MEMBERS[measure]
        if name == "mvn":
            assert tally["choleskys"] <= _MVN_CHOLESKYS[measure]


# --------------------------------------------------------------------------
# Poisson carrier series against 50-digit mpmath.
# --------------------------------------------------------------------------

_SERIES_RATES = (0.1, 3.7, 42.0, 777.0, 9999.0, 1e5)
_SERIES_ALPHAS = (0.5, 0.9, 1.0 - 1e-4, 1.0 + 1e-4, 2.0)


@functools.lru_cache(maxsize=None)
def _mp_series(theta: float, log_rho: float, power: float, weighted: bool) -> float:
    """sum_k exp(k log_rho - e^log_rho - power log k!) (times log k! if weighted),
    and its log when not weighted, over a window whose tails are below 1e-60."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    mp.dps = 50
    rate = float(mpmath.exp(theta))
    half = 16.0 * math.sqrt(rate / min(power, 1.0)) + 60.0
    lo, hi = max(0, int(rate - half)), int(rate + half) + 1
    log_rho, power = mp.mpf(log_rho), mp.mpf(power)
    rho = mp.exp(log_rho)
    log_fact = mp.loggamma(lo + 1)
    total = mp.mpf(0)
    for k in range(lo, hi + 1):
        if k > lo:
            log_fact += mp.log(k)
        term = mp.exp(k * log_rho - rho - power * log_fact)
        total += term * log_fact if weighted else term
    return float(total if weighted else mp.log(total))


class TestPoissonSeries:
    @pytest.mark.parametrize("rate", _SERIES_RATES)
    @pytest.mark.parametrize("alpha", _SERIES_ALPHAS)
    def test_log_carrier_moment_matches_mpmath(self, rate, alpha):
        theta = em.POISSON.to_natural(em.PoissonParams(rate=rate))
        t = float(theta.vector[0])
        want = _mp_series(t, alpha * t, alpha, False)
        got = em.POISSON.log_carrier_moment(theta, alpha)
        assert abs(got - want) <= max(2e-12 * abs(want), 1e-15), (got, want)

    @pytest.mark.parametrize("rate", _SERIES_RATES)
    def test_carrier_expectation_matches_mpmath(self, rate):
        theta = em.POISSON.to_natural(em.PoissonParams(rate=rate))
        t = float(theta.vector[0])
        want = -_mp_series(t, t, 1.0, True)
        got = em.POISSON.carrier_expectation(theta)
        assert abs(got - want) <= (1e-14 + 4e-16 * rate) * abs(want), (got, want)

    def test_window_is_order_sqrt_rate(self, monkeypatch):
        counts = []
        series = F.count_series

        def counted(*args, **kwargs):
            result = series(*args, **kwargs)
            counts.append(result[3])
            return result

        monkeypatch.setattr(F, "count_series", counted)
        theta = em.POISSON.to_natural(em.PoissonParams(rate=1e5))
        em.POISSON.carrier_expectation(theta)
        em.POISSON.log_carrier_moment(theta, 0.5)
        assert len(counts) == 2 and max(counts) < 10_000, counts

    def test_non_finite_or_undecaying_series_raise(self):
        with pytest.raises(OverflowError):
            F.count_series(lambda ks: np.where(ks == 3, np.inf, 1.0), [2.0])
        with pytest.raises(ConvergenceError):
            F.count_series(lambda ks: np.ones(ks.size), [2.0])

    def test_swamped_series_never_returns_a_non_finite_value(self):
        # At rate 9999 and alpha = 5, rho = rate^alpha ~ 1e20 swamps every
        # log-term (a known precision defect): raising is allowed, inf is not.
        theta = em.POISSON.to_natural(em.PoissonParams(rate=9999.0))
        for alpha in (3.0, 4.0, 5.0):
            try:
                value = M.renyi_entropy(em.POISSON, theta, alpha).value
            except OverflowError:
                continue
            assert math.isfinite(value)
