"""Closed-form measures: values, conversions, and error paths."""

import ast
import copy
import dataclasses
import functools
import inspect
import itertools
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import efmeasures as em
from efmeasures import families as F
from efmeasures import measures as M
from efmeasures import oracle as O
from efmeasures.cli import VERIFY_ALPHAS, VERIFY_PAIRS
from efmeasures.errors import (
    ConvergenceError,
    DomainError,
    MixedParameterError,
    NaturalDomainError,
    ScaledParameterError,
)
from efmeasures.families import NaturalParam

from conftest import ALL_FAMILY_NAMES, _random_cov, make_family, random_source, random_theta_pair

LOG_2PI = math.log(2 * math.pi)


def _exp_theta(rate):
    return em.EXPONENTIAL.to_natural(em.ExponentialParams(rate=rate))


def _poisson_theta(rate):
    return em.POISSON.to_natural(em.PoissonParams(rate=rate))


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
        # Next to alpha = 1 the one closed form keeps the order's own value:
        # log(2 pi) / 2 + log(alpha) / (2 (alpha - 1)) for N(0, 1), just below Shannon.
        for alpha in (1.0 + 5e-7, 1.0 + 2e-6):
            res = M.renyi_entropy(em.GAUSSIAN, std_gauss, alpha)
            want = 0.5 * LOG_2PI + 0.5 * math.log1p(alpha - 1.0) / (alpha - 1.0)
            assert res.value == pytest.approx(want, rel=1e-14)
            assert res.value < M.shannon_entropy(em.GAUSSIAN, std_gauss)


class TestTsallisEntropy:
    def test_standard_normal_alpha_two(self, std_gauss):
        res = M.tsallis_entropy(em.GAUSSIAN, std_gauss, 2.0)
        assert res.value == pytest.approx(1.0 - 1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-13)

    def test_exponential_alpha_two(self):
        res = M.tsallis_entropy(em.EXPONENTIAL, _exp_theta(1.0), 2.0)
        assert res.value == pytest.approx(0.5, rel=1e-14)

    def test_limit_branch_returns_shannon(self, std_gauss):
        # Tsallis is expm1((1 - alpha) H_alpha) / (1 - alpha): 5e-7 from alpha = 1
        # it is within ~1e-6 of Shannon, and above it for alpha < 1.
        alpha = 1.0 - 5e-7
        res = M.tsallis_entropy(em.GAUSSIAN, std_gauss, alpha)
        h_alpha = 0.5 * LOG_2PI + 0.5 * math.log1p(alpha - 1.0) / (alpha - 1.0)
        want = math.expm1((1 - alpha) * h_alpha) / (1 - alpha)
        assert res.value == pytest.approx(want, rel=1e-14)
        shannon = M.shannon_entropy(em.GAUSSIAN, std_gauss)
        assert 0.0 < res.value - shannon < 1e-6


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
        # 5e-7 from alpha = 1 both divergences keep their own value, the overlap
        # I = 2^(1 - alpha) / (alpha + 2 (1 - alpha)) of rates 1 and 2 taken as
        # log(I) / (alpha - 1) and (I - 1) / (alpha - 1), a little above the KL.
        mpmath = pytest.importorskip("mpmath")
        a, b = _exp_theta(1.0), _exp_theta(2.0)
        kl = M.kl_divergence(em.EXPONENTIAL, a, b)
        alpha = 1.0 + 5e-7
        with mpmath.workdps(50):
            x = mpmath.mpf(alpha)
            overlap = 2 ** (1 - x) / (x + 2 * (1 - x))
            wants = (float(mpmath.log(overlap) / (x - 1)), float((overlap - 1) / (x - 1)))
        for fn, want in zip((M.renyi_divergence, M.tsallis_divergence), wants):
            value = fn(em.EXPONENTIAL, a, b, alpha).value
            assert value == pytest.approx(want, rel=1e-13)
            assert 0.0 < value - kl < 1e-6

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


class TestNearIdenticalMembers:
    """1 - exp(-J) is taken as -expm1(-J), so it keeps its digits when J is tiny."""

    @pytest.mark.parametrize(
        "measure, alpha", [("hellinger", None), ("tsallis-div", 0.5), ("tsallis-div", 2.0)]
    )
    def test_exponential_rates_1e5_apart_match_mpmath(self, measure, alpha):
        mpmath = pytest.importorskip("mpmath")
        rate2 = 1.0 + 1e-5
        p, q = _exp_theta(1.0), _exp_theta(rate2)
        with mpmath.workdps(50):
            a = mpmath.mpf(0.5 if alpha is None else alpha)
            l2 = mpmath.mpf(rate2)
            # Integral of p^a q^(1-a) for rates 1 and l2.
            overlap = l2 ** (1 - a) / (a + (1 - a) * l2)
            want = mpmath.sqrt(1 - overlap) if alpha is None else (overlap - 1) / (a - 1)
            want = float(want)
        value = M.evaluate_measure(em.EXPONENTIAL, measure, p, q, alpha).value
        # The values are ~1e-11 to 4e-6, below pytest.approx's absolute floor.
        assert abs(value - want) <= 1e-9 * want


class TestFarFromOrigin:
    """Gaussian gaps are written on the step between members and their means'
    difference, so F values of size mu^2 / (2 var) never cancel."""

    @staticmethod
    def _mp_reference(measure, mu1, var1, mu2, var2):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            m1, v1, m2, v2 = (mpmath.mpf(x) for x in (mu1, var1, mu2, var2))
            d2 = (m1 - m2) ** 2
            bc = mpmath.sqrt(2 * mpmath.sqrt(v1 * v2) / (v1 + v2))
            bc *= mpmath.exp(-d2 / (4 * (v1 + v2)))
            return float({
                "shannon": mpmath.log(2 * mpmath.pi * mpmath.e * v1) / 2,
                "kl": (mpmath.log(v2 / v1) + (v1 + d2) / v2 - 1) / 2,
                "bhattacharyya": bc,
                "hellinger": mpmath.sqrt(1 - bc),
            }[measure])

    @pytest.mark.parametrize("measure", ["shannon", "kl", "bhattacharyya", "hellinger"])
    def test_means_near_1e8_match_mpmath(self, measure):
        p, q = _gauss_theta(1e8, 1.0), _gauss_theta(1e8 + 1.0, 1.0)
        second = q if M.measure_needs_pair(measure) else None
        value = M.evaluate_measure(em.GAUSSIAN, measure, p, second).value
        want = self._mp_reference(measure, 1e8, 1.0, 1e8 + 1.0, 1.0)
        assert value == pytest.approx(want, rel=1e-14, abs=0.0)


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

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("convert", [M.renyi_to_tsallis, M.tsallis_to_renyi])
    def test_rejects_alpha_like_every_measure(self, convert, alpha):
        with pytest.raises(DomainError, match="alpha must be a positive real"):
            convert(1.0, alpha)


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

    @pytest.mark.parametrize("evaluate", [M.evaluate_measure, O.oracle_measure],
                             ids=["closed-form", "oracle"])
    @pytest.mark.parametrize("measure", [m for m in M.MEASURE_NAMES if M.measure_needs_pair(m)])
    def test_error_names_the_member_outside(self, name, measure, evaluate):
        # The pair is checked in the order given, whichever gap the measure takes.
        fam, good, good2, bad, _, _, _ = self._setup(name)
        for pair, label in (((bad, good2), "natural parameter"), ((good, bad), "second natural parameter")):
            with pytest.raises(NaturalDomainError, match=f"^{fam.name}: {label} outside") as info:
                evaluate(fam, measure, *pair, 0.5)
            assert info.type is NaturalDomainError

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


# The measures built on the mixture, and the families that take its gaps from
# theta and theta' alone, without forming the mixture.
_MIXTURE_MEASURES = ("renyi-div", "tsallis-div", "bhattacharyya", "hellinger", "jensen")
_WHITENED = ("gaussian", "mvn")


def _bare(theta: NaturalParam) -> NaturalParam:
    """A plain NaturalParam of a member's blocks, which no family has checked."""
    return NaturalParam(theta.vector, theta.matrix)


@pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
@pytest.mark.parametrize("measure", M.MEASURE_NAMES)
def test_each_member_is_checked_once(tally, name, measure):
    fam = make_family(name)
    theta, theta2 = random_theta_pair(name, np.random.default_rng(8))
    members = _MEMBERS[measure] - (name in _WHITENED and measure in _MIXTURE_MEASURES)
    derived = members - 1 - M.measure_needs_pair(measure)  # alpha*theta, the mixture
    for alpha in (0.5, 2.0):
        # Members from to_natural are checked no more; what the call derives from them
        # is, and so is each bare copy of them, once.
        for pair, checks in (((theta, theta2), derived), ((_bare(theta), _bare(theta2)), members)):
            tally.update(validations=0, choleskys=0)
            M.evaluate_measure(fam, measure, *pair, alpha)
            assert tally["validations"] == checks
            if name == "mvn":
                # -2M is factored once per check, so at most once per member the call
                # touches, and for members from to_natural only for alpha*theta, if any.
                assert tally["choleskys"] == checks


@pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
def test_no_call_writes_to_a_natural_parameter(name):
    # Whatever a member carries is outside its instance dict, which holds its fields only.
    fam = make_family(name)
    theta, theta2 = (fam.to_natural(dict(src)) for src in VERIFY_PAIRS[name])
    for p, q in ((theta, theta2), (_bare(theta), _bare(theta2))):
        for m, a in _MEMO_CELLS:
            second = q if M.measure_needs_pair(m) else None
            M.evaluate_measure(fam, m, p, second, a)
            if a in (None, 0.5):
                O.oracle_measure(fam, m, p, second, a)
        for t in (p, q):
            fam.log_normalizer(t)
            fam.grad_log_normalizer(t)
            assert sorted(vars(t)) == ["matrix", "vector"]


def test_a_member_of_another_family_is_checked_again(tally):
    # Laplacian and exponential members share their shape and domain, theta < 0.
    lap, lap2 = (em.LAPLACIAN.to_natural(em.LaplacianParams(scale=s)) for s in (0.5, 2.0))
    assert em.EXPONENTIAL.member(lap) is not lap
    assert em.EXPONENTIAL.member(lap).family is em.EXPONENTIAL
    tally.update(validations=0)
    kl = M.kl_divergence(em.EXPONENTIAL, lap, lap2)
    assert tally["validations"] == 2
    assert kl == M.kl_divergence(em.EXPONENTIAL, _bare(lap), _bare(lap2))


def test_a_member_made_another_way_is_checked_again(tally):
    theta = em.EXPONENTIAL.to_natural(em.ExponentialParams(rate=2.0))
    tally.update(validations=0)
    assert em.EXPONENTIAL.member(theta) is theta and tally["validations"] == 0
    for made in (dataclasses.replace(theta), copy.copy(theta), copy.deepcopy(theta)):
        tally.update(validations=0)
        assert M.shannon_entropy(em.EXPONENTIAL, made) == M.shannon_entropy(em.EXPONENTIAL, theta)
        assert tally["validations"] == 1
        assert em.EXPONENTIAL.member(made) is not made
    outside = dataclasses.replace(theta, vector=[1.0])
    assert type(outside) is F.Member
    _raises_exactly(NaturalDomainError, M.shannon_entropy, em.EXPONENTIAL, outside)


@pytest.mark.parametrize("name", _WHITENED)
def test_gaussian_mixture_measures_never_form_the_mixture(monkeypatch, name):
    fam = make_family(name)
    theta, theta2 = (fam.to_natural(dict(src)) for src in VERIFY_PAIRS[name])

    def no_mix(self, other, weight):
        raise AssertionError("a mixture member was formed")

    monkeypatch.setattr(NaturalParam, "mix", no_mix)
    for measure in _MIXTURE_MEASURES:
        for alpha in VERIFY_ALPHAS if M.measure_needs_alpha(measure) else (None,):
            for p, q in ((theta, theta2), (theta2, theta)):
                assert math.isfinite(M.evaluate_measure(fam, measure, p, q, alpha).value)


@pytest.mark.parametrize("name", _WHITENED)
def test_gaussian_mixture_domain_agrees_with_the_mixture_member(name):
    # Raises exactly where the mixture member, were it formed, would leave the domain.
    fam = make_family(name)
    rng = np.random.default_rng(1212)
    alphas = np.linspace(-3.0, 12.0, 250).tolist()
    for _ in range(40):
        pair = random_theta_pair(name, rng)
        for theta, theta2 in (pair, pair[::-1]):
            for alpha in alphas:
                inside = fam.in_natural_domain(theta.mix(theta2, alpha))
                try:
                    M.skew_jensen(fam, theta, theta2, alpha)
                except MixedParameterError:
                    assert not inside, alpha
                else:
                    assert inside, alpha


# --------------------------------------------------------------------------
# The mvn family keeps each member's factor of -2M and its moments on the member.
# --------------------------------------------------------------------------

_MEMO_CELLS = [
    (m.name, a)
    for m in M.MEASURES
    for a in ((0.5, 0.9, 1.0 - 1e-4, 1.0 + 1e-4, 2.0) if m.needs_alpha else (None,))
]


def _fresh_mvn_pair(dim: int, seed: int):
    """The same two mvn members on every call, as new objects with nothing kept on them."""
    rng = np.random.default_rng(seed)
    fam = em.get_family("mvn", dim)
    mu = rng.uniform(-1, 1, size=dim)
    p = em.MultivariateGaussianParams(mu=mu, cov=_random_cov(rng, dim))
    q = em.MultivariateGaussianParams(mu=mu + rng.uniform(-0.8, 0.8, size=dim), cov=_random_cov(rng, dim))
    return fam, fam.to_natural(p), fam.to_natural(q)


def _bits(fam, theta, theta2) -> list:
    """Every memo cell's value, and F and grad F of both members, as exact bit patterns."""
    out = [
        M.evaluate_measure(fam, m, theta, theta2 if M.measure_needs_pair(m) else None, a).value.hex()
        for m, a in _MEMO_CELLS
    ]
    for t in (theta, theta2):
        out += [fam.log_normalizer(t).hex(), fam.grad_log_normalizer(t).flat().tobytes()]
    return out


@dataclasses.dataclass(frozen=True)
class _DoubledFactor(F.MultivariateGaussianFamily):
    """Not an exponential family: mvn with its precision factor doubled, so
    its F differs from mvn's on every member."""

    def _factor(self, theta):
        chol = super()._factor(theta)
        return None if chol is None else 2.0 * chol


class TestMemberMemo:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_used_members_give_the_bits_of_fresh_ones(self, dim):
        fam, p, q = _fresh_mvn_pair(dim, 90 + dim)
        first = _bits(fam, p, q)
        # p and q now carry everything the cells read; each cell again on them,
        # and on fresh members.
        for (m, a), want in zip(_MEMO_CELLS, first):
            second = M.measure_needs_pair(m)
            _, fresh_p, fresh_q = _fresh_mvn_pair(dim, 90 + dim)
            cold = M.evaluate_measure(fam, m, fresh_p, fresh_q if second else None, a).value
            warm = M.evaluate_measure(fam, m, p, q if second else None, a).value
            assert warm.hex() == cold.hex() == want, (m, a)
        assert _bits(fam, p, q) == first

    def test_equal_families_share_a_member_and_others_do_not(self):
        _, theta, _ = _fresh_mvn_pair(2, 7)
        a, b = F.MultivariateGaussianFamily(2), F.MultivariateGaussianFamily(2)
        assert a == b and a is not b
        value, grad = a.log_normalizer(theta), a.grad_log_normalizer(theta).flat()
        assert b.log_normalizer(theta) == value and b.member(theta) is theta
        assert np.array_equal(b.grad_log_normalizer(theta).flat(), grad)
        # A family of another class is never served what mvn computed, nor mvn what it did.
        doubled = _DoubledFactor(2)
        _, fresh, _ = _fresh_mvn_pair(2, 7)
        assert doubled.log_normalizer(theta) == doubled.log_normalizer(fresh) != value
        assert a.log_normalizer(fresh) == value

    def test_derived_members_are_frozen_and_exactly_symmetric(self):
        _, p, q = _fresh_mvn_pair(3, 11)
        for member, want in (
            (p.scaled(0.7), 0.7 * p.matrix),
            (p.mix(q, 0.3), 0.3 * p.matrix + 0.7 * q.matrix),
            (p.mix(q, 2.0), 2.0 * p.matrix + (1.0 - 2.0) * q.matrix),
        ):
            assert np.array_equal(member.matrix, want)
            assert np.array_equal(member.matrix, member.matrix.T)
            for block in (member.vector, member.matrix):
                with pytest.raises(ValueError, match="read-only"):
                    block[0] = 1.0
        scalar = _gauss_theta(1.0, 2.0).scaled(0.5)
        with pytest.raises(ValueError, match="read-only"):
            scalar.vector[0] = 1.0
        # What a family keeps on a member shows in neither its repr nor its fields.
        fam, fresh, _ = _fresh_mvn_pair(3, 11)
        before = repr(fresh)
        fam.grad_log_normalizer(fresh)
        assert repr(fresh) == before and "_memo" not in before
        assert [f.name for f in dataclasses.fields(fresh)] == ["vector", "matrix"]

    def test_outside_member_raises_on_every_call(self):
        fam, good, _ = _fresh_mvn_pair(2, 5)
        indefinite = NaturalParam([0.0, 0.0], [[1.0, 0.0], [0.0, -1.0]])
        infinite = NaturalParam([math.inf, 0.0], [[-0.5, 0.0], [0.0, -0.5]])
        for bad in (indefinite, infinite):
            for _ in range(3):
                assert not fam.in_natural_domain(bad)
                for fn in (fam.log_normalizer, fam.grad_log_normalizer, fam.from_natural):
                    _raises_exactly(NaturalDomainError, fn, bad)
                _raises_exactly(NaturalDomainError, M.evaluate_measure, fam, "kl", good, bad)

    def test_concurrent_readers_get_identical_bits(self):
        fam, p, q = _fresh_mvn_pair(3, 13)
        start = threading.Barrier(4, timeout=30)

        def read(_):
            start.wait()  # all four threads reach the members before any has filled them
            return _bits(fam, p, q), fam._moments(p)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                results = list(pool.map(read, range(4)))
        finally:
            sys.setswitchinterval(interval)
        want = _bits(*_fresh_mvn_pair(3, 13))
        assert all(bits == want for bits, _ in results)
        # Every reader was handed the one stored record, whichever thread computed it.
        assert all(moments is results[0][1] for _, moments in results)


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
    # rate^alpha reaches 1e26 on the alpha = 5 rows.
    @pytest.mark.parametrize(
        "alpha, rate",
        [
            *itertools.product(_SERIES_ALPHAS, _SERIES_RATES),
            *((5.0, rate) for rate in (9999.0, 3e4, 1e5, 2e5)),
        ],
    )
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

    @pytest.mark.parametrize("measure, alpha", [("shannon", None), ("renyi", 0.5)])
    def test_a_window_too_wide_to_hold_raises_before_it_is_made(self, measure, alpha):
        # At rate 1e15 the window spans ~6e8 counts, ~5 GB as floats.
        theta = em.POISSON.to_natural(em.PoissonParams(rate=1e15))
        tracemalloc.start()
        try:
            with pytest.raises(ConvergenceError, match="too wide"):
                M.evaluate_measure(em.POISSON, measure, theta, None, alpha)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

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
        # At rate 9999 and alpha = 5, rate^alpha ~ 1e20: the entropies sum p^alpha
        # from the log-masses, where nothing of that size appears, so they return
        # the 50-digit value and never raise.
        mpmath = pytest.importorskip("mpmath")
        theta = em.POISSON.to_natural(em.PoissonParams(rate=9999.0))
        with mpmath.workdps(50):
            t = mpmath.mpf(float(theta.vector[0]))
            # log p_k over a window of +-30 standard deviations around the rate.
            log_p = [k * t - mpmath.exp(t) - mpmath.loggamma(k + 1) for k in range(6999, 13000)]
            for alpha in (3.0, 4.0, 5.0):
                total = mpmath.fsum(mpmath.exp(alpha * lp) for lp in log_p)
                want = float(mpmath.log(total) / (1 - alpha))
                got = M.renyi_entropy(em.POISSON, theta, alpha).value
                assert got == pytest.approx(want, rel=1e-11), alpha

    # Rates whose windows lie below the log k! table's cap, straddle it, and lie past it.
    _TABLE_RATES = (0.1, 1e4, 1.3e5, 2e5)

    @staticmethod
    def _windows(monkeypatch, rate, alpha=0.5):
        """The runs of counts a Renyi entropy at rate, alpha reads log k! over."""
        seen, table = [], F._log_factorials
        with monkeypatch.context() as m:
            m.setattr(F, "_log_factorials", lambda ks: seen.append(ks.copy()) or table(ks))
            M.renyi_entropy(em.POISSON, _poisson_theta(rate), alpha)
        return seen

    @staticmethod
    def _empty_table(monkeypatch):
        monkeypatch.setattr(F, "_log_factorial_table", F._log_factorial_table[:0])

    @pytest.mark.parametrize("order", [1, -1], ids=["rising", "falling"])
    def test_log_factorials_are_lgamma_on_every_window(self, monkeypatch, order):
        windows = [w for r in self._TABLE_RATES[::order] for w in self._windows(monkeypatch, r)]
        cap = F._LOG_FACTORIAL_CAP
        assert cap == 2**17
        assert any(w[0] < cap <= w[-1] for w in windows)  # one straddles the cap
        assert any(w[0] >= cap for w in windows)  # one lies past it
        self._empty_table(monkeypatch)
        for ks in windows:
            want = [math.lgamma(k + 1) for k in ks.tolist()]
            assert F._log_factorials(ks).tolist() == want, (ks[0], ks[-1])
            table = F._log_factorial_table
            assert table.size <= cap and not table.flags.writeable
        assert F._log_factorial_table.size == cap
        with pytest.raises(ValueError):
            F._log_factorial_table[0] = 1.0

    def test_a_rate_reached_again_calls_no_lgamma(self, monkeypatch):
        high, low = (self._windows(monkeypatch, r) for r in (1e4, 10.0))
        self._empty_table(monkeypatch)
        for ks in high:
            F._log_factorials(ks)
        calls = []
        lgamma = math.lgamma
        monkeypatch.setattr(math, "lgamma", lambda x: calls.append(x) or lgamma(x))
        for ks in high + low:
            F._log_factorials(ks)
        assert calls == []

    def test_entropies_keep_the_per_term_bits(self, monkeypatch):
        def per_term(ks):
            first = int(ks[0]) + 1
            return np.fromiter(map(math.lgamma, range(first, first + ks.size)), float, ks.size)

        def values():
            out = []
            for rate in (0.05, 0.1, 3.7, 42.0, 777.0, 9999.0, 1e5, 1.3e5, 2e5):
                p, q = _poisson_theta(rate), _poisson_theta(1.3 * rate)
                out += [M.shannon_entropy(em.POISSON, p), M.shannon_cross_entropy(em.POISSON, p, q)]
                for alpha in (0.5, 0.9, 1.0 - 1e-4, 1.0 + 1e-4, 1.0 + 1e-7, 2.0):
                    out += [M.evaluate_measure(em.POISSON, m, p, None, alpha).value
                            for m in ("renyi", "tsallis")]
            return [v.hex() for v in out]

        self._empty_table(monkeypatch)
        got = values()
        monkeypatch.setattr(F, "_log_factorials", per_term)
        assert got == values()

    def test_concurrent_fills_get_the_serial_bits(self, monkeypatch):
        rates = (0.1, 10.0, 1e3, 1e4, 1e5, 2e5)

        def entropies():
            return [M.renyi_entropy(em.POISSON, _poisson_theta(r), 0.5).value.hex() for r in rates]

        want = entropies()
        self._empty_table(monkeypatch)
        start = threading.Barrier(4, timeout=30)

        def fill(_):
            start.wait()  # all four threads find the table empty
            return entropies()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                results = list(pool.map(fill, range(4)))
        finally:
            sys.setswitchinterval(interval)
        assert results == [want] * 4
