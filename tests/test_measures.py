"""Closed-form measures: values, conversions, and error paths."""

import ast
import copy
import dataclasses
import functools
import gc
import inspect
import itertools
import math
import pickle
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from conftest import (
    ALL_FAMILY_NAMES,
    SCALAR_FAMILY_NAMES,
    _random_cov,
    make_family,
    random_source,
    random_theta_pair,
)

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


def _i_alpha_self(fam, theta, alpha):
    """Integral of p^alpha from the closed forms: exp((1 - alpha) H_alpha)."""
    return math.exp((1.0 - alpha) * M.evaluate_measure(fam, "renyi", theta, alpha=alpha).value)


def _i_alpha_cross(fam, theta, theta2, alpha):
    """Integral of p^alpha q^(1 - alpha) from the closed forms: exp(-J_alpha)."""
    return math.exp(-M.evaluate_measure(fam, "jensen", theta, theta2, alpha).value)


class TestPowerIntegralSelf:
    def test_standard_normal_alpha_two(self, std_gauss):
        assert _i_alpha_self(em.GAUSSIAN, std_gauss, 2.0) == pytest.approx(
            1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-13
        )

    def test_alpha_one_is_total_mass(self, std_gauss):
        assert _i_alpha_self(em.GAUSSIAN, std_gauss, 1.0) == pytest.approx(1.0, rel=1e-14)
        theta = em.POISSON.to_natural(em.PoissonParams(rate=2.0))
        assert _i_alpha_self(em.POISSON, theta, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_exponential_alpha_two(self):
        assert _i_alpha_self(em.EXPONENTIAL, _exp_theta(1.0), 2.0) == pytest.approx(
            0.5, rel=1e-14
        )

    def test_positive(self):
        rng = np.random.default_rng(2)
        for name in ("exponential", "gaussian", "poisson", "bernoulli", "laplacian"):
            fam = make_family(name)
            theta = fam.to_natural(random_source(name, rng))
            for alpha in (0.3, 0.9, 1.7):
                assert _i_alpha_self(fam, theta, alpha) > 0


class TestRenyiEntropy:
    def test_standard_normal_alpha_two(self, std_gauss):
        want = 0.5 * LOG_2PI + 0.5 * math.log(2.0)
        res = M.evaluate_measure(em.GAUSSIAN, "renyi", std_gauss, alpha=2.0)
        assert res.value == pytest.approx(want, rel=1e-14)
        assert res.branch == M.CLOSED_FORM

    def test_exponential_alpha_two(self):
        res = M.evaluate_measure(em.EXPONENTIAL, "renyi", _exp_theta(1.0), alpha=2.0)
        assert res.value == pytest.approx(math.log(2.0), rel=1e-13)

    def test_mvn_identity_alpha_two(self, mvn_identity):
        fam, theta = mvn_identity
        res = M.evaluate_measure(fam, "renyi", theta, alpha=2.0)
        assert res.value == pytest.approx(math.log(4 * math.pi), rel=1e-13)

    def test_poisson_uses_carrier_series(self):
        # log(sum_k (e^-1/k!)^2) / (1 - 2), series summed to 40 digits externally
        theta = em.POISSON.to_natural(em.PoissonParams(rate=1.0))
        res = M.evaluate_measure(em.POISSON, "renyi", theta, alpha=2.0)
        assert res.value == pytest.approx(1.1760064585170437, rel=1e-13)

    def test_limit_branch(self, std_gauss):
        # Next to alpha = 1 the one closed form keeps the order's own value:
        # log(2 pi) / 2 + log(alpha) / (2 (alpha - 1)) for N(0, 1), just below Shannon.
        for alpha in (1.0 + 5e-7, 1.0 + 2e-6):
            res = M.evaluate_measure(em.GAUSSIAN, "renyi", std_gauss, alpha=alpha)
            want = 0.5 * LOG_2PI + 0.5 * math.log1p(alpha - 1.0) / (alpha - 1.0)
            assert res.value == pytest.approx(want, rel=1e-14)
            assert res.value < M.evaluate_measure(em.GAUSSIAN, "shannon", std_gauss).value


class TestTsallisEntropy:
    def test_standard_normal_alpha_two(self, std_gauss):
        res = M.evaluate_measure(em.GAUSSIAN, "tsallis", std_gauss, alpha=2.0)
        assert res.value == pytest.approx(1.0 - 1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-13)

    def test_exponential_alpha_two(self):
        res = M.evaluate_measure(em.EXPONENTIAL, "tsallis", _exp_theta(1.0), alpha=2.0)
        assert res.value == pytest.approx(0.5, rel=1e-14)

    def test_limit_branch_returns_shannon(self, std_gauss):
        # Tsallis is expm1((1 - alpha) H_alpha) / (1 - alpha): 5e-7 from alpha = 1
        # it is within ~1e-6 of Shannon, and above it for alpha < 1.
        alpha = 1.0 - 5e-7
        res = M.evaluate_measure(em.GAUSSIAN, "tsallis", std_gauss, alpha=alpha)
        h_alpha = 0.5 * LOG_2PI + 0.5 * math.log1p(alpha - 1.0) / (alpha - 1.0)
        want = math.expm1((1 - alpha) * h_alpha) / (1 - alpha)
        assert res.value == pytest.approx(want, rel=1e-14)
        shannon = M.evaluate_measure(em.GAUSSIAN, "shannon", std_gauss).value
        assert 0.0 < res.value - shannon < 1e-6


class TestShannonEntropy:
    def test_unit_exponential(self):
        value = M.evaluate_measure(em.EXPONENTIAL, "shannon", _exp_theta(1.0)).value
        assert value == pytest.approx(1.0, rel=1e-14)

    def test_standard_normal(self, std_gauss):
        want = 0.5 * math.log(2 * math.pi * math.e)
        value = M.evaluate_measure(em.GAUSSIAN, "shannon", std_gauss).value
        assert value == pytest.approx(want, rel=1e-14)

    def test_poisson_includes_carrier_term(self):
        theta = em.POISSON.to_natural(em.PoissonParams(rate=1.0))
        assert M.evaluate_measure(em.POISSON, "shannon", theta).value == pytest.approx(
            1.3048422422562515, rel=1e-12
        )


class TestCrossEntropy:
    def test_self_cross_entropy_is_entropy(self, std_gauss):
        value = M.evaluate_measure(em.GAUSSIAN, "cross-entropy", std_gauss, std_gauss).value
        shannon = M.evaluate_measure(em.GAUSSIAN, "shannon", std_gauss).value
        assert value == pytest.approx(shannon, rel=1e-14)

    def test_exponential_pair(self):
        value = M.evaluate_measure(
            em.EXPONENTIAL, "cross-entropy", _exp_theta(1.0), _exp_theta(2.0)
        ).value
        assert value == pytest.approx(2.0 - math.log(2.0), rel=1e-14)

    def test_shifted_gaussians(self):
        value = M.evaluate_measure(
            em.GAUSSIAN, "cross-entropy", _gauss_theta(0, 1), _gauss_theta(1, 1)
        ).value
        assert value == pytest.approx(0.5 * math.log(2 * math.pi * math.e) + 0.5, rel=1e-14)


class TestSkewJensen:
    def test_zero_at_equal_parameters(self, std_gauss):
        for alpha in (0.2, 0.5, 1.7):
            value = M.evaluate_measure(em.GAUSSIAN, "jensen", std_gauss, std_gauss, alpha).value
            assert value == pytest.approx(0.0, abs=1e-14)

    def test_exponential_midpoint(self):
        value = M.evaluate_measure(
            em.EXPONENTIAL, "jensen", _exp_theta(1.0), _exp_theta(2.0), 0.5
        ).value
        assert value == pytest.approx(math.log(1.5) - 0.5 * math.log(2.0), rel=1e-13)

    def test_negative_outside_unit_interval(self):
        value = M.evaluate_measure(
            em.GAUSSIAN, "jensen", _gauss_theta(0, 1), _gauss_theta(0, 4), 2.0
        ).value
        assert value == pytest.approx(0.5 * math.log(0.4375), rel=1e-13)
        assert value < 0

    def test_mixed_parameter_can_leave_domain(self):
        with pytest.raises(MixedParameterError):
            M.evaluate_measure(em.GAUSSIAN, "jensen", _gauss_theta(0, 1), _gauss_theta(0, 0.4), 2.0)


class TestBregman:
    def test_zero_iff_equal(self, std_gauss):
        value = M.evaluate_measure(em.GAUSSIAN, "bregman", std_gauss, std_gauss).value
        assert value == pytest.approx(0.0, abs=1e-14)

    def test_exponential_value(self):
        value = M.evaluate_measure(
            em.EXPONENTIAL, "bregman", _exp_theta(2.0), _exp_theta(1.0)
        ).value
        assert value == pytest.approx(1.0 - math.log(2.0), rel=1e-13)

    def test_gaussian_shifted_mean(self):
        value = M.evaluate_measure(
            em.GAUSSIAN, "bregman", NaturalParam([0.0, -0.5]), NaturalParam([1.0, -0.5])
        ).value
        assert value == pytest.approx(0.5, rel=1e-13)


class TestDivergences:
    def test_renyi_divergence_exponential_pair(self):
        res = M.evaluate_measure(
            em.EXPONENTIAL, "renyi-div", _exp_theta(1.0), _exp_theta(2.0), 0.5
        )
        assert res.value == pytest.approx(2.0 * math.log(1.5 / math.sqrt(2.0)), rel=1e-12)

    def test_renyi_divergence_zero_at_equal(self, std_gauss):
        value = M.evaluate_measure(em.GAUSSIAN, "renyi-div", std_gauss, std_gauss, 0.5).value
        assert value == pytest.approx(0.0, abs=1e-14)

    def test_renyi_divergence_shifted_gaussians(self):
        # equal-variance Gaussians: alpha (mu - mu')^2 / (2 var); also equals
        # -2 log of the quadrature value of the sqrt(p q) overlap integral
        res = M.evaluate_measure(
            em.GAUSSIAN, "renyi-div", _gauss_theta(0, 1), _gauss_theta(1, 1), 0.5
        )
        assert res.value == pytest.approx(0.25, rel=1e-13)

    def test_tsallis_divergence_exponential_pair(self):
        res = M.evaluate_measure(
            em.EXPONENTIAL, "tsallis-div", _exp_theta(1.0), _exp_theta(2.0), 0.5
        )
        assert res.value == pytest.approx(0.1143819168358732, rel=1e-12)

    def test_divergence_limit_branches(self):
        # 5e-7 from alpha = 1 both divergences keep their own value, the overlap
        # I = 2^(1 - alpha) / (alpha + 2 (1 - alpha)) of rates 1 and 2 taken as
        # log(I) / (alpha - 1) and (I - 1) / (alpha - 1), a little above the KL.
        mpmath = pytest.importorskip("mpmath")
        a, b = _exp_theta(1.0), _exp_theta(2.0)
        kl = M.evaluate_measure(em.EXPONENTIAL, "kl", a, b).value
        alpha = 1.0 + 5e-7
        with mpmath.workdps(50):
            x = mpmath.mpf(alpha)
            overlap = 2 ** (1 - x) / (x + 2 * (1 - x))
            wants = (float(mpmath.log(overlap) / (x - 1)), float((overlap - 1) / (x - 1)))
        for measure, want in zip(("renyi-div", "tsallis-div"), wants):
            value = M.evaluate_measure(em.EXPONENTIAL, measure, a, b, alpha).value
            assert value == pytest.approx(want, rel=1e-13)
            assert 0.0 < value - kl < 1e-6

    def test_kl_exponential(self):
        value = M.evaluate_measure(em.EXPONENTIAL, "kl", _exp_theta(1.0), _exp_theta(2.0)).value
        assert value == pytest.approx(1.0 - math.log(2.0), rel=1e-13)

    def test_kl_poisson(self):
        a = em.POISSON.to_natural(em.PoissonParams(rate=2.0))
        b = em.POISSON.to_natural(em.PoissonParams(rate=1.0))
        assert M.evaluate_measure(em.POISSON, "kl", a, b).value == pytest.approx(
            2.0 * math.log(2.0) - 1.0, rel=1e-13
        )

    def test_kl_is_swapped_bregman(self):
        a, b = _gauss_theta(0.3, 1.1), _gauss_theta(-0.4, 0.8)
        kl = M.evaluate_measure(em.GAUSSIAN, "kl", a, b).value
        assert kl == M.evaluate_measure(em.GAUSSIAN, "bregman", b, a).value


class TestCrossPowerIntegral:
    def test_equal_parameters(self, std_gauss):
        assert _i_alpha_cross(em.GAUSSIAN, std_gauss, std_gauss, 0.7) == pytest.approx(
            1.0, rel=1e-14
        )

    def test_exponential_midpoint(self):
        value = _i_alpha_cross(em.EXPONENTIAL, _exp_theta(1.0), _exp_theta(2.0), 0.5)
        assert value == pytest.approx(math.sqrt(2.0) / 1.5, rel=1e-13)

    def test_alpha_one_loses_discrimination(self):
        value = _i_alpha_cross(em.EXPONENTIAL, _exp_theta(1.0), _exp_theta(3.0), 1.0)
        assert value == 1.0


class TestBhattacharyyaHellinger:
    def test_coefficient_one_at_equal(self, std_gauss):
        value = M.evaluate_measure(em.GAUSSIAN, "bhattacharyya", std_gauss, std_gauss).value
        assert value == pytest.approx(1.0, rel=1e-14)

    def test_exponential_pair(self):
        value = M.evaluate_measure(
            em.EXPONENTIAL, "bhattacharyya", _exp_theta(1.0), _exp_theta(2.0)
        ).value
        assert value == pytest.approx(math.sqrt(2.0) / 1.5, rel=1e-13)

    def test_hellinger_values(self):
        def hellinger(rate, rate2):
            return M.evaluate_measure(
                em.EXPONENTIAL, "hellinger", _exp_theta(rate), _exp_theta(rate2)
            ).value

        assert hellinger(1.0, 1.0) == 0.0
        value = hellinger(1.0, 2.0)
        assert value == pytest.approx(math.sqrt(1.0 - math.sqrt(2.0) / 1.5), rel=1e-12)

    def test_hellinger_grows_with_separation(self):
        near, far = (
            M.evaluate_measure(em.EXPONENTIAL, "hellinger", _exp_theta(1.0), _exp_theta(r)).value
            for r in (2.0, 4.0)
        )
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
    def test_commutes_with_closed_forms(self, std_gauss):
        # The Tsallis entropy is the Renyi entropy on the other scale, expm1((1 - a) h) / (1 - a).
        alpha = 2.0
        h_r = M.evaluate_measure(em.GAUSSIAN, "renyi", std_gauss, alpha=alpha).value
        h_t = M.evaluate_measure(em.GAUSSIAN, "tsallis", std_gauss, alpha=alpha).value
        assert math.expm1((1.0 - alpha) * h_r) / (1.0 - alpha) == pytest.approx(h_t, abs=1e-12)
        assert math.log1p((1.0 - alpha) * h_t) / (1.0 - alpha) == pytest.approx(h_r, abs=1e-12)


class TestPublicSurface:
    def test_public_names(self):
        assert M.__all__ == [
            "CLOSED_FORM",
            "MeasureResult",
            "Measure",
            "MEASURES",
            "MEASURE_NAMES",
            "measure_needs_alpha",
            "measure_needs_pair",
            "evaluate_measure",
        ]

    @pytest.mark.parametrize("module", [em, F, M, O, em.estimation], ids=lambda m: m.__name__)
    def test_every_exported_name_resolves(self, module):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == []

    def test_families_exports(self):
        assert F.__all__ == [
            "NaturalParam", "Member", "Support", "Family",
            "ExponentialParams", "PoissonParams", "BernoulliParams", "GaussianParams",
            "MultivariateGaussianParams", "LaplacianParams",
            "ExponentialDistFamily", "PoissonFamily", "BernoulliFamily", "GaussianFamily",
            "MultivariateGaussianFamily", "CenteredLaplacianFamily",
            "EXPONENTIAL", "POISSON", "BERNOULLI", "GAUSSIAN", "LAPLACIAN",
            "get_family", "family_names",
        ]

    def test_package_exports(self):
        assert em.__all__ == [
            "families", "measures", "oracle", "estimation",
            "Family", "NaturalParam",
            "ExponentialParams", "PoissonParams", "BernoulliParams", "GaussianParams",
            "MultivariateGaussianParams", "LaplacianParams",
            "EXPONENTIAL", "POISSON", "BERNOULLI", "GAUSSIAN", "LAPLACIAN",
            "MultivariateGaussianFamily", "get_family", "family_names",
            "MeasureResult", "evaluate_measure",
            "OracleConfig", "OracleEstimate", "oracle_measure",
            "SampleSet", "Estimate", "mle", "plugin_measure",
            "DomainError", "ParameterDomainError", "NaturalDomainError", "ScaledParameterError",
            "MixedParameterError", "SupportError", "ExpectationDomainError",
            "DegenerateSampleError", "ConvergenceError",
        ]

    # Every family's public names: Family's and its class descriptors (an mvn family's
    # dimension too). Each concrete class defines the six methods the benchmark's tracer
    # patches in its own class dict, beside its F, grad F and their inverse.
    FAMILY_NAMES = [
        "carrier_expectation", "check_shape", "compose", "from_natural", "grad_inverse",
        "grad_log_normalizer", "in_natural_domain", "in_support", "in_support_batch",
        "log_carrier_moment", "log_density_batch", "log_normalizer", "matrix_dim", "member",
        "order", "require_support", "sample", "sufficient_stat_batch", "to_natural",
    ]
    OWN_NAMES = [
        "decomposition", "grad_inverse", "grad_log_normalizer", "in_support_batch",
        "log_density_batch", "log_normalizer", "name", "sample", "source_keys",
        "sufficient_stat_batch", "support", "to_natural", "vector_dim",
    ]

    def test_member_attributes(self):
        assert _public(NaturalParam([1.0])) == ["flat", "matrix", "mix", "scaled", "vector"]
        assert _public(_exp_theta(1.0)) == [
            "factor", "family", "flat", "matrix", "mix", "moments", "pair", "scaled", "spread",
            "vector",
        ]
        assert _public(F.Family) == self.FAMILY_NAMES

    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_family_attributes(self, name):
        fam = make_family(name)
        extra = ["decomposition", "name", "source_keys", "support", "vector_dim"]
        extra += ["dim"] if name == "mvn" else []
        assert _public(fam) == sorted(self.FAMILY_NAMES + extra)
        own = {"bernoulli": ["from_natural"], "mvn": ["from_natural", "matrix_dim"]}.get(name, [])
        assert sorted(n for n in vars(type(fam)) if not n.startswith("_")) == sorted(
            self.OWN_NAMES + own
        )


def _public(obj) -> list[str]:
    return sorted(n for n in dir(obj) if not n.startswith("_"))


# Each record: a call that makes one, its fields, their defaults and README's repr.
RECORDS = {
    "MeasureResult": (
        lambda: M.evaluate_measure(em.GAUSSIAN, "renyi", _gauss_theta(0.0, 1.0), alpha=2.0),
        ("value", "branch", "alpha_used"),
        {"alpha_used": None},
        "MeasureResult(value=1.2655121234846454, branch='closed-form', alpha_used=2.0)",
    ),
    "OracleEstimate": (
        lambda: O.oracle_measure(em.EXPONENTIAL, "kl", _exp_theta(1.0), _exp_theta(2.0)),
        ("value", "error_bound", "method", "evaluations"),
        {},
        "OracleEstimate(value=0.3068528194400545, error_bound=7.031488923089988e-15, "
        "method='cubature', evaluations=3)",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
class TestResultRecords:
    """MeasureResult and OracleEstimate are named tuples, made by their modules as one tuple of
    their fields: each such record is a full instance of its public type."""

    def test_fields_and_default(self, name):
        make, fields, defaults, _ = RECORDS[name]
        cls = getattr(em, name)
        assert (cls._fields, cls._field_defaults) == (fields, defaults)
        res = make()
        assert type(res) is cls and res == tuple(getattr(res, f) for f in fields)
        if defaults:
            assert cls(1.0, M.CLOSED_FORM).alpha_used is None

    def test_fields_cannot_be_assigned(self, name):
        res = RECORDS[name][0]()
        for field in res._fields:
            with pytest.raises(AttributeError):
                setattr(res, field, 0.0)

    def test_equals_the_record_from_the_public_constructor(self, name):
        res = RECORDS[name][0]()
        made = getattr(em, name)(**res._asdict())
        assert made == res and type(made) is type(res) and hash(made) == hash(res)
        assert res._replace(value=0.0) != res

    def test_pickle_and_copy_round_trip(self, name):
        res = RECORDS[name][0]()
        for again in (pickle.loads(pickle.dumps(res)), copy.copy(res), copy.deepcopy(res)):
            assert again == res and type(again) is type(res)

    def test_readme_repr(self, name):
        assert repr(RECORDS[name][0]()) == RECORDS[name][3]


def _fits(fam, name):
    rng = np.random.default_rng(5)
    return [
        em.mle(em.SampleSet(fam, fam.sample(fam.to_natural(random_source(name, rng)), 400, seed)))
        for seed in (1, 2)
    ]


@pytest.mark.parametrize("producer", ["evaluate_measure", "plugin_measure", "oracle_measure"])
@pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
def test_every_result_is_a_full_record(producer, name):
    fam = make_family(name)
    fits = _fits(fam, name)
    p, q = (fit.theta for fit in fits)
    for row in M.MEASURES:
        alpha = 0.5 if row.order else None
        if producer == "evaluate_measure":
            res = M.evaluate_measure(fam, row.name, p, q, alpha)
        elif producer == "plugin_measure":
            res = em.plugin_measure(row.name, *fits, alpha=alpha)
        else:
            res = O.oracle_measure(fam, row.name, p, q, alpha)
        if producer == "oracle_measure":
            assert type(res) is O.OracleEstimate
            assert [type(v) for v in res] == [float, float, str, int]
        else:
            assert type(res) is M.MeasureResult
            assert [type(v) for v in res] == [float, str, type(alpha)]
            assert res == (res.value, M.CLOSED_FORM, alpha)


class TestAlphaValidation:
    def test_rejects_nonpositive_alpha(self, std_gauss):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                M.evaluate_measure(em.GAUSSIAN, "renyi", std_gauss, alpha=bad)
            with pytest.raises(DomainError):
                M.evaluate_measure(em.GAUSSIAN, "renyi-div", std_gauss, std_gauss, bad)

    def test_evaluate_measure_dispatch(self, std_gauss):
        res = M.evaluate_measure(em.GAUSSIAN, "renyi", std_gauss, alpha=2.0)
        want = 0.5 * math.log(2.0 * math.pi) + 0.5 * math.log(2.0)
        assert res == M.MeasureResult(pytest.approx(want, rel=1e-14), M.CLOSED_FORM, 2.0)
        with pytest.raises(ValueError):
            M.evaluate_measure(em.GAUSSIAN, "nope", std_gauss)
        with pytest.raises(ValueError):
            M.evaluate_measure(em.GAUSSIAN, "kl", std_gauss)  # missing second parameter
        with pytest.raises(ValueError):
            M.evaluate_measure(em.GAUSSIAN, "renyi", std_gauss)  # missing alpha

    @pytest.mark.parametrize("measure", [m for m in M.MEASURE_NAMES if M.measure_needs_alpha(m)])
    @pytest.mark.parametrize("alpha", [2, np.float64(0.5), 0.5])
    def test_alpha_used_is_a_plain_float(self, std_gauss, measure, alpha):
        res = M.evaluate_measure(em.GAUSSIAN, measure, std_gauss, _gauss_theta(0.5, 1.2), alpha)
        assert type(res.alpha_used) is float and res.alpha_used == alpha


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
    "poisson": ([math.inf], [36.0], ([700.0], [-700.0])),
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


def _entropy_at_20(name, kind, fn):
    """An entropy at alpha = 20 of the member whose 20-fold scaling leaves the domain.
    Only Bernoulli forms alpha theta, and Poisson's series at rate e^36 is too wide to
    sum; the others' Renyi entropy is a value, and its Tsallis entropy is beyond the
    float range."""
    if name == "bernoulli":
        _raises_exactly(ScaledParameterError, fn)
    elif name == "poisson":
        with pytest.raises(ConvergenceError, match="too wide"):
            fn()
    elif kind == "renyi":
        assert math.isfinite(fn())
    else:
        with pytest.raises(OverflowError):
            fn()


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
            _entropy_at_20(
                name, measure, lambda: M.evaluate_measure(fam, measure, big, None, 20.0).value
            )
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
        _raises_exactly(NaturalDomainError, fam.log_carrier_moment, bad, 2.0)
        _raises_exactly(ScaledParameterError, fam.log_carrier_moment, big, 20.0)
        _raises_exactly(DomainError, fam.log_carrier_moment, good, 0.0)


# --------------------------------------------------------------------------
# Each closed form checks each member it touches once.
# --------------------------------------------------------------------------

# Distinct members a measure touches: theta, theta', the mixture (and Bernoulli's alpha*theta).
_MEMBERS = {
    "renyi": 1, "tsallis": 1, "shannon": 1, "cross-entropy": 2, "kl": 2, "bregman": 2,
    "renyi-div": 3, "tsallis-div": 3, "bhattacharyya": 3, "hellinger": 3, "jensen": 3,
}

# The families of one natural coordinate, which check a mixture or alpha*theta as a float.
_ONE_COORDINATE = ("exponential", "poisson", "bernoulli", "laplacian")


@pytest.fixture
def tally(monkeypatch):
    """Counts each domain check: in_natural_domain calls, and the float checks (_inside)
    made outside one, of a one-coordinate mixture or alpha*theta, also under "floats"."""
    counts = {"validations": 0, "floats": 0, "choleskys": 0}
    check, cholesky = F.Family.in_natural_domain, F.np.linalg.cholesky
    depth = [0]

    def counted_check(self, theta):
        counts["validations"] += 1
        depth[0] += 1
        try:
            return check(self, theta)
        finally:
            depth[0] -= 1

    def counted_inside(inside):
        def counted(self, t):
            if not depth[0]:
                counts["validations"] += 1
                counts["floats"] += 1
            return inside(self, t)
        return counted

    def counted_cholesky(a):
        counts["choleskys"] += 1
        return cholesky(a)

    monkeypatch.setattr(F.Family, "in_natural_domain", counted_check)
    for name in _ONE_COORDINATE:
        cls = type(make_family(name))
        monkeypatch.setattr(cls, "_inside", counted_inside(cls._inside))
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
    members += name == "bernoulli" and measure in ("renyi", "tsallis")  # alpha*theta
    derived = members - 1 - M.measure_needs_pair(measure)  # alpha*theta, the mixture
    for alpha in (0.5, 2.0):
        # Members from to_natural are checked no more; what the call derives from them
        # is, and so is each bare copy of them, once. A one-coordinate family checks
        # what it derives as a float, so no mixture or alpha*theta NaturalParam is made.
        for pair, checks in (((theta, theta2), derived), ((_bare(theta), _bare(theta2)), members)):
            tally.update(validations=0, floats=0, choleskys=0)
            M.evaluate_measure(fam, measure, *pair, alpha)
            assert tally["validations"] == checks
            assert tally["floats"] == derived
            if name == "mvn":
                # -2M is factored once per check, so at most once per member the call
                # touches, and never for members from to_natural.
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


@pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
def test_the_vector_block_is_a_tuple_of_floats_however_made(name):
    # The one stored form of the vector block, whatever makes the parameter.
    fam = make_family(name)
    p, q = (fam.to_natural(dict(src)) for src in VERIFY_PAIRS[name])
    eta = fam.grad_log_normalizer(p)
    made = [
        p, fam.member(_bare(p)), p.scaled(0.5), p.mix(q, 0.3), eta, fam.grad_inverse(eta),
        fam.compose(p.flat()), dataclasses.replace(p, vector=np.asarray(p.vector)),
        copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p)),
    ]
    for t in made:
        assert type(t.vector) is tuple and all(type(x) is float for x in t.vector)
    assert [t.vector for t in made[-4:]] == [p.vector] * 4


class _NoNumpy:
    """Stands in for numpy: any attribute read raises."""

    def __getattr__(self, name):
        raise AssertionError(f"a closed form read numpy.{name}")


@pytest.mark.parametrize("name", ("exponential", "bernoulli", "gaussian", "laplacian"))
def test_scalar_closed_forms_read_no_numpy_per_call(monkeypatch, name):
    # A member's coordinates are floats from when it is made: with numpy gone from the
    # families module, every sweep cell of a family of float closed forms keeps its bits.
    # (The Poisson entropies sum count series, over arrays.)
    fam = make_family(name)
    rng = np.random.default_rng(30)
    pairs = [[dict(src) for src in VERIFY_PAIRS[name]], [random_source(name, rng) for _ in "pq"]]
    cells = [(m, a) for m in M.MEASURES for a in (_SWEEP_ORDERS if m.order else (None,))]
    members, fresh = ([[fam.to_natural(src) for src in pair] for pair in pairs] for _ in "mf")

    def bits(p, q):
        return [M.evaluate_measure(fam, m.name, p, q if m.needs_pair else None, a).value.hex()
                for m, a in cells]

    want = [bits(p, q) for p, q in members]
    monkeypatch.setattr(F, "np", _NoNumpy())
    assert [bits(p, q) for p, q in fresh] == want


def test_a_member_of_another_family_is_checked_again(tally):
    # Laplacian and exponential members share their shape and domain, theta < 0.
    lap, lap2 = (em.LAPLACIAN.to_natural(em.LaplacianParams(scale=s)) for s in (0.5, 2.0))
    assert em.EXPONENTIAL.member(lap) is not lap
    assert em.EXPONENTIAL.member(lap).family is em.EXPONENTIAL
    tally.update(validations=0)
    kl = M.evaluate_measure(em.EXPONENTIAL, "kl", lap, lap2).value
    assert tally["validations"] == 2
    assert kl == M.evaluate_measure(em.EXPONENTIAL, "kl", _bare(lap), _bare(lap2)).value


def test_a_member_made_another_way_is_checked_again(tally):
    theta = em.EXPONENTIAL.to_natural(em.ExponentialParams(rate=2.0))
    tally.update(validations=0)
    assert em.EXPONENTIAL.member(theta) is theta and tally["validations"] == 0
    for made in (dataclasses.replace(theta), copy.copy(theta), copy.deepcopy(theta)):
        tally.update(validations=0)
        value = M.evaluate_measure(em.EXPONENTIAL, "shannon", made).value
        assert value == M.evaluate_measure(em.EXPONENTIAL, "shannon", theta).value
        assert tally["validations"] == 1
        assert em.EXPONENTIAL.member(made) is not made
    outside = dataclasses.replace(theta, vector=[1.0])
    assert type(outside) is F.Member
    _raises_exactly(NaturalDomainError, M.evaluate_measure, em.EXPONENTIAL, "shannon", outside)


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
                    M.evaluate_measure(fam, "jensen", theta, theta2, alpha).value
                except MixedParameterError:
                    assert not inside, alpha
                else:
                    assert inside, alpha


@pytest.mark.parametrize("name", _ONE_COORDINATE)
def test_one_coordinate_measures_never_form_a_mixture_or_scaled_member(monkeypatch, name):
    fam = make_family(name)
    theta, theta2 = (fam.to_natural(dict(src)) for src in VERIFY_PAIRS[name])

    def formed(*args):
        raise AssertionError("a mixture or alpha-scaled member was formed")

    monkeypatch.setattr(NaturalParam, "mix", formed)
    monkeypatch.setattr(NaturalParam, "scaled", formed)
    for measure, alpha in _MEMO_CELLS:
        second = theta2 if M.measure_needs_pair(measure) else None
        assert math.isfinite(M.evaluate_measure(fam, measure, theta, second, alpha).value)


# The open domains of the one-coordinate families: rates and scales 1e+-300 (log-uniform),
# Poisson theta up to log DBL_MAX and Bernoulli |theta| up to 1e300.
_COORDINATES = {
    "exponential": st.floats(-300, 300).map(lambda e: -(10.0**e)),
    "laplacian": st.floats(-300, 300).map(lambda e: -1.0 / 10.0**e),
    "poisson": st.one_of(st.floats(-800.0, F._MAX_LOG_RATE), st.floats(-1e300, F._MAX_LOG_RATE)),
    "bernoulli": st.one_of(
        st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from((-1.0, 1.0)), st.floats(-300, 300)),
        st.floats(-1e300, 1e300),
    ),
}
_FLOAT_ORDERS = (0.5, 0.9, 1.0 - 1e-4, 1.0 + 1e-4, 1.0 + 1e-7, 2.0, 20.0, 1e10, 1e15, -3.0, -1e5)


def _hexes(values) -> list[str]:
    return [v.hex() for v in values]


@pytest.mark.parametrize("name", _ONE_COORDINATE)
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_float_mixture_is_the_mixture_member_bit_for_bit(name, data):
    # The float mixture rounds as NaturalParam.mix rounds it, and raises exactly where the
    # mixture member would leave the domain; Bernoulli's alpha*theta likewise as scaled.
    fam = make_family(name)
    ta, tb = (data.draw(_COORDINATES[name]) for _ in range(2))
    alpha = data.draw(st.sampled_from(_FLOAT_ORDERS))
    theta, theta2 = fam.member(NaturalParam([ta])), fam.member(NaturalParam([tb]))
    mixed = theta.mix(theta2, alpha)
    if fam.in_natural_domain(mixed):
        want = (fam._gap(theta, mixed), fam._gap(theta2, mixed))
        assert _hexes(fam._jensen_gaps(theta, theta2, alpha)) == _hexes(want)
    else:
        _raises_exactly(MixedParameterError, fam._jensen_gaps, theta, theta2, alpha)
    if name == "bernoulli":
        scaled = theta.scaled(alpha)
        if fam.in_natural_domain(scaled):
            want = (fam._entropy(theta), fam._gap(scaled, theta))
            assert _hexes(fam._renyi_gap(theta, alpha)) == _hexes(want)
        else:
            _raises_exactly(ScaledParameterError, fam._renyi_gap, theta, alpha)


# --------------------------------------------------------------------------
# The mvn family keeps each member's factor of -2M and its moments on the member.
# --------------------------------------------------------------------------

_MEMO_CELLS = [
    (m.name, a)
    for m in M.MEASURES
    for a in ((0.5, 0.9, 1.0 - 1e-4, 1.0 + 1e-4, 2.0) if m.order else (None,))
]


def _fresh_mvn_pair(dim: int, seed: int):
    """The same two mvn members on every call, as new objects that keep only what their
    check computed."""
    rng = np.random.default_rng(seed)
    fam = em.get_family("mvn", dim)
    mu = rng.uniform(-1, 1, size=dim)
    p = em.MultivariateGaussianParams(mu=mu, cov=_random_cov(rng, dim))
    q = em.MultivariateGaussianParams(mu=mu + rng.uniform(-0.8, 0.8, size=dim), cov=_random_cov(rng, dim))
    return fam, fam.to_natural(p), fam.to_natural(q)


def _cells(fam, theta, theta2) -> list[str]:
    """Every memo cell's value on (theta, theta2), as exact bit patterns."""
    return [
        M.evaluate_measure(fam, m, theta, theta2 if M.measure_needs_pair(m) else None, a).value.hex()
        for m, a in _MEMO_CELLS
    ]


def _bits(fam, theta, theta2) -> list:
    """Every memo cell's value in both orders, and F and grad F of both members, as
    exact bit patterns."""
    out = _cells(fam, theta, theta2) + _cells(fam, theta2, theta)
    for t in (theta, theta2):
        out += [fam.log_normalizer(t).hex(), fam.grad_log_normalizer(t).flat().tobytes()]
    return out


def _by_spread(*members) -> list:
    """The members from the largest spread of their factor's diagonal: the one that whitens."""

    def spread(t):
        diag = t.factor.diagonal().tolist()
        return max(diag) / min(diag)

    return sorted(members, key=spread, reverse=True)


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
        # A third member r, and p the one of the largest factor spread, which whitens every
        # pair it is in (at d = 1, where spreads tie, the first member does): p meets each
        # partner in turn in both orders, then q again. Its kept pair is replaced each time,
        # never served to another partner.
        def fresh():
            _, fresh_p, fresh_q = _fresh_mvn_pair(dim, 90 + dim)
            return _by_spread(fresh_p, fresh_q, _fresh_mvn_pair(dim, 190 + dim)[1])

        p, q, r = used = _by_spread(p, q, _fresh_mvn_pair(dim, 190 + dim)[1])
        for i, j in ((0, 1), (0, 2), (1, 0), (2, 0), (0, 1)):
            cold = fresh()
            assert _cells(fam, used[i], used[j]) == _cells(fam, cold[i], cold[j]), (i, j)
        # p keeps q weakly: q goes with its last reference, and p still works.
        partner = weakref.ref(q)
        del q, used
        gc.collect()
        assert partner() is None
        assert _cells(fam, p, r) == _cells(fam, *fresh()[::2])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_each_pair_is_whitened_once(self, monkeypatch, dim):
        # Every order and measure of a pair reads one eigendecomposition, in either order.
        fam, p, q = _fresh_mvn_pair(dim, 40 + dim)
        calls, eigh = [], F.np.linalg.eigh
        monkeypatch.setattr(F.np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        for theta, theta2 in ((p, q), (q, p)):
            for m, a in _MEMO_CELLS:
                if M.measure_needs_pair(m):
                    M.evaluate_measure(fam, m, theta, theta2, a)
        assert len(calls) == 1

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
            with pytest.raises(TypeError):
                member.vector[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                member.matrix[0] = 1.0
        scalar = _gauss_theta(1.0, 2.0).scaled(0.5)
        with pytest.raises(TypeError):
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

    def test_members_are_whole_from_birth(self):
        # Each way of making an mvn member leaves it with its factor, spread and moments,
        # before any measure reads them.
        fam, p, q = _fresh_mvn_pair(3, 17)
        made = [p, q, fam.member(_bare(p)), fam.grad_inverse(fam.grad_log_normalizer(p))]
        for t in made:
            mean, cov, inv_chol, log_det = t.moments
            diag = t.factor.diagonal().tolist()
            assert t.spread == max(diag) / min(diag)
            assert np.array_equal(t.factor, np.linalg.cholesky(-2.0 * t.matrix))
            assert np.array_equal(inv_chol, np.linalg.inv(t.factor))
            assert np.array_equal(mean, cov @ np.asarray(t.vector))
            assert log_det == 2.0 * sum(map(math.log, diag))
            assert not hasattr(t, "pair")

    def test_concurrent_readers_get_identical_bits(self):
        fam, p, q = _fresh_mvn_pair(3, 13)
        start = threading.Barrier(4, timeout=30)

        def read(_):
            start.wait()  # all four threads reach the pair before any has whitened it
            return _bits(fam, p, q), p.moments

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                results = list(pool.map(read, range(4)))
        finally:
            sys.setswitchinterval(interval)
        want = _bits(*_fresh_mvn_pair(3, 13))
        assert all(bits == want for bits, _ in results)
        # Every reader was handed the one record the member was made with.
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

    @pytest.mark.parametrize("rate", [1e35, 1e100, 1e300])
    @pytest.mark.parametrize("measure", ["shannon", "renyi", "tsallis", "cross-entropy"])
    def test_a_window_past_a_peak_of_1e35_is_too_wide_too(self, rate, measure):
        # There the half-width is under half an ulp of the rate: the window rounded to one
        # count, whose Python-int counts past int64 made the terms raise a bare TypeError.
        theta = _poisson_theta(rate)
        with pytest.raises(ConvergenceError, match="too wide"):
            M.evaluate_measure(em.POISSON, measure, theta, _poisson_theta(1.0), 0.5)

    @pytest.mark.parametrize("theta", [-1e307, -np.finfo(float).max])
    def test_far_negative_theta_has_entropies_of_zero(self, theta):
        # Every mass past k = 0 is 0 and p_0 = 1. k theta overflows to -inf in the window,
        # and a mass of 0 adds 0 to H, not 0 * inf = nan (which raised ConvergenceError).
        member = NaturalParam([theta])
        assert M.evaluate_measure(em.POISSON, "shannon", member).value == 0.0
        for measure, alpha in itertools.product(("renyi", "tsallis"), (0.5, 2.0)):
            assert M.evaluate_measure(em.POISSON, measure, member, None, alpha).value == 0.0

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
        with pytest.raises(ConvergenceError, match="not finite"):
            F.count_series(lambda ks: [np.where(ks == 3, np.inf, 1.0)], [2.0])
        with pytest.raises(ConvergenceError):
            F.count_series(lambda ks: [np.ones(ks.size)], [2.0])

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
                got = M.evaluate_measure(em.POISSON, "renyi", theta, alpha=alpha).value
                assert got == pytest.approx(want, rel=1e-11), alpha

    # Rates whose windows lie below the log k! table's cap, straddle it, and lie past it.
    _TABLE_RATES = (0.1, 1e4, 1.3e5, 2e5)

    @staticmethod
    def _windows(monkeypatch, rate, alpha=0.5):
        """The runs of counts a Renyi entropy at rate, alpha reads log k! over."""
        seen, table = [], F._log_factorials
        with monkeypatch.context() as m:
            m.setattr(F, "_log_factorials", lambda ks: seen.append(ks.copy()) or table(ks))
            M.evaluate_measure(em.POISSON, "renyi", _poisson_theta(rate), alpha=alpha)
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
                out += [M.evaluate_measure(em.POISSON, "shannon", p).value,
                        M.evaluate_measure(em.POISSON, "cross-entropy", p, q).value]
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
            return [
                M.evaluate_measure(em.POISSON, "renyi", _poisson_theta(r), alpha=0.5).value.hex()
                for r in rates
            ]

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

    def test_a_slow_tail_is_summed_over_the_window_its_bound_asks(self):
        # Terms e^(-k/100) decay too slowly for the four windows around a peak of 1; the
        # edge ratio r = e^(-1/100) sizes a fifth, and the sum is 1 / (1 - r).
        windows = []

        def terms(ks):
            windows.append(ks.size)
            return [np.exp(-0.01 * ks)]

        (total,), _, (tail,), n = F.count_series(terms, [1.0])
        assert len(windows) == 5 and n == windows[-1]
        assert total == pytest.approx(-1.0 / math.expm1(-0.01), rel=1e-15)
        assert tail <= 2.0**-60 * total

    def test_a_fifth_window_past_the_cap_raises_before_it_is_made(self):
        # At r = e^(-1e-9) the tail bound asks for ~4e10 counts: no fifth call of terms.
        windows = []

        def terms(ks):
            windows.append(ks.size)
            return [np.exp(-1e-9 * ks)]

        with pytest.raises(ConvergenceError, match="did not converge"):
            F.count_series(terms, [1.0])
        assert len(windows) == 4

    def test_a_fifth_window_past_the_cap_names_the_window_and_the_cap(self):
        # At rate 1 and alpha = 1e-8 the first window's tail bound asks for ~4e8 counts, past 2^22.
        theta = em.POISSON.to_natural(em.PoissonParams(rate=1.0))
        want = (r"did not converge: its tail bound asks for a window of 4\.05e\+08 counts, "
                r"past the cap of 4194304 \(2\^22\)")
        with pytest.raises(ConvergenceError, match=want):
            M.evaluate_measure(em.POISSON, "renyi", theta, None, 1e-8)

    @settings(max_examples=200, deadline=None)
    @given(
        peak=st.floats(1e-2, 1e3),
        alpha=st.floats(0.05, 5.0),
        signed=st.booleans(),
    )
    def test_one_row_is_summed_as_a_row_among_rows(self, peak, alpha, signed):
        # The oracle hands count_series one row, the closed-form entropies three: a lone
        # row sums, bounds and sizes as the same row among other rows, bit for bit.
        # Poisson-type terms p^alpha, or (k - peak) p^alpha, whose signs change at the peak.
        log_rate = math.log(peak)

        def row(ks):
            power = np.exp(alpha * (ks * log_rate - peak - F._log_factorials(ks)))
            return (ks - peak) * power if signed else power

        (total,), (abs_total,), (tail,), n = F.count_series(lambda ks: [row(ks)], [peak], alpha)
        totals, abs_totals, tails, n2 = F.count_series(lambda ks: (row(ks), row(ks)), [peak], alpha)
        assert isinstance(total, float) and isinstance(abs_total, float)
        assert n == n2 and totals[0] == totals[1]
        assert [total.hex(), abs_total.hex(), tail.hex()] == [
            totals[0].hex(), abs_totals[0].hex(), tails[0].hex()
        ]


# --------------------------------------------------------------------------
# A Poisson member keeps each order's (H, G), and sums a fresh window for a new one.
# --------------------------------------------------------------------------

_SWEEP_ORDERS = (0.5, 0.9, 1.0 - 1e-4, 1.0 + 1e-4, 1.0 + 1e-7, 2.0)
# The 14 entropy cells of a closed-form sweep on one Poisson member, in the sweep's order.
_POISSON_ENTROPY_CELLS = (
    *(("renyi", a) for a in _SWEEP_ORDERS),
    *(("tsallis", a) for a in _SWEEP_ORDERS),
    ("shannon", None),
    ("cross-entropy", None),
)


def _entropy_bits(theta, cells, partner):
    """Each cell's value on theta, as its hex; partner is the cross entropy's second member."""
    return [
        M.evaluate_measure(em.POISSON, m, theta, partner if m == "cross-entropy" else None, a)
        .value.hex()
        for m, a in cells
    ]


class TestPoissonRecord:
    _RATES = (0.1, 1.0, 10.0, 1e3, 1e4)

    @staticmethod
    def _calls(monkeypatch):
        """The runs of counts every _log_factorials call reads, as (first, count)."""
        seen, table = [], F._log_factorials
        monkeypatch.setattr(
            F, "_log_factorials", lambda ks: seen.append((int(ks[0]), ks.size)) or table(ks)
        )
        return seen

    @classmethod
    def _kept_member(cls, monkeypatch, rate, cells, partner):
        """Runs the cells in turn on one member of the rate, and returns it. Each cell gives a
        fresh member's bits; an order the member keeps makes no _log_factorials call, and a
        new one makes exactly the calls a fresh member makes for that cell."""
        calls = cls._calls(monkeypatch)
        theta, kept = _poisson_theta(rate), set()
        for cell in cells:
            want = _entropy_bits(_poisson_theta(rate), [cell], partner)
            fresh = calls[:]
            calls.clear()
            assert _entropy_bits(theta, [cell], partner) == want, cell
            assert calls == ([] if (cell[1] or 1.0) in kept else fresh), cell
            calls.clear()
            kept.add(cell[1] or 1.0)
        return theta

    @pytest.mark.parametrize("rate", _RATES)
    def test_a_kept_member_gives_a_fresh_members_bits_in_sweep_order(self, monkeypatch, rate):
        # Renyi and Tsallis share each order, Shannon and the cross entropy alpha = 1; all
        # 14 again are all kept.
        cells = _POISSON_ENTROPY_CELLS * 2
        theta = self._kept_member(monkeypatch, rate, cells, _poisson_theta(1.3 * rate))
        assert type(theta.moments) is dict and list(theta.moments) == [*_SWEEP_ORDERS, 1.0]

    @pytest.mark.parametrize("rate", _RATES)
    def test_a_kept_member_gives_a_fresh_members_bits_in_descending_order(self, monkeypatch, rate):
        # Descending orders ask ever wider windows, each summed afresh.
        cells = sorted(_POISSON_ENTROPY_CELLS, key=lambda c: -(c[1] or 1.0))
        self._kept_member(monkeypatch, rate, cells, _poisson_theta(1.3 * rate))

    def test_a_small_order_takes_five_windows_and_the_series_value(self, monkeypatch):
        # At rate 1, alpha = 0.005 takes all five windows; sum p^alpha is
        # sum_k e^(-alpha (1 + log k!)), whose terms are below e^-200 past k = 6000.
        mpmath = pytest.importorskip("mpmath")
        alpha = 0.005
        calls = self._calls(monkeypatch)
        value = M.evaluate_measure(em.POISSON, "renyi", _poisson_theta(1.0), alpha=alpha).value
        assert len(calls) == 5 and [lo for lo, _ in calls] == [0] * 5
        with mpmath.workdps(30):
            a = mpmath.mpf(alpha)
            total = mpmath.fsum(mpmath.exp(-a * (1 + mpmath.loggamma(k + 1))) for k in range(6000))
            want = float(mpmath.log(total) / (1 - a))
        assert value == pytest.approx(want, rel=1e-13)
        cells = [("renyi", alpha), *_POISSON_ENTROPY_CELLS]
        self._kept_member(monkeypatch, 1.0, cells, _poisson_theta(1.3))

    def test_an_order_past_the_cap_builds_only_its_first_window(self, monkeypatch):
        # At rate 30 and alpha = 1e-8 the first window's tail bound asks for ~4.6e8 counts, and
        # still past 2^22 at the ratio (k!)^-alpha reaches by the cap: no wider window is built.
        calls = self._calls(monkeypatch)
        with pytest.raises(ConvergenceError, match="past the cap"):
            M.evaluate_measure(em.POISSON, "renyi", _poisson_theta(30.0), alpha=1e-8)
        assert len(calls) == 1

    def test_distinct_orders_keep_the_record_at_its_bound(self):
        theta = _poisson_theta(42.0)
        orders = [0.5 + k / 1000 for k in range(1000)]
        got = [M.evaluate_measure(em.POISSON, "renyi", theta, alpha=a).value for a in orders]
        assert len(theta.moments) == F._POISSON_KEPT_ORDERS == 16
        assert list(theta.moments) == orders[-16:]
        for a, value in list(zip(orders, got))[::97]:
            fresh = M.evaluate_measure(em.POISSON, "renyi", _poisson_theta(42.0), alpha=a).value
            assert value.hex() == fresh.hex(), a

    def test_a_window_of_over_4096_counts_gives_a_fresh_members_bits(self, monkeypatch):
        # At rate 1e6 the window spans ~2.5e4 counts, past what a member once kept.
        cells = [("renyi", 0.5), ("tsallis", 0.5), ("renyi", 2.0), ("shannon", None)]
        theta = self._kept_member(monkeypatch, 1e6, cells * 2, None)
        assert list(theta.moments) == [0.5, 2.0, 1.0]

    def test_a_copied_member_carries_no_record(self):
        theta = _poisson_theta(10.0)
        want = _entropy_bits(theta, _POISSON_ENTROPY_CELLS, _poisson_theta(13.0))
        assert len(theta.moments) == len(_SWEEP_ORDERS) + 1
        for made in (
            pickle.loads(pickle.dumps(theta)),
            dataclasses.replace(theta),
            copy.copy(theta),
            copy.deepcopy(theta),
        ):
            assert getattr(made, "moments", None) is None
            assert _entropy_bits(made, _POISSON_ENTROPY_CELLS, _poisson_theta(13.0)) == want

    def test_the_oracle_reads_no_record(self):
        theta = _poisson_theta(10.0)
        _entropy_bits(theta, _POISSON_ENTROPY_CELLS, _poisson_theta(13.0))
        # A record that gives wrong values to the closed forms, and would to the oracle.
        poisoned = {a: (h + 1.0, g + 1.0) for a, (h, g) in theta.moments.items()}
        object.__setattr__(theta, "moments", poisoned)
        for m, a in (("renyi", 0.5), ("shannon", None)):
            fresh = O.oracle_measure(em.POISSON, m, _poisson_theta(10.0), None, a)
            assert M.evaluate_measure(em.POISSON, m, theta, None, a).value != fresh.value
            assert O.oracle_measure(em.POISSON, m, theta, None, a).value == fresh.value

    @pytest.mark.parametrize("rate", _RATES)
    def test_concurrent_readers_get_a_fresh_members_bits(self, rate):
        # Four threads race the sweep's entropy cells on one fresh member, each from
        # another starting cell, so that they widen and publish the record in turn.
        partner = _poisson_theta(1.3 * rate)
        cells = [("renyi", 0.005), *_POISSON_ENTROPY_CELLS] if rate <= 1.0 else _POISSON_ENTROPY_CELLS
        want = {c: _entropy_bits(_poisson_theta(rate), [c], partner)[0] for c in cells}
        theta = _poisson_theta(rate)
        start = threading.Barrier(4, timeout=30)

        def read(shift):
            order = cells[shift:] + cells[:shift]
            start.wait()  # all four threads find the member bare
            return dict(zip(order, _entropy_bits(theta, order, partner)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                results = list(pool.map(read, (0, 3, 7, 11)))
        finally:
            sys.setswitchinterval(interval)
        assert results == [want] * 4
