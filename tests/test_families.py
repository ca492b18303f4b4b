"""Canonical decompositions: conversions, domains, densities, moments, samplers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import efmeasures as em
from efmeasures.errors import (
    DomainError,
    NaturalDomainError,
    ParameterDomainError,
    SupportError,
)
from efmeasures.estimation import SampleSet
from efmeasures.families import NaturalParam

from conftest import ALL_FAMILY_NAMES, make_family, pairing, random_source, random_theta_pair

LOG_2PI = math.log(2 * math.pi)


class TestNaturalParam:
    def test_matrix_is_symmetrized(self):
        mat = np.array([[1.0, 0.5 + 1e-12], [0.5, 2.0]])
        p = NaturalParam([1.0], mat)
        assert np.array_equal(p.matrix, p.matrix.T)

    def test_matrix_entries_past_half_the_float_range_keep_their_values(self):
        # Halves first: (m + m.T) / 2 overflows to inf there, with a numpy warning. An entry
        # equal to its mirror stays as it is: halving the subnormal 5e-324 gives 0.
        for mat in ([[-1.7e308, 1.2e308], [1.2e308, -1.6e308]], [[-1.0, 3e-310], [3e-310, -5e-324]]):
            assert NaturalParam([0.0, 0.0], mat).matrix.tolist() == mat
        mat = np.array([[-1.0, 0.3 + 1e-12], [0.3, -2.0]])  # the halves' sum is (m + m.T) / 2
        assert NaturalParam([0.0, 0.0], mat).matrix.tolist() == ((mat + mat.T) / 2.0).tolist()

    def test_genuinely_asymmetric_matrix_rejected(self):
        with pytest.raises(ParameterDomainError):
            NaturalParam([1.0], [[1.0, 0.3], [0.1, 2.0]])

    def test_mirrored_entries_of_opposite_sign_past_half_the_float_range_are_rejected(self):
        # m - m.T overflows there, with a numpy warning (an error under this suite's filters).
        with pytest.raises(ParameterDomainError, match="not symmetric"):
            NaturalParam([0.0, 0.0], [[-1.0, 1e308], [-1e308, -1.0]])

    @pytest.mark.parametrize(
        "vector, matrix",
        [
            (["-1.5"], None),
            ("-2", None),
            ([b"1"], None),
            ([True, False], None),
            ([-1.5, True], None),
            (True, None),
            ([np.bool_(False)], None),
            (np.array([True]), None),
            ([0.0, 0.0], [["-1", "0"], ["0", "-1"]]),
            ([0.0], [[True]]),
            ([0.0], np.array([[False]])),
        ],
    )
    def test_strings_and_booleans_are_not_coordinates(self, vector, matrix):
        # numpy reads "-1.5" as -1.5 and True as 1.0; a source record refuses both.
        with pytest.raises(ValueError, match="must hold real numbers"):
            NaturalParam(vector, matrix)

    def test_numbers_of_any_type_are_coordinates(self):
        for vector in (-2, [-2], (-2.0,), np.float64(-2.0), [np.int64(-2)], np.array([-2.0])):
            assert NaturalParam(vector).vector == (-2.0,)
        assert NaturalParam([0.0], [[-1]]).matrix.tolist() == [[-1.0]]

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatched vector blocks"):
            NaturalParam([1.0]).mix(NaturalParam([1.0, 2.0]), 0.5)
        with pytest.raises(ValueError, match="one parameter has a matrix block"):
            NaturalParam([1.0], [[-1.0]]).mix(NaturalParam([1.0]), 0.5)


class TestConversions:
    def test_exponential_natural(self):
        fam = em.EXPONENTIAL
        theta = fam.to_natural(em.ExponentialParams(rate=2.0))
        assert theta.vector[0] == -2.0
        assert fam.from_natural(theta).rate == 2.0

    def test_gaussian_natural(self):
        fam = em.GAUSSIAN
        theta = fam.to_natural(em.GaussianParams(mu=0.0, var=1.0))
        assert np.allclose(theta.vector, [0.0, -0.5])
        back = fam.from_natural(theta)
        assert back.mu == pytest.approx(0.0, abs=1e-15)
        assert back.var == pytest.approx(1.0, rel=1e-12)

    def test_poisson_natural_unit_rate(self):
        theta = em.POISSON.to_natural(em.PoissonParams(rate=1.0))
        assert theta.vector[0] == 0.0

    def test_mvn_identity_from_natural(self):
        fam = em.get_family("mvn", 2)
        theta = NaturalParam(np.zeros(2), -0.5 * np.eye(2))
        params = fam.from_natural(theta)
        assert np.allclose(params.mu, 0.0, atol=1e-14)
        assert np.allclose(params.cov, np.eye(2), atol=1e-14)

    def test_mvn_covariance_past_half_the_float_range_keeps_its_entropy(self):
        # cov + cov.T overflowed there, so a valid member read as outside the domain.
        # The reference is 50-digit mpmath, (1 + log(2 pi 1e308)) / 2.
        params = em.MultivariateGaussianParams(mu=[0.0], cov=[[1e308]])
        assert params.cov.tolist() == [[1e308]]
        fam = em.get_family("mvn", 1)
        value = em.evaluate_measure(fam, "shannon", fam.to_natural(params)).value
        assert abs(value - 356.01704285428770808) <= 1e-14 * 356.0170428542877

    def test_mvn_covariance_with_mirrored_entries_of_opposite_sign_is_rejected(self):
        # cov - cov.T overflowed there, with a numpy warning before the rejection.
        with pytest.raises(ParameterDomainError, match="cov is not symmetric"):
            em.MultivariateGaussianParams(mu=[0.0, 0.0], cov=[[1.0, 1e308], [-1e308, 1.0]])

    def test_gaussian_variance_past_the_float_range_is_refused_as_a_variance(self):
        # var = -1 / (2 t2) overflows, and mu = t1 var was 0 inf: the refusal read a NaN mean.
        theta = NaturalParam([0.0, -1e-310])
        with pytest.raises(ParameterDomainError, match=r"^var must be > 0, got inf$"):
            em.GAUSSIAN.from_natural(theta)
        # The closed form never forms var. The reference is 50-digit mpmath, log(2 pi e var) / 2.
        value = em.evaluate_measure(em.GAUSSIAN, "shannon", theta).value
        assert abs(value - 357.97305435700178264) <= 1e-14 * 357.97305435700178264

    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_round_trip(self, name):
        fam = make_family(name)
        rng = np.random.default_rng(11)
        for _ in range(10):
            src = random_source(name, rng)
            theta = fam.to_natural(src)
            again = fam.to_natural(fam.from_natural(theta))
            assert np.allclose(theta.flat(), again.flat(), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_mvn_precision_matches_triangular_solve(self, dim):
        # The numpy forward substitution against LAPACK's triangular solve.
        linalg = pytest.importorskip("scipy.linalg")
        fam = em.get_family("mvn", dim)
        rng = np.random.default_rng(dim)
        for _ in range(20):
            a = rng.normal(size=(dim, dim))
            cov = a @ a.T + 0.1 * np.eye(dim)
            inv_chol = linalg.solve_triangular(np.linalg.cholesky(cov), np.eye(dim), lower=True)
            precision = inv_chol.T @ inv_chol
            theta = fam.to_natural(em.MultivariateGaussianParams(mu=np.ones(dim), cov=cov))
            assert np.max(np.abs(-2.0 * theta.matrix - precision)) <= 1e-12 * np.max(np.abs(precision))
            assert np.allclose(fam.from_natural(theta).cov, cov, rtol=1e-9, atol=1e-12)

    def test_bad_source_params_rejected(self):
        with pytest.raises(ParameterDomainError):
            em.ExponentialParams(rate=0.0)
        with pytest.raises(ParameterDomainError):
            em.GaussianParams(mu=0.0, var=-1.0)
        with pytest.raises(ParameterDomainError):
            em.BernoulliParams(p=1.0)
        with pytest.raises(ParameterDomainError):
            em.MultivariateGaussianParams(mu=[0.0, 0.0], cov=[[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ParameterDomainError):
            em.LaplacianParams(scale=-0.5)

    # Values that are not real numbers, or not arrays of them, are refused as domain errors;
    # numeric ones keep their messages.
    @pytest.mark.parametrize("name, params, message", [
        ("exponential", {"rate": "abc"}, "rate must be a real number, got 'abc'"),
        ("exponential", {"rate": None}, "rate must be a real number, got None"),
        ("gaussian", {"mu": [1], "var": 1.0}, "mu must be a real number, got [1]"),
        ("laplacian", {"scale": 1j}, "scale must be a real number, got 1j"),
        ("bernoulli", {"p": "0.5"}, "p must be a real number, got '0.5'"),
        ("mvn", {"mu": [0, "a"], "cov": np.eye(2)}, "mu and cov must be arrays of real numbers"),
        ("mvn", {"mu": [0, 0], "cov": [[1, 0], [0]]}, "mu and cov must be arrays of real numbers"),
        # Python counts a bool an int, and numpy reads True as 1 and "1e0" as 1.0.
        ("exponential", {"rate": True}, "rate must be a real number, got True"),
        ("exponential", {"rate": np.True_}, "rate must be a real number, got np.True_"),
        ("gaussian", {"mu": False, "var": True}, "mu must be a real number, got False"),
        ("gaussian", {"mu": 0.0, "var": True}, "var must be a real number, got True"),
        ("bernoulli", {"p": True}, "p must be a real number, got True"),
        ("mvn", {"mu": ["0", "1e0"], "cov": np.eye(2)}, "mu and cov must be arrays of real numbers"),
        ("mvn", {"mu": [0, True], "cov": np.eye(2)}, "mu and cov must be arrays of real numbers"),
        ("mvn", {"mu": [0, 0], "cov": [[1, 0], [0, "1"]]}, "mu and cov must be arrays of real numbers"),
        ("mvn", {"mu": [0, 0], "cov": [[True, 0], [0, 1]]}, "mu and cov must be arrays of real numbers"),
        ("mvn", {"mu": [0, 0], "cov": np.eye(2, dtype=bool)}, "mu and cov must be arrays of real numbers"),
        ("exponential", {"rate": -1}, "rate must be > 0, got -1"),
        ("gaussian", {"mu": math.inf, "var": 1.0}, "mu must be finite, got inf"),
        ("bernoulli", {"p": math.nan}, "p must lie in (0, 1), got nan"),
        ("bernoulli", {"p": 1}, "p must lie in (0, 1), got 1"),
        ("mvn", {"mu": [0, math.nan], "cov": np.eye(2)}, "mu must be a finite vector"),
    ])
    def test_source_values_that_are_not_numbers_are_domain_errors(self, name, params, message):
        with pytest.raises(ParameterDomainError) as info:
            make_family(name).to_natural(params)
        assert str(info.value) == message


class TestNaturalDomain:
    def test_exponential(self):
        fam = em.EXPONENTIAL
        assert fam.in_natural_domain(NaturalParam([-1.0]))
        assert not fam.in_natural_domain(NaturalParam([0.5]))
        assert not fam.in_natural_domain(NaturalParam([0.0]))

    def test_gaussian_boundary_excluded(self):
        assert not em.GAUSSIAN.in_natural_domain(NaturalParam([1.0, 0.0]))

    def test_whole_line_families_require_finiteness(self):
        assert em.POISSON.in_natural_domain(NaturalParam([-37.2]))
        assert not em.POISSON.in_natural_domain(NaturalParam([np.inf]))
        assert em.BERNOULLI.in_natural_domain(NaturalParam([25.0]))
        assert not em.BERNOULLI.in_natural_domain(NaturalParam([np.nan]))

    def test_mvn_requires_negative_definite_block(self):
        fam = em.get_family("mvn", 2)
        assert fam.in_natural_domain(NaturalParam(np.zeros(2), -np.eye(2)))
        assert not fam.in_natural_domain(NaturalParam(np.zeros(2), np.eye(2)))
        assert not fam.in_natural_domain(NaturalParam(np.zeros(2), np.diag([-1.0, 0.0])))

    def test_boundary_operations_raise(self):
        with pytest.raises(NaturalDomainError):
            em.EXPONENTIAL.log_normalizer(NaturalParam([0.0]))
        with pytest.raises(NaturalDomainError):
            em.GAUSSIAN.grad_log_normalizer(NaturalParam([1.0, 0.0]))

    def test_poisson_domain_is_a_finite_rate(self):
        # The rate exp(theta) must be a finite float: theta <= log DBL_MAX. Past it, F,
        # shannon and kl raised a bare OverflowError from the rate instead of the domain error.
        largest = math.log(np.finfo(float).max)
        assert em.POISSON.log_normalizer(NaturalParam([largest])) <= np.finfo(float).max
        inside = em.POISSON.to_natural(em.PoissonParams(rate=3.0))
        for t in (np.nextafter(largest, math.inf), 800.0, 1e307):
            theta = NaturalParam([t])
            assert not em.POISSON.in_natural_domain(theta)
            for fn in (em.POISSON.log_normalizer, em.POISSON.grad_log_normalizer,
                       lambda th: em.measures.evaluate_measure(em.POISSON, "shannon", th).value,
                       lambda th: em.measures.evaluate_measure(em.POISSON, "kl", th, inside).value,
                       lambda th: em.measures.evaluate_measure(em.POISSON, "kl", inside, th).value):
                with pytest.raises(NaturalDomainError):
                    fn(theta)

    def test_mvn_member_whose_covariance_overflows_is_refused(self):
        # -2M = diag(1e-310, 1) has a factor, but its covariance overflows: refused when the
        # member is made, not at its first F.
        fam = em.get_family("mvn", 2)
        theta = NaturalParam([1.0, 0.0], -0.5 * np.diag([1e-310, 1.0]))
        assert not fam.in_natural_domain(theta)
        with pytest.raises(NaturalDomainError):
            fam.member(theta)

    def test_mvn_second_moment_overflow_is_a_domain_error_not_a_warning(self):
        # At theta = ((1e200, 0), -I/2) the mean 1e200 is finite, but F and mu mu^T are not:
        # grad F refuses the member as F does, with no numpy overflow warning first.
        fam = em.get_family("mvn", 2)
        theta = NaturalParam([1e200, 0.0], -0.5 * np.eye(2))
        for fn in (fam.log_normalizer, fam.grad_log_normalizer):
            with pytest.raises(NaturalDomainError):
                fn(theta)

    def test_mvn_overflow_is_a_domain_error_not_a_warning(self):
        # -2M is positive-definite, but the mean and F overflow: the domain error,
        # with no numpy overflow warning first (an error under this suite's filter).
        fam = em.get_family("mvn", 2)
        theta = NaturalParam([1e200, 0.0], [[-1e-200, 0.0], [0.0, -0.5]])
        for fn in (fam.log_normalizer, fam.grad_log_normalizer, fam.from_natural):
            with pytest.raises(NaturalDomainError):
                fn(theta)


class TestLogNormalizer:
    def test_exponential_value(self):
        theta = NaturalParam([-2.0])
        assert em.EXPONENTIAL.log_normalizer(theta) == pytest.approx(-math.log(2), rel=1e-14)

    def test_gaussian_standard_value(self):
        theta = NaturalParam([0.0, -0.5])
        assert em.GAUSSIAN.log_normalizer(theta) == pytest.approx(0.5 * LOG_2PI, rel=1e-14)

    def test_poisson_value(self):
        assert em.POISSON.log_normalizer(NaturalParam([0.0])) == 1.0

    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_convexity_spot_check(self, name):
        fam = make_family(name)
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = fam.to_natural(random_source(name, rng))
            b = fam.to_natural(random_source(name, rng))
            tau = float(rng.uniform(0.05, 0.95))
            mixed = a.mix(b, tau)
            lhs = fam.log_normalizer(mixed)
            rhs = tau * fam.log_normalizer(a) + (1 - tau) * fam.log_normalizer(b)
            assert lhs <= rhs + 1e-12


class TestGradient:
    def test_gaussian_standard(self):
        grad = em.GAUSSIAN.grad_log_normalizer(NaturalParam([0.0, -0.5]))
        assert np.allclose(grad.vector, [0.0, 1.0], atol=1e-14)

    def test_exponential(self):
        grad = em.EXPONENTIAL.grad_log_normalizer(NaturalParam([-2.0]))
        assert grad.vector[0] == pytest.approx(0.5, rel=1e-14)

    def test_poisson(self):
        grad = em.POISSON.grad_log_normalizer(NaturalParam([math.log(3.0)]))
        assert grad.vector[0] == pytest.approx(3.0, rel=1e-14)

    def test_mvn_second_moment(self):
        fam = em.get_family("mvn", 2)
        params = em.MultivariateGaussianParams(
            mu=[0.5, -1.0], cov=[[1.0, 0.3], [0.3, 2.0]]
        )
        grad = fam.grad_log_normalizer(fam.to_natural(params))
        assert np.allclose(grad.vector, params.mu, rtol=1e-12)
        expected = params.cov + np.outer(params.mu, params.mu)
        assert np.allclose(grad.matrix, expected, rtol=1e-12)


class TestPrimitivesMatchF:
    """The closed forms read each family's entropy H and Bregman gap B, written
    on the step between members, not F. These tie both to F and grad F at seeded
    moderate members, where the F differences keep their digits."""

    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_gap_and_entropy_equal_their_f_forms(self, name):
        fam = make_family(name)
        rng = np.random.default_rng(31)
        for _ in range(6):
            a, b = random_theta_pair(name, rng)
            for x, y in ((a, b), (b, a)):
                matrix = x.matrix - y.matrix if name == "mvn" else None
                step = NaturalParam(np.subtract(x.vector, y.vector), matrix)
                from_f = fam.log_normalizer(x) - fam.log_normalizer(y)
                from_f -= pairing(step, fam.grad_log_normalizer(y))
                assert fam._gap(x, y) == pytest.approx(from_f, rel=1e-12)
            from_f = fam.log_normalizer(a) - pairing(a, fam.grad_log_normalizer(a))
            from_f -= fam.carrier_expectation(a)
            assert fam._entropy(a) == pytest.approx(from_f, rel=1e-12)

    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_renyi_gap_equals_its_f_form(self, name, alpha):
        # G = log(integral of p^alpha) - (1 - alpha) H, the integral's log being
        # F(alpha theta) - alpha F(theta) + log C(alpha) with the carrier moment C.
        fam = make_family(name)
        for theta in (random_theta_pair(name, np.random.default_rng(32 + k))[0] for k in range(4)):
            scaled = theta.scaled(alpha)
            h, gap = fam._renyi_gap(theta, alpha)
            log_power = fam.log_normalizer(scaled) - alpha * fam.log_normalizer(theta)
            log_power += fam.log_carrier_moment(theta, alpha)
            assert h == fam._entropy(theta)
            assert gap == pytest.approx(log_power - (1.0 - alpha) * h, rel=1e-12)


class TestGradInverse:
    @pytest.mark.parametrize(
        "name, eta, expected",
        [
            ("exponential", [0.5], [-2.0]),
            ("poisson", [3.0], [math.log(3.0)]),
            ("gaussian", [0.0, 1.0], [0.0, -0.5]),
        ],
    )
    def test_known_values(self, name, eta, expected):
        theta = make_family(name).grad_inverse(NaturalParam(eta))
        assert np.allclose(theta.vector, expected, rtol=1e-12)

    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_inverts_gradient(self, name):
        fam = make_family(name)
        rng = np.random.default_rng(23)
        for _ in range(10):
            theta = fam.to_natural(random_source(name, rng))
            eta = fam.grad_log_normalizer(theta)
            again = fam.grad_log_normalizer(fam.grad_inverse(eta))
            assert np.allclose(eta.flat(), again.flat(), rtol=1e-9, atol=1e-12)

    def test_boundary_moments_rejected(self):
        with pytest.raises(em.ExpectationDomainError):
            em.EXPONENTIAL.grad_inverse(NaturalParam([0.0]))
        with pytest.raises(em.ExpectationDomainError):
            em.BERNOULLI.grad_inverse(NaturalParam([1.0]))
        with pytest.raises(em.ExpectationDomainError):
            em.GAUSSIAN.grad_inverse(NaturalParam([2.0, 4.0]))  # zero implied variance
        fam = em.get_family("mvn", 2)
        with pytest.raises(em.ExpectationDomainError):
            fam.grad_inverse(NaturalParam([1.0, 0.0], np.array([[1.0, 0.0], [0.0, 0.5]])))

    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_wrong_shapes_rejected(self, name):
        # Each family reads only an expectation parameter of its own shape: a scalar family
        # does not take the first of two coordinates, nor one with a matrix block.
        fam = make_family(name)
        eta = fam.grad_log_normalizer(fam.to_natural(random_source(name, np.random.default_rng(3))))
        longer = NaturalParam([*eta.vector, 7.0], eta.matrix)
        other = NaturalParam(eta.vector, None if eta.matrix is not None else [[1.0]])
        for bad in (longer, other):
            with pytest.raises(ValueError, match=f"^{name}: (expected|unexpected)"):
                fam.grad_inverse(bad)


def _stat(fam, x) -> list[float]:
    """t(x) of one observation, checked in the support: sufficient_stat_batch at N=1."""
    fam.require_support(x)
    return fam.sufficient_stat_batch(np.asarray([x]))[0].tolist()


def _log_density(fam, theta, x) -> float:
    """log p(x) of one observation, checked in the support: log_density_batch at N=1."""
    fam.require_support(x)
    return float(fam.log_density_batch(fam.member(theta), np.asarray([x]))[0])


def _carrier(fam, theta, x) -> float:
    """k(x) = log p(x) - <t(x), theta> + F(theta), the same for every member theta."""
    t = NaturalParam(_stat(fam, x))
    return _log_density(fam, theta, x) - pairing(t, theta) + fam.log_normalizer(theta)


class TestSufficientStatAndCarrier:
    def test_gaussian_stat(self):
        assert _stat(em.GAUSSIAN, 3.0) == [3.0, 9.0]

    def test_exponential_stat(self):
        assert _stat(em.EXPONENTIAL, 1.5) == [1.5]

    def test_laplacian_stat_is_magnitude(self):
        assert _stat(em.LAPLACIAN, -2.0) == [2.0]

    def test_mvn_stat_is_vector_and_outer_product(self):
        assert _stat(em.get_family("mvn", 2), [1.0, 2.0]) == [1.0, 2.0, 1.0, 2.0, 2.0, 4.0]

    def test_poisson_carrier(self):
        for rate in (1.0, 3.0):
            theta = em.POISSON.to_natural(em.PoissonParams(rate=rate))
            assert _carrier(em.POISSON, theta, 4) == pytest.approx(-math.log(24.0), rel=1e-13)
            assert _carrier(em.POISSON, theta, 0) == 0.0

    def test_zero_carrier_families(self):
        for fam, x in ((em.GAUSSIAN, 7.0), (em.EXPONENTIAL, 1.0), (em.LAPLACIAN, -3.0)):
            theta = fam.to_natural(random_source(fam.name, np.random.default_rng(4)))
            # From three terms of size up to x^2 / (2 var): what is left is their rounding.
            assert _carrier(fam, theta, x) == pytest.approx(0.0, abs=1e-13)

    def test_support_violations(self):
        for fam, x in ((em.EXPONENTIAL, -1.0), (em.POISSON, 2.5), (em.POISSON, -1), (em.BERNOULLI, 2)):
            with pytest.raises(SupportError):
                _stat(fam, x)


class TestLogDensity:
    def test_exponential_at_origin(self):
        theta = em.EXPONENTIAL.to_natural(em.ExponentialParams(rate=1.0))
        assert _log_density(em.EXPONENTIAL, theta, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_standard_normal_at_zero(self):
        theta = em.GAUSSIAN.to_natural(em.GaussianParams(mu=0.0, var=1.0))
        assert _log_density(em.GAUSSIAN, theta, 0.0) == pytest.approx(-0.5 * LOG_2PI, rel=1e-14)

    def test_poisson_pmf_value(self):
        theta = em.POISSON.to_natural(em.PoissonParams(rate=1.0))
        assert _log_density(em.POISSON, theta, 2) == pytest.approx(-1.0 - math.log(2), rel=1e-14)

    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_batch_matches_scalar(self, name):
        fam = make_family(name)
        rng = np.random.default_rng(3)
        theta = fam.to_natural(random_source(name, rng))
        xs = fam.sample(theta, 50, seed=9)
        batch = fam.log_density_batch(theta, xs)
        assert batch.tolist() == [_log_density(fam, theta, x) for x in xs]


class TestCarrierMoments:
    """The carrier moment C(alpha) = E[exp((alpha - 1) k(x))] under the alpha-scaled member,
    as exp of log_carrier_moment, and the carrier expectation E[k(x)]."""

    def test_zero_carrier_moment_is_one(self):
        theta = em.GAUSSIAN.to_natural(em.GaussianParams(mu=1.0, var=2.0))
        assert math.exp(em.GAUSSIAN.log_carrier_moment(theta, 2.0)) == 1.0

    def test_poisson_moment_at_alpha_one(self):
        theta = em.POISSON.to_natural(em.PoissonParams(rate=1.0))
        assert math.exp(em.POISSON.log_carrier_moment(theta, 1.0)) == 1.0

    def test_poisson_moment_truncated_series(self):
        # sum_k exp(-1)/k! * (k!)^(-1), summed to 40 digits externally
        theta = em.POISSON.to_natural(em.PoissonParams(rate=1.0))
        assert math.exp(em.POISSON.log_carrier_moment(theta, 2.0)) == pytest.approx(
            0.8386125671260258, rel=1e-13
        )

    def test_poisson_moment_alpha_below_one(self):
        # rho = sqrt(2); sum_k exp(-rho) rho^k / k! * sqrt(k!)
        theta = em.POISSON.to_natural(em.PoissonParams(rate=2.0))
        assert math.exp(em.POISSON.log_carrier_moment(theta, 0.5)) == pytest.approx(
            1.6822417342589476, rel=1e-13
        )

    def test_poisson_expectation(self):
        theta = em.POISSON.to_natural(em.PoissonParams(rate=1.0))
        assert em.POISSON.carrier_expectation(theta) == pytest.approx(
            -0.30484224225625148, rel=1e-12
        )

    def test_poisson_expectation_vanishing_rate(self):
        theta = em.POISSON.to_natural(em.PoissonParams(rate=1e-8))
        assert abs(em.POISSON.carrier_expectation(theta)) < 1e-7

    def test_zero_carrier_expectations(self):
        theta = em.EXPONENTIAL.to_natural(em.ExponentialParams(rate=3.0))
        assert em.EXPONENTIAL.carrier_expectation(theta) == 0.0

    def test_alpha_must_be_positive(self):
        theta = em.GAUSSIAN.to_natural(em.GaussianParams(mu=0.0, var=1.0))
        with pytest.raises(DomainError):
            em.GAUSSIAN.log_carrier_moment(theta, -1.0)


class TestSamplers:
    def test_deterministic_given_seed(self, family_name):
        fam = make_family(family_name)
        theta = fam.to_natural(random_source(family_name, np.random.default_rng(1)))
        a = fam.sample(theta, 500, seed=123)
        b = fam.sample(theta, 500, seed=123)
        assert np.array_equal(a, b)
        c = fam.sample(theta, 500, seed=124)
        assert not np.array_equal(a, c)

    def test_near_degenerate_bernoulli(self):
        theta = em.BERNOULLI.to_natural(em.BernoulliParams(p=0.999999))
        draws = em.BERNOULLI.sample(theta, 100, seed=1)
        assert draws.sum() >= 99

    def test_exponential_mean_in_clt_band(self):
        theta = em.EXPONENTIAL.to_natural(em.ExponentialParams(rate=2.0))
        draws = em.EXPONENTIAL.sample(theta, 10**5, seed=7)
        assert abs(draws.mean() - 0.5) < 3 * 0.5 / math.sqrt(10**5)

    def test_zero_rate_poisson_is_unreachable(self):
        with pytest.raises(ParameterDomainError):
            em.PoissonParams(rate=0.0)
        with pytest.raises(NaturalDomainError):
            em.POISSON.sample(NaturalParam([-np.inf]), 10, seed=0)

    def test_sample_size_validated(self):
        theta = em.EXPONENTIAL.to_natural(em.ExponentialParams(rate=1.0))
        with pytest.raises(ValueError):
            em.EXPONENTIAL.sample(theta, 0, seed=0)

    def test_large_rate_poisson_moments(self):
        theta = em.POISSON.to_natural(em.PoissonParams(rate=80.0))
        draws = em.POISSON.sample(theta, 200_000, seed=11)
        assert draws.min() >= 0
        assert draws.mean() == pytest.approx(80.0, abs=4 * math.sqrt(80.0 / 200_000))
        assert draws.var() == pytest.approx(80.0, rel=0.05)

    def test_observations_lie_in_support(self, family_name):
        fam = make_family(family_name)
        theta = fam.to_natural(random_source(family_name, np.random.default_rng(2)))
        draws = fam.sample(theta, 200, seed=5)
        for x in draws:
            assert fam.in_support(x)


# Values on and around every support boundary: negatives, non-integers,
# zero and one, huge integers, NaN and both infinities.
_EDGE_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, -1.0, 0.5, -0.5, 1e300, -0.0, math.nan, math.inf, -math.inf]),
    st.integers(min_value=-5, max_value=5).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
)
_EDGE_ARRAYS = st.one_of(
    st.lists(_EDGE_VALUES, min_size=1, max_size=12).map(lambda v: np.asarray(v, dtype=float)),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=12).map(np.asarray),
    st.lists(st.booleans(), min_size=1, max_size=12).map(lambda v: np.asarray(v, dtype=bool)),
)


def _documented_support(name: str, x) -> bool:
    """Plain-Python statement of each family's support, one observation."""
    if name == "mvn":
        return all(math.isfinite(float(v)) for v in x)
    v = float(x)
    integral = not isinstance(x, (bool, np.bool_)) and math.isfinite(v) and v == math.floor(v)
    return {
        "exponential": math.isfinite(v) and v >= 0,
        "poisson": integral and v >= 0,
        "bernoulli": integral and v in (0.0, 1.0),
        "gaussian": math.isfinite(v),
        "laplacian": math.isfinite(v),
    }[name]


class TestSupportBatch:
    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    @settings(max_examples=80, deadline=None)
    @given(xs=_EDGE_ARRAYS)
    def test_batch_matches_scalar_and_documented_support(self, name, xs):
        fam = make_family(name)
        if name == "mvn":
            xs = np.column_stack([xs, xs[::-1]])
        batch = fam.in_support_batch(xs)
        assert batch.dtype == np.bool_ and batch.shape == (len(xs),)
        assert batch.tolist() == [fam.in_support(x) for x in xs]
        assert batch.tolist() == [_documented_support(name, x) for x in xs]

    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    @settings(max_examples=40, deadline=None)
    @given(xs=_EDGE_ARRAYS)
    def test_sample_set_names_first_bad_observation(self, name, xs):
        fam = make_family(name)
        if name == "mvn":
            xs = np.column_stack([xs, xs[::-1]])
        ok = [fam.in_support(x) for x in xs]
        if all(ok):
            assert len(SampleSet(fam, xs)) == len(xs)
            return
        with pytest.raises(SupportError) as info:
            SampleSet(fam, xs)
        assert f"observation {xs[ok.index(False)].tolist()!r} outside" in str(info.value)

    def test_support_errors_print_plain_values(self):
        with pytest.raises(SupportError, match=r"^poisson: observation 2\.5 outside"):
            SampleSet(em.POISSON, [1.0, 2.5])
        with pytest.raises(SupportError, match=r"^mvn: observation \[1\.0, nan\] outside"):
            SampleSet(em.get_family("mvn", 2), [[0.0, 0.0], [1.0, math.nan]])
        with pytest.raises(SupportError, match=r"^bernoulli: observation 2 outside"):
            em.BERNOULLI.require_support(np.int64(2))

    def test_non_numeric_and_misshapen_input_is_outside(self):
        assert not em.EXPONENTIAL.in_support("abc")
        assert not em.POISSON.in_support(None)
        assert not em.GAUSSIAN.in_support([1.0, 2.0])
        mvn = em.get_family("mvn", 2)
        assert mvn.in_support([1.0, 2.0])
        assert not mvn.in_support([1.0, 2.0, 3.0])
        assert not mvn.in_support([[1.0, 2.0]])
