"""Numerical oracle: hand-computed targets, honesty of bounds, determinism."""

import json
import math

import numpy as np
import pytest

import efmeasures as em
from efmeasures import cli
from efmeasures import measures as M
from efmeasures import oracle as O
from efmeasures.errors import ConvergenceError, NaturalDomainError
from efmeasures.families import NaturalParam

from conftest import ALL_FAMILY_NAMES, _random_cov, make_family, random_source

CFG = em.OracleConfig(mc_samples=200_000, seed=17)


def _exp_theta(rate):
    return em.EXPONENTIAL.to_natural(em.ExponentialParams(rate=rate))


def _assert_within_bound(est, target):
    assert abs(est.value - target) <= est.error_bound + 1e-13 * (1 + abs(target))


class TestPowerIntegrals:
    def test_exponential_squared_density(self):
        est = O.oracle_i_alpha_self(em.EXPONENTIAL, _exp_theta(1.0), 2.0, CFG)
        assert est.method == O.QUADRATURE
        assert est.value == pytest.approx(0.5, abs=1e-10)
        _assert_within_bound(est, 0.5)

    def test_fair_coin_squared_mass(self):
        theta = em.BERNOULLI.to_natural(em.BernoulliParams(p=0.5))
        est = O.oracle_i_alpha_self(em.BERNOULLI, theta, 2.0, CFG)
        assert est.method == O.DISCRETE_SUM
        assert est.value == pytest.approx(0.5, abs=1e-14)

    def test_mvn_squared_density(self):
        fam = em.get_family("mvn", 2)
        theta = fam.to_natural(em.MultivariateGaussianParams(mu=np.zeros(2), cov=np.eye(2)))
        est = O.oracle_i_alpha_self(fam, theta, 2.0, CFG)
        assert est.method == O.CUBATURE
        _assert_within_bound(est, 1.0 / (4.0 * math.pi))

    def test_cross_integral_exponential_pair(self):
        est = O.oracle_i_alpha_cross(em.EXPONENTIAL, _exp_theta(1.0), _exp_theta(2.0), 0.5, CFG)
        assert est.value == pytest.approx(math.sqrt(2.0) / 1.5, abs=1e-10)
        _assert_within_bound(est, math.sqrt(2.0) / 1.5)

    def test_cross_integral_equal_members(self):
        est = O.oracle_i_alpha_cross(em.EXPONENTIAL, _exp_theta(1.3), _exp_theta(1.3), 0.7, CFG)
        assert est.value == pytest.approx(1.0, abs=1e-10)

    def test_cross_integral_two_point_sum(self):
        a = em.BERNOULLI.to_natural(em.BernoulliParams(p=0.5))
        b = em.BERNOULLI.to_natural(em.BernoulliParams(p=0.25))
        est = O.oracle_i_alpha_cross(em.BERNOULLI, a, b, 0.5, CFG)
        want = math.sqrt(0.5 * 0.25) + math.sqrt(0.5 * 0.75)
        assert est.value == pytest.approx(want, abs=1e-14)

    def test_divergent_cross_integral_reported(self):
        a = em.GAUSSIAN.to_natural(em.GaussianParams(mu=0.0, var=1.0))
        b = em.GAUSSIAN.to_natural(em.GaussianParams(mu=0.0, var=0.4))
        with pytest.raises(ConvergenceError):
            O.oracle_i_alpha_cross(em.GAUSSIAN, a, b, 2.0, CFG)


class TestEntropyAndKL:
    def test_unit_exponential_entropy(self):
        est = O.oracle_shannon_entropy(em.EXPONENTIAL, _exp_theta(1.0), CFG)
        assert est.value == pytest.approx(1.0, abs=1e-9)
        _assert_within_bound(est, 1.0)

    def test_fair_coin_entropy(self):
        theta = em.BERNOULLI.to_natural(em.BernoulliParams(p=0.5))
        est = O.oracle_shannon_entropy(em.BERNOULLI, theta, CFG)
        assert est.value == pytest.approx(math.log(2.0), abs=1e-14)

    def test_poisson_entropy_truncated_sum(self):
        theta = em.POISSON.to_natural(em.PoissonParams(rate=1.0))
        est = O.oracle_shannon_entropy(em.POISSON, theta, CFG)
        assert est.method == O.DISCRETE_SUM
        assert est.value == pytest.approx(1.3048422422562515, abs=1e-9)

    def test_kl_exponential_pair(self):
        est = O.oracle_kl(em.EXPONENTIAL, _exp_theta(1.0), _exp_theta(2.0), CFG)
        assert est.value == pytest.approx(1.0 - math.log(2.0), abs=1e-9)
        _assert_within_bound(est, 1.0 - math.log(2.0))

    def test_kl_same_member_is_zero(self):
        est = O.oracle_kl(em.EXPONENTIAL, _exp_theta(1.7), _exp_theta(1.7), CFG)
        assert abs(est.value) < 1e-12

    def test_kl_shifted_gaussians(self):
        a = em.GAUSSIAN.to_natural(em.GaussianParams(mu=0.0, var=1.0))
        b = em.GAUSSIAN.to_natural(em.GaussianParams(mu=1.0, var=1.0))
        est = O.oracle_kl(em.GAUSSIAN, a, b, CFG)
        assert est.value == pytest.approx(0.5, abs=1e-9)

    def test_cross_entropy_direct(self):
        est = O.oracle_shannon_cross_entropy(
            em.EXPONENTIAL, _exp_theta(1.0), _exp_theta(2.0), CFG
        )
        assert est.value == pytest.approx(2.0 - math.log(2.0), abs=1e-9)


class TestNormalization:
    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_density_normalizes(self, name):
        fam = make_family(name)
        rng = np.random.default_rng(31)
        for _ in range(3):
            theta = fam.to_natural(random_source(name, rng))
            est = O.oracle_normalization(fam, theta, CFG)
            tol = 1e-3 if est.method == O.MONTE_CARLO else 1e-8
            assert est.value == pytest.approx(1.0, abs=tol)


class TestGradCheck:
    @pytest.mark.parametrize(
        "name, theta",
        [
            ("gaussian", NaturalParam([0.0, -0.5])),
            ("exponential", NaturalParam([-2.0])),
            ("poisson", NaturalParam([0.0])),
        ],
    )
    def test_named_points(self, name, theta):
        assert O.oracle_grad_check(make_family(name), theta, 1e-5) < 1e-6

    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_randomized_parameters(self, name):
        fam = make_family(name)
        rng = np.random.default_rng(101)
        for _ in range(10):
            theta = fam.to_natural(random_source(name, rng))
            assert O.oracle_grad_check(fam, theta, 1e-5) < 1e-6

    def test_step_leaving_domain_is_reported(self):
        with pytest.raises(NaturalDomainError):
            O.oracle_grad_check(em.EXPONENTIAL, NaturalParam([-1e-7]), 1e-5)


# Above four dimensions the mvn oracle runs seeded Monte Carlo.
MC_DIM = 5


def _mc_pair():
    fam = em.get_family("mvn", MC_DIM)
    cov = np.eye(MC_DIM) + 0.2 * np.diag(np.ones(MC_DIM - 1), 1) + 0.2 * np.diag(np.ones(MC_DIM - 1), -1)
    theta = fam.to_natural(em.MultivariateGaussianParams(mu=np.linspace(-0.2, 0.3, MC_DIM), cov=cov))
    theta2 = fam.to_natural(em.MultivariateGaussianParams(mu=np.zeros(MC_DIM), cov=1.1 * np.eye(MC_DIM)))
    return fam, theta, theta2


class TestDeterminismAndConfig:
    def test_monte_carlo_bit_identical(self):
        fam, theta, theta2 = _mc_pair()
        cfg = em.OracleConfig(mc_samples=50_000, seed=42)
        first = O.oracle_kl(fam, theta, theta2, cfg)
        second = O.oracle_kl(fam, theta, theta2, cfg)
        assert first == second
        third = O.oracle_kl(fam, theta, theta2, em.OracleConfig(mc_samples=50_000, seed=43))
        assert first.value != third.value

    def test_substreams_differ_by_operation(self):
        fam, theta, _ = _mc_pair()
        cfg = em.OracleConfig(mc_samples=50_000, seed=42)
        shannon = O.oracle_shannon_entropy(fam, theta, cfg)
        cross = O.oracle_shannon_cross_entropy(fam, theta, theta, cfg)
        assert shannon.method == cross.method == O.MONTE_CARLO
        # same integrand, different substreams
        assert shannon.value != cross.value
        assert shannon.value == pytest.approx(cross.value, abs=shannon.error_bound + cross.error_bound)

    def test_seed_changes_monte_carlo_digits(self):
        fam, theta, theta2 = _mc_pair()
        runs = [em.OracleConfig(mc_samples=20_000, seed=seed) for seed in (1, 2)]
        # Power integrals are constant over their proposal, so every seed gives their exact value.
        for measure in ("shannon", "cross-entropy", "kl"):
            second = None if measure == "shannon" else theta2
            first, other = (O.oracle_measure(fam, measure, theta, second, None, cfg) for cfg in runs)
            assert first.method == other.method == O.MONTE_CARLO
            assert first.evaluations == other.evaluations == 20_000
            assert first.value != other.value
            assert abs(first.value - other.value) <= first.error_bound + other.error_bound

    def test_config_validation(self):
        with pytest.raises(ValueError):
            em.OracleConfig(abs_tol=0.0)
        with pytest.raises(ValueError):
            em.OracleConfig(mc_samples=10)
        with pytest.raises(ValueError):
            em.OracleConfig(seed=-1)


class TestSelfConsistency:
    def test_power_integral_route_extrapolates_to_entropy(self):
        # Renyi entropies assembled from oracle power integrals straddle the
        # directly integrated Shannon entropy as alpha crosses 1.
        theta = _exp_theta(1.3)
        h = O.oracle_shannon_entropy(em.EXPONENTIAL, theta, CFG).value
        for delta in (1e-3,):
            lo = O.oracle_measure(em.EXPONENTIAL, "renyi", theta, alpha=1 - delta, cfg=CFG).value
            hi = O.oracle_measure(em.EXPONENTIAL, "renyi", theta, alpha=1 + delta, cfg=CFG).value
            extrapolated = 0.5 * (lo + hi)
            assert extrapolated == pytest.approx(h, abs=1e-5)
            assert min(lo, hi) <= h <= max(lo, hi)

    def test_divergence_route_extrapolates_to_kl(self):
        a, b = _exp_theta(1.0), _exp_theta(1.8)
        kl = O.oracle_kl(em.EXPONENTIAL, a, b, CFG).value
        lo = O.oracle_measure(em.EXPONENTIAL, "renyi-div", a, b, 1 - 1e-3, CFG).value
        hi = O.oracle_measure(em.EXPONENTIAL, "renyi-div", a, b, 1 + 1e-3, CFG).value
        assert 0.5 * (lo + hi) == pytest.approx(kl, abs=1e-5)


class TestHonestBounds:
    # Near alpha = 1 each Poisson term carries the rounding of log-mass pieces
    # of size ~rate * log(rate), which a Renyi value divides by |1 - alpha|.
    # Each case carries the closed form's error there (ROADMAP item 1's
    # defect, against 50-digit mpmath): a bound above it would hide the
    # defect from `verify`.
    CASES = [
        ((600.0, 900.0), 0.9999, 5.4e-9),
        ((150.0, 230.0), 1.0 - 1e-4, 5.2e-10),
        ((150.0, 230.0), 1.0 + 1e-4, 7.3e-10),
    ]

    @pytest.mark.parametrize("rates, alpha, closed_form_error", CASES)
    def test_count_series_bound_covers_mpmath(self, rates, alpha, closed_form_error):
        mpmath = pytest.importorskip("mpmath")
        p, q = (em.POISSON.to_natural(em.PoissonParams(rate=r)) for r in rates)
        est = O.oracle_measure(em.POISSON, "renyi-div", p, q, alpha, CFG)
        with mpmath.workdps(50):
            # The rates the natural parameters encode, and the Poisson Renyi divergence in 50 digits.
            rp, rq = (mpmath.exp(mpmath.mpf(float(t.vector[0]))) for t in (p, q))
            a = mpmath.mpf(alpha)
            want = float((rp**a * rq ** (1 - a) - a * rp - (1 - a) * rq) / (a - 1))
        assert est.method == O.DISCRETE_SUM
        assert abs(est.value - want) <= est.error_bound < closed_form_error, (est, want)


def _mvn_pair(dim, rng):
    fam = em.get_family("mvn", dim)
    mu = rng.uniform(-1, 1, size=dim)
    p = em.MultivariateGaussianParams(mu=mu, cov=_random_cov(rng, dim))
    q = em.MultivariateGaussianParams(mu=mu + rng.uniform(-0.8, 0.8, size=dim), cov=_random_cov(rng, dim))
    return fam, fam.to_natural(p), fam.to_natural(q)


class TestCubature:
    CELLS = (
        [(m, a) for m in ("renyi", "tsallis") for a in (0.5, 2.0)]
        + [(m, None) for m in ("shannon", "cross-entropy", "kl", "bregman", "bhattacharyya", "hellinger")]
        + [(m, a) for m in ("renyi-div", "tsallis-div", "jensen") for a in (0.5, 0.9, 2.0)]
    )

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_matches_closed_forms(self, dim):
        rng = np.random.default_rng(700 + dim)
        for _ in range(2):
            fam, p, q = _mvn_pair(dim, rng)
            for measure, alpha in self.CELLS:
                second = q if M.measure_needs_pair(measure) else None
                closed = M.evaluate_measure(fam, measure, p, second, alpha).value
                est = O.oracle_measure(fam, measure, p, second, alpha, CFG)
                assert est.method == O.CUBATURE
                assert abs(closed - est.value) <= 1e-12 * abs(closed), (measure, alpha, closed, est)

    def test_evaluations_count_the_integrand_calls(self):
        exp_est = O.oracle_kl(em.EXPONENTIAL, _exp_theta(1.0), _exp_theta(2.0), CFG)
        assert exp_est.method == O.QUADRATURE and exp_est.evaluations % 21 == 0
        coin = em.BERNOULLI.to_natural(em.BernoulliParams(p=0.3))
        assert O.oracle_shannon_entropy(em.BERNOULLI, coin, CFG).evaluations == 2
        poisson = O.oracle_shannon_entropy(em.POISSON, em.POISSON.to_natural(em.PoissonParams(rate=100.0)), CFG)
        assert 150 < poisson.evaluations < 300
        fam, p, _ = _mvn_pair(2, np.random.default_rng(3))
        assert O.oracle_normalization(fam, p, CFG).evaluations == 2**2 + 3**2
        fam, p, _ = _mc_pair()
        assert O.oracle_normalization(fam, p, em.OracleConfig(mc_samples=3000)).evaluations == 3000


class TestWrongLogNormalizer:
    """The mvn oracle builds log-densities from (mu, cov), so a wrong F fails `verify`."""

    def test_one_percent_log_det_error_fails_every_mvn_cell(self, monkeypatch, capsys):
        mvn = em.families.MultivariateGaussianFamily
        right = mvn.log_normalizer

        def wrong(self, theta):
            # F's log-det term, -log det(-2M) / 2, made 1% too large in magnitude.
            log_det = 2.0 * float(np.sum(np.log(np.diag(self._precision_chol(theta)))))
            return right(self, theta) - 0.005 * log_det

        monkeypatch.setattr(mvn, "log_normalizer", wrong)
        assert cli.run(["verify", "--family", "mvn"]) == 1
        rows = json.loads(capsys.readouterr().out)["results"]
        assert len(rows) == 31
        assert [r["measure"] for r in rows if r["pass"]] == []
        fam, p, _ = _mvn_pair(2, np.random.default_rng(5))
        est = O.oracle_normalization(fam, p, CFG)
        assert abs(est.value - 1.0) <= est.error_bound
