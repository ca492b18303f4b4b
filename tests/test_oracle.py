"""Numerical oracle: hand-computed targets, honesty of bounds, determinism."""

import json
import math
import re
import warnings

import numpy as np
import pytest

import efmeasures as em
from efmeasures import cli
from efmeasures import measures as M
from efmeasures import oracle as O
from efmeasures.errors import ConvergenceError, DomainError, NaturalDomainError, ParameterDomainError
from efmeasures.families import NaturalParam

from conftest import (
    ALL_FAMILY_NAMES,
    _random_cov,
    grad_check,
    make_family,
    pairing,
    random_source,
    random_theta_pair,
)

CFG = em.OracleConfig()


def _exp_theta(rate):
    return em.EXPONENTIAL.to_natural(em.ExponentialParams(rate=rate))


def _assert_within_bound(est, target):
    assert abs(est.value - target) <= est.error_bound + 1e-13 * (1 + abs(target))


class TestPowerIntegrals:
    def test_exponential_squared_density(self):
        est = O.oracle_i_alpha_self(em.EXPONENTIAL, _exp_theta(1.0), 2.0)
        assert (est.method, est.evaluations) == (O.CUBATURE, 3)
        assert est.value == pytest.approx(0.5, abs=1e-10)
        _assert_within_bound(est, 0.5)

    def test_fair_coin_squared_mass(self):
        theta = em.BERNOULLI.to_natural(em.BernoulliParams(p=0.5))
        est = O.oracle_i_alpha_self(em.BERNOULLI, theta, 2.0)
        assert est.method == O.DISCRETE_SUM
        assert est.value == pytest.approx(0.5, abs=1e-14)

    def test_mvn_squared_density(self):
        fam = em.get_family("mvn", 2)
        theta = fam.to_natural(em.MultivariateGaussianParams(mu=np.zeros(2), cov=np.eye(2)))
        est = O.oracle_i_alpha_self(fam, theta, 2.0)
        assert est.method == O.CUBATURE
        _assert_within_bound(est, 1.0 / (4.0 * math.pi))

    def test_cross_integral_exponential_pair(self):
        est = O.oracle_i_alpha_cross(em.EXPONENTIAL, _exp_theta(1.0), _exp_theta(2.0), 0.5)
        assert est.value == pytest.approx(math.sqrt(2.0) / 1.5, abs=1e-10)
        _assert_within_bound(est, math.sqrt(2.0) / 1.5)

    def test_cross_integral_equal_members(self):
        est = O.oracle_i_alpha_cross(em.EXPONENTIAL, _exp_theta(1.3), _exp_theta(1.3), 0.7)
        assert est.value == pytest.approx(1.0, abs=1e-10)

    def test_cross_integral_two_point_sum(self):
        a = em.BERNOULLI.to_natural(em.BernoulliParams(p=0.5))
        b = em.BERNOULLI.to_natural(em.BernoulliParams(p=0.25))
        est = O.oracle_i_alpha_cross(em.BERNOULLI, a, b, 0.5)
        want = math.sqrt(0.5 * 0.25) + math.sqrt(0.5 * 0.75)
        assert est.value == pytest.approx(want, abs=1e-14)

    def test_divergent_cross_integral_reported(self):
        a = em.GAUSSIAN.to_natural(em.GaussianParams(mu=0.0, var=1.0))
        b = em.GAUSSIAN.to_natural(em.GaussianParams(mu=0.0, var=0.4))
        with pytest.raises(ConvergenceError):
            O.oracle_i_alpha_cross(em.GAUSSIAN, a, b, 2.0)


class TestEntropyAndKL:
    def test_unit_exponential_entropy(self):
        est = O.oracle_measure(em.EXPONENTIAL, "shannon", _exp_theta(1.0))
        assert est.value == pytest.approx(1.0, abs=1e-9)
        _assert_within_bound(est, 1.0)

    def test_fair_coin_entropy(self):
        theta = em.BERNOULLI.to_natural(em.BernoulliParams(p=0.5))
        est = O.oracle_measure(em.BERNOULLI, "shannon", theta)
        assert est.value == pytest.approx(math.log(2.0), abs=1e-14)

    def test_poisson_entropy_truncated_sum(self):
        theta = em.POISSON.to_natural(em.PoissonParams(rate=1.0))
        est = O.oracle_measure(em.POISSON, "shannon", theta)
        assert est.method == O.DISCRETE_SUM
        assert est.value == pytest.approx(1.3048422422562515, abs=1e-9)

    def test_kl_exponential_pair(self):
        est = O.oracle_measure(em.EXPONENTIAL, "kl", _exp_theta(1.0), _exp_theta(2.0))
        assert est.value == pytest.approx(1.0 - math.log(2.0), abs=1e-9)
        _assert_within_bound(est, 1.0 - math.log(2.0))

    def test_kl_same_member_is_zero(self):
        est = O.oracle_measure(em.EXPONENTIAL, "kl", _exp_theta(1.7), _exp_theta(1.7))
        assert abs(est.value) < 1e-12

    def test_kl_shifted_gaussians(self):
        a = em.GAUSSIAN.to_natural(em.GaussianParams(mu=0.0, var=1.0))
        b = em.GAUSSIAN.to_natural(em.GaussianParams(mu=1.0, var=1.0))
        est = O.oracle_measure(em.GAUSSIAN, "kl", a, b)
        assert est.value == pytest.approx(0.5, abs=1e-9)

    def test_cross_entropy_direct(self):
        est = O.oracle_measure(em.EXPONENTIAL, "cross-entropy", _exp_theta(1.0), _exp_theta(2.0))
        assert est.value == pytest.approx(2.0 - math.log(2.0), abs=1e-9)


class TestNormalization:
    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_density_normalizes(self, name):
        fam = make_family(name)
        rng = np.random.default_rng(31)
        for _ in range(3):
            theta = fam.to_natural(random_source(name, rng))
            est = O.oracle_i_alpha_self(fam, theta, 1.0)
            assert est.value == pytest.approx(1.0, abs=1e-8)


class TestGradCheck:
    """grad F is F's gradient by central differences (conftest.grad_check);
    test_families.TestPrimitivesMatchF ties the closed forms' primitives to both."""

    @pytest.mark.parametrize(
        "name, theta",
        [
            ("gaussian", NaturalParam([0.0, -0.5])),
            ("exponential", NaturalParam([-2.0])),
            ("poisson", NaturalParam([0.0])),
        ],
    )
    def test_named_points(self, name, theta):
        assert grad_check(make_family(name), theta, 1e-5) < 1e-6

    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_randomized_parameters(self, name):
        fam = make_family(name)
        rng = np.random.default_rng(101)
        for _ in range(10):
            theta = fam.to_natural(random_source(name, rng))
            assert grad_check(fam, theta, 1e-5) < 1e-6

    def test_step_leaving_domain_is_reported(self):
        with pytest.raises(NaturalDomainError):
            grad_check(em.EXPONENTIAL, NaturalParam([-1e-7]), 1e-5)

    @pytest.mark.parametrize("step", [0.0, math.nan, math.inf, -math.inf])
    def test_zero_or_non_finite_step_is_a_value_error(self, step):
        with pytest.raises(ValueError) as info:
            grad_check(em.EXPONENTIAL, NaturalParam([-2.0]), step)
        assert info.type is ValueError


class TestOneEntryPoint:
    """`oracle_measure` is the oracle's one entry point per measure, beside the two
    power integrals it reads, and the mvn oracle factors each member once."""

    def test_public_names(self):
        assert O.__all__ == [
            "OracleConfig",
            "OracleEstimate",
            "DISCRETE_SUM",
            "CUBATURE",
            "oracle_i_alpha_self",
            "oracle_i_alpha_cross",
            "oracle_measure",
        ]

    @pytest.mark.parametrize(
        "measure, alpha, factors", [("kl", None, 3), ("renyi", 2.0, 2), ("renyi-div", 0.5, 4)]
    )
    def test_mvn_cell_runs_one_cholesky_per_member(self, monkeypatch, measure, alpha, factors):
        # Two members and the proposal for kl, the member and its alpha-scaled proposal for
        # renyi; renyi-div also runs the family's domain check of the mixture.
        fam = make_family("mvn")
        p, q = (fam.to_natural(dict(obj)) for obj in cli.VERIFY_PAIRS["mvn"])
        assert fam.in_natural_domain(p) and fam.in_natural_domain(q)  # keeps their factors
        second = q if M.measure_needs_pair(measure) else None
        # The oracle factors its members as one stack: count the matrices factored.
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a) or cholesky(a))
        O.oracle_measure(fam, measure, p, second, alpha)
        assert sum(len(a) if a.ndim == 3 else 1 for a in calls) == factors

    def test_mvn_member_whose_covariance_overflows_is_a_domain_error(self):
        # -2M = diag(1e-310, 1) has a factor, but its covariance overflows.
        fam = make_family("mvn")
        theta = NaturalParam(np.zeros(2), -0.5 * np.diag([1e-310, 1.0]))
        with pytest.raises(DomainError):
            M.evaluate_measure(fam, "shannon", theta)
        with pytest.raises(DomainError):
            O.oracle_measure(fam, "shannon", theta)


class TestFloatMembers:
    """Members of every family but mvn enter the oracle as floats: their source parameters are
    read without a source record, and the scaled and mixed members are formed and checked as
    floats, with the refusals a source record and Family.member make."""

    def test_verify_cells_build_no_source_record_and_no_derived_member(self, monkeypatch):
        cells = [
            (fam, measure, p, q if M.measure_needs_pair(measure) else None, alpha)
            for fam, p, q in _verify_pairs() if fam.name != "mvn"
            for measure, alpha in cli.VERIFY_CELLS
        ]
        assert len({fam.name for fam, *_ in cells}) == 5
        expected = [O.oracle_measure(*cell) for cell in cells]

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle built a source record or a derived NaturalParam")

        for cls in {type(fam) for fam, *_ in cells}:
            monkeypatch.setattr(cls, "from_natural", forbidden)
        for name in ("mix", "scaled", "_derived"):
            monkeypatch.setattr(NaturalParam, name, forbidden)
        for cell, want in zip(cells, expected):
            est = O.oracle_measure(*cell)
            assert (est.value, est.error_bound) == (want.value, want.error_bound), cell

    @pytest.mark.parametrize(
        "name, measure, t, t2, alpha, exc, message",
        [
            ("laplacian", "shannon", -5e-324, None, None, ParameterDomainError,
             "scale must be > 0, got inf"),
            ("exponential", "renyi", -1e300, None, 1e10, NaturalDomainError,
             "exponential: natural parameter outside the natural domain"),
            ("exponential", "renyi-div", -1.0, -3.0, 2.0, ConvergenceError,
             "the alpha-mixture parameter leaves the natural domain; the cross integral diverges"),
            ("exponential", "renyi-div", -1.0, -1.5, 1e308, ConvergenceError,
             "the alpha-mixture parameter leaves the natural domain; the cross integral diverges"),
            ("gaussian", "shannon", (1e300, -1e-10), None, None, ParameterDomainError,
             "mu must be finite, got inf"),
        ],
    )
    def test_refusals_keep_their_class_and_message(self, name, measure, t, t2, alpha, exc, message):
        fam = make_family(name)
        theta = NaturalParam(t)
        theta2 = None if t2 is None else NaturalParam(t2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(exc, match=f"^{re.escape(message)}$"):
                O.oracle_measure(fam, measure, theta, theta2, alpha)

    @pytest.mark.parametrize("name, measure, t, t2, alpha, message", [
        # rate 10 at alpha = 1e3: the integral, 10^1000 / 1e4, overflows at every node.
        ("exponential", "renyi", (-10.0,), None, 1000.0, "a term overflows"),
        # N(0, 1) and N(100, 1) at alpha = 1/2: the integral, e^-1250, underflows to 0.
        ("gaussian", "renyi-div", (0.0, -0.5), (100.0, -0.5), 0.5, "underflows to 0"),
        ("gaussian", "jensen", (0.0, -0.5), (100.0, -0.5), 0.5, "underflows to 0"),
    ])
    def test_a_power_integral_past_the_float_range_is_refused(self, name, measure, t, t2, alpha,
                                                               message):
        # Was an overflow warning (under warnings as errors; -inf otherwise) or a bare
        # ZeroDivisionError, and a math domain error for jensen.
        theta2 = None if t2 is None else NaturalParam(t2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match=message):
                O.oracle_measure(make_family(name), measure, NaturalParam(t), theta2, alpha)

    @pytest.mark.parametrize("measure, t, alpha", [
        ("shannon", (0.0, -1e-310), None),  # the member's variance overflows
        ("renyi", (0.0, -1.0), 1e-320),  # the alpha-scaled proposal's does
    ])
    def test_gaussian_variance_past_the_float_range_is_refused_as_a_variance(self, measure, t, alpha):
        # mu = t1 var was 0 inf there, and the refusal read a NaN mean.
        with pytest.raises(ParameterDomainError, match=r"^var must be > 0, got inf$"):
            O.oracle_measure(em.GAUSSIAN, measure, NaturalParam(t), None, alpha)


class TestDeterminismAndConfig:
    @pytest.mark.parametrize("measure", M.MEASURE_NAMES)
    def test_missing_argument_is_a_value_error(self, measure):
        p, q = _exp_theta(1.0), _exp_theta(2.0)
        alpha = 0.5 if M.measure_needs_alpha(measure) else None
        second = q if M.measure_needs_pair(measure) else None
        if alpha is not None:
            with pytest.raises(ValueError, match="needs an alpha order"):
                O.oracle_measure(em.EXPONENTIAL, measure, p, second, None, CFG)
        if second is not None:
            with pytest.raises(ValueError, match="needs a second parameter"):
                O.oracle_measure(em.EXPONENTIAL, measure, p, None, alpha, CFG)
        assert math.isfinite(O.oracle_measure(em.EXPONENTIAL, measure, p, second, alpha, CFG).value)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            em.OracleConfig(mc_samples=10)
        with pytest.raises(ValueError):
            em.OracleConfig(seed=-1)


def _verify_pairs():
    """The built-in `verify` pairs as (family, theta, theta2)."""
    for name, (p, q) in cli.VERIFY_PAIRS.items():
        fam = make_family(name)
        yield fam, fam.to_natural(dict(p)), fam.to_natural(dict(q))


def _agrees(closed, est):
    """The `verify` rule."""
    return abs(closed - est.value) <= est.error_bound + 1e-12 * (1.0 + abs(closed))


class TestJensenOrders:
    """The oracle takes the orders the closed forms take, any finite one for `jensen`,
    and rejects the others with the closed forms' DomainError."""

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.5])
    def test_matches_closed_form_on_verify_pairs(self, alpha):
        for fam, p, q in _verify_pairs():
            closed = M.evaluate_measure(fam, "jensen", p, q, alpha).value
            est = O.oracle_measure(fam, "jensen", p, q, alpha, CFG)
            assert _agrees(closed, est), (fam.name, closed, est)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_orders(self, alpha):
        with pytest.raises(ValueError, match="alpha must be a finite real"):
            O.oracle_measure(em.EXPONENTIAL, "jensen", _exp_theta(1.0), _exp_theta(1.5), alpha, CFG)

    @pytest.mark.parametrize("measure", ["renyi-div", "tsallis-div", "renyi", "tsallis"])
    def test_other_orders_stay_positive(self, measure):
        p, q = _exp_theta(1.0), _exp_theta(1.5)
        second = q if M.measure_needs_pair(measure) else None
        for alpha in (0.0, -0.5):
            with pytest.raises(DomainError):
                M.evaluate_measure(em.EXPONENTIAL, measure, p, second, alpha)
            with pytest.raises(ValueError, match="alpha must be a positive real"):
                O.oracle_measure(em.EXPONENTIAL, measure, p, second, alpha, CFG)

    BAD_ORDERS = [
        (m, a)
        for m in ("renyi", "tsallis", "renyi-div", "tsallis-div")
        for a in (0.0, -1.0, math.nan, math.inf)
    ] + [("jensen", a) for a in (math.nan, math.inf)]

    @pytest.mark.parametrize("measure, alpha", BAD_ORDERS)
    def test_bad_orders_are_domain_errors_on_both_paths(self, measure, alpha):
        p, q = _exp_theta(1.0), _exp_theta(1.5)
        second = q if M.measure_needs_pair(measure) else None
        with pytest.raises(DomainError):
            M.evaluate_measure(em.EXPONENTIAL, measure, p, second, alpha)
        with pytest.raises(DomainError):
            O.oracle_measure(em.EXPONENTIAL, measure, p, second, alpha)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf, None])
    @pytest.mark.parametrize("measure", M.MEASURE_NAMES)
    def test_both_paths_reject_an_order_alike(self, measure, alpha):
        # Every row, whether it takes an order or not: both paths take the order, or
        # both raise the same class with the same message.
        p, q = _exp_theta(1.0), _exp_theta(1.5)
        outcomes = []
        for evaluate in (M.evaluate_measure, O.oracle_measure):
            try:
                evaluate(em.EXPONENTIAL, measure, p, q, alpha)
                outcomes.append(None)
            except (ValueError, DomainError) as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]


class TestOrderOne:
    """At alpha = 1 exactly the Renyi and Tsallis values are their limits, Shannon's entropy
    and the KL divergence, in the closed forms and in the oracle alike."""

    @pytest.mark.parametrize("alpha", [1.0, np.float64(1.0)], ids=["float", "float64"])
    @pytest.mark.parametrize("measure", ["renyi", "tsallis", "renyi-div", "tsallis-div"])
    def test_verify_pairs_agree_at_alpha_one(self, measure, alpha):
        pair = M.measure_needs_pair(measure)
        for fam, p, q in _verify_pairs():
            second = q if pair else None
            closed = M.evaluate_measure(fam, measure, p, second, alpha).value
            est = O.oracle_measure(fam, measure, p, second, alpha)
            assert _agrees(closed, est), (fam.name, closed, est)
            assert est == O.oracle_measure(fam, "kl" if pair else "shannon", p, second)


def _doubled_factor(self, theta):
    """The factor of -4M (twice the precision) for a member inside the domain, None outside."""
    if not (np.isfinite(theta.vector).all() and np.isfinite(theta.matrix).all()):
        return None
    try:
        return np.linalg.cholesky(-4.0 * theta.matrix)
    except np.linalg.LinAlgError:
        return None


class TestIndependentOfF:
    """Every oracle log-density comes from source parameters, never from F or
    from what the mvn family keeps on a member for the closed forms."""

    def test_verify_cells_never_call_f(self, monkeypatch):
        cells = []
        for fam, p, q in _verify_pairs():
            for measure, alpha in cli.VERIFY_CELLS:
                second = q if M.measure_needs_pair(measure) else None
                closed = M.evaluate_measure(fam, measure, p, second, alpha).value
                cells.append((fam, measure, p, second, alpha, closed))

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle called F, grad F or a family log-density")

        for cls in {type(fam) for fam, *_ in cells}:
            for name in ("log_normalizer", "grad_log_normalizer", "log_density_batch"):
                monkeypatch.setattr(cls, name, forbidden)
        # The mvn closed forms read a member's precision factor and its moments.
        # The oracle's domain checks go through the factor, which keeps answering
        # in or out but now hands out a wrong one, and the members it is given
        # carry that one; their moments may not be read at all.
        mvn = em.families.MultivariateGaussianFamily
        monkeypatch.setattr(mvn, "_factor", _doubled_factor)

        class Poisoned:
            def __getattribute__(self, name):
                raise AssertionError("the oracle read a member's moments")

            __getitem__ = __iter__ = __len__ = __getattribute__

        def remade(fam, t):
            if t is None:
                return t
            member = fam.member(NaturalParam(t.vector, t.matrix))
            if fam.matrix_dim:
                object.__setattr__(member, "moments", Poisoned())
            return member

        for fam, measure, p, second, alpha, closed in cells:
            est = O.oracle_measure(fam, measure, remade(fam, p), remade(fam, second), alpha, CFG)
            assert _agrees(closed, est), (fam.name, measure, alpha, closed, est)


class TestNoOracleState:
    """The oracle neither keeps state on a member nor reads what the closed forms keep
    there (an mvn factor, moments and whitened pair; a Poisson window): verify-grid
    reuses its members, so a memo there would time cache hits."""

    SLOTS = ("factor", "moments", "pair")

    @staticmethod
    def _cells(q):
        """Every measure, with q as its second member if it takes one, at alpha = 0.5 if any."""
        return [
            (m, q if M.measure_needs_pair(m) else None, 0.5 if M.measure_needs_alpha(m) else None)
            for m in M.MEASURE_NAMES
        ]

    @staticmethod
    def _pair(name):
        fam = make_family(name)
        return fam, *(fam.to_natural(dict(obj)) for obj in cli.VERIFY_PAIRS[name])

    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_every_measure_leaves_the_member_slots_as_they_were(self, name):
        fam, p, q = self._pair(name)
        cells = self._cells(q)
        for measure, second, alpha in cells:  # fill what the closed forms keep
            M.evaluate_measure(fam, measure, p, second, alpha)
        missing = object()
        for measure, second, alpha in cells:
            kept = [[getattr(t, s, missing) for s in self.SLOTS] for t in (p, q)]
            O.oracle_measure(fam, measure, p, second, alpha)
            now = [[getattr(t, s, missing) for s in self.SLOTS] for t in (p, q)]
            assert all(a is b for x, y in zip(kept, now) for a, b in zip(x, y)), measure

    @pytest.mark.parametrize("name", ["poisson", "mvn"])
    def test_every_measure_ignores_the_member_slots(self, name):
        # p and q carry each other's kept state, swapped in: the oracle's bits do not move.
        fam, p, q = self._pair(name)
        _, fresh_p, fresh_q = self._pair(name)
        for theta, theta2 in ((p, q), (q, p)):
            for measure, alpha in (("renyi", 0.5), ("shannon", None)):
                M.evaluate_measure(fam, measure, theta, None, alpha)
            M.evaluate_measure(fam, "kl", theta, theta2, None)
        kept = [[getattr(t, s, None) for s in self.SLOTS] for t in (p, q)]
        for t, slots in zip((q, p), kept):
            for s, v in zip(self.SLOTS, slots):
                if v is not None:
                    object.__setattr__(t, s, v)
        for (measure, second, alpha), fresh in zip(self._cells(q), self._cells(fresh_q)):
            est = O.oracle_measure(fam, measure, p, second, alpha)
            assert est == O.oracle_measure(fam, measure, fresh_p, *fresh[1:]), measure


class TestSelfConsistency:
    def test_power_integral_route_extrapolates_to_entropy(self):
        # Renyi entropies assembled from oracle power integrals straddle the
        # directly integrated Shannon entropy as alpha crosses 1.
        theta = _exp_theta(1.3)
        h = O.oracle_measure(em.EXPONENTIAL, "shannon", theta).value
        for delta in (1e-3,):
            lo = O.oracle_measure(em.EXPONENTIAL, "renyi", theta, alpha=1 - delta, cfg=CFG).value
            hi = O.oracle_measure(em.EXPONENTIAL, "renyi", theta, alpha=1 + delta, cfg=CFG).value
            extrapolated = 0.5 * (lo + hi)
            assert extrapolated == pytest.approx(h, abs=1e-5)
            assert min(lo, hi) <= h <= max(lo, hi)

    def test_divergence_route_extrapolates_to_kl(self):
        a, b = _exp_theta(1.0), _exp_theta(1.8)
        kl = O.oracle_measure(em.EXPONENTIAL, "kl", a, b).value
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

    @staticmethod
    def _uncovered(name, pairs):
        """The verify cells of ``pairs`` whose oracle value misses 50-digit mpmath by more
        than its own error_bound, and the number of cells."""
        pytest.importorskip("mpmath")
        from test_precision import reference

        fam = make_family(name)
        uncovered, cells = [], 0
        for p, q in pairs:
            for measure, alpha in cli.VERIFY_CELLS:
                second = q if M.measure_needs_pair(measure) else None
                est = O.oracle_measure(fam, measure, p, second, alpha)
                want = reference(name, measure, p, second, alpha)
                cells += 1
                if not abs(est.value - want) <= est.error_bound:
                    uncovered.append((measure, alpha, est, want))
        return uncovered, cells

    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_oracle_bound_covers_mpmath_on_every_verify_cell(self, name):
        # `verify`'s pair in both orders and six seeded pairs: 248 cells a family.
        fam = make_family(name)
        p, q = (fam.to_natural(dict(obj)) for obj in cli.VERIFY_PAIRS[name])
        rng = np.random.default_rng(11)
        pairs = [(p, q), (q, p), *(random_theta_pair(name, rng) for _ in range(6))]
        uncovered, cells = self._uncovered(name, pairs)
        assert cells == 248 and not uncovered, uncovered

    def test_oracle_bound_covers_mpmath_at_extreme_bernoulli_p(self):
        # Every ordered pair of p in {1e-12, 1e-6, 0.5, 1 - 1e-6, 1 - 1e-12}: 775 cells.
        ps = (1e-12, 1e-6, 0.5, 1.0 - 1e-6, 1.0 - 1e-12)
        members = [em.BERNOULLI.to_natural(em.BernoulliParams(p=x)) for x in ps]
        uncovered, cells = self._uncovered("bernoulli", [(p, q) for p in members for q in members])
        assert cells == 775 and not uncovered, uncovered

    @pytest.mark.parametrize("ps", [(1e-12, 1.0 - 1e-12), (1.0 - 1e-12, 1e-12)])
    def test_assembled_bound_carries_its_last_rounding(self, ps):
        # The coefficient's bound is ~1e-20 here, and sqrt(1 - BC) rounds once more: the
        # value is 0.9999990000050304 against 50-digit 0.9999990000050305, one ulp away.
        pytest.importorskip("mpmath")
        from test_precision import reference

        p, q = (em.BERNOULLI.to_natural(em.BernoulliParams(p=x)) for x in ps)
        est = O.oracle_measure(em.BERNOULLI, "hellinger", p, q)
        want = reference("bernoulli", "hellinger", p, q, None)
        assert est.value != want and abs(est.value - want) <= est.error_bound < 1e-15, (est, want)


class TestGaussianMembersFarFromOrigin:
    """The oracle recovers each Gaussian member as var = -1 / (2 t2), mu = t1 var,
    which carry up to eps var and 2 eps |mu| of rounding; the bound carries
    what that moves the value by, so far from the origin it still holds."""

    @staticmethod
    def _pair(shift):
        return (em.GAUSSIAN.to_natural(em.GaussianParams(mu=shift + d, var=v))
                for d, v in ((0.3, 0.7), (1.1, 1.3)))

    @pytest.mark.parametrize("shift", [1e5, 1e7])
    def test_every_verify_cell_passes(self, shift):
        p, q = self._pair(shift)
        failed = []
        for measure, alpha in cli.VERIFY_CELLS:
            second = q if M.measure_needs_pair(measure) else None
            closed = M.evaluate_measure(em.GAUSSIAN, measure, p, second, alpha).value
            est = O.oracle_measure(em.GAUSSIAN, measure, p, second, alpha)
            if abs(closed - est.value) > est.error_bound + 1e-12 * (1.0 + abs(closed)):
                failed.append((measure, alpha, closed, est))
        assert not failed

    @pytest.mark.parametrize("shift", [1e5, 1e7])
    def test_kl_bound_covers_mpmath(self, shift):
        mpmath = pytest.importorskip("mpmath")
        p, q = self._pair(shift)
        est = O.oracle_measure(em.GAUSSIAN, "kl", p, q)
        with mpmath.workdps(50):
            # The members the natural parameters encode, and their KL divergence in 50 digits.
            (m1, v1), (m2, v2) = (
                (t1 * v, v)
                for t1, v in ((mpmath.mpf(t1), -1 / (2 * mpmath.mpf(t2)))
                              for t1, t2 in (t.vector for t in (p, q)))
            )
            want = float((mpmath.log(v2 / v1) + (v1 + (m1 - m2) ** 2) / v2 - 1) / 2)
        assert abs(est.value - want) <= est.error_bound, (est, want)

    def test_member_term_is_negligible_near_the_origin(self, monkeypatch):
        # On `verify`'s built-in pairs (means 0 and 0.5, or (0, 0) and (0.4, -0.3))
        # the term stays at the rounding level, so the check keeps its edge there.
        cubature = O._cubature
        for name in ("gaussian", "mvn"):
            fam = make_family(name)
            p, q = (fam.to_natural(dict(obj)) for obj in cli.VERIFY_PAIRS[name])

            def bounds():
                return [
                    O.oracle_measure(fam, m, p, q if M.measure_needs_pair(m) else None, a).error_bound
                    for m, a in cli.VERIFY_CELLS
                ]

            with_term = bounds()
            monkeypatch.setattr(O, "_cubature", lambda i, r, us, n, moves=None: cubature(i, r, us, n))
            terms = [b - b0 for b, b0 in zip(with_term, bounds())]
            monkeypatch.setattr(O, "_cubature", cubature)
            assert max(terms) > 0.0 and all(0.0 <= t <= 1e-13 for t in terms), name


class TestMvnMembersFarFromOrigin:
    """The mvn oracle recovers each mean as cov v through a factor of -2M, which
    carries a few eps |cov| |L| |L^T| |mu| of rounding; the bound carries what that
    moves the value by, so `verify`'s pair shifted far from the origin still passes."""

    @pytest.mark.parametrize("shift", [1e5, 1e7])
    def test_every_verify_cell_passes_within_a_bound_that_covers_mpmath(self, shift):
        pytest.importorskip("mpmath")
        from test_precision import reference

        fam = make_family("mvn")
        p, q = (
            fam.to_natural(em.MultivariateGaussianParams(mu=np.add(obj["mu"], shift), cov=obj["sigma"]))
            for obj in cli.VERIFY_PAIRS["mvn"]
        )
        failed, uncovered = [], []
        for measure, alpha in cli.VERIFY_CELLS:
            second = q if M.measure_needs_pair(measure) else None
            closed = M.evaluate_measure(fam, measure, p, second, alpha).value
            est = O.oracle_measure(fam, measure, p, second, alpha)
            if not _agrees(closed, est):
                failed.append((measure, alpha, closed, est))
            if abs(est.value - reference("mvn", measure, p, second, alpha)) > est.error_bound:
                uncovered.append((measure, alpha, est))
        assert not failed and not uncovered, (failed, uncovered)


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

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
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
        # Gauss-Laguerre rules of 1 and 2 nodes, Gauss-Hermite rules of 2 and 3.
        for name, nodes in (("exponential", 3), ("laplacian", 3), ("gaussian", 5)):
            fam = make_family(name)
            p, q = random_theta_pair(name, np.random.default_rng(4))
            est = O.oracle_measure(fam, "kl", p, q)
            assert (est.method, est.evaluations) == (O.CUBATURE, nodes)
        coin = em.BERNOULLI.to_natural(em.BernoulliParams(p=0.3))
        assert O.oracle_measure(em.BERNOULLI, "shannon", coin).evaluations == 2
        poisson = O.oracle_measure(em.POISSON, "shannon", em.POISSON.to_natural(em.PoissonParams(rate=100.0)))
        assert 150 < poisson.evaluations < 300
        for dim, nodes in ((2, 9), (5, 21)):
            fam, p, _ = _mvn_pair(dim, np.random.default_rng(3))
            assert O.oracle_i_alpha_self(fam, p, 1.0).evaluations == nodes

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_rules_are_exact_to_degree_three(self, dim):
        eye = np.eye(dim)
        for origin in (False, True):
            z, log_w = O._symmetric_rule(dim, origin)
            w = np.exp(log_w)
            assert z.shape == (2 * dim + origin, dim) and np.all(w > 0)
            assert w.sum() == pytest.approx(1.0, abs=1e-15)
            np.testing.assert_allclose(w @ z, 0.0, atol=1e-15)
            np.testing.assert_allclose(z.T @ (w[:, None] * z), eye, atol=1e-14)
            np.testing.assert_allclose(w @ z**3, 0.0, atol=1e-14)
            np.testing.assert_allclose((z**2).T @ (w[:, None] * z), 0.0, atol=1e-14)


class TestWrongLogNormalizer:
    """The mvn closed forms read each member's factor and moments, and the oracle
    builds log-densities from a factor of its own, so an error in what the closed
    forms read fails `verify`; F is tied to the closed forms in test_families."""

    @staticmethod
    def _assert_every_mvn_cell_fails(capsys):
        assert cli.run(["verify", "--family", "mvn"]) == 1
        rows = json.loads(capsys.readouterr().out)["results"]
        assert len(rows) == 31
        assert [r["measure"] for r in rows if r["pass"]] == []
        fam, p, _ = _mvn_pair(2, np.random.default_rng(5))
        est = O.oracle_i_alpha_self(fam, p, 1.0)
        assert abs(est.value - 1.0) <= est.error_bound

    def test_one_percent_log_det_error_fails_every_mvn_cell(self, monkeypatch, capsys):
        mvn = em.families.MultivariateGaussianFamily
        right = mvn._moments

        def wrong(self, chol, vector):
            # log det(-2M) 1% too large in magnitude, with the covariance and
            # factor of the precision s (-2M) that has it, s = exp(0.01 log det / d).
            mean, cov, inv_chol, log_det = right(self, chol, vector)
            s = math.exp(0.01 * log_det / self.dim)
            return mean, cov / s, inv_chol / math.sqrt(s), 1.01 * log_det

        monkeypatch.setattr(mvn, "_moments", wrong)
        self._assert_every_mvn_cell_fails(capsys)

    def test_doubled_precision_factor_fails_every_mvn_cell(self, monkeypatch, capsys):
        # The member's kept factor is that of -4M: the oracle, which factors -2M
        # itself, still integrates the right densities.
        monkeypatch.setattr(em.families.MultivariateGaussianFamily, "_factor", _doubled_factor)
        self._assert_every_mvn_cell_fails(capsys)

    def test_one_percent_log_det_error_in_f_breaks_its_tie_to_the_gap(self, monkeypatch):
        # F itself no longer reaches a closed form; a wrong F shows as a gap that
        # no longer equals F(a) - F(b) - <a - b, grad F(b)>.
        mvn = em.families.MultivariateGaussianFamily
        right = mvn.log_normalizer

        def wrong(self, theta):
            # F's log-det term, -log det(-2M) / 2, made 1% too large in magnitude.
            log_det = self.member(theta).moments[3]
            return right(self, theta) - 0.005 * log_det

        monkeypatch.setattr(mvn, "log_normalizer", wrong)
        fam, p, q = _mvn_pair(2, np.random.default_rng(5))
        step = NaturalParam(np.subtract(p.vector, q.vector), p.matrix - q.matrix)
        from_f = fam.log_normalizer(p) - fam.log_normalizer(q)
        from_f -= pairing(step, fam.grad_log_normalizer(q))
        assert abs(fam._gap(p, q) - from_f) > 1e-6 * abs(from_f)
