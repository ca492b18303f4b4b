"""Closed-form MLE and plug-in measures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import efmeasures as em
from efmeasures import estimation as E
from efmeasures import measures as M
from efmeasures.errors import DegenerateSampleError, SupportError
from efmeasures.estimation import SampleSet, mle, plugin_measure

from conftest import ALL_FAMILY_NAMES, make_family, random_source


class TestSampleSet:
    def test_rejects_out_of_support_observations(self):
        with pytest.raises(SupportError):
            SampleSet(em.EXPONENTIAL, [1.0, -0.5])
        with pytest.raises(SupportError):
            SampleSet(em.POISSON, [1, 2.5])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SampleSet(em.EXPONENTIAL, [])

    def test_mvn_shape(self):
        fam = em.get_family("mvn", 2)
        s = SampleSet(fam, [[0.0, 1.0], [1.0, 2.0], [2.0, 0.0]])
        assert s.observations.shape == (3, 2)
        assert len(s) == 3


class TestMle:
    def test_exponential_inverse_mean(self):
        est = mle(SampleSet(em.EXPONENTIAL, [1.0, 3.0]))
        assert est.theta.vector[0] == pytest.approx(-0.5, rel=1e-14)
        assert em.EXPONENTIAL.from_natural(est.theta).rate == pytest.approx(0.5, rel=1e-14)

    def test_poisson_log_mean(self):
        est = mle(SampleSet(em.POISSON, [2, 3, 4]))
        assert est.theta.vector[0] == pytest.approx(math.log(3.0), rel=1e-14)

    def test_gaussian_moments(self):
        xs = [0.0, 1.0, 2.0]
        est = mle(SampleSet(em.GAUSSIAN, xs))
        params = em.GAUSSIAN.from_natural(est.theta)
        assert params.mu == pytest.approx(1.0, rel=1e-13)
        assert params.var == pytest.approx(np.var(xs), rel=1e-12)

    def test_all_ones_bernoulli_is_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            mle(SampleSet(em.BERNOULLI, [1, 1, 1, 1]))

    def test_constant_gaussian_sample_is_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            mle(SampleSet(em.GAUSSIAN, [2.0, 2.0, 2.0]))

    def test_all_zero_poisson_is_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            mle(SampleSet(em.POISSON, [0, 0, 0]))

    def test_mvn_needs_enough_observations(self):
        fam = em.get_family("mvn", 2)
        rng = np.random.default_rng(0)
        with pytest.raises(DegenerateSampleError):
            mle(SampleSet(fam, rng.normal(size=(1, 2))))
        with pytest.raises(DegenerateSampleError):
            mle(SampleSet(fam, rng.normal(size=(2, 2))))
        est = mle(SampleSet(fam, rng.normal(size=(3, 2))))
        assert fam.in_natural_domain(est.theta)

    @pytest.mark.parametrize("name, x", [("exponential", 2.0), ("laplacian", -3.0), ("poisson", 4)])
    def test_single_interior_observation_is_fixed_point(self, name, x):
        fam = make_family(name)
        est = mle(SampleSet(fam, [x]))
        grad = fam.grad_log_normalizer(est.theta)
        fam.require_support(x)
        stat = fam.sufficient_stat_batch(np.asarray([x]))[0]
        assert np.allclose(grad.flat(), stat, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("name", ALL_FAMILY_NAMES)
    def test_consistency_over_growing_samples(self, name):
        fam = make_family(name)
        rng = np.random.default_rng(77)
        src = random_source(name, rng)
        theta_true = fam.to_natural(src)
        errors = []
        for i, n in enumerate((10**3, 10**4, 10**5)):
            draws = fam.sample(theta_true, n, seed=900 + i)
            est = mle(SampleSet(fam, draws))
            errors.append(float(np.max(np.abs(est.theta.flat() - theta_true.flat()))))
            if n == 10**5:
                # mean sufficient statistic within 4 standard errors of its target
                stats = fam.sufficient_stat_batch(draws)
                se = stats.std(axis=0, ddof=1) / math.sqrt(n)
                gap = np.abs(est.mean_sufficient_stat.flat() - fam.grad_log_normalizer(theta_true).flat())
                assert np.all(gap <= 4.0 * se + 1e-12)
        # error non-increasing in at least 2 of the 3 ordered size pairs
        pairs = ((0, 1), (1, 2), (0, 2))
        assert sum(errors[j] <= errors[i] for i, j in pairs) >= 2

    # Statistics beyond the float range: each gave a RuntimeWarning before an error whose
    # class depended on the family (DegenerateSampleError, ParameterDomainError, OverflowError).
    @pytest.mark.parametrize(
        "name, obs",
        [
            ("gaussian", [1e200, -1e200, 3.0]),
            ("mvn", [[1e200, 1.0], [-1e200, 2.0], [3.0, 4.0]]),
            ("gaussian", [1e308, 1e308, -1e308]),
        ],
        ids=["gaussian-square", "mvn-square", "gaussian-sum"],
    )
    def test_statistics_beyond_the_float_range_raise_overflow(self, name, obs):
        with pytest.raises(OverflowError):
            mle(SampleSet(make_family(name), obs))

    def test_mvn_fit_factors_each_matrix_once(self, monkeypatch):
        # The parameter record's check factors the covariance, and grad_inverse's to_natural
        # makes the member from that factor alone. The estimate command's report adds
        # from_natural's record: 2 in all, from 5.
        fam = make_family("mvn")
        sample = SampleSet(fam, np.random.default_rng(4).normal(size=(50, 2)))
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a) or cholesky(a))
        est = mle(sample)
        assert len(calls) == 1
        fam.from_natural(est.theta)
        assert len(calls) == 2


def _fsum_means(stats: np.ndarray) -> np.ndarray:
    n = stats.shape[0]
    return np.asarray([math.fsum(c) / n for c in stats.T.tolist()])


_SIGNED = st.builds(
    lambda negative, x: -x if negative else x,
    st.booleans(),
    st.floats(min_value=1e-320, max_value=1e300),  # subnormals too
)
_VALUES = st.one_of(_SIGNED, st.sampled_from([0.0, -0.0, 5e-324, 2.0**-1022, 2.0**53, 1e300]))
_ROWS = st.one_of(
    st.integers(1, 200),
    st.sampled_from([1, 2, E._SUM_ROWS - 1, E._SUM_ROWS, E._SUM_ROWS + 1]),
)


@st.composite
def _stat_arrays(draw):
    """(n, c) arrays drawn from a small pool of values: repeats, and optionally each of
    the first rows' negation in the last rows (x and -x), in columns of any layout."""
    n, c = draw(_ROWS), draw(st.integers(1, 12))
    pool = np.array(draw(st.lists(_VALUES, min_size=1, max_size=12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stats = pool[rng.integers(0, pool.size, (n, c))]
    if draw(st.booleans()):
        half = n // 2
        stats[n - half :] = -stats[:half]
    return stats if draw(st.booleans()) else np.asfortranarray(stats)


@settings(max_examples=150, deadline=None)
@given(stats=_stat_arrays())
def test_column_means_are_fsum_bit_for_bit(stats):
    want = _fsum_means(stats)
    got = E._exact_column_means(stats)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


@settings(max_examples=40, deadline=None)
@given(
    stats=_stat_arrays(),
    column=st.integers(0, 11),
    big=st.lists(st.floats(min_value=1e307, max_value=1.7e308), min_size=1, max_size=4),
)
def test_a_column_sum_beyond_the_float_range_raises_overflow(stats, column, big):
    # One column of values of one sign, at least 18 of them of 1e307 or more: its sum
    # passes the largest float.
    stats = np.array(stats)
    if stats.shape[0] < 18:
        stats = np.resize(stats, (18, stats.shape[1]))
    col = column % stats.shape[1]
    stats[:, col] = np.resize(np.array(big), stats.shape[0])
    with pytest.raises(OverflowError):
        _fsum_means(stats)
    with pytest.raises(OverflowError):
        E._exact_column_means(stats)


class TestPluginMeasures:
    def test_shannon_plugin_near_truth(self):
        fam = em.EXPONENTIAL
        theta = fam.to_natural(em.ExponentialParams(rate=2.0))
        sample = SampleSet(fam, fam.sample(theta, 10**5, seed=3))
        res = plugin_measure("shannon", mle(sample))
        assert res.value == pytest.approx(1.0 - math.log(2.0), abs=0.02)

    def test_kl_of_identical_samples_is_zero(self):
        fam = em.GAUSSIAN
        theta = fam.to_natural(em.GaussianParams(mu=0.0, var=1.0))
        sample = SampleSet(fam, fam.sample(theta, 2000, seed=8))
        res = plugin_measure("kl", mle(sample), mle(sample))
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_renyi_divergence_plugin_near_truth(self):
        fam = em.EXPONENTIAL
        a = fam.to_natural(em.ExponentialParams(rate=1.0))
        b = fam.to_natural(em.ExponentialParams(rate=2.0))
        s_a = SampleSet(fam, fam.sample(a, 10**5, seed=5))
        s_b = SampleSet(fam, fam.sample(b, 10**5, seed=6))
        res = plugin_measure("renyi-div", mle(s_a), mle(s_b), alpha=0.5)
        assert res.value == pytest.approx(2.0 * math.log(1.5 / math.sqrt(2.0)), abs=0.01)

    def test_plugin_is_exactly_closed_form_at_mle(self):
        fam = em.LAPLACIAN
        theta = fam.to_natural(em.LaplacianParams(scale=1.5))
        sample = SampleSet(fam, fam.sample(theta, 5000, seed=21))
        res = plugin_measure("shannon", mle(sample))
        assert res.value == M.evaluate_measure(fam, "shannon", mle(sample).theta).value

    def test_family_mismatch_rejected(self):
        s1 = SampleSet(em.EXPONENTIAL, [1.0, 2.0])
        s2 = SampleSet(em.LAPLACIAN, [1.0, -2.0])
        with pytest.raises(ValueError):
            plugin_measure("kl", mle(s1), mle(s2))

    def test_missing_second_sample_rejected(self):
        s1 = SampleSet(em.EXPONENTIAL, [1.0, 2.0])
        with pytest.raises(ValueError):
            plugin_measure("kl", mle(s1))

    def test_degenerate_errors_propagate(self):
        s1 = SampleSet(em.BERNOULLI, [1, 1, 1])
        with pytest.raises(DegenerateSampleError):
            plugin_measure("shannon", mle(s1))
