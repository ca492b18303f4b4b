"""Closed-form MLE and plug-in measures."""

import math

import numpy as np
import pytest

import efmeasures as em
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
        stat = fam.sufficient_stat(x)
        assert np.allclose(grad.flat(), stat.flat(), rtol=1e-9, atol=1e-12)

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
