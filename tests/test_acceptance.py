"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.

Criteria:
  1  closed-form reproduction of the worked examples at 1e-12
  2  closed form vs oracle over a randomized grid, all six families
  3  limit behavior of the alpha-indexed measures around alpha = 1
  4  exact identities (conversions, Bhattacharyya bridge, Jensen symmetry,
     cross-entropy decomposition)
  5  gradient and moment checks for every family
  6  arbitration of two circulating formula variants with display errors
  7  plug-in estimation lands inside calibrated 4-sigma bands
  8  CLI verification grid, exit codes, and byte-identical reports
"""

import json
import math
import time

import numpy as np

import efmeasures as em
from efmeasures import measures as M
from efmeasures import oracle as O
from efmeasures.estimation import SampleSet, mle, plugin_measure
from efmeasures.errors import DegenerateSampleError

from conftest import (
    ALL_FAMILY_NAMES,
    grad_check,
    make_family,
    random_source,
    random_theta_pair,
    run_cli,
)


def _finish(num: int, label: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance] criterion {num} ({label}): {status}", flush=True)
    assert not failures, f"criterion {num} failed:\n  " + "\n  ".join(failures)


def _check(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def test_criterion_1_worked_example_reproduction():
    failures: list[str] = []

    gauss = em.GAUSSIAN
    theta = gauss.to_natural(em.GaussianParams(mu=0.0, var=1.0))
    got = M.evaluate_measure(gauss, "renyi", theta, alpha=2.0).value
    want = 0.5 * math.log(2 * math.pi) + 0.5 * math.log(2.0)
    _check(failures, abs(got - want) < 1e-12, f"gaussian renyi: {got} vs {want}")

    exp = em.EXPONENTIAL
    a = exp.to_natural(em.ExponentialParams(rate=1.0))
    b = exp.to_natural(em.ExponentialParams(rate=2.0))
    got = M.evaluate_measure(exp, "renyi-div", a, b, 0.5).value
    want = 2.0 * math.log(1.5 / math.sqrt(2.0))
    _check(failures, abs(got - want) < 1e-12, f"exponential renyi divergence: {got} vs {want}")

    got = M.evaluate_measure(exp, "shannon", a).value
    _check(failures, abs(got - 1.0) < 1e-12, f"unit exponential entropy: {got} vs 1")

    mvn = em.get_family("mvn", 2)
    theta_m = mvn.to_natural(em.MultivariateGaussianParams(mu=np.zeros(2), cov=np.eye(2)))
    closed = M.evaluate_measure(mvn, "renyi", theta_m, alpha=2.0).value
    want = math.log(4.0 * math.pi)
    _check(failures, abs(closed - want) < 1e-12, f"mvn renyi: {closed} vs {want}")

    start = time.perf_counter()
    est = O.oracle_measure(mvn, "renyi", theta_m, alpha=2.0)
    elapsed = time.perf_counter() - start
    tol = est.error_bound + 1e-12 * (1.0 + abs(closed))
    _check(failures, abs(closed - est.value) <= tol,
           f"mvn {est.method} cross-check: {closed} vs {est.value} (tol {tol})")
    _check(failures, elapsed < 10.0, f"mvn {est.method} took {elapsed:.1f}s (budget 10s)")

    _finish(1, "worked examples", failures)


def test_criterion_2_oracle_equivalence_grid():
    failures: list[str] = []
    cfg = em.OracleConfig()
    grid_measures = ("renyi", "tsallis", "shannon", "kl", "bhattacharyya", "hellinger")
    alphas = (0.5, 0.9, 2.0)

    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for name in ALL_FAMILY_NAMES:
        fam = make_family(name)
        for pair_index in range(3):
            theta, theta2 = random_theta_pair(name, rng)
            for measure in grid_measures:
                measure_alphas = alphas if M.measure_needs_alpha(measure) else (None,)
                for alpha in measure_alphas:
                    second = theta2 if M.measure_needs_pair(measure) else None
                    closed = M.evaluate_measure(fam, measure, theta, second, alpha).value
                    est = O.oracle_measure(fam, measure, theta, second, alpha, cfg)
                    if est.method == O.DISCRETE_SUM:
                        tol = max(1e-9, est.error_bound)
                    else:
                        tol = est.error_bound + 1e-12 * (1.0 + abs(closed))
                    _check(
                        failures,
                        abs(closed - est.value) <= tol,
                        f"{name}[{pair_index}] {measure} alpha={alpha}: "
                        f"closed {closed} vs oracle {est.value} (tol {tol})",
                    )
    elapsed = time.perf_counter() - start
    _check(failures, elapsed < 60.0, f"grid took {elapsed:.1f}s (budget 60s)")

    _finish(2, "oracle equivalence grid", failures)


def _interpolated(value, alpha: float) -> float:
    """The line through value(1 - 1e-4) and value(1 + 1e-4), at alpha."""
    lo, hi = value(1 - 1e-4), value(1 + 1e-4)
    return lo + (hi - lo) * (alpha - (1 - 1e-4)) / 2e-4


def test_criterion_3_limit_suite():
    failures: list[str] = []
    for name in ALL_FAMILY_NAMES:
        fam = make_family(name)
        rng = np.random.default_rng(42)
        for draw in range(5):
            theta = fam.to_natural(random_source(name, rng))
            h = M.evaluate_measure(fam, "shannon", theta).value
            for sign in (+1.0, -1.0):
                e3 = abs(M.evaluate_measure(fam, "renyi", theta, alpha=1 + sign * 1e-3).value - h)
                e4 = abs(M.evaluate_measure(fam, "renyi", theta, alpha=1 + sign * 1e-4).value - h)
                ratio = e4 / e3
                _check(failures, 0.05 <= ratio <= 0.2,
                       f"{name}[{draw}] entropy shrink ratio {ratio} at sign {sign}")
            # Next to alpha = 1 the one closed form lies on the line through its
            # values at 1 -+ 1e-4, to the line's own curvature error.
            near = M.evaluate_measure(fam, "renyi", theta, alpha=1 + 5e-7).value
            line = _interpolated(
                lambda a: M.evaluate_measure(fam, "renyi", theta, alpha=a).value, 1 + 5e-7
            )
            _check(failures, abs(near - line) <= 1e-7 * abs(line),
                   f"{name}[{draw}] entropy at 1 + 5e-7 vs interpolation gap {abs(near - line)}")

            theta_b = fam.to_natural(random_source(name, rng))
            kl = M.evaluate_measure(fam, "kl", theta, theta_b).value
            for sign in (+1.0, -1.0):
                d3, d4 = (
                    abs(M.evaluate_measure(fam, "renyi-div", theta, theta_b, 1 + sign * h).value - kl)
                    for h in (1e-3, 1e-4)
                )
                ratio = d4 / d3
                _check(failures, 0.05 <= ratio <= 0.2,
                       f"{name}[{draw}] divergence shrink ratio {ratio} at sign {sign}")
            near = M.evaluate_measure(fam, "renyi-div", theta, theta_b, 1 - 5e-7).value
            line = _interpolated(
                lambda a: M.evaluate_measure(fam, "renyi-div", theta, theta_b, a).value, 1 - 5e-7
            )
            _check(failures, abs(near - line) <= 1e-7 * abs(line),
                   f"{name}[{draw}] divergence at 1 - 5e-7 vs interpolation gap {abs(near - line)}")

    _finish(3, "limit suite", failures)


def test_criterion_4_identity_suite():
    failures: list[str] = []
    for name in ALL_FAMILY_NAMES:
        fam = make_family(name)
        rng = np.random.default_rng(404)
        for draw in range(4):
            theta, theta2 = random_theta_pair(name, rng)

            coeff = M.evaluate_measure(fam, "bhattacharyya", theta, theta2).value
            half_div = M.evaluate_measure(fam, "renyi-div", theta, theta2, 0.5).value
            _check(failures, abs(half_div + 2.0 * math.log(coeff)) <= 1e-12,
                   f"{name}[{draw}] bhattacharyya bridge")

            hell = M.evaluate_measure(fam, "hellinger", theta, theta2).value
            _check(failures, abs(hell * hell - (1.0 - coeff)) <= 1e-12,
                   f"{name}[{draw}] hellinger square")

            for alpha in (0.2, 0.5, 0.8, 1.5):
                lhs = M.evaluate_measure(fam, "jensen", theta, theta2, alpha).value
                rhs = M.evaluate_measure(fam, "jensen", theta2, theta, 1.0 - alpha).value
                _check(failures, abs(lhs - rhs) <= 1e-12,
                       f"{name}[{draw}] jensen symmetry at alpha={alpha}")

            gap = (
                M.evaluate_measure(fam, "cross-entropy", theta, theta2).value
                - M.evaluate_measure(fam, "shannon", theta).value
                - M.evaluate_measure(fam, "kl", theta, theta2).value
            )
            _check(failures, abs(gap) <= 1e-10,
                   f"{name}[{draw}] cross-entropy decomposition gap {gap}")

            for alpha in (0.5, 2.0):
                h_r = M.evaluate_measure(fam, "renyi", theta, alpha=alpha).value
                h_t = M.evaluate_measure(fam, "tsallis", theta, alpha=alpha).value
                converted = math.expm1((1.0 - alpha) * h_r) / (1.0 - alpha)
                _check(failures, abs(converted - h_t) <= 1e-12,
                       f"{name}[{draw}] entropy conversion at alpha={alpha}")

    _finish(4, "identity suite", failures)


def test_criterion_5_gradient_and_moment_suite():
    failures: list[str] = []
    n = 10**6
    for name in ALL_FAMILY_NAMES:
        fam = make_family(name)
        rng = np.random.default_rng(515)
        for draw in range(3):
            theta = fam.to_natural(random_source(name, rng))
            gap = grad_check(fam, theta, 1e-5)
            _check(failures, gap < 1e-6, f"{name}[{draw}] finite differences gap {gap}")

        theta = fam.to_natural(random_source(name, rng))
        draws = fam.sample(theta, n, seed=600 + len(name))
        stats = fam.sufficient_stat_batch(draws)
        mean = stats.mean(axis=0)
        se = stats.std(axis=0, ddof=1) / math.sqrt(n)
        target = fam.grad_log_normalizer(theta).flat()
        gap = np.abs(mean - target)
        _check(failures, bool(np.all(gap <= 4.0 * se + 1e-12)),
               f"{name} moment check: gap {gap} vs 4se {4 * se}")

    _finish(5, "gradient and moment suite", failures)


def test_criterion_6_display_discrepancy_arbitration():
    """Two formula variants in circulation disagree with the generic closed
    forms (a sign flip on the rate term of the exponential-distribution Renyi
    entropy, and a Tsallis display with the wrong base and a dropped -1 term);
    the numerical oracle sides with the generic forms."""
    failures: list[str] = []
    cfg = em.OracleConfig()

    for rate in (0.5, 2.3):
        theta = em.EXPONENTIAL.to_natural(em.ExponentialParams(rate=rate))
        for alpha in (0.5, 2.0):
            implemented = M.evaluate_measure(em.EXPONENTIAL, "renyi", theta, alpha=alpha).value
            generic = -math.log(rate) - math.log(alpha) / (1.0 - alpha)
            displayed = math.log(rate) - math.log(alpha) / (1.0 - alpha)
            est = O.oracle_measure(em.EXPONENTIAL, "renyi", theta, alpha=alpha, cfg=cfg)
            _check(failures, abs(implemented - generic) <= 1e-12,
                   f"exponential renyi mismatch with generic form at rate={rate}")
            _check(failures, abs(implemented - est.value) <= 1e-7,
                   f"oracle disagrees with generic exponential renyi at rate={rate}")
            _check(failures, abs(displayed - est.value) > 0.1,
                   f"sign-flipped display unexpectedly matches oracle at rate={rate}")

    for var in (1.0, 2.0):
        theta = em.GAUSSIAN.to_natural(em.GaussianParams(mu=0.3, var=var))
        for alpha in (0.5, 2.0):
            implemented = M.evaluate_measure(em.GAUSSIAN, "tsallis", theta, alpha=alpha).value
            power = (2.0 * math.pi * var) ** ((1.0 - alpha) / 2.0) / math.sqrt(alpha)
            generic = (power - 1.0) / (1.0 - alpha)
            displayed = (2.0 * math.pi * math.e * var) ** ((1.0 - alpha) / 2.0) / (1.0 - alpha)
            est = O.oracle_measure(em.GAUSSIAN, "tsallis", theta, alpha=alpha, cfg=cfg)
            _check(failures, abs(implemented - generic) <= 1e-12,
                   f"gaussian tsallis mismatch with generic form at var={var}")
            _check(failures, abs(implemented - est.value) <= 1e-7,
                   f"oracle disagrees with generic gaussian tsallis at var={var}")
            _check(failures, abs(displayed - est.value) > 0.01,
                   f"truncated display unexpectedly matches oracle at var={var}")

    _finish(6, "display discrepancy arbitration", failures)


# 4-sigma plug-in KL bands at n = 1e5, calibrated from 40 independent seed
# pairs per family (observed spreads: 5.3e-3, 4.3e-3, 2.6e-3, 3.0e-3,
# 2.6e-3, 2.3e-3).
PLUGIN_KL_CASES = {
    "exponential": (em.ExponentialParams(1.0), em.ExponentialParams(2.0), 0.022),
    "poisson": (em.PoissonParams(2.0), em.PoissonParams(1.0), 0.018),
    "bernoulli": (em.BernoulliParams(0.3), em.BernoulliParams(0.6), 0.011),
    "gaussian": (em.GaussianParams(0.0, 1.0), em.GaussianParams(1.0, 1.5), 0.013),
    "laplacian": (em.LaplacianParams(1.0), em.LaplacianParams(2.0), 0.011),
    "mvn": (
        em.MultivariateGaussianParams([0.0, 0.0], [[1.0, 0.2], [0.2, 0.8]]),
        em.MultivariateGaussianParams([0.5, -0.3], [[1.2, -0.1], [-0.1, 1.0]]),
        0.010,
    ),
}


def test_criterion_7_plugin_estimation():
    failures: list[str] = []
    n = 10**5
    for name, (src_p, src_q, band) in PLUGIN_KL_CASES.items():
        fam = make_family(name)
        theta = fam.to_natural(src_p)
        theta2 = fam.to_natural(src_q)
        true_kl = M.evaluate_measure(fam, "kl", theta, theta2).value
        sample_p = SampleSet(fam, fam.sample(theta, n, seed=1010))
        sample_q = SampleSet(fam, fam.sample(theta2, n, seed=5050))
        got = plugin_measure("kl", mle(sample_p), mle(sample_q)).value
        _check(failures, abs(got - true_kl) <= band,
               f"{name} plug-in KL {got} vs {true_kl} (band {band})")

    try:
        plugin_measure("shannon", mle(SampleSet(em.BERNOULLI, [1, 1, 1, 1, 1])))
        failures.append("all-ones Bernoulli sample did not raise")
    except DegenerateSampleError:
        pass

    _finish(7, "plug-in estimation", failures)


def test_criterion_8_cli_verification():
    failures: list[str] = []

    code, out, _ = run_cli("verify")
    _check(failures, code == 0, f"full verification grid exited {code}")
    if code == 0:
        report = json.loads(out)
        _check(failures, report["all_pass"] is True, "grid reported failures")
        families_seen = {row["family"] for row in report["results"]}
        _check(failures, len(families_seen) == 6,
               f"grid covered {sorted(families_seen)}")
        alphas_seen = {row["alpha"] for row in report["results"] if row["alpha"] is not None}
        _check(failures, alphas_seen == {0.5, 0.9, 0.9999, 1.0001, 2.0},
               f"alpha grid was {sorted(alphas_seen)}")

    code, _, err = run_cli(
        "entropy", "--family", "gaussian", "--params", '{"mu":0,"var":-1}',
        "--measure", "shannon",
    )
    _check(failures, code == 3, f"out-of-domain parameter exited {code}")
    _check(failures, "var" in err, "error message does not name the field")

    golden_args = ("verify", "--family", "mvn")
    _, first, _ = run_cli(*golden_args)
    _, second, _ = run_cli(*golden_args)
    _check(failures, first == second and first.strip(), "reports are not byte-identical")

    _finish(8, "cli verification", failures)
