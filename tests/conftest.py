"""Shared test helpers: family iteration, in-domain parameter generators, and the
composite pairing and finite-difference check that tie F and grad F together.

Pair generators keep the two members close enough that every mixed
parameter alpha*theta + (1-alpha)*theta' with alpha in [0, 2] stays inside
the natural domain, so divergence tests at alpha = 2 never trip the domain
guard by construction.
"""

from __future__ import annotations

import math
import subprocess
import sys

import numpy as np
import pytest

import efmeasures as em

SCALAR_FAMILY_NAMES = ("exponential", "poisson", "bernoulli", "gaussian", "laplacian")
ALL_FAMILY_NAMES = SCALAR_FAMILY_NAMES + ("mvn",)


def make_family(name: str) -> em.Family:
    return em.get_family(name, dim=2) if name == "mvn" else em.get_family(name)


def _random_cov(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eig = rng.uniform(0.8, 1.25, size=dim)
    return (q * eig) @ q.T


def random_source(name: str, rng: np.random.Generator):
    """One random in-domain source parameter, kept off the domain boundary.

    Bernoulli draws avoid a window around p = 1/2, where the Renyi entropy
    is flat in alpha and limit-rate assertions would divide zero by zero.
    """
    if name == "exponential":
        return em.ExponentialParams(rate=float(rng.uniform(0.4, 2.5)))
    if name == "poisson":
        return em.PoissonParams(rate=float(rng.uniform(0.4, 8.0)))
    if name == "bernoulli":
        if rng.random() < 0.5:
            return em.BernoulliParams(p=float(rng.uniform(0.15, 0.44)))
        return em.BernoulliParams(p=float(rng.uniform(0.56, 0.85)))
    if name == "gaussian":
        return em.GaussianParams(
            mu=float(rng.uniform(-2, 2)), var=float(rng.uniform(0.6, 1.8))
        )
    if name == "laplacian":
        return em.LaplacianParams(scale=float(rng.uniform(0.5, 2.0)))
    if name == "mvn":
        return em.MultivariateGaussianParams(
            mu=rng.uniform(-1, 1, size=2), cov=_random_cov(rng)
        )
    raise ValueError(name)


def perturbed_source(name: str, src, rng: np.random.Generator):
    """A second member near src; scale-type parameters move by at most e^0.45."""
    factor = float(np.exp(rng.uniform(-0.45, 0.45)))
    if name == "exponential":
        return em.ExponentialParams(rate=src.rate * factor)
    if name == "poisson":
        return em.PoissonParams(rate=src.rate * factor)
    if name == "bernoulli":
        return random_source(name, rng)
    if name == "gaussian":
        return em.GaussianParams(mu=src.mu + float(rng.uniform(-1, 1)), var=src.var * factor)
    if name == "laplacian":
        return em.LaplacianParams(scale=src.scale * factor)
    if name == "mvn":
        return em.MultivariateGaussianParams(
            mu=src.mu + rng.uniform(-0.8, 0.8, size=2), cov=_random_cov(rng)
        )
    raise ValueError(name)


def random_theta(name: str, rng: np.random.Generator) -> em.NaturalParam:
    return make_family(name).to_natural(random_source(name, rng))


def random_theta_pair(name: str, rng: np.random.Generator):
    fam = make_family(name)
    src = random_source(name, rng)
    src2 = perturbed_source(name, src, rng)
    return fam.to_natural(src), fam.to_natural(src2)


@pytest.fixture(params=ALL_FAMILY_NAMES)
def family_name(request) -> str:
    return request.param


@pytest.fixture
def family(family_name) -> em.Family:
    return make_family(family_name)


def pairing(a: em.NaturalParam, b: em.NaturalParam) -> float:
    """The composite pairing <a, b> = a_vec . b_vec + tr(a_mat^T b_mat)."""
    out = float(np.dot(a.vector, b.vector))
    if a.matrix is not None:
        out += float(np.sum(a.matrix * b.matrix))
    return out


def grad_check(fam: em.Family, theta: em.NaturalParam, step: float = 1e-5) -> float:
    """Max relative gap between central differences of F and its gradient at ``theta``.

    Matrix coordinates are perturbed symmetrically (half the step on each of
    the two mirrored entries), matching the trace pairing. A zero or non-finite
    step is a ValueError, and one that leaves the domain a NaturalDomainError.
    """
    if not (math.isfinite(step) and step != 0.0):
        raise ValueError(f"finite-difference step must be finite and nonzero, got {step}")
    theta = fam.member(theta)
    grad = fam.grad_log_normalizer(theta).flat()
    base = theta.flat()
    worst = 0.0
    for i in range(base.size):
        unit = np.zeros(base.size)
        row, col = divmod(i - fam.vector_dim, fam.matrix_dim or 1)
        if i < fam.vector_dim or row == col:
            unit[i] = 1.0
        else:  # half the step on this entry and half on its mirror
            unit[i] = unit[fam.vector_dim + col * fam.matrix_dim + row] = 0.5
        plus = fam.compose(base + step * unit)
        minus = fam.compose(base - step * unit)
        if not (fam.in_natural_domain(plus) and fam.in_natural_domain(minus)):
            raise em.NaturalDomainError(
                f"{fam.name}: finite-difference step leaves the natural domain"
            )
        fd = (fam.log_normalizer(plus) - fam.log_normalizer(minus)) / (2.0 * step)
        worst = max(worst, abs(fd - grad[i]) / (1.0 + abs(grad[i])))
    return worst


def run_cli(*args: str, timeout: float = 300.0):
    """Run the CLI in a subprocess; returns (exit_code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "efmeasures.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr
