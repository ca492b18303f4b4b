"""Seeded inputs: parameter pairs for the in-process workloads, CSVs for `estimate`.

Every stream is derived from (seed, family, purpose), so one seed always
gives the same inputs. Pairs keep every alpha up to 2 inside the natural
domain, as ``efmeasures.cli.VERIFY_PAIRS`` do, and keep the alpha=2
chi-square term exp(-J) representable, so no measure overflows.

Unless a stream asks for far-off-origin or near-identical Gaussian pairs
(the cancellation cases the traced run probes), the two members of a pair
are held apart (relative shift of at least 0.1 on a log or
standard-deviation scale), so that a failing check on them is a regression.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

SWEEP_FAMILIES = ("exponential", "poisson", "bernoulli", "gaussian", "mvn", "laplacian")
VERIFY_SCALAR_FAMILIES = ("exponential", "poisson", "bernoulli", "gaussian", "laplacian")

# Poisson rates are log-uniform, stratified over blocks of this many pairs
# so that every block sees the whole range (the series cost grows with rate).
POISSON_STRATA = 32


def _rng(seed: int, family: str, purpose: str) -> np.random.Generator:
    return np.random.default_rng([seed, SWEEP_FAMILIES.index(family), zlib.crc32(purpose.encode())])


def _apart(rng, lo: float, hi: float) -> float:
    """A signed offset with magnitude uniform in [lo, hi]."""
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi))


def _stratified_log10(rng, stratum: int, strata: int, lo: float, hi: float) -> float:
    width = (hi - lo) / strata
    return 10.0 ** (lo + width * (stratum + float(rng.random())))


class PairStream:
    """Endless seeded pairs of source parameters for one family.

    Pair ``i`` is a pure function of (seed, family, purpose, i) in the order
    drawn: callers draw pairs in sequence.
    """

    def __init__(self, seed: int, family: str, purpose: str, *, poisson_log10=(-1.0, 4.0),
                 poisson_strata: int = POISSON_STRATA, gaussian_kinds=("ordinary",),
                 mvn_dims=(2, 3)):
        self.family = family
        self.rng = _rng(seed, family, purpose)
        self.poisson_log10 = poisson_log10
        self.poisson_strata = poisson_strata
        self.gaussian_kinds = gaussian_kinds
        self.mvn_dims = mvn_dims
        self.index = 0
        self._perm: list = []

    def _block_perm(self, size: int, items) -> list:
        if self.index % size == 0:
            self._perm = list(self.rng.permutation(items))
        return self._perm

    def next(self) -> tuple[dict, dict, str]:
        """(params, params2, kind) with kind "ordinary", "far" or "near"."""
        rng = self.rng
        kind = "ordinary"
        fam = self.family
        if fam == "exponential":
            r1 = 10.0 ** rng.uniform(-3.0, 3.0)
            p, q = {"rate": r1}, {"rate": r1 * math.exp(_apart(rng, 0.1, math.log(1.8)))}
        elif fam == "poisson":
            strata = self.poisson_strata
            stratum = self._block_perm(strata, strata)[self.index % strata]
            r1 = _stratified_log10(rng, stratum, strata, *self.poisson_log10)
            # The shift scales with 1/sqrt(rate), keeping exp(-J) at alpha=2 below e^4.
            shift = _apart(rng, 0.2, 2.0) / math.sqrt(max(r1, 1.0))
            p, q = {"rate": r1}, {"rate": r1 * math.exp(shift)}
        elif fam == "bernoulli":
            l1 = rng.uniform(-4.0, 4.0)
            l2 = l1 + _apart(rng, 0.2, 1.5)
            p, q = {"p": 1.0 / (1.0 + math.exp(-l1))}, {"p": 1.0 / (1.0 + math.exp(-l2))}
        elif fam == "gaussian":
            kind = self.gaussian_kinds[self.index % len(self.gaussian_kinds)]
            var1 = 10.0 ** rng.uniform(-1.0, 1.0)
            sd1 = math.sqrt(var1)
            if kind == "far":
                mu1 = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(3.0, 8.0))
            else:
                mu1 = rng.uniform(-10.0, 10.0)
            if kind == "near":
                delta = 10.0 ** rng.uniform(-9.0, -6.0)
                mu2 = mu1 + float(rng.choice((-1.0, 1.0))) * delta * sd1
                var2 = var1 * (1.0 + float(rng.choice((-1.0, 1.0))) * delta)
            else:
                mu2 = mu1 + _apart(rng, 0.2, 2.0) * sd1
                var2 = var1 * math.exp(rng.uniform(-0.4, 0.9))
            p, q = {"mu": mu1, "var": var1}, {"mu": mu2, "var": var2}
        elif fam == "laplacian":
            s1 = 10.0 ** rng.uniform(-2.0, 2.0)
            p, q = {"scale": s1}, {"scale": s1 * math.exp(_apart(rng, 0.1, 0.6))}
        else:
            p, q = self._mvn(self.mvn_dims[self.index % len(self.mvn_dims)])
        self.index += 1
        return p, q, kind

    def _mvn(self, d: int) -> tuple[dict, dict]:
        rng = self.rng
        mu1 = rng.normal(0.0, 3.0, d)
        a = rng.normal(0.0, 1.0, (d, d))
        cov1 = (a @ a.T / d + 0.3 * np.eye(d)) * 10.0 ** rng.uniform(-0.5, 0.5)
        chol = np.linalg.cholesky(cov1)
        rot, _ = np.linalg.qr(rng.normal(0.0, 1.0, (d, d)))
        # Relative eigenvalues in [0.74, 1.57] keep cov2 > cov1 / 2 (alpha = 2 in domain).
        scales = np.exp(rng.uniform(-0.3, 0.45, d))
        cov2 = chol @ (rot * scales) @ rot.T @ chol.T
        cov2 = (cov2 + cov2.T) / 2.0
        direction = rng.normal(0.0, 1.0, d)
        direction /= np.linalg.norm(direction)
        mu2 = mu1 + chol @ (direction * rng.uniform(0.2, 1.5))
        return (
            {"mu": mu1.tolist(), "sigma": cov1.tolist()},
            {"mu": mu2.tolist(), "sigma": cov2.tolist()},
        )


# --------------------------------------------------------------------------
# estimate-ingest inputs.
# --------------------------------------------------------------------------


def _write_column(path: str, values) -> None:
    with open(path, "w") as out:
        out.write("\n".join(map(repr, values.tolist())))
        out.write("\n")


def write_estimate_inputs(seed: int, directory: str, rows: int, index: int) -> dict[str, tuple[str, np.ndarray]]:
    """Data set ``index``: headerless CSVs of ``rows`` observations each; returns name -> (path, values).

    Floats are written as their shortest round-trip decimals, so the values
    the CLI parses are exactly the generated ones.
    """
    rng = np.random.default_rng([seed, 99, index])
    rate1 = 10.0 ** rng.uniform(-1.0, 1.0)
    rate2 = rate1 * math.exp(_apart(rng, 0.1, 0.5))
    data = {
        "exponential": rng.exponential(1.0 / rate1, rows),
        "exponential2": rng.exponential(1.0 / rate2, rows),
        "poisson": rng.poisson(10.0 ** rng.uniform(0.0, 2.0), rows),
    }
    mu = rng.normal(0.0, 3.0, 2)
    a = rng.normal(0.0, 1.0, (2, 2))
    cov = a @ a.T / 2 + 0.5 * np.eye(2)
    data["mvn"] = mu + rng.standard_normal((rows, 2)) @ np.linalg.cholesky(cov).T
    out = {}
    for name, values in data.items():
        path = f"{directory}/{name}-{index}.csv"
        if values.ndim == 2:
            with open(path, "w") as handle:
                handle.write("\n".join(f"{x!r},{y!r}" for x, y in values.tolist()))
                handle.write("\n")
        else:
            _write_column(path, values)
        out[name] = (path, values)
    return out
