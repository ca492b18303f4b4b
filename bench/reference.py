"""Reference values and acceptance rules the benchmark checks outputs against.

Everything here is computed independently of ``efmeasures``: closed-form
references come from source-parameter formulas evaluated in 50-digit mpmath,
MLE references from ``math.fsum`` over the generated observations, and the
``verify`` agreement rule is restated so that a later change to the CLI
cannot loosen what the benchmark accepts.
"""

from __future__ import annotations

import math

# Relative accuracy every mpmath-checked closed form must meet.
CLOSED_FORM_REL_TOL = 1e-9

# Relative accuracy of the fitted source parameters in `estimate`.
MLE_REL_TOL = 1e-12

# The `verify` agreement floors per oracle method at the seed commit
# (efmeasures.cli.VERIFY_BASE_TOL). A method this table does not know gets
# the strictest floor, 0: it must agree within its own reported bound.
VERIFY_BASE_TOL = {"quadrature": 1e-7, "discrete-sum": 1e-9, "monte-carlo": 0.0}

_DIGITS = 50


def verify_tolerance(closed: float, error_bound: float, method: str) -> float:
    """The `verify` rule: the method's floor or the oracle bound plus 1e-12 relative."""
    return max(VERIFY_BASE_TOL.get(method, 0.0), error_bound + 1e-12 * (1.0 + abs(closed)))


# The Monte Carlo bound is 3 standard errors, so an exact closed form misses
# it in about 0.27% of cells. The benchmark's check widens it to 5 standard
# errors (a false alarm in ~6e-7 of cells); the probe set keeps the rule.
MC_CHECK_SIGMAS = 5.0


def check_tolerance(closed: float, error_bound: float, method: str) -> float:
    """The `verify` rule, with the Monte Carlo bound widened to ``MC_CHECK_SIGMAS``."""
    if method == "monte-carlo":
        error_bound *= MC_CHECK_SIGMAS / 3.0
    return verify_tolerance(closed, error_bound, method)


def gaussian_reference(mu1: float, var1: float, mu2: float, var2: float) -> dict[str, float]:
    """Shannon entropy of the first member and pair measures, from (mu, var)."""
    import mpmath as mp

    with mp.workdps(_DIGITS):
        m1, v1, m2, v2 = (mp.mpf(x) for x in (mu1, var1, mu2, var2))
        d2 = (m1 - m2) ** 2
        bc = mp.sqrt(2 * mp.sqrt(v1 * v2) / (v1 + v2)) * mp.exp(-d2 / (4 * (v1 + v2)))
        return {
            "shannon": float(mp.log(2 * mp.pi * mp.e * v1) / 2),
            "kl": float((mp.log(v2 / v1) + (v1 + d2) / v2 - 1) / 2),
            "bhattacharyya": float(bc),
            "hellinger": float(mp.sqrt(1 - bc)),
        }


def exponential_reference(rate1: float, rate2: float) -> dict[str, float]:
    """Shannon entropy of the first member and pair measures, from the rates."""
    import mpmath as mp

    with mp.workdps(_DIGITS):
        r1, r2 = mp.mpf(rate1), mp.mpf(rate2)
        bc = 2 * mp.sqrt(r1 * r2) / (r1 + r2)
        return {
            "shannon": float(1 - mp.log(r1)),
            "kl": float(mp.log(r1 / r2) + r2 / r1 - 1),
            "bhattacharyya": float(bc),
            "hellinger": float(mp.sqrt(1 - bc)),
        }


def closed_form_reference(family: str, p: dict, q: dict) -> dict[str, float] | None:
    if family == "gaussian":
        return gaussian_reference(p["mu"], p["var"], q["mu"], q["var"])
    if family == "exponential":
        return exponential_reference(p["rate"], q["rate"])
    return None


def rel_close(value: float, ref: float, rel_tol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= rel_tol * abs(ref)


def in_range(measure: str, alpha: float | None, value: float) -> bool:
    """Finite, and inside the measure's range (divergences >= 0, coefficient in (0, 1])."""
    if not math.isfinite(value):
        return False
    if measure in ("kl", "renyi-div", "tsallis-div", "bregman", "hellinger"):
        return value >= 0.0
    if measure == "bhattacharyya":
        return 0.0 < value <= 1.0
    if measure == "jensen":
        # The skew Jensen gap is >= 0 inside [0, 1] and <= 0 beyond 1.
        return value >= 0.0 if alpha <= 1.0 else value <= 0.0
    return True


def _fsum_mean(columns) -> list[float]:
    return [math.fsum(col) / len(col) for col in columns]


def mle_reference(family: str, xs) -> dict:
    """Source parameters of the MLE, from exactly rounded column sums.

    ``xs`` is the generated numpy array whose decimal rendering was written
    to the CSV; the rendering round-trips, so the CLI parses the same values.
    """
    if family == "exponential":
        (mean,) = _fsum_mean([xs.tolist()])
        return {"rate": 1.0 / mean}
    if family == "poisson":
        (mean,) = _fsum_mean([xs.tolist()])
        return {"rate": mean}
    d = xs.shape[1]
    mu = _fsum_mean([xs[:, i].tolist() for i in range(d)])
    second = [[math.fsum((xs[:, i] * xs[:, j]).tolist()) / len(xs) for j in range(d)] for i in range(d)]
    sigma = [[second[i][j] - mu[i] * mu[j] for j in range(d)] for i in range(d)]
    return {"mu": mu, "sigma": sigma}


def params_match(got: dict, ref: dict, rel_tol: float) -> bool:
    """Scalars relative to themselves; vector and matrix entries relative to their largest entry."""
    if set(got) != set(ref):
        return False
    for key, want in ref.items():
        have = got[key]
        if isinstance(want, list):
            flat_want = [float(x) for x in _flatten(want)]
            flat_have = [float(x) for x in _flatten(have)]
            scale = max(abs(x) for x in flat_want)
            if len(flat_have) != len(flat_want) or any(
                not math.isfinite(h) or abs(h - w) > rel_tol * scale
                for h, w in zip(flat_have, flat_want)
            ):
                return False
        elif not rel_close(float(have), want, rel_tol):
            return False
    return True


def _flatten(obj):
    if isinstance(obj, list):
        for item in obj:
            yield from _flatten(item)
    else:
        yield obj
