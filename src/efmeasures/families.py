"""Exponential-family building blocks: canonical decompositions, parameter
conversions, samplers, and carrier-measure moments.

Every density here factorizes as

    p(x) = exp( <t(x), theta> - F(theta) + k(x) )

with sufficient statistic ``t``, natural parameter ``theta``, log-normalizer
``F``, and carrier term ``k``. Natural parameters are composite values: a
vector block plus an optional symmetric matrix block (used by the
multivariate Gaussian), paired under ``<a, b> = a_vec . b_vec +
tr(a_mat^T b_mat)``.

Implemented decompositions:

    family               theta              F(theta)                        t(x)       k(x)
    ------               -----              --------                        ----       ----
    exponential(rate)    -rate              -log(-th)                       x          0
    poisson(rate)        log(rate)          exp(th)                         x          -log x!
    bernoulli(p)         log(p/(1-p))       log(1 + e^th)                   x          0
    gaussian(mu, var)    (mu/var,           -th1^2/(4 th2)                  (x, x^2)   0
                          -1/(2 var))         + log(pi / -th2)/2
    mvn(mu, cov)         (cov^-1 mu,        d/2 log(2 pi)                   (x, xx^T)  0
                          -cov^-1 / 2)        - log det(-2 M)/2
                                              - v^T M^-1 v / 4
    laplacian(scale)     -1/scale           log 2 - log(-th)                |x|        0

Natural domains are open sets; boundary values raise instead of clamping,
because F or its gradient diverges there. A Poisson theta must also keep its
rate exp(theta) a finite float: theta <= log DBL_MAX ~ 709.78.

The closed forms in ``measures`` read private primitives of each family: its
Shannon entropy H, its Bregman gap B(theta : theta') = F(theta) - F(theta') -
<theta - theta', grad F(theta')> on the step theta - theta' (Nielsen & Garcia,
arXiv:0911.4863, tabulate F, grad F and F*), so no two large F are subtracted,
and the gaps B(theta : m), B(theta' : m) to a mixture m. No closed form builds m as a
NaturalParam: a one-coordinate family forms m as one float, rounded as NaturalParam.mix
rounds it, and the Gaussian families never form it: where one member's precision is I,
the other's and m's are diagonal. Their B is the first of these gaps at m = theta'.

All values are immutable and every operation is a pure function of its
inputs (samplers take an explicit seed), so concurrent use is unrestricted.
A natural parameter stores its vector block once, as a tuple of floats. What a ``Member``
keeps outside its fields (see ``Member``) is stored whole, in one assignment, and read once
a call: threads that race never mix two records, and every value is a fresh member's bits.
The count series share one read-only table of log k! (at most 2^17 entries): a fill
assigns a new, complete array and a call reads it once, so every reader slices a whole one.
"""

from __future__ import annotations

import math
import weakref
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    ExpectationDomainError,
    MixedParameterError,
    NaturalDomainError,
    ParameterDomainError,
    ScaledParameterError,
    SupportError,
)

__all__ = [
    "NaturalParam",
    "Member",
    "Support",
    "Family",
    "ExponentialParams",
    "PoissonParams",
    "BernoulliParams",
    "GaussianParams",
    "MultivariateGaussianParams",
    "LaplacianParams",
    "ExponentialDistFamily",
    "PoissonFamily",
    "BernoulliFamily",
    "GaussianFamily",
    "MultivariateGaussianFamily",
    "CenteredLaplacianFamily",
    "EXPONENTIAL",
    "POISSON",
    "BERNOULLI",
    "GAUSSIAN",
    "LAPLACIAN",
    "get_family",
    "family_names",
]

_LOG_2PI = math.log(2.0 * math.pi)

# Construction tolerates benign round-off in matrix input but rejects
# genuinely asymmetric matrices.
_MATRIX_ASYMMETRY_TOL = 1e-9

# A count series widens its window until both tails are certified below this
# share of the summed magnitudes, and raises rather than hold a window this wide.
_SERIES_TAIL = 2.0**-60
_SERIES_MAX_COUNTS = 2**22
_EDGES = np.array([0, 1, -2, -1])  # a window's two terms at each edge

_MIXED = "mixed parameter alpha*theta + (1-alpha)*theta' at alpha={:g}"

_DBL_MAX = float(np.finfo(float).max)
_MAX_LOG_RATE = math.log(_DBL_MAX)  # the largest Poisson theta of finite rate


def _symmetrized(m: np.ndarray, label: str) -> np.ndarray:
    """(m + m.T) / 2 of a square m that is not symmetric, or ParameterDomainError if its
    asymmetry exceeds the tolerance. Both come from the halves of m, which cannot overflow
    past DBL_MAX / 2: (m - m.T) / 2 is checked against half the tolerance."""
    half = m / 2.0
    asym = float(np.max(np.abs(half - half.T)))
    if asym > _MATRIX_ASYMMETRY_TOL / 2.0 * max(1.0, float(np.max(np.abs(m)))):
        raise ParameterDomainError(f"{label} is not symmetric (max asymmetry {2.0 * asym:.3e})")
    return half + half.T


# Python counts a bool an int, and numpy reads True as 1 and "1e0" as 1.0: none is a number here.
_NOT_NUMBERS = (bool, np.bool_, str, bytes)


def _numbers(x, label: str):
    """``x``, a number, a sequence or an array; ValueError if an entry is one of _NOT_NUMBERS."""
    if not (isinstance(x, np.ndarray) and x.dtype.kind in "fiu") and any(
        isinstance(e, _NOT_NUMBERS) for e in np.asarray(x, dtype=object).flat
    ):
        raise ValueError(f"{label} must hold real numbers, got {x!r}")
    return x


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class NaturalParam:
    """Composite parameter: a vector block plus an optional matrix block.

    Used both for natural parameters and for the matching expectation
    coordinates returned by ``grad_log_normalizer``. The vector block is stored
    once, as a tuple of floats; ``np.asarray(t.vector)`` is an array of it. The
    matrix block is a read-only array, symmetrized on construction (averaged
    with its transpose); input whose asymmetry exceeds the tolerance is
    rejected outright. ``scaled`` and ``mix`` make ``c M`` and ``w A + (1-w) B``
    of exactly symmetric blocks, exactly symmetric too, and do not re-symmetrize
    them. ``Family.member`` checks one into a ``Member`` of a family.
    """

    vector: tuple[float, ...]
    matrix: np.ndarray | None = None

    def __post_init__(self) -> None:
        vec = self.vector
        # Python floats, what every package path passes, are stored as they are, without numpy.
        if type(vec) not in (list, tuple) or not all(type(x) is float for x in vec):
            vec = np.array(_numbers(vec, "vector block"), dtype=float, ndmin=1)
            if vec.ndim != 1:
                raise ValueError(f"vector block must be 1-d, got shape {vec.shape}")
            vec = vec.tolist()
        object.__setattr__(self, "vector", tuple(vec))
        if self.matrix is not None:
            mat = np.asarray(_numbers(self.matrix, "matrix block"), dtype=float)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"matrix block must be square, got shape {mat.shape}")
            # A symmetric m stays as it is, since halving rounds a subnormal.
            if (mat != mat.T).any():
                mat = _symmetrized(mat, "matrix block")
            object.__setattr__(self, "matrix", _readonly(mat))

    def _check_like(self, other: "NaturalParam") -> None:
        if len(self.vector) != len(other.vector):
            raise ValueError("mismatched vector blocks")
        if (self.matrix is None) != (other.matrix is None):
            raise ValueError("one parameter has a matrix block, the other does not")
        if self.matrix is not None and self.matrix.shape != other.matrix.shape:
            raise ValueError("mismatched matrix blocks")

    @classmethod
    def _derived(cls, vec, mat: np.ndarray | None) -> "NaturalParam":
        """A member of exactly symmetric blocks, a float tuple and a frozen matrix: unchecked."""
        out = object.__new__(cls)
        if mat is not None:
            mat.setflags(write=False)
        out.__dict__.update(vector=tuple(vec), matrix=mat)
        return out

    # A scaled or mixed parameter can overflow to inf, and the domain check
    # that follows reports it, so no overflow warning may come first. The
    # vector block is computed in Python floats, which overflow quietly (and
    # cost less than a numpy error state); the matrix block under one.
    def scaled(self, factor: float) -> "NaturalParam":
        vec = [factor * x for x in self.vector]
        if self.matrix is None:
            return NaturalParam._derived(vec, None)
        with np.errstate(over="ignore", invalid="ignore"):
            return NaturalParam._derived(vec, factor * self.matrix)

    def mix(self, other: "NaturalParam", weight: float) -> "NaturalParam":
        """Convex-style combination ``weight*self + (1-weight)*other``."""
        self._check_like(other)
        rest = 1.0 - weight
        vec = [weight * x + rest * y for x, y in zip(self.vector, other.vector)]
        if self.matrix is None:
            return NaturalParam._derived(vec, None)
        with np.errstate(over="ignore", invalid="ignore"):
            return NaturalParam._derived(vec, weight * self.matrix + rest * other.matrix)

    def flat(self) -> np.ndarray:
        """All coordinates as one vector: vector block, then matrix row-major."""
        if self.matrix is None:
            return np.array(self.vector)
        return np.concatenate([self.vector, self.matrix.ravel()])


@dataclass(frozen=True, eq=False)
class Member(NaturalParam):
    """A natural parameter that ``Family.member`` checked inside ``family``'s domain;
    one made another way (its constructor, ``dataclasses.replace``, a copy) has no
    ``family`` and is checked again. An mvn member keeps from that check its precision
    ``factor``, its diagonal's ``spread`` max / min and its ``moments`` (mean, covariance,
    inverse factor, log det), and later ``pair``: the whitened axes of the last pair it
    whitened, and that partner, held weakly. A Poisson member's ``moments`` is a map of
    at most 16 orders to their (H, G)."""

    __slots__ = ("family", "factor", "spread", "moments", "pair")

    def __reduce__(self):
        return NaturalParam._derived, (self.vector, self.matrix)


@dataclass(frozen=True)
class Support:
    """Shape of a family's sample space."""

    kind: str  # "nonneg-real" | "real" | "nonneg-int" | "binary" | "real-vector"
    dim: int = 1

    @property
    def is_discrete(self) -> bool:
        return self.kind in ("nonneg-int", "binary")

    @property
    def requirement(self) -> str:
        """What one observation must be, in words."""
        return {
            "nonneg-real": "a finite number >= 0",
            "real": "a finite number",
            "nonneg-int": "an integer >= 0",
            "binary": "the integer 0 or 1",
            "real-vector": f"a vector of {self.dim} finite numbers",
        }[self.kind]


def _flat_values(xs) -> np.ndarray:
    """Scalar observations as a flat float array; raises on other shapes."""
    x = np.asarray(xs, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a flat array of observations, got shape {x.shape}")
    return x


def _counts(xs) -> tuple[np.ndarray, np.ndarray]:
    """Scalar observations as floats, and which are finite integers (booleans are not)."""
    raw = np.asarray(xs)
    x = _flat_values(raw)
    return x, (raw.dtype != np.bool_) & np.isfinite(x) & (x == np.floor(x))


def _h(r: float) -> float:
    """r - log1p(r) >= 0 for r > -1; near 0, where the two cancel, as r v -
    2 (v^3/3 + v^5/5 + ...) with v = r / (2 + r), from log1p(r) = 2 atanh(v)."""
    if not -0.1 < r < 0.1:
        return r - math.log1p(r)
    v = r / (2.0 + r)
    w = v * v
    series = 1 / 3 + w * (1 / 5 + w * (1 / 7 + w * (1 / 9 + w * (1 / 11 + w / 13))))
    return r * v - 2.0 * v * w * series


def _rate_gap(ta: float, tb: float) -> float:
    """q - 1 - log q for q = ta / tb of two negative coordinates: h((ta - tb) / tb),
    and far from q = 1 with log q from both logs only where q under- or overflows."""
    r = (ta - tb) / tb
    if -0.5 < r < 1.0:
        return _h(r)
    q = ta / tb
    return r - (math.log(q) if 2.0**-1022 <= q < math.inf else math.log(-ta) - math.log(-tb))


def _whitened_gaps(fam, alpha: float, axes, swap: bool = False):
    """B(theta : m), B(theta' : m) of Gaussians, m = alpha theta + (1 - alpha) theta', over axes
    (g, lam = 1 + g, log lam, z) where theta's, theta''s and m's precisions are 1, lam and s = 1 +
    (1 - alpha) g, and z is mu - mu' (``swap``: whitened by theta'). A gap is sum(h(e) + P dmu^2)
    / 2: 1 + e = 1/s, lam/s; P = 1, lam; dmu = (1 - alpha) lam z / s, alpha z / s."""
    a, b = (1.0 - alpha, alpha) if swap else (alpha, 1.0 - alpha)
    inside = 0.0 <= a <= 1.0
    gap = gap2 = 0.0
    for g, lam, log_lam, z in axes:
        if a == 0.0:  # m = theta', already checked: s = lam, which may under- or overflow
            inv = 1.0 / lam if lam else math.inf  # h(1/lam - 1) = 1/lam - 1 + log lam
            gap += (_h(-g / lam) if 0.5 < lam < 2.0 else inv - 1.0 + log_lam) + z * z
            continue
        s = a + b * lam if inside else 1.0 + b * g  # in [0, 1] a sum of positives
        if not 0.0 < s < math.inf:
            break
        e, e2, log_s = -b * g / s, a * g / s, math.log(s)
        u, u2 = b / s * lam * z, a / s * z
        # Near e = -1, h(e) = e - log(1 + e) needs the log: -log s, and log lam - log s.
        gap += (_h(e) if e > -0.5 else e + log_s) + u * u
        gap2 += (_h(e2) if e2 > -0.5 else e2 - log_lam + log_s) + lam * u2 * u2
    else:  # every s in (0, inf): the mixture is in the domain
        drift = abs(a + b - 1.0) * max(gap, gap2)  # how far 1 - alpha's rounding moves J
        if inside or drift <= 1e-13 * abs(a * gap + b * gap2):  # J = a gap + b gap2; nan: False
            return (0.5 * gap2, 0.5 * gap) if swap else (0.5 * gap, 0.5 * gap2)
    fam._guard(False, _MIXED.format(alpha), MixedParameterError)


def _lower_inverse(chol: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular factor, or of each in a stack, by forward substitution,
    row by row, scaling by the reciprocal diagonal as LAPACK's triangular solve does."""
    d = chol.shape[-1]
    identity = np.eye(d)
    inv_diag = 1.0 / np.diagonal(chol, 0, -2, -1)
    out = np.zeros(chol.shape)
    out[..., 0, 0] = inv_diag[..., 0]
    for i in range(1, d):
        solved = (chol[..., i, None, :i] @ out[..., :i, :])[..., 0, :]  # row i times rows < i
        out[..., i, :] = (identity[i] - solved) * inv_diag[..., i, None]
    return out


# --------------------------------------------------------------------------
# Source parameters, one small record per family.
# --------------------------------------------------------------------------


def _finite(name: str, x) -> bool:
    """Whether ``x`` is finite; ParameterDomainError unless it is a real number."""
    try:  # a float, what the oracle's _source passes, skips the slower isinstance
        return math.isfinite(x if type(x) is float or not isinstance(x, _NOT_NUMBERS) else None)
    except TypeError:  # a bool, a string, None, a list
        raise ParameterDomainError(f"{name} must be a real number, got {x!r}") from None


def _checked(name: str, x: float, positive: bool = True) -> float:
    """``x``, refused unless a finite (and positive) real number: the refusal of the records
    below, which a family's _source makes too."""
    if not (_finite(name, x) and (x > 0 or not positive)):
        raise ParameterDomainError(f"{name} must be {'> 0' if positive else 'finite'}, got {x}")
    return x


@dataclass(frozen=True)
class ExponentialParams:
    rate: float

    def __post_init__(self) -> None:
        _checked("rate", self.rate)


@dataclass(frozen=True)
class PoissonParams:
    rate: float

    def __post_init__(self) -> None:
        _checked("rate", self.rate)


@dataclass(frozen=True)
class BernoulliParams:
    p: float

    def __post_init__(self) -> None:
        if not (_finite("p", self.p) and 0.0 < self.p < 1.0):
            raise ParameterDomainError(f"p must lie in (0, 1), got {self.p}")


@dataclass(frozen=True)
class GaussianParams:
    mu: float
    var: float

    def __post_init__(self) -> None:
        _checked("mu", self.mu, positive=False)
        _checked("var", self.var)


@dataclass(frozen=True, eq=False)
class MultivariateGaussianParams:
    mu: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        try:  # each entry a number itself, as numpy's conversion does not ask
            mu = np.atleast_1d(np.asarray(_numbers(self.mu, "mu"), dtype=float))
            cov = np.asarray(_numbers(self.cov, "cov"), dtype=float)
        except (TypeError, ValueError):  # a bool, a string, a ragged list
            raise ParameterDomainError("mu and cov must be arrays of real numbers") from None
        if mu.ndim != 1 or not np.all(np.isfinite(mu)):
            raise ParameterDomainError("mu must be a finite vector")
        if cov.ndim != 2 or cov.shape != (mu.size, mu.size):
            raise ParameterDomainError(f"cov must be {mu.size}x{mu.size}, got shape {cov.shape}")
        if not np.all(np.isfinite(cov)):
            raise ParameterDomainError("cov must be finite")
        if (cov != cov.T).any():  # as NaturalParam symmetrizes its matrix
            cov = _symmetrized(cov, "cov")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ParameterDomainError("cov is not positive-definite") from None
        object.__setattr__(self, "mu", _readonly(mu))
        object.__setattr__(self, "cov", _readonly(cov))
        chol.setflags(write=False)
        object.__setattr__(self, "_chol", chol)  # the check's factor, which to_natural reads

    @property
    def dim(self) -> int:
        return int(self.mu.size)


@dataclass(frozen=True)
class LaplacianParams:
    scale: float

    def __post_init__(self) -> None:
        _checked("scale", self.scale)


_POISSON_KEPT_ORDERS = 16  # the (H, G) a Poisson member keeps for its entropies' orders

_LOG_FACTORIAL_CAP = 2**17  # entries: 1 MiB, the windows up to rate ~1.2e5
_log_factorial_table = np.empty(0)  # lgamma(k + 1) at k, grown by doubling from 64; never written


def _log_factorials(ks: np.ndarray) -> np.ndarray:
    """log k! over a run of consecutive counts: a table slice, one lgamma each past the cap."""
    global _log_factorial_table
    first, stop = int(ks[0]), int(ks[0]) + ks.size
    table = _log_factorial_table  # one read: a concurrent fill replaces it, whole
    size = min(max(64, 1 << (stop - 1).bit_length()), _LOG_FACTORIAL_CAP)
    if table.size < size:
        table = np.fromiter(map(math.lgamma, range(1, size + 1)), float, size)
        table.flags.writeable = False
        _log_factorial_table = table
    if stop <= table.size:
        return table[first:stop]
    past = [math.lgamma(k + 1) for k in range(max(first, table.size), stop)]
    return np.concatenate((table[first:], past))


def _tail(edge: float, inner: float) -> float:
    """``edge r / (1 - r)`` with r = edge / inner: the terms past an edge term
    whose ratio to its inner neighbour bounds every later ratio."""
    if edge == 0.0:
        return 0.0
    return edge * edge / (inner - edge) if edge < inner else math.inf


def _counts_past(edge: float, inner: float, total: float, drop: float = 0.0) -> float:
    """How many counts past an edge term the window must reach for the tail beyond,
    at most ``edge r^n / (1 - r)`` with r = edge / inner e^-drop, to be below 2^-60 of
    ``total``; inf where the terms do not decay there, 0 where r underflows."""
    if edge == 0.0:
        return 0
    r = edge / inner * math.exp(-drop)
    need = _SERIES_TAIL * total * (1.0 - r) / edge
    if not (r < 1.0 and need > 0.0):
        return math.inf
    return 0 if need >= 1.0 or r == 0.0 else math.ceil(math.log(need) / math.log(r))


def count_series(terms, peaks, alpha: float = 1.0) -> tuple[list, list, list, int]:
    """Sum ``terms(ks)`` over the counts k = 0, 1, 2, ... from a window around ``peaks``.

    The window spans the peaks +- (9 sqrt(peak / min(alpha, 1)) + 20), nine
    standard deviations of a Poisson-type series of that mode and power, and
    doubles its half-width until both tails are below 2^-60 of the summed
    magnitudes. ``terms`` maps an array of consecutive counts to the terms.
    Their magnitudes must be log-concave in k outside the window (a count
    density times a log-concave weight is), so each tail is at most
    ``|t_edge| r / (1 - r)`` for the ratio r of the edge term to its neighbour.
    After four windows, a fifth reaches as far as that bound asks (a small order
    at a small peak decays through (k!)^-alpha, slower than a Poisson spread).
    A failing window refuses at once where that bound asks past the 2^22-count cap
    even at the ratio r ((lo + cap) / edge)^-alpha that terms e^(k theta) (k!)^-alpha
    reach at the cap, over the magnitudes plus their tail bound.
    ``terms`` returns rows of terms, one per sum over the window. Returns lists,
    one entry a row, of the pairwise sums, the sums of magnitudes and the tail
    bounds, and the number of terms; a non-finite term raises ConvergenceError.
    """
    low, high = min(peaks), max(peaks)  # where the window's edges are outermost
    spread = 9.0 / math.sqrt(min(alpha, 1.0))
    for widen in (1.0, 2.0, 4.0, 8.0, None):
        if widen is None:  # the tails' own bound sizes the last window
            lo, hi = sized
        else:
            half = widen * (spread * math.sqrt(high) + 20.0)
            if half >= _SERIES_MAX_COUNTS:  # from a peak of ~1e35 on, high + half rounds to high
                raise ConvergenceError(
                    f"a count series window of over {half:.3g} counts is too wide"
                )
            lo = max(0, math.floor(low - widen * (spread * math.sqrt(low) + 20.0)))
            hi = math.ceil(high + half) + 1
        if hi - lo >= _SERIES_MAX_COUNTS:
            raise ConvergenceError(f"a count series window of {hi - lo:.3g} counts is too wide")
        ks = np.arange(lo, hi)
        with np.errstate(over="ignore", invalid="ignore"):
            ts = np.asarray(terms(ks), dtype=float)
        mags = np.abs(ts)
        totals, abs_totals = (np.add.reduce(x, axis=1).tolist() for x in (ts, mags))
        edges = mags.take(_EDGES, axis=1).tolist()
        if not all(map(math.isfinite, totals)):
            raise ConvergenceError("a count series term is not finite")
        tails = [_tail(e3, e2) + (_tail(e0, e1) if lo > 0 else 0.0) for e0, e1, e2, e3 in edges]
        if all(t <= _SERIES_TAIL * a for t, a in zip(tails, abs_totals)):
            return totals, abs_totals, tails, ks.size
        ups, downs = zip(*(
            (_counts_past(e3, e2, a), _counts_past(e0, e1, a) if lo > 0 else 0)
            for (e0, e1, e2, e3), a in zip(edges, abs_totals)
        ))
        sized = max(0, lo - max(downs)), hi + max(ups)
        if not sized[1] - sized[0] < _SERIES_MAX_COUNTS:  # refused if no window in the cap can hold
            drop = alpha * math.log((lo + _SERIES_MAX_COUNTS) / hi)  # log r's drop by the cap
            least = max(_counts_past(e3, e2, a + t, drop)
                        for (_, _, e2, e3), a, t in zip(edges, abs_totals, tails))
            if widen == 8.0 or math.inf > hi + least - lo >= _SERIES_MAX_COUNTS:
                raise ConvergenceError(
                    f"a count series did not converge: its tail bound asks for a window of "
                    f"{sized[1] - sized[0]:.3g} counts, past the cap of {_SERIES_MAX_COUNTS} (2^22)"
                )
    raise ConvergenceError(
        "a count series did not converge within five windows: four of doubling width "
        "and one sized by its tail bound"
    )


# --------------------------------------------------------------------------
# Family base class.
# --------------------------------------------------------------------------


class Family(ABC):
    """One exponential family: canonical decomposition plus a sampler.

    Subclasses fill in the class-level descriptors and the abstract
    operations; the domain guards and the default (zero-carrier) moment
    logic live here.
    """

    name: ClassVar[str]
    vector_dim: ClassVar[int]
    matrix_dim: ClassVar[int] = 0
    support: ClassVar[Support]
    source_keys: ClassVar[tuple[str, ...]]
    # Human-readable decomposition strings for the CLI `families` listing.
    decomposition: ClassVar[dict[str, str]]

    @property
    def order(self) -> int:
        return self.vector_dim + self.matrix_dim * self.matrix_dim

    # -- shape and domain guards --------------------------------------

    def check_shape(self, theta: NaturalParam) -> None:
        if len(theta.vector) != self.vector_dim:
            raise ValueError(
                f"{self.name}: expected vector block of length {self.vector_dim}, "
                f"got {len(theta.vector)}"
            )
        if self.matrix_dim == 0:
            if theta.matrix is not None:
                raise ValueError(f"{self.name}: unexpected matrix block")
        elif theta.matrix is None or theta.matrix.shape != (self.matrix_dim, self.matrix_dim):
            raise ValueError(
                f"{self.name}: expected a {self.matrix_dim}x{self.matrix_dim} matrix block"
            )

    def in_natural_domain(self, theta: NaturalParam) -> bool:
        """True iff theta lies in the open natural parameter space."""
        self.check_shape(theta)
        return self._in_domain(theta)

    def member(self, theta: NaturalParam, label: str = "natural parameter") -> Member:
        """``theta`` checked once: itself if it is a member of an equal family, else a member
        of its blocks; raises NaturalDomainError naming ``label`` outside the domain."""
        family = getattr(theta, "family", None)
        if family is self or family == self:
            return theta
        out = object.__new__(Member)
        out.__dict__.update(vector=theta.vector, matrix=theta.matrix)  # frozen already
        self._guard(self.in_natural_domain(out), label)
        object.__setattr__(out, "family", self)
        return out

    def _guard(self, inside: bool, label: str = "natural parameter", exc=NaturalDomainError):
        """Raise unless ``inside``: what member() checks, and each derived member."""
        if not inside:
            raise exc(f"{self.name}: {label} outside the natural domain")

    def in_support(self, x) -> bool:
        """Whether one observation lies in the support: in_support_batch at N=1."""
        try:
            return bool(self.in_support_batch(np.asarray([x]))[0])
        except (TypeError, ValueError):
            return False

    def require_support(self, x) -> None:
        if not self.in_support(x):
            # Plain values read 2.5 and [1.0, nan], not np.float64(2.5) and array([1., nan]).
            plain = x.tolist() if isinstance(x, (np.ndarray, np.generic)) else x
            raise SupportError(
                f"{self.name}: observation {plain!r} outside the support "
                f"(must be {self.support.requirement})"
            )

    # -- carrier moments (identically trivial unless k(x) != 0) ---------
    # The moment checks theta and the alpha-scaled member alpha*theta it is taken
    # under; the closed forms read the primitives below instead.

    def log_carrier_moment(self, theta: NaturalParam, alpha: float) -> float:
        """Log of the expectation of exp((alpha-1) k(x)) under the alpha-scaled member."""
        if not (math.isfinite(alpha) and alpha > 0):
            raise DomainError(f"alpha must be > 0, got {alpha}")
        theta = self.member(theta)
        scaled = theta.scaled(alpha)
        self._guard(self.in_natural_domain(scaled), "alpha-scaled parameter", ScaledParameterError)
        return self._log_carrier_moment(theta, alpha)

    def _log_carrier_moment(self, theta: Member, alpha: float) -> float:
        return 0.0

    def carrier_expectation(self, theta: NaturalParam) -> float:
        """Expectation of k(x) under theta; zero for zero-carrier families."""
        return self._carrier_expectation(self.member(theta))

    def _carrier_expectation(self, theta: Member) -> float:
        return 0.0

    # -- the primitives of the closed forms, on members of this family --

    @abstractmethod
    def _entropy(self, theta: NaturalParam) -> float:
        """Shannon entropy H(theta) = F - <theta, grad F> - E[k(x)], in nats."""

    # A scalar family states its open domain on its coordinates, _inside(*t), and a family of
    # one coordinate its gap, _gap_at(ta, tb), on floats; the Gaussian families override the
    # two gaps below, and mvn the domain too.
    def _in_domain(self, theta: NaturalParam) -> bool:
        return self._inside(*theta.vector)

    def _gap(self, theta: NaturalParam, base: NaturalParam) -> float:
        """Bregman gap B(theta : base) >= 0, from the step theta - base."""
        return self._gap_at(theta.vector[0], base.vector[0])

    def _jensen_gaps(self, theta: NaturalParam, theta2: NaturalParam, alpha: float):
        """B(theta : m), B(theta' : m) at m = alpha theta + (1 - alpha) theta', if m is inside.
        No closed form builds m as a NaturalParam: here m is the float NaturalParam.mix rounds."""
        ta, tb = theta.vector[0], theta2.vector[0]
        m = alpha * ta + (1.0 - alpha) * tb
        if not self._inside(m):  # the message is formatted only to raise it
            self._guard(False, _MIXED.format(alpha), MixedParameterError)
        return self._gap_at(ta, m), self._gap_at(tb, m)

    _renyi_weight: ClassVar[float] = 1.0  # c below: 1 for a rate, 1/2 per Gaussian axis

    def _renyi_gap(self, theta: Member, alpha: float):
        """H and G = log(integral of p^alpha) - (1 - alpha) H >= 0, so that the Renyi
        entropy is H + G / (1 - alpha). G = B(alpha theta : theta) = c (alpha - 1 - log alpha)
        whatever theta, so alpha theta is never formed; log alpha keeps its digits."""
        return self._entropy(theta), self._renyi_weight * _rate_gap(-alpha, -1.0)

    # -- coordinate packing helpers -------------------------------------

    def compose(self, coords: np.ndarray) -> NaturalParam:
        """Inverse of ``NaturalParam.flat`` for this family's shape."""
        coords = np.asarray(coords, dtype=float)
        if coords.size != self.order:
            raise ValueError(f"{self.name}: expected {self.order} coordinates")
        if self.matrix_dim == 0:
            return NaturalParam(coords)
        d = self.matrix_dim
        return NaturalParam(coords[: self.vector_dim], coords[self.vector_dim :].reshape(d, d))

    # -- abstract operations --------------------------------------------

    @abstractmethod
    def to_natural(self, params) -> Member: ...

    def from_natural(self, theta: NaturalParam):
        """A member's source record ``_record``, of the floats ``_source(t)`` reads off its
        coordinates t and refuses as the record does; mvn and Bernoulli override it."""
        self.member(theta)
        return self._record(*self._source(theta.vector))

    @abstractmethod
    def log_normalizer(self, theta: NaturalParam) -> float: ...

    @abstractmethod
    def grad_log_normalizer(self, theta: NaturalParam) -> NaturalParam: ...

    @abstractmethod
    def grad_inverse(self, eta: NaturalParam) -> Member: ...

    @abstractmethod
    def in_support_batch(self, xs: np.ndarray) -> np.ndarray:
        """Support membership of many observations, a bool array of shape (n,)."""

    @abstractmethod
    def sufficient_stat_batch(self, xs: np.ndarray) -> np.ndarray:
        """Sufficient statistics of many observations, shape (n, order)."""

    @abstractmethod
    def log_density_batch(self, theta: NaturalParam, xs: np.ndarray) -> np.ndarray:
        """Vectorized log-density over an array of observations."""

    @abstractmethod
    def sample(self, theta: NaturalParam, n: int, seed: int) -> np.ndarray:
        """n i.i.d. draws, deterministic for a given seed."""

    def _check_sample_args(self, theta: NaturalParam, n: int) -> Member:
        if n < 1:
            raise ValueError(f"sample size must be >= 1, got {n}")
        return self.member(theta)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<family {self.name!r} order={self.order}>"


# --------------------------------------------------------------------------
# Concrete families.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentialDistFamily(Family):
    """Exponential distribution with rate > 0 on x >= 0."""

    name: ClassVar[str] = "exponential"
    vector_dim: ClassVar[int] = 1
    support: ClassVar[Support] = Support("nonneg-real")
    _record: ClassVar[type] = ExponentialParams
    source_keys: ClassVar[tuple[str, ...]] = ("rate",)
    decomposition: ClassVar[dict[str, str]] = {
        "natural": "theta = -rate, theta < 0",
        "log_normalizer": "F(theta) = -log(-theta)",
        "sufficient_stat": "t(x) = x",
        "carrier": "k(x) = 0",
        "support": "x >= 0",
    }

    def to_natural(self, params: ExponentialParams) -> Member:
        if not isinstance(params, ExponentialParams):
            params = ExponentialParams(**_params_as_dict(params))
        return self.member(NaturalParam([-params.rate]))

    def _source(self, t: list[float]) -> tuple[float]:
        return (_checked("rate", -t[0]),)

    def _inside(self, t: float) -> bool:
        return -math.inf < t < 0

    def log_normalizer(self, theta: NaturalParam) -> float:
        self.member(theta)
        return -math.log(-theta.vector[0])

    def grad_log_normalizer(self, theta: NaturalParam) -> NaturalParam:
        self.member(theta)
        return NaturalParam([-1.0 / theta.vector[0]])

    def grad_inverse(self, eta: NaturalParam) -> Member:
        self.check_shape(eta)
        e = eta.vector[0]
        if not (math.isfinite(e) and e > 0):
            raise ExpectationDomainError(f"{self.name}: mean statistic must be > 0, got {e}")
        return self.member(NaturalParam([-1.0 / e]))

    def _entropy(self, theta: NaturalParam) -> float:
        return 1.0 - math.log(-theta.vector[0])

    _gap_at = staticmethod(_rate_gap)  # B(a : b) = q - 1 - log q with q = rate_a / rate_b

    def in_support_batch(self, xs: np.ndarray) -> np.ndarray:
        x = _flat_values(xs)
        return np.isfinite(x) & (x >= 0)

    def sufficient_stat_batch(self, xs: np.ndarray) -> np.ndarray:
        return np.asarray(xs, dtype=float).reshape(-1, 1)

    def log_density_batch(self, theta: NaturalParam, xs: np.ndarray) -> np.ndarray:
        t = theta.vector[0]
        return t * np.asarray(xs, dtype=float) + math.log(-t)

    def sample(self, theta: NaturalParam, n: int, seed: int) -> np.ndarray:
        theta = self._check_sample_args(theta, n)
        return np.random.default_rng(seed).exponential(-1.0 / theta.vector[0], n)


@dataclass(frozen=True)
class PoissonFamily(Family):
    """Poisson distribution on counts, the one nonzero-carrier family here."""

    name: ClassVar[str] = "poisson"
    vector_dim: ClassVar[int] = 1
    support: ClassVar[Support] = Support("nonneg-int")
    _record: ClassVar[type] = PoissonParams
    source_keys: ClassVar[tuple[str, ...]] = ("rate",)
    decomposition: ClassVar[dict[str, str]] = {
        "natural": "theta = log(rate), exp(theta) a finite float",
        "log_normalizer": "F(theta) = exp(theta)",
        "sufficient_stat": "t(x) = x",
        "carrier": "k(x) = -log x!",
        "support": "x in {0, 1, 2, ...}",
    }

    def to_natural(self, params: PoissonParams) -> Member:
        if not isinstance(params, PoissonParams):
            params = PoissonParams(**_params_as_dict(params))
        return self.member(NaturalParam([math.log(params.rate)]))

    def _source(self, t: list[float]) -> tuple[float]:
        return (_checked("rate", math.exp(t[0])),)

    def _inside(self, t: float) -> bool:
        return -math.inf < t <= _MAX_LOG_RATE

    def log_normalizer(self, theta: NaturalParam) -> float:
        self.member(theta)
        return math.exp(theta.vector[0])

    def grad_log_normalizer(self, theta: NaturalParam) -> NaturalParam:
        self.member(theta)
        return NaturalParam([math.exp(theta.vector[0])])

    def grad_inverse(self, eta: NaturalParam) -> Member:
        self.check_shape(eta)
        e = eta.vector[0]
        if not (math.isfinite(e) and e > 0):
            raise ExpectationDomainError(f"{self.name}: mean statistic must be > 0, got {e}")
        return self.member(NaturalParam([math.log(e)]))

    def in_support_batch(self, xs: np.ndarray) -> np.ndarray:
        x, integral = _counts(xs)
        return integral & (x >= 0)

    def sufficient_stat_batch(self, xs: np.ndarray) -> np.ndarray:
        return np.asarray(xs, dtype=float).reshape(-1, 1)

    def log_density_batch(self, theta: NaturalParam, xs: np.ndarray) -> np.ndarray:
        t = theta.vector[0]
        ks = np.asarray(xs, dtype=float)
        log_fact = np.fromiter(map(math.lgamma, (ks + 1.0).tolist()), float, ks.size)
        return ks * t - math.exp(t) - log_fact

    def _log_carrier_moment(self, theta: Member, alpha: float) -> float:
        # The alpha-scaled member's mass at k is p_k^alpha e^(alpha rate - rate^alpha)
        # (k!)^(alpha - 1), so the log moment is log sum p^alpha = G + (1 - alpha) H, from
        # the entropies' series, plus alpha rate - rate^alpha: nothing of size rate^alpha is summed.
        t = theta.vector[0]
        h, gap = self._renyi_gap(theta, alpha)
        rate_terms = math.exp(t) * ((alpha - 1.0) - math.expm1((alpha - 1.0) * t))
        return gap + (1.0 - alpha) * h + rate_terms

    def _carrier_expectation(self, theta: Member) -> float:
        # E[k(x)] = -E[log x!] under the member itself.
        t = theta.vector[0]
        rate = math.exp(t)

        def terms(ks: np.ndarray) -> list[np.ndarray]:
            lg = _log_factorials(ks)
            return [np.exp(ks * t - rate - lg) * lg]

        (total,), _, _, _ = count_series(terms, [rate])
        return -total

    def _gap_at(self, ta: float, tb: float) -> float:
        # B(a : b) = rate_b (e^d - 1 - d) with d = theta_a - theta_b; away from
        # d = 0 as rate_a - rate_b (1 + d), where no e^d can overflow alone.
        d = ta - tb
        if abs(d) < 1.0:
            return math.exp(tb) * _h(math.expm1(d))
        return math.exp(ta) - math.exp(tb) * (1.0 + d)

    def _entropy(self, theta: NaturalParam) -> float:
        return self._renyi_gap(theta, 1.0)[0]

    def _renyi_gap(self, theta: Member, alpha: float):
        # One series over the log-masses l sums H = -E[l], y = E[expm1((alpha - 1) l)]
        # (terms of one sign; e^(alpha l) - p where expm1 is large), so that
        # log sum p^alpha = log1p(y) keeps its digits near alpha = 1, and, for
        # where y is near -1, sum p^alpha itself shifted by its largest term. A mass of 0
        # whose log overflowed to -inf (k theta at theta = -1e307) adds 0 to H, not 0 * inf.
        # The member keeps the (H, G) of its last orders; a new order sums a fresh window.
        kept = getattr(theta, "moments", None) or {}  # one read: a fill replaces it
        if alpha in kept:
            return kept[alpha]
        t = theta.vector[0]
        rate = math.exp(t)
        shift = alpha * (int(rate) * t - rate - math.lgamma(int(rate) + 1.0))

        def terms(ks: np.ndarray):
            log_p = ks * t - rate - _log_factorials(ks)
            p = np.exp(log_p)
            x, power = (alpha - 1.0) * log_p, np.exp(alpha * log_p - shift)
            y = np.where(x < 1.0, p * np.expm1(x), power * math.exp(shift) - p)
            return p * np.fmax(log_p, -_DBL_MAX), y, power

        (mean_log_p, y, power), _, _, _ = count_series(terms, [rate], alpha)
        h = 0.0 - mean_log_p  # the sum of the -p l bit for bit: terms of one sign, and +0.0 at 0
        log_power = math.log1p(y) if y > -0.5 else shift + math.log(power)
        result = h, log_power + (alpha - 1.0) * h
        if isinstance(theta, Member):  # racing threads compute the same bits
            orders = {**kept, alpha: result}
            if len(orders) > _POISSON_KEPT_ORDERS:
                del orders[next(iter(orders))]  # the oldest
            object.__setattr__(theta, "moments", orders)
        return result

    def sample(self, theta: NaturalParam, n: int, seed: int) -> np.ndarray:
        theta = self._check_sample_args(theta, n)
        return np.random.default_rng(seed).poisson(math.exp(theta.vector[0]), n)


@dataclass(frozen=True)
class BernoulliFamily(Family):
    """Bernoulli distribution on {0, 1}."""

    name: ClassVar[str] = "bernoulli"
    vector_dim: ClassVar[int] = 1
    support: ClassVar[Support] = Support("binary")
    source_keys: ClassVar[tuple[str, ...]] = ("p",)
    decomposition: ClassVar[dict[str, str]] = {
        "natural": "theta = log(p / (1-p)), any real",
        "log_normalizer": "F(theta) = log(1 + exp(theta))",
        "sufficient_stat": "t(x) = x",
        "carrier": "k(x) = 0",
        "support": "x in {0, 1}",
    }

    def to_natural(self, params: BernoulliParams) -> Member:
        if not isinstance(params, BernoulliParams):
            params = BernoulliParams(**_params_as_dict(params))
        return self.member(NaturalParam([math.log(params.p) - math.log1p(-params.p)]))

    def from_natural(self, theta: NaturalParam) -> BernoulliParams:
        self.member(theta)
        return BernoulliParams(p=_sigmoid(theta.vector[0]))

    def _inside(self, t: float) -> bool:
        return math.isfinite(t)

    def log_normalizer(self, theta: NaturalParam) -> float:
        self.member(theta)
        return _softplus(theta.vector[0])

    def grad_log_normalizer(self, theta: NaturalParam) -> NaturalParam:
        self.member(theta)
        return NaturalParam([_sigmoid(theta.vector[0])])

    def grad_inverse(self, eta: NaturalParam) -> Member:
        self.check_shape(eta)
        e = eta.vector[0]
        if not (math.isfinite(e) and 0.0 < e < 1.0):
            raise ExpectationDomainError(f"{self.name}: mean statistic must lie in (0, 1), got {e}")
        return self.member(NaturalParam([math.log(e) - math.log1p(-e)]))

    def _entropy(self, theta: NaturalParam) -> float:
        t = abs(theta.vector[0])
        e = math.exp(-t)
        return math.log1p(e) + t * (e / (1.0 + e))  # e / (1 + e) is _sigmoid(-t)

    def _gap_at(self, ta: float, tb: float) -> float:
        # B(a : b) is the KL divergence of b from a, sum_x P_b(x) h(P_a(x) / P_b(x) - 1),
        # where the ratios less 1 are q_a expm1(d) and p_a expm1(-d) for d = theta_a - theta_b.
        # Away from d = 0, sum_x P_b(x) log(P_b(x) / P_a(x)) from the log-masses -softplus(-+theta).
        d = ta - tb
        (pa, qa, ea), (pb, qb, eb) = _masses(ta), _masses(tb)
        if abs(d) < 1.0:
            return pb * _h(qa * math.expm1(d)) + qb * _h(pa * math.expm1(-d))
        la, lb = math.log1p(ea), math.log1p(eb)  # softplus(+-t) = max(+-t, 0) + log1p(e^-|t|)
        return (pb * ((max(-ta, 0.0) + la) - (max(-tb, 0.0) + lb))
                + qb * ((max(ta, 0.0) + la) - (max(tb, 0.0) + lb)))

    def _renyi_gap(self, theta: Member, alpha: float):
        # B(alpha theta : theta) depends on theta here: the one family that forms alpha theta.
        t = theta.vector[0]
        scaled = alpha * t  # as NaturalParam.scaled rounds it
        self._guard(self._inside(scaled), "alpha-scaled parameter", ScaledParameterError)
        return self._entropy(theta), self._gap_at(scaled, t)

    def in_support_batch(self, xs: np.ndarray) -> np.ndarray:
        x, integral = _counts(xs)
        return integral & ((x == 0.0) | (x == 1.0))

    def sufficient_stat_batch(self, xs: np.ndarray) -> np.ndarray:
        return np.asarray(xs, dtype=float).reshape(-1, 1)

    def log_density_batch(self, theta: NaturalParam, xs: np.ndarray) -> np.ndarray:
        return np.asarray(xs, dtype=float) * theta.vector[0] - self.log_normalizer(theta)

    def sample(self, theta: NaturalParam, n: int, seed: int) -> np.ndarray:
        theta = self._check_sample_args(theta, n)
        p = _sigmoid(theta.vector[0])
        rng = np.random.default_rng(seed)
        return (rng.random(n) < p).astype(np.int64)


@dataclass(frozen=True)
class GaussianFamily(Family):
    """Univariate Gaussian, order 2."""

    name: ClassVar[str] = "gaussian"
    vector_dim: ClassVar[int] = 2
    support: ClassVar[Support] = Support("real")
    _record: ClassVar[type] = GaussianParams
    source_keys: ClassVar[tuple[str, ...]] = ("mu", "var")
    _renyi_weight: ClassVar[float] = 0.5
    decomposition: ClassVar[dict[str, str]] = {
        "natural": "theta = (mu/var, -1/(2 var)), theta2 < 0",
        "log_normalizer": "F(theta) = -theta1^2/(4 theta2) + log(pi / -theta2)/2",
        "sufficient_stat": "t(x) = (x, x^2)",
        "carrier": "k(x) = 0",
        "support": "x real",
    }

    def to_natural(self, params: GaussianParams) -> Member:
        if not isinstance(params, GaussianParams):
            params = GaussianParams(**_params_as_dict(params))
        return self.member(NaturalParam([params.mu / params.var, -0.5 / params.var]))

    def _source(self, t: list[float]) -> tuple[float, float]:
        var = _checked("var", -0.5 / t[1])  # first: where var overflows, mu = t1 var is 0 inf
        return _checked("mu", t[0] * var, positive=False), var

    def _inside(self, t1: float, t2: float) -> bool:
        return math.isfinite(t1) and math.isfinite(t2) and t2 < 0

    def log_normalizer(self, theta: NaturalParam) -> float:
        self.member(theta)
        t1, t2 = theta.vector
        # In natural coordinates F = -t1^2/(4 t2) + log(pi / -t2) / 2, which
        # equals mu^2/(2 var) + log(2 pi var) / 2 in source coordinates.
        return -t1 * t1 / (4.0 * t2) + 0.5 * (math.log(math.pi) - math.log(-t2))

    def grad_log_normalizer(self, theta: NaturalParam) -> NaturalParam:
        self.member(theta)
        t1, t2 = theta.vector
        return NaturalParam([-t1 / (2.0 * t2), t1 * t1 / (4.0 * t2 * t2) - 1.0 / (2.0 * t2)])

    def grad_inverse(self, eta: NaturalParam) -> Member:
        self.check_shape(eta)
        mean, second = eta.vector
        var = second - mean * mean
        if not (math.isfinite(var) and var > 0):
            raise ExpectationDomainError(f"{self.name}: implied variance must be > 0, got {var}")
        return self.to_natural(GaussianParams(mu=mean, var=var))

    def _entropy(self, theta: NaturalParam) -> float:
        # log(2 pi e var) / 2 with var = -1 / (2 theta2).
        return 0.5 * (1.0 + math.log(math.pi) - math.log(-theta.vector[1]))

    def _gap(self, theta: NaturalParam, base: NaturalParam) -> float:
        return self._jensen_gaps(theta, base, 0.0)[0]  # m = base at alpha = 0

    def _jensen_gaps(self, theta: NaturalParam, theta2: NaturalParam, alpha: float):
        # mvn's at d = 1: lam = theta2' / theta2, z = w / sqrt(-2 theta2) for the step
        # w = (mu - mu') / var, from theta's own coordinates or the step: the smaller terms.
        (t1, t2), (u1, u2) = theta.vector, theta2.vector
        ratio = u1 / u2  # -2 mu'
        w = t1 - u1 - ratio * (t2 - u2) if t2 / u2 > 0.5 else t1 - ratio * t2
        lam = u2 / t2  # log lam from both logs only where lam under- or overflows
        log_lam = math.log(lam) if 2.0**-1022 <= lam < math.inf else math.log(-u2) - math.log(-t2)
        axes = [((u2 - t2) / t2, lam, log_lam, w / math.sqrt(-2.0 * t2))]
        return _whitened_gaps(self, alpha, axes)

    def in_support_batch(self, xs: np.ndarray) -> np.ndarray:
        return np.isfinite(_flat_values(xs))

    def sufficient_stat_batch(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float).reshape(-1)
        with np.errstate(over="ignore"):  # an x^2 beyond the float range is inf; mle raises
            return np.column_stack([xs, xs * xs])

    def log_density_batch(self, theta: NaturalParam, xs: np.ndarray) -> np.ndarray:
        t1, t2 = theta.vector
        xs = np.asarray(xs, dtype=float)
        return t1 * xs + t2 * xs * xs - self.log_normalizer(theta)

    def sample(self, theta: NaturalParam, n: int, seed: int) -> np.ndarray:
        theta = self._check_sample_args(theta, n)
        p = self.from_natural(theta)
        return p.mu + math.sqrt(p.var) * np.random.default_rng(seed).standard_normal(n)


@dataclass(frozen=True)
class MultivariateGaussianFamily(Family):
    """d-dimensional Gaussian with composite (vector, matrix) parameters."""

    dim: int

    name: ClassVar[str] = "mvn"
    source_keys: ClassVar[tuple[str, ...]] = ("mu", "sigma")
    decomposition: ClassVar[dict[str, str]] = {
        "natural": "theta = (cov^-1 mu, -cov^-1/2), matrix block negative-definite",
        "log_normalizer": "F(v, M) = d/2 log(2 pi) - log det(-2M)/2 - v^T M^-1 v / 4",
        "sufficient_stat": "t(x) = (x, x x^T)",
        "carrier": "k(x) = 0",
        "support": "x in R^d",
    }

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"mvn dimension must be >= 1, got {self.dim}")

    @property
    def vector_dim(self) -> int:  # type: ignore[override]
        return self.dim

    @property
    def matrix_dim(self) -> int:  # type: ignore[override]
        return self.dim

    @property
    def support(self) -> Support:  # type: ignore[override]
        return Support("real-vector", self.dim)

    @property
    def _renyi_weight(self) -> float:  # type: ignore[override]
        return 0.5 * self.dim

    def _factor(self, theta: NaturalParam) -> np.ndarray | None:
        """Cholesky factor of -2M (the precision matrix); None outside the domain
        (a non-finite coordinate, or -2M not positive-definite)."""
        if all(map(math.isfinite, theta.vector)) and np.isfinite(theta.matrix).all():
            try:
                chol = np.linalg.cholesky(-2.0 * theta.matrix)
            except np.linalg.LinAlgError:
                return None
            chol.setflags(write=False)
            return chol
        return None

    def to_natural(self, params: MultivariateGaussianParams) -> Member:
        if not isinstance(params, MultivariateGaussianParams):
            d = _params_as_dict(params)
            params = MultivariateGaussianParams(mu=d["mu"], cov=d.get("cov", d.get("sigma")))
        inv_chol = _lower_inverse(params._chol)
        precision = inv_chol.T @ inv_chol  # numpy forms A^T A as one triangle, mirrored
        vector = (precision @ params.mu).tolist()
        return self.member(NaturalParam._derived(vector, -0.5 * precision))

    def _moments(self, chol: np.ndarray, vector: tuple[float, ...]):
        """Mean, covariance = C^-T C^-1, C^-1 and log det(-2M) = log det C C^T of the member
        of vector block ``vector`` and precision factor C; None where the covariance overflows."""
        with np.errstate(over="ignore", invalid="ignore"):
            inv_chol = np.linalg.inv(chol)
            cov = inv_chol.T @ inv_chol
            mean = cov @ vector
        # Every entry of cov meets one of the vector's, so an overflow leaves inf or nan in mean.
        if not np.isfinite(mean).all():
            return None
        return mean, cov, inv_chol, 2.0 * sum(map(math.log, chol.diagonal().tolist()))

    def from_natural(self, theta: NaturalParam) -> MultivariateGaussianParams:
        mean, cov, _, _ = self.member(theta).moments
        return MultivariateGaussianParams(mu=mean, cov=cov)

    def _in_domain(self, theta: NaturalParam) -> bool:
        """Whether -2M has a factor and a finite covariance; a member being made keeps both."""
        chol = self._factor(theta)
        moments = None if chol is None else self._moments(chol, theta.vector)
        if moments is not None and type(theta) is Member and not hasattr(theta, "family"):
            diag = chol.diagonal().tolist()
            object.__setattr__(theta, "factor", chol)
            object.__setattr__(theta, "spread", max(diag) / min(diag))
            object.__setattr__(theta, "moments", moments)
        return moments is not None

    # F and grad F read the member's moments; a finite result is F's domain check.
    def log_normalizer(self, theta: NaturalParam) -> float:
        theta = self.member(theta)
        _, _, inv_chol, log_det = theta.moments
        with np.errstate(over="ignore", invalid="ignore"):
            y = inv_chol @ theta.vector
            value = 0.5 * (self.dim * _LOG_2PI - log_det + float(y @ y))
        self._guard(math.isfinite(value))
        return value

    def grad_log_normalizer(self, theta: NaturalParam) -> NaturalParam:
        mean, cov, _, _ = self.member(theta).moments
        with np.errstate(over="ignore", invalid="ignore"):
            second = cov + np.outer(mean, mean)
        self._guard(bool(np.isfinite(second).all()))
        return NaturalParam(mean, second)

    def _entropy(self, theta: NaturalParam) -> float:
        return 0.5 * (self.dim * (1.0 + _LOG_2PI) - theta.moments[3])

    _gap = GaussianFamily._gap  # the first of its whitened gaps at m = base

    def _jensen_gaps(self, theta: NaturalParam, theta2: NaturalParam, alpha: float):
        # The step w reads b's mean, which loses digits to b's conditioning: b's factor spreads
        # less. Picked from both factors, a is one member in (p, q) and (q, p) unless they tie.
        swap = theta2.spread > theta.spread
        a, b = (theta2, theta) if swap else (theta, theta2)
        pair = getattr(a, "pair", None)  # one read: a racing fill replaces it, whole
        if pair is None or pair[0]() is not b:  # b held weakly: no new object at its address
            pair = (weakref.ref(b), self._whiten(a, b))
            object.__setattr__(a, "pair", pair)
        return _whitened_gaps(self, alpha, pair[1], swap)

    def _whiten(self, a: Member, b: Member):
        """(g, lam = 1 + g, log lam, z) per axis of the pair, for every order. Whitened by a's
        factor C, b's precision is I + G, G = 2 C^-1 (M_a - M_b) C^-T, the mixture's weighted I + G;
        in G's eigenbasis U, the mean step is z = U^T C^-1 w for w = v_a - v_b + 2 (M_a -
        M_b) mu_b, since mu_a - mu_b = C^-T C^-1 w."""
        inv_a, (mean_b, _, inv_b, _) = a.moments[2], b.moments
        dm = 2.0 * (a.matrix - b.matrix)
        g, basis = np.linalg.eigh(inv_a @ dm @ inv_a.T)
        z = basis.T @ (inv_a @ (np.subtract(a.vector, b.vector) + dm @ mean_b))
        g, lam, z = g.tolist(), (1.0 + g).tolist(), z.tolist()
        if g[0] <= -0.5:  # lam to eps of itself, not of the largest: 1 / u^T (I + G)^-1 u
            y = inv_b @ a.factor @ basis
            with np.errstate(over="ignore", divide="ignore"):  # out of range: log lam from log |y|
                rq = (1.0 / (y * y).sum(axis=0)).tolist()
                log_rq = (-np.logaddexp.reduce(2.0 * np.log(np.abs(y)), axis=0)).tolist()
            lam = [l if x > -0.5 else q for x, l, q in zip(g, lam, rq)]
            g = [x if x > -0.5 else l - 1.0 for x, l in zip(g, lam)]
        # lam is over 1/2 unless refined: its log is math.log's wherever it is a normal float.
        log_lam = [
            math.log(l) if 2.0**-1022 <= l < math.inf else log_rq[i] for i, l in enumerate(lam)
        ]
        return list(zip(g, lam, log_lam, z))

    def grad_inverse(self, eta: NaturalParam) -> Member:
        self.check_shape(eta)
        cov = eta.matrix - np.outer(eta.vector, eta.vector)
        try:
            params = MultivariateGaussianParams(eta.vector, cov)  # its check factors cov
        except ParameterDomainError as exc:
            raise ExpectationDomainError(f"{self.name}: implied {exc}") from None
        return self.to_natural(params)

    def in_support_batch(self, xs: np.ndarray) -> np.ndarray:
        x = np.asarray(xs, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ValueError(f"{self.name}: expected observations of shape (n, {self.dim})")
        return np.isfinite(x).all(axis=1)

    def sufficient_stat_batch(self, xs: np.ndarray) -> np.ndarray:
        cols, d = np.asarray(xs, dtype=float).reshape(-1, self.dim).T, self.dim
        out = np.empty((d + d * d, cols.shape[1]))  # column by column: x_i, then x_i x_j
        out[:d] = cols
        with np.errstate(over="ignore"):  # an x_i x_j beyond the float range is inf; mle raises
            np.multiply(cols[:, None, :], cols[None, :, :], out=out[d:].reshape(d, d, -1))
        return out.T

    def log_density_batch(self, theta: NaturalParam, xs: np.ndarray) -> np.ndarray:
        cols = np.asarray(xs, dtype=float).reshape(-1, self.dim).T
        d, v, m = self.dim, theta.vector, theta.matrix
        # Elementwise terms summed in a fixed order, so a row's value does not
        # depend on the batch size (BLAS orders einsum and matmul sums by it).
        linear = sum(v[i] * cols[i] for i in range(d))
        quad = sum(m[i, j] * cols[i] * cols[j] for i in range(d) for j in range(d))
        return linear + quad - self.log_normalizer(theta)

    def sample(self, theta: NaturalParam, n: int, seed: int) -> np.ndarray:
        theta = self._check_sample_args(theta, n)
        p = self.from_natural(theta)
        z = np.random.default_rng(seed).standard_normal((n, self.dim))
        return p.mu + z @ p._chol.T


@dataclass(frozen=True)
class CenteredLaplacianFamily(Family):
    """Zero-location Laplacian; the general-position case is not exponential."""

    name: ClassVar[str] = "laplacian"
    vector_dim: ClassVar[int] = 1
    support: ClassVar[Support] = Support("real")
    _record: ClassVar[type] = LaplacianParams
    source_keys: ClassVar[tuple[str, ...]] = ("scale",)
    decomposition: ClassVar[dict[str, str]] = {
        "natural": "theta = -1/scale, theta < 0",
        "log_normalizer": "F(theta) = log 2 - log(-theta)",
        "sufficient_stat": "t(x) = |x|",
        "carrier": "k(x) = 0",
        "support": "x real",
    }

    def to_natural(self, params: LaplacianParams) -> Member:
        if not isinstance(params, LaplacianParams):
            params = LaplacianParams(**_params_as_dict(params))
        return self.member(NaturalParam([-1.0 / params.scale]))

    def _source(self, t: list[float]) -> tuple[float]:
        return (_checked("scale", -1.0 / t[0]),)

    def _inside(self, t: float) -> bool:
        return -math.inf < t < 0

    def log_normalizer(self, theta: NaturalParam) -> float:
        self.member(theta)
        return math.log(2.0) - math.log(-theta.vector[0])

    def grad_log_normalizer(self, theta: NaturalParam) -> NaturalParam:
        self.member(theta)
        return NaturalParam([-1.0 / theta.vector[0]])

    def grad_inverse(self, eta: NaturalParam) -> Member:
        self.check_shape(eta)
        e = eta.vector[0]
        if not (math.isfinite(e) and e > 0):
            raise ExpectationDomainError(f"{self.name}: mean absolute value must be > 0, got {e}")
        return self.member(NaturalParam([-1.0 / e]))

    def _entropy(self, theta: NaturalParam) -> float:
        return 1.0 + math.log(2.0) - math.log(-theta.vector[0])

    _gap_at = staticmethod(_rate_gap)  # F is the exponential's plus log 2: the same B

    def in_support_batch(self, xs: np.ndarray) -> np.ndarray:
        return np.isfinite(_flat_values(xs))

    def sufficient_stat_batch(self, xs: np.ndarray) -> np.ndarray:
        return np.abs(np.asarray(xs, dtype=float)).reshape(-1, 1)

    def log_density_batch(self, theta: NaturalParam, xs: np.ndarray) -> np.ndarray:
        t = theta.vector[0]
        return t * np.abs(np.asarray(xs, dtype=float)) - self.log_normalizer(theta)

    def sample(self, theta: NaturalParam, n: int, seed: int) -> np.ndarray:
        theta = self._check_sample_args(theta, n)
        return np.random.default_rng(seed).laplace(0.0, -1.0 / theta.vector[0], n)


def _softplus(t: float) -> float:
    """log(1 + e^t), which cannot overflow."""
    return max(t, 0.0) + math.log1p(math.exp(-abs(t)))


def _sigmoid(t: float) -> float:
    return _masses(t)[0]


def _masses(t: float) -> tuple[float, float, float]:
    """_sigmoid(t), _sigmoid(-t) and e^-|t|, from the one exponential."""
    e = math.exp(-abs(t))
    large, small = 1.0 / (1.0 + e), e / (1.0 + e)
    return (large, small, e) if t >= 0 else (small, large, e)


def _params_as_dict(params) -> dict:
    if isinstance(params, dict):
        return params
    raise TypeError(f"unsupported source-parameter object: {params!r}")


# --------------------------------------------------------------------------
# Registry.
# --------------------------------------------------------------------------

EXPONENTIAL = ExponentialDistFamily()
POISSON = PoissonFamily()
BERNOULLI = BernoulliFamily()
GAUSSIAN = GaussianFamily()
LAPLACIAN = CenteredLaplacianFamily()

_SCALAR_FAMILIES = {
    "exponential": EXPONENTIAL,
    "poisson": POISSON,
    "bernoulli": BERNOULLI,
    "gaussian": GAUSSIAN,
    "laplacian": LAPLACIAN,
}

_MVN_ALIASES = ("mvn", "gaussian-multivariate", "multivariate-gaussian")


def family_names() -> tuple[str, ...]:
    return tuple(_SCALAR_FAMILIES) + ("mvn",)


def get_family(name: str, dim: int | None = None) -> Family:
    """Look up a family by name; ``mvn`` requires an explicit dimension."""
    key = name.strip().lower().replace("_", "-")
    if key in _SCALAR_FAMILIES:
        return _SCALAR_FAMILIES[key]
    if key in _MVN_ALIASES:
        if dim is None:
            raise ValueError("the multivariate Gaussian family needs a dimension")
        return MultivariateGaussianFamily(int(dim))
    raise ValueError(f"unknown family {name!r}; known: {', '.join(family_names())}")
