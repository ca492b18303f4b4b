"""Exception types shared across the package.

``DomainError`` subclasses mark mathematically invalid inputs (bad
parameters, out-of-support observations, degenerate samples);
``ConvergenceError`` marks a failed numerical verification. The CLI exits 3 on a
``DomainError`` or ``OverflowError`` (a value beyond the float range), 4 on ``ConvergenceError``.
"""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ParameterDomainError(DomainError):
    """A source parameter violates its constraint (e.g. rate <= 0)."""


class NaturalDomainError(DomainError):
    """A natural parameter lies outside the family's open natural space."""


class ScaledParameterError(NaturalDomainError):
    """alpha * theta leaves the natural space: Bernoulli's Renyi gap, the carrier moment."""


class MixedParameterError(NaturalDomainError):
    """alpha*theta + (1-alpha)*theta' leaves the natural space."""


class SupportError(DomainError):
    """An observation lies outside the family's support."""


class ExpectationDomainError(DomainError):
    """An expectation parameter lies outside the open expectation space."""


class DegenerateSampleError(ExpectationDomainError):
    """Sample moments sit on the boundary of the expectation space."""


class ConvergenceError(RuntimeError):
    """A numerical oracle failed to reach its accuracy target."""
