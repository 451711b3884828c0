"""Exception types shared across the package.

Every error raised by the library derives from :class:`RnslError`, so callers
can catch one base class.  Errors that point at a particular atom of the
underlying probability space carry a 0-based ``atom`` attribute and a time
``t``: :class:`BoundViolated` sets it to the time a sampled value escaped its
envelope, and every other error leaves it None.
"""

from __future__ import annotations


class RnslError(Exception):
    """Base class for all library errors."""


class EmptyAtomList(RnslError):
    """A probability space needs at least one atom."""


class NonPositiveProbability(RnslError):
    """Atom probabilities must lie in (0, 1]."""


class ProbabilitiesDoNotSumToOne(RnslError):
    """Atom probabilities must sum to 1 within 1e-12."""


class NonFiniteValue(RnslError):
    """NaN or infinity where only finite values are allowed."""


class SpaceMismatch(RnslError):
    """Operands live on different probability spaces."""


class DimMismatch(RnslError):
    """Operands have incompatible module dimensions."""


class _AtomError(RnslError):
    """Base for errors that name an offending atom (0-based index), and a time ``t``."""

    def __init__(self, message: str, atom: int | None = None, t: float | None = None):
        super().__init__(message)
        self.atom = atom
        self.t = t


class DivisionByZeroOnAtom(_AtomError):
    """Pointwise division hit a zero divisor on some atom."""


class EmptyFamily(RnslError):
    """Lattice supremum/infimum of an empty family is undefined."""


class PowerIterationDiverged(RnslError):
    """Power iteration failed to converge within the iteration budget.

    Nothing in rnsl raises it; it stays exported for code that imports it.
    """


class MaxPanelsExceeded(_AtomError):
    """Adaptive quadrature exceeded its panel budget, or a tolerance is out of its reach."""


class StepUnderflow(RnslError):
    """A step size fell below the supported resolution (1e-12)."""


class TailNotCertified(RnslError):
    """No truncation horizon certifies an improper integral's tail under its target."""


class CertificateMissing(RnslError):
    """An exponential growth certificate is required but absent."""


class EtaNotInGxi(_AtomError):
    """A damping parameter does not dominate the growth rate on some atom."""


class NonPositiveTime(RnslError):
    """A strictly positive time argument was expected."""


class NegativeTime(RnslError):
    """A nonnegative time argument was expected."""


class CoefficientOverflow(RnslError):
    """Log-space assembly still exceeds the double-precision range."""


class BoundViolated(_AtomError):
    """A sampled value escaped its declared exponential envelope at time ``t``."""


class NotInjective(_AtomError):
    """An operator expected to be injective has a numerically trivial kernel gap."""


class NonCommuting(_AtomError):
    """Two operators expected to commute do not, beyond tolerance."""


class EtaInSpectrum(_AtomError):
    """eta*I - A is numerically singular on some atom."""


class SchemaError(RnslError):
    """A scenario document violates the schema; ``pointer`` locates the field."""

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(f"{message} (at {pointer})" if pointer else message)
        self.pointer = pointer


class UnknownSuite(RnslError):
    """A scenario requested a suite name that is not registered."""


class MissingSuiteData(RnslError):
    """A plot emitter needs data from a suite absent from the report."""
