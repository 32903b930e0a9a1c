"""Exception hierarchy shared across the package."""

from __future__ import annotations


class QlebError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(QlebError):
    """An input failed a structural or tolerance-based validation check."""


class NonHermitian(ValidationError):
    """Matrix is not Hermitian within the configured tolerance."""


class NotPSD(ValidationError):
    """Matrix has an eigenvalue below the admissible negative floor."""


class NotStrictlyPositive(ValidationError):
    """Matrix is not strictly positive definite at the configured rank cutoff."""


class DimMismatch(ValidationError):
    """Operands have incompatible dimensions."""


class ZeroState(ValidationError):
    """A state argument is (numerically) the zero operator."""


class MissingLimits(ValidationError):
    """A sequence criterion requires declared limit states but none were given."""


class DimVaries(ValidationError):
    """A fixed-dimension criterion received a sequence whose dimension changes."""


class NotPure(ValidationError):
    """The pure-state criterion received a reference state of rank > 1."""


class FactorNotAC(ValidationError):
    """A product-family factor violates the required absolute-continuity relation."""


class BlocksInconsistent(ValidationError):
    """Supplied block data does not reassemble to the supplied states."""


class InvalidParams(ValidationError):
    """Gaussian parameters violate their positivity/shape invariants."""


class CenteringViolated(ValidationError):
    """An observable that must have zero mean under the base state does not."""


class NumericCheckFailure(QlebError):
    """A post-hoc numerical consistency check exceeded its tolerance."""


class InconsistentDerivativeWarning(UserWarning):
    """The supplied state derivative has components outside the reachable range.

    Emitted when the derivative carries kernel-to-kernel components that no
    symmetric-logarithmic-derivative solution can reproduce; those components
    are projected away.
    """
