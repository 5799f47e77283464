"""Exception hierarchy shared by all sympeig modules."""


class SympeigError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SympeigError, ValueError):
    """Structurally invalid input: wrong shape, odd order, asymmetry beyond
    tolerance, incompatible dimensions, out-of-range parameters."""


class DomainError(SympeigError, ValueError):
    """Input outside the mathematical domain of the operation: not positive
    definite, singular, non-positive entries where positivity is required."""


class NumericalError(SympeigError, RuntimeError):
    """An underlying numerical procedure failed: eigensolver non-convergence,
    structural pairing that should exist could not be matched."""


class FormatError(SympeigError, ValueError):
    """A matrix file could not be read, parsed or written, or lacks required fields."""
