"""Exception taxonomy shared by all possem modules."""


class PossemError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PossemError):
    """A point lies outside the domain box."""


class CapacityError(PossemError):
    """A polynomial degree exceeds the configured quadrature capacity."""


class GeometryError(PossemError):
    """A dilation is too large for the probe support to fit in the domain."""


class UnsupportedContract(PossemError):
    """The requested identity does not hold for the given boundary condition."""


class NumericalError(PossemError):
    """An eigensolver or matrix exponential failed or produced non-finite data."""


class ContractViolation(PossemError):
    """An input violates a documented precondition (e.g. non-decoupled system)."""


class WitnessNotLocalized(PossemError):
    """No dilation in the schedule produced a certified witness at this point."""


class IndeterminateDecision(PossemError):
    """The decision could be certified neither way; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ConfigError(PossemError):
    """Malformed run configuration; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
