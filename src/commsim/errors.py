"""Exception types shared across the package."""


class CommsimError(Exception):
    """Base class for all package-specific errors."""


class ParseError(CommsimError):
    """Malformed circuit or Pauli text input."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        self.message = message
        super().__init__(f"line {line_no}: {message}")


class SizeMismatch(CommsimError):
    """Operands act on registers of different size."""


class DimensionMismatch(CommsimError):
    """Operator and state dimensions are incompatible."""


class CapacityExceeded(CommsimError):
    """A statevector would exceed the amplitude cap, or a register a fixed size limit."""


class BatchMismatch(CommsimError):
    """Executor tests and shot counts differ in number, or a test names a gate outside its pool."""


class ProbabilityOutOfRange(CommsimError):
    """A measured outcome probability is non-finite or exceeds 1 beyond the norm tolerance."""


class NotCommuting(CommsimError):
    """A gate pair that was required to commute does not."""

    def __init__(self, i: int, j: int, message: str | None = None):
        self.i = i
        self.j = j
        super().__init__(message or f"gates {i} and {j} do not commute")


class LocalityExceeded(CommsimError):
    """A gate acts on more qudits than the declared locality allows."""


class NotHermitian(CommsimError):
    """An operator that was required to be Hermitian is not."""


class DependentInput(CommsimError):
    """Input Pauli operators are linearly dependent over GF(2)."""


class MinusIdentity(CommsimError):
    """A product of input stabilizer generators equals -I."""


class PhaseMismatch(CommsimError):
    """A declared commutation phase fails dense verification."""

    def __init__(self, i: int, j: int, message: str | None = None):
        self.i = i
        self.j = j
        super().__init__(message or f"declared phase for gate pair ({i}, {j}) is wrong")


class LightconeTooLarge(CommsimError):
    """A qubit's backward lightcone exceeds the fixed bound."""


class TooManyExtras(CommsimError):
    """More non-commuting gates than the fixed maximum."""


class ZeroAmplitudeSample(CommsimError):
    """A sampled basis state has zero amplitude; impossible by construction."""
