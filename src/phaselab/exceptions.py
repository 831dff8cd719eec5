"""Exception types shared across the package."""


class PhaseLabError(Exception):
    """Base class for all phaselab errors."""


class DimensionError(PhaseLabError, ValueError):
    """Shapes or grids do not match."""


class NumericError(PhaseLabError, ValueError):
    """Non-finite values where finite numbers are required."""


class ContractError(PhaseLabError, ValueError):
    """An input violates a structural invariant (Hermiticity, unitarity, norm)."""


class DegeneracyError(ContractError):
    """Instantaneous spectrum too close to degenerate for a single-level treatment."""


class UndefinedPhaseError(PhaseLabError, ValueError):
    """The phase of a (near-)zero complex number was requested."""


class CapacityError(PhaseLabError, ValueError):
    """The ancilla space is too small to purify the given state."""
