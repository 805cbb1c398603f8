"""Exception types shared across the package."""


class SimulationError(ValueError):
    """Base class for every error raised by this package."""


class DomainError(SimulationError):
    """A parameter lies outside its physical or mathematical domain."""


class UndefinedStateError(SimulationError):
    """The conditional state has (numerically) vanished and cannot be used."""


class StructuralError(SimulationError):
    """A pulse sequence is malformed: bad ordering, a wrong payload, or layout."""


class UndefinedDirectionError(SimulationError):
    """A Bloch vector is too short to define a direction."""


class DegenerateBackgroundError(SimulationError):
    """The background probability is too close to 1 for reconstruction."""


class SingularInversionError(SimulationError):
    """A linear inversion problem is rank deficient or numerically singular."""
