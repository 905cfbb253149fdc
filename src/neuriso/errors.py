"""Exception taxonomy shared across the package."""


class NeurisoError(Exception):
    """Base class for all package-specific failures."""


class InvalidInputError(NeurisoError):
    """An argument is outside the operation's domain."""


class InvalidShapeError(NeurisoError):
    """Array dimensions are incompatible with the requested operation."""


class SizeLimitError(NeurisoError):
    """The request exceeds a hard combinatorial size cap."""


class DegenerateStackError(NeurisoError):
    """A stacked system is rank-deficient where full row rank is required."""


class DegeneratePlantError(NeurisoError):
    """A planted neuron is degenerate (e.g. never active, or patterns collide)."""


class MissingPlantError(NeurisoError):
    """A planted pattern is required but cannot be located."""


class InfeasibleError(NeurisoError):
    """The constraint set of an optimization problem is empty."""


class InconsistentSolutionError(NeurisoError):
    """A solution violates the structural assumptions of a conversion."""


class SchemaError(NeurisoError):
    """A serialized file does not match the expected format."""
