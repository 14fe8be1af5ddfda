"""Exception hierarchy shared by all pemplate modules.

``ValidationError`` covers bad inputs (arguments, files, configs) and maps to
CLI exit code 1; ``NumericalError`` covers solver-stage failures (indefinite
matrices, integration blow-up) and maps to exit code 2.
"""


class PemplateError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(PemplateError):
    """Invalid argument, file content or configuration."""


class NumericalError(PemplateError):
    """A numerical stage failed (non-SPD matrix, blow-up, ...)."""


class MeshParseError(ValidationError):
    """Mesh file could not be parsed; message names the offending line."""


class DanglingNodeError(ValidationError):
    """A triangle references a node index outside the node table."""


class ZeroAreaTriangleError(ValidationError):
    """A triangle has (numerically) zero area."""


class IntegrationError(NumericalError):
    """Time integration produced a non-finite state."""


class StepStabilityError(IntegrationError):
    """The time step lies outside the integrator's stability region."""
