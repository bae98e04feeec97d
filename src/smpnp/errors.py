"""Exception types shared across the solver."""


class SmpnpError(Exception):
    """Base class for all solver errors."""


class MeshError(SmpnpError):
    """Invalid mesh topology or geometry."""


class MeshFormatError(MeshError):
    """Malformed mesh file; carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class FeasibilityError(SmpnpError):
    """Concentration state violates positivity or the volume-fraction bound."""


class LinearSolveError(SmpnpError):
    """A linear solve failed, or its answer failed the backward-error check."""


class SingularMatrixError(LinearSolveError):
    """SuperLU found the matrix singular: a zero pivot in its LU factorization."""


class NewtonError(SmpnpError):
    """Per-node Newton iteration failed to converge."""


class ConfigError(SmpnpError):
    """Invalid run configuration file."""


class ConvergenceError(SmpnpError):
    """Outer block iteration exceeded its iteration budget."""
