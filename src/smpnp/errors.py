"""Exception types shared across the solver."""


def require(ok, error, message, *fields):
    """Raise ``error(message)`` unless ``ok``; its ``fields`` attribute names
    the input fields whose rule failed, so that a parser can name the lines
    they came from."""
    if not ok:
        exc = error(message)
        exc.fields = fields
        raise exc


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
    """The outer block iteration or the equilibrium initializer exceeded
    its sweep budget."""
