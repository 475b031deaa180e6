"""Exception types shared across the workbench.

Each type carries the CLI's exit code and stderr label, so `cli.main`
reports any ConfalError through one clause; a ResourceBound means that a
computation hit a configured cap.
"""


class ConfalError(Exception):
    """Base class for all workbench errors."""

    exit_code = 1
    label = "check failed"


class ResourceBound(ConfalError):
    """A computation hit a configured cap.  Nothing is truncated silently."""

    exit_code = 3
    label = "resource bound"


class BoundExceeded(ResourceBound):
    """An iterated derivation failed to vanish within the configured bound."""

    def __init__(self, message, element=None, bound=None):
        super().__init__(message)
        self.element = element
        self.bound = bound


class ClosureBoundExceeded(ResourceBound):
    """A closure kept producing independent elements past the configured bound."""


class NotUnital(ConfalError):
    """The supplied element is not a usable conformal identity."""


class NotNilpotent(ConfalError):
    """The element supplied to identity transport is not nilpotent."""


class MismatchWitness(ConfalError):
    """A round-trip verification failed.  Carries the failing triple."""

    def __init__(self, left, right, order, detail=""):
        msg = f"product mismatch at ({left}, {right}, n={order})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.witness = (left, right, order)


class ParseError(ConfalError):
    """Definition-file syntax error with position information."""

    exit_code = 2
    label = "error"

    def __init__(self, message, line, col, expected=()):
        full = f"line {line}, column {col}: {message}"
        if expected:
            full += " (expected " + " or ".join(expected) + ")"
        super().__init__(full)
        self.line = line
        self.col = col
        self.expected = tuple(expected)
