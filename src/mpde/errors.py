"""Exception hierarchy shared by all analysis modules."""


class MpdeError(Exception):
    """Base class for all library errors."""


class DomainError(MpdeError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class PreconditionError(MpdeError, ValueError):
    """A documented precondition of an operation was violated."""


class WindowError(PreconditionError):
    """An operator application left no valid coefficient window."""


class EvaluationError(MpdeError, RuntimeError):
    """Numerical evaluation failed (non-convergence, quadrature failure)."""


class EstimationError(MpdeError, ValueError):
    """Not enough usable data for an empirical estimate."""


class ParseError(MpdeError, ValueError):
    """Syntax error in an operator / moment / problem-file expression."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position
