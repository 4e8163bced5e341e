"""Exception hierarchy. CLI maps DvrateError to exit 1, InputFormatError to exit 2."""


class DvrateError(Exception):
    """Base for domain errors: violated preconditions, failed invariants."""


class ValidationError(DvrateError):
    """A type invariant does not hold (chain, measure, flow, function)."""


class UnknownStateError(ValidationError):
    """A state identifier is not in the chain's state list. Carries it."""

    def __init__(self, message: str, state=None):
        super().__init__(message)
        self.state = state


class NotReversibleError(DvrateError):
    """Operation requires detailed balance and the chain does not satisfy it."""


class DivergenceError(DvrateError):
    """A flow required to be divergence-free is not."""


class OverflowGuardError(DvrateError):
    """An exponent would overflow double precision (magnitude above the guard)."""


class ConvergenceError(DvrateError):
    """An iterative solver failed to reach tolerance: Newton on a class, or
    the stationary GMRES solve. Carries the final residual."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class InputFormatError(DvrateError):
    """Malformed input file: bad JSON, wrong shape, unknown names."""
