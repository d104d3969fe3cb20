"""Exception hierarchy shared by all ymspec modules.

Errors fall into three CLI-visible groups: configuration problems
(exit code 2), physics assertion failures (exit code 1), and numerical
failures (exit code 3).  The CLI maps exception classes to exit codes;
library users just catch what they need.
"""


class YmspecError(Exception):
    """Base class for all ymspec errors."""


class ConfigurationError(YmspecError):
    """Invalid identifier, malformed config, or unsupported option."""


class DimensionMismatchError(YmspecError):
    """Operands live on different bases, lattices, or mode counts."""


class NumericalError(YmspecError):
    """Base class for runtime numerical failures (CLI exit code 3)."""


class SolverError(NumericalError):
    """Iterative solver failed to converge; carries the residual."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class ConsistencyError(NumericalError):
    """Right-hand side has a component in the operator kernel."""


class StabilityError(NumericalError):
    """Time step violates the explicit-scheme stability bound."""


class DivergenceError(NumericalError):
    """Evolution produced non-finite fields; carries the last finite state."""

    def __init__(self, message, last_state=None, step=None):
        super().__init__(message)
        self.last_state = last_state
        self.step = step


class ResourceError(NumericalError):
    """Requested object exceeds the configured size cap."""


class InsufficientDataError(YmspecError):
    """Analysis requested on too few data points."""
