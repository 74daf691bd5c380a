"""Exception types shared across the package."""


class BraidLexError(Exception):
    """Base class for all braidlex errors."""


class BraidWordError(BraidLexError):
    """A word contains a letter outside the generator range 1..n."""


class ConfigError(BraidLexError):
    """A segment configuration violates the nesting constraints."""


class BuildLimitError(BraidLexError):
    """Requested n is past the largest n a configuration key holds."""


class InternalConsistencyError(BraidLexError):
    """Two routes that must agree produced different answers."""


class ConvergenceError(BraidLexError):
    """Power iteration failed to converge within the iteration budget.

    ``history`` holds (iteration, lambda, residual) triples, oldest first.
    """

    def __init__(self, message, residual=None, history=()):
        super().__init__(message)
        self.residual = residual
        self.history = tuple(history)


class BoundViolationError(BraidLexError):
    """A proved growth/proportion bound failed numerically."""

    def __init__(self, bound, n, value):
        super().__init__(f"bound {bound} violated at n={n}: {value!r}")
        self.bound = bound
        self.n = n
        self.value = value
