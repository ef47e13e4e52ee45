"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Malformed or inconsistent configuration.

    ``line`` carries the 1-based line number when the error comes from a
    config file, so the CLI can print a line-anchored message.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NoFiniteOptimumError(ValueError):
    """A user's utility has no finite maximizer (zero accuracy cost but
    positive privacy stake)."""


class SolverError(RuntimeError):
    """A game refused before any work (a utility that overflows at the
    domain's corner, an s_star with no finite square), or a failure below."""


class ConvergenceError(SolverError):
    """An iterative solve ran out of its iteration budget."""


class GridTooLargeError(SolverError):
    """The brute-force oracle's grid or a sweep's would exceed its budget."""
