"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Malformed or inconsistent configuration.  An error found on one line
    of a config file is given its 1-based ``line``, which prefixes the
    message as ``line N:``."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")


class SolverError(RuntimeError):
    """A game refused before any work (a utility that overflows at the
    domain's corner, an s_star with no finite square), or a failure below."""


class ConvergenceError(SolverError):
    """An iterative solve ran out of its iteration budget."""


class GridTooLargeError(SolverError):
    """The brute-force oracle's grid or a sweep's would exceed its budget."""
