"""Shared exception types."""


class EmptyIntervalError(ValueError):
    """Raised when an interval [u, v] is requested but u is not <= v."""


class ClusterError(Exception):
    """No strong hypercube cluster exists at the requested base element.

    ``reason`` is one of "no completion", "ambiguous completion",
    "HC4 violated", "hypercube image collapsed".
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


class InvariantViolation(RuntimeError):
    """An identity the construction guarantees failed to hold; this is a bug,
    not a property of the input."""
