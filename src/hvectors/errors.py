"""The library's exceptions, in one module that every command can load cheaply."""

from __future__ import annotations


class NotAnOSequenceError(ValueError):
    """Raised when a realization runs out of monomials at some degree."""

    def __init__(self, degree: int, available: int, requested: int) -> None:
        self.degree = degree
        self.available = available
        self.requested = requested
        super().__init__(
            f"NotAnOSequence({degree}): needs {requested} monomials of degree {degree}, "
            f"only {available} available"
        )


class InfeasibleSearchError(RuntimeError):
    """Raised when an exhaustive search would exceed its configured budget."""


class UnsupportedCodimensionError(ValueError):
    """Decomposition search is only decidable for codimension <= 3."""


class PreconditionViolatedError(ValueError):
    """Input does not satisfy a refutation or verification precondition."""


class TraceViolationError(RuntimeError):
    """A growth trace failed; this marks a bug, never a mathematical counterexample."""

    def __init__(self, degree: int, label: str, lhs: int, rhs: int) -> None:
        self.degree = degree
        self.label = label
        super().__init__(
            f"trace at degree {degree}: inequality {label} fails ({lhs} > {rhs})"
        )
