"""Exception hierarchy shared across the package.

Every error raised deliberately by this package derives from
:class:`ResilpError`, so callers (and the CLI) can catch one type.
"""

from __future__ import annotations


class ResilpError(Exception):
    """Base class for all errors raised by resilp."""


class ValidationError(ResilpError):
    """Malformed instance, system, or serialized document."""


class DomainError(ResilpError):
    """An assignment's variables do not match the system's variables."""

    def __init__(self, missing=(), extra=()):
        self.missing = tuple(sorted(missing))
        self.extra = tuple(sorted(extra))
        parts = []
        if self.missing:
            parts.append("missing: " + ", ".join(self.missing))
        if self.extra:
            parts.append("unexpected: " + ", ".join(self.extra))
        super().__init__("; ".join(parts) or "domain mismatch")


class ScenarioError(ResilpError):
    """An adversarial assignment violates its own block's constraints."""


class NormalizationError(ResilpError):
    """A string-matrix column is not in normalized form."""

    def __init__(self, column: int, detail: str = ""):
        self.column = column
        msg = f"column {column} is not normalized"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class BudgetError(ResilpError):
    """An enumeration would exceed its configured combinatorial budget."""


class ArgumentError(ResilpError):
    """Invalid argument to a generator or metric."""
