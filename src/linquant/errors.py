"""Exception types shared across the package."""

from __future__ import annotations


class LinquantError(Exception):
    """Base class for all errors raised by linquant."""


class UndefinedSum(LinquantError):
    """Raised when oo + (-oo) would be formed; callers must rule this out
    via the well-formedness check before summing guarded values."""


class MissingVariable(LinquantError, KeyError):
    """A valuation does not bind a variable that evaluation needs."""

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return f"no binding for variable {self.name!r}"


class ParseError(LinquantError):
    """Syntax error, with 1-based line/column of the offending token."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class NonLinearError(ParseError):
    """A term multiplies two variables (or divides by one)."""


class NotIsolated(LinquantError):
    """An atom mentioning the elimination variable is not of the shape
    ``x ~ bound`` with the variable absent from the bound, or a guard is not
    in guarded normal form (an ``Or`` of ``And`` nodes of atoms)."""


class NotPartitioning(LinquantError):
    """A body expected to be partitioning (exactly one guard true at every
    valuation) is not."""


class IndexOutOfRange(LinquantError, IndexError):
    """A 1-based bound index lies outside the bound list."""


class WellFormednessViolation(LinquantError):
    """Two guarded terms with values oo and -oo have overlapping guards."""

    def __init__(self, i: int, j: int):
        super().__init__(f"terms {i} and {j} may both be active with values oo and -oo")
        self.pair = (i, j)


class NotEntailed(LinquantError):
    """Interpolation was requested for a pair that is not an entailment."""

    def __init__(self, witness):
        super().__init__(f"entailment fails, e.g. at {witness}")
        self.witness = witness
