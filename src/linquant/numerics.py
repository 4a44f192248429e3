"""Exact arithmetic over the extended rationals.

A value is a ``fractions.Fraction`` (always canonical: positive denominator,
gcd-reduced) or one of the two infinite constants :data:`OO` and
:data:`NEG_OO`.  The same constants are the infinite terms of the quantity
language, so evaluating one needs no conversion.  Infinities follow the usual
extended-real rules: adding a finite value to an infinity keeps the infinity
and equal-signed infinities add.  The one undefined combination,
``oo + (-oo)``, raises :class:`UndefinedSum`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import UndefinedSum


@dataclass(frozen=True, slots=True)
class InfExpr:
    """One of the two infinite constants, usable as a value or atom side.

    Ordered against rationals and each other: -oo < every Fraction < oo.
    """

    sign: int

    def __repr__(self) -> str:
        return "OO" if self.sign > 0 else "NEG_OO"

    def __str__(self) -> str:
        return "oo" if self.sign > 0 else "-oo"

    def __lt__(self, other) -> bool:
        return ext_cmp(self, other) < 0

    def __le__(self, other) -> bool:
        return ext_cmp(self, other) <= 0

    def __gt__(self, other) -> bool:
        return ext_cmp(self, other) > 0

    def __ge__(self, other) -> bool:
        return ext_cmp(self, other) >= 0


OO = InfExpr(1)
NEG_OO = InfExpr(-1)

# An extended rational: a finite Fraction or one of the infinities.
ExtRat = Fraction | InfExpr


def ext_add(a: ExtRat, b: ExtRat) -> ExtRat:
    """Extended addition; raises UndefinedSum on oo + (-oo)."""
    if isinstance(a, InfExpr):
        if isinstance(b, InfExpr) and b.sign != a.sign:
            raise UndefinedSum("oo + (-oo) is undefined")
        return a
    if isinstance(b, InfExpr):
        return b
    return a + b


def ext_cmp(a: ExtRat, b: ExtRat) -> int:
    """Three-way comparison: -1, 0, or 1."""
    sa = a.sign if isinstance(a, InfExpr) else 0
    sb = b.sign if isinstance(b, InfExpr) else 0
    if sa != sb:
        return -1 if sa < sb else 1
    if sa:
        return 0
    return (a > b) - (a < b)
