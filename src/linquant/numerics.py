"""Exact arithmetic over the extended rationals.

Finite values are arbitrary-precision ``fractions.Fraction`` (always stored
in canonical form: positive denominator, gcd-reduced).  The two infinities
follow the usual extended-real rules: adding a finite value to an infinity
keeps the infinity, equal-signed infinities add, scaling by zero yields zero
even against an infinity, and scaling by a negative rational flips the sign.
The one undefined combination, ``oo + (-oo)``, raises :class:`UndefinedSum`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import UndefinedSum

# Exact rational type used everywhere in the package.
Rational = Fraction


@dataclass(frozen=True, slots=True)
class ExtRat:
    """An extended rational: a finite Fraction, +oo, or -oo.

    ``inf`` is -1, 0 or +1; ``value`` is the finite payload (None for the
    infinities).  Use :func:`finite`, :data:`POS_INF` and :data:`NEG_INF`
    rather than the raw constructor.
    """

    inf: int
    value: Fraction | None

    @staticmethod
    def finite(q) -> "ExtRat":
        return ExtRat(0, Fraction(q))

    @property
    def is_finite(self) -> bool:
        return self.inf == 0

    def __str__(self) -> str:
        if self.inf > 0:
            return "oo"
        if self.inf < 0:
            return "-oo"
        return str(self.value)

    def __repr__(self) -> str:
        return f"ExtRat({self})"

    # Comparisons follow the total order -oo < finite < oo.
    def __lt__(self, other: "ExtRat") -> bool:
        return ext_cmp(self, other) < 0

    def __le__(self, other: "ExtRat") -> bool:
        return ext_cmp(self, other) <= 0

    def __gt__(self, other: "ExtRat") -> bool:
        return ext_cmp(self, other) > 0

    def __ge__(self, other: "ExtRat") -> bool:
        return ext_cmp(self, other) >= 0

    def __add__(self, other: "ExtRat") -> "ExtRat":
        return ext_add(self, other)


POS_INF = ExtRat(1, None)
NEG_INF = ExtRat(-1, None)
ZERO = ExtRat.finite(0)


def ext_add(a: ExtRat, b: ExtRat) -> ExtRat:
    """Extended addition; raises UndefinedSum on oo + (-oo)."""
    if a.inf:
        if b.inf and b.inf != a.inf:
            raise UndefinedSum("oo + (-oo) is undefined")
        return a
    if b.inf:
        return b
    return ExtRat(0, a.value + b.value)


def ext_scale(q: Rational, a: ExtRat) -> ExtRat:
    """Scale an extended rational by a finite rational (0 * oo = 0)."""
    q = Fraction(q)
    if a.inf == 0:
        return ExtRat(0, q * a.value)
    if q == 0:
        return ZERO
    return POS_INF if (a.inf > 0) == (q > 0) else NEG_INF


def ext_cmp(a: ExtRat, b: ExtRat) -> int:
    """Three-way comparison: -1, 0, or 1."""
    if a.inf != b.inf:
        return -1 if a.inf < b.inf else 1
    if a.inf:
        return 0
    if a.value == b.value:
        return 0
    return -1 if a.value < b.value else 1
