"""The quantity term language.

A quantity is a prefix of sup/inf binders over a sum of guarded terms
``[guard] * value``, where guards are Boolean combinations of linear
inequalities and values are (extended) linear expressions.  ``And`` and
``Or`` are n-ary: a left-associated chain such as ``a || b || c`` is one
node, so a guard is only as deep as its nesting, not as wide as its
chains.  A :data:`Disjunct` (a conjunction of atoms) is a plain tuple of
atoms.  All node types are immutable and hashable (``And``, ``Or`` and
``Not`` hash once, when built, so depth costs no recursion), so terms can
be shared freely and used as cache keys.  The infinite constants
``OO``/``NEG_OO`` are defined in :mod:`linquant.numerics` and re-exported
here: they are both terms and values.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import MissingVariable
from .numerics import NEG_OO, OO, ExtRat, InfExpr  # noqa: F401  (OO, NEG_OO re-exported)

_ZERO = Fraction(0)


class LinExpr:
    """A normalized linear expression ``constant + sum(coeff * var)``.

    Zero coefficients are never stored, so two expressions are equal iff
    they denote the same linear function.
    """

    __slots__ = ("constant", "coeffs", "_hash")

    def __init__(self, constant=0, coeffs: Mapping[str, Fraction] | Iterable = ()):
        acc: dict[str, Fraction] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for var, q in items:
            q = Fraction(q)
            if q:
                got = acc.get(var)
                total = q if got is None else got + q
                if total:
                    acc[var] = total
                elif got is not None:
                    del acc[var]
        self.constant: Fraction = Fraction(constant)
        self.coeffs: dict[str, Fraction] = acc
        self._hash: int | None = None

    @classmethod
    def _raw(cls, constant: Fraction, coeffs: dict[str, Fraction]) -> "LinExpr":
        """Fast path for internal arithmetic: inputs are already normalized
        Fractions with no zero coefficients."""
        self = cls.__new__(cls)
        self.constant = constant
        self.coeffs = coeffs
        self._hash = None
        return self

    @staticmethod
    def const(q) -> "LinExpr":
        return LinExpr(q)

    @staticmethod
    def var(name: str, coeff=1) -> "LinExpr":
        return LinExpr(0, {name: Fraction(coeff)})

    def coeff(self, var: str) -> Fraction:
        return self.coeffs.get(var, _ZERO)

    def fvars(self) -> set[str]:
        return set(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs and self.constant == 0

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LinExpr") -> "LinExpr":
        merged = dict(self.coeffs)
        for var, q in other.coeffs.items():
            total = merged.get(var, _ZERO) + q
            if total:
                merged[var] = total
            elif var in merged:
                del merged[var]
        return LinExpr._raw(self.constant + other.constant, merged)

    def __sub__(self, other: "LinExpr") -> "LinExpr":
        merged = dict(self.coeffs)
        for var, q in other.coeffs.items():
            total = merged.get(var, _ZERO) - q
            if total:
                merged[var] = total
            elif var in merged:
                del merged[var]
        return LinExpr._raw(self.constant - other.constant, merged)

    def __neg__(self) -> "LinExpr":
        return LinExpr._raw(-self.constant, {v: -c for v, c in self.coeffs.items()})

    def scale(self, q) -> "LinExpr":
        q = Fraction(q)
        if not q:
            return LinExpr._raw(_ZERO, {})
        return LinExpr._raw(self.constant * q, {v: c * q for v, c in self.coeffs.items()})

    def without(self, var: str) -> "LinExpr":
        if var not in self.coeffs:
            return self
        rest = {v: c for v, c in self.coeffs.items() if v != var}
        return LinExpr._raw(self.constant, rest)

    def subst(self, var: str, repl: "LinExpr") -> "LinExpr":
        """Replace ``var`` by the expression ``repl`` (coefficients merged)."""
        c = self.coeffs.get(var)
        if c is None:
            return self
        return self.without(var) + repl.scale(c)

    def evaluate(self, valuation: "Valuation") -> Fraction:
        total = self.constant
        for var, q in self.coeffs.items():
            total += q * valuation[var]
        return total

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self.constant == other.constant and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.constant, frozenset(self.coeffs.items())))
        return self._hash

    def __repr__(self) -> str:
        parts = [f"{q}*{v}" for v, q in sorted(self.coeffs.items())]
        if self.constant or not parts:
            parts.append(str(self.constant))
        return "LinExpr(" + " + ".join(parts) + ")"


# An extended linear expression: finite or one of the infinities.
ExtLinExpr = LinExpr | InfExpr


class Rel(enum.Enum):
    """The four order relations allowed in atoms."""

    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    @property
    def negated(self) -> "Rel":
        return _NEGATED[self]

    @property
    def flipped(self) -> "Rel":
        """The relation with its sides swapped (a < b  <=>  b > a)."""
        return _FLIPPED[self]

    @property
    def is_strict(self) -> bool:
        return self in (Rel.LT, Rel.GT)

    @property
    def is_upper(self) -> bool:
        """True for < and <= (reading ``x rel bound``)."""
        return self in (Rel.LT, Rel.LE)

    def holds(self, cmp: int) -> bool:
        if self is Rel.LT:
            return cmp < 0
        if self is Rel.LE:
            return cmp <= 0
        if self is Rel.GT:
            return cmp > 0
        return cmp >= 0


_NEGATED = {Rel.LT: Rel.GE, Rel.GE: Rel.LT, Rel.LE: Rel.GT, Rel.GT: Rel.LE}
_FLIPPED = {Rel.LT: Rel.GT, Rel.GT: Rel.LT, Rel.LE: Rel.GE, Rel.GE: Rel.LE}


class Atom:
    """A linear inequality between two extended linear expressions.

    ``row`` and ``neg`` are filled by :mod:`linquant.logic`: ``row`` is the
    atom's compiled row (see :func:`~linquant.logic.fold_atom`), and ``neg``
    is set only on the engine's one interned atom per row, to the interned
    atom of the complement row.
    """

    __slots__ = ("lhs", "rel", "rhs", "_hash", "row", "neg")

    def __init__(self, lhs: ExtLinExpr, rel: Rel, rhs: ExtLinExpr):
        self.lhs = lhs
        self.rel = rel
        self.rhs = rhs
        self._hash: int | None = None
        self.row: tuple | None = None
        self.neg: Atom | None = None

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Atom):
            return NotImplemented
        return self.rel is other.rel and self.lhs == other.lhs and self.rhs == other.rhs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.lhs, self.rel, self.rhs))
        return self._hash

    def __repr__(self) -> str:
        return f"Atom({self.lhs!r} {self.rel.value} {self.rhs!r})"


@dataclass(frozen=True, slots=True)
class TrueExpr:
    def __repr__(self) -> str:
        return "TRUE"


@dataclass(frozen=True, slots=True)
class FalseExpr:
    def __repr__(self) -> str:
        return "FALSE"


TRUE = TrueExpr()
FALSE = FalseExpr()


@dataclass(frozen=True, slots=True)
class Not:
    arg: "BoolExpr"
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(("Not", self.arg)))

    def __hash__(self) -> int:
        return self._hash


class _Connective:
    """A chain of two or more guards joined by one connective.

    A leading argument of the same connective is spliced in, so a
    left-associated chain is one node: ``And(And(a, b), c) == And(a, b, c)``.
    A nested argument in any other position stays nested.
    """

    __slots__ = ("args", "_hash")

    def __init__(self, *args: "BoolExpr"):
        if type(args[0]) is type(self):
            args = args[0].args + args[1:]
        self.args: tuple[BoolExpr, ...] = args
        self._hash: int = hash((type(self).__name__, args))

    def __eq__(self, other) -> bool:
        return self is other or (type(other) is type(self) and self.args == other.args)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self.args!r}"


class And(_Connective):
    __slots__ = ()


class Or(_Connective):
    __slots__ = ()


BoolExpr = Atom | Not | And | Or | TrueExpr | FalseExpr

# A conjunction of atoms; the empty disjunct is true.
Disjunct = tuple[Atom, ...]


def and_all(parts: Iterable[BoolExpr]) -> BoolExpr:
    """One conjunction node of the parts; empty input is true."""
    args = tuple(parts)
    if len(args) > 1:
        return And(*args)
    return args[0] if args else TRUE


def or_all(parts: Iterable[BoolExpr]) -> BoolExpr:
    """One disjunction node of the parts; empty input is false."""
    args = tuple(parts)
    if len(args) > 1:
        return Or(*args)
    return args[0] if args else FALSE


@dataclass(frozen=True, slots=True)
class GuardedTerm:
    guard: BoolExpr
    value: ExtLinExpr


class Quant(enum.Enum):
    SUP = "sup"
    INF = "inf"


@dataclass(frozen=True)
class Quantity:
    """A quantifier prefix over a nonempty sum of guarded terms."""

    prefix: tuple[tuple[Quant, str], ...]
    body: tuple[GuardedTerm, ...]

    def __post_init__(self):
        if not self.body:
            raise ValueError("quantity body must be nonempty")
        names = [v for _, v in self.prefix]
        if len(names) != len(set(names)):
            raise ValueError("duplicate variable in quantifier prefix")


class Valuation(Mapping):
    """A finite mapping from variables to exact rationals.

    Lookups of unbound variables raise :class:`MissingVariable` so that
    evaluation never silently defaults.
    """

    __slots__ = ("_map",)

    def __init__(self, bindings: Mapping[str, Fraction] | Iterable = ()):
        items = bindings.items() if isinstance(bindings, Mapping) else bindings
        self._map = {var: Fraction(q) for var, q in items}

    def __getitem__(self, var: str) -> Fraction:
        try:
            return self._map[var]
        except KeyError:
            raise MissingVariable(var) from None

    def __iter__(self):
        return iter(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def updated(self, var: str, q) -> "Valuation":
        new = dict(self._map)
        new[var] = Fraction(q)
        return Valuation(new)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}={q}" for v, q in sorted(self._map.items()))
        return "{" + inner + "}"


def fvars_expr(e: ExtLinExpr) -> set[str]:
    if isinstance(e, InfExpr):
        return set()
    return e.fvars()


def atoms(phi: BoolExpr) -> Iterator[Atom]:
    """The atoms of a guard, left to right, repeats kept.  The walk keeps
    an explicit stack, so a guard nested past the recursion limit is fine."""
    stack = [phi]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            yield node
        elif isinstance(node, Not):
            stack.append(node.arg)
        elif isinstance(node, (And, Or)):
            stack.extend(reversed(node.args))


def fvars_bool(phi: BoolExpr) -> set[str]:
    return {v for a in atoms(phi) for side in (a.lhs, a.rhs) for v in fvars_expr(side)}


def fvars_body(body: Iterable[GuardedTerm]) -> set[str]:
    out: set[str] = set()
    for term in body:
        out |= fvars_bool(term.guard)
        out |= fvars_expr(term.value)
    return out


def free_vars(q: Quantity) -> set[str]:
    """Variables occurring in the body that the prefix does not bind."""
    return fvars_body(q.body) - {v for _, v in q.prefix}


def lin_eval(valuation: Valuation, e: ExtLinExpr) -> ExtRat:
    """Evaluate an extended linear expression to an extended rational."""
    if isinstance(e, InfExpr):
        return e
    return e.evaluate(valuation)


def count_atoms(phi: BoolExpr) -> int:
    """Number of (not necessarily distinct) atoms in a guard."""
    return sum(1 for _ in atoms(phi))
