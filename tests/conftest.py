"""Shared fixtures and small independent oracles for the test suite."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from linquant import (
    NEG_OO,
    OO,
    Atom,
    Disjunct,
    GenParams,
    GuardedTerm,
    LinExpr,
    Quantity,
    Rel,
    Valuation,
    check_well_formed,
    parse_quantity,
)
from linquant.terms import And, Not, Or, TrueExpr
from linquant.logic import atom_eval, fold_atom

EX1_TEXT = "sup x : [y1 >= z -> (x - 2 < y1 && -x >= y3 && x >= y2)] * (2*x + z)"

CRAIG_F_TEXT = "[x >= 0] * x + [x >= 0 && y <= x] * y"
CRAIG_G_TEXT = "[x >= 0 && z >= x] * (2*x + z + 1) + [z < x] * oo"


@pytest.fixture
def ex1() -> Quantity:
    return parse_quantity(EX1_TEXT)


@pytest.fixture
def craig_pair() -> tuple[Quantity, Quantity]:
    return parse_quantity(CRAIG_F_TEXT), parse_quantity(CRAIG_G_TEXT)


# A 600-atom disjunction: as a binary tree it would be deeper than Python's
# default recursion limit allows the engine's walks to go.
WIDE_OR_TEXT = "[" + " || ".join(f"y > {i}" for i in range(600)) + "] * x"


@pytest.fixture
def default_recursion_limit():
    """Run a test at Python's default recursion limit; restored afterwards."""
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)
    yield 1_000
    sys.setrecursionlimit(before)


@pytest.fixture
def fixed_recursion_limit():
    """Pin the recursion limit below any value the engine might raise it to,
    so a test can see whether the library changed it; restored afterwards."""
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(2_000)
    yield 2_000
    sys.setrecursionlimit(before)


def val(**bindings) -> Valuation:
    return Valuation({k: Fraction(v) for k, v in bindings.items()})


def lin(constant=0, **coeffs) -> LinExpr:
    return LinExpr(Fraction(constant), {k: Fraction(v) for k, v in coeffs.items()})


def atom(lhs, rel: str, rhs) -> Atom:
    to_expr = lambda e: e if not isinstance(e, (int, Fraction)) else LinExpr.const(e)
    return Atom(to_expr(lhs), Rel(rel), to_expr(rhs))


def grid_sat(d: Disjunct, variables, lo=-5, hi=5, denominator=4) -> Valuation | None:
    """Exhaustive small-grid satisfiability oracle (quarter-integer grid)."""
    variables = sorted(variables)
    if not variables:
        empty = Valuation({})
        return empty if all(atom_eval(empty, a) for a in d) else None

    steps = [Fraction(k, denominator) for k in range(lo * denominator, hi * denominator + 1)]

    def rec(i: int, bound: dict) -> Valuation | None:
        if i == len(variables):
            sigma = Valuation(bound)
            if all(atom_eval(sigma, a) for a in d):
                return sigma
            return None
        for q in steps:
            bound[variables[i]] = q
            found = rec(i + 1, bound)
            if found is not None:
                return found
        del bound[variables[i]]
        return None

    return rec(0, {})


def random_iso_disjunct(
    rng: random.Random, variables, var: str, max_atoms=4, bound=3
) -> Disjunct:
    """A random disjunct whose ``var`` atoms are isolated, with integer
    coefficients/constants in [-bound, bound]."""
    others = [v for v in variables if v != var]
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        rel = rng.choice(list(Rel))
        if rng.random() < 0.7:
            # bound on var: constant or linear in the other variables
            if others and rng.random() < 0.6:
                coeffs = {v: rng.randint(-bound, bound) for v in rng.sample(others, 1)}
                rhs = LinExpr(rng.randint(-bound, bound), coeffs)
            else:
                rhs = LinExpr.const(rng.randint(-bound, bound))
            atoms.append(Atom(LinExpr.var(var), rel, rhs))
        elif others:
            lhs = LinExpr(rng.randint(-bound, bound), {rng.choice(others): rng.choice((-1, 1))})
            atoms.append(Atom(lhs, rel, LinExpr.const(rng.randint(-bound, bound))))
        else:
            atoms.append(Atom(LinExpr.var(var), rel, LinExpr.const(rng.randint(-bound, bound))))
    return Disjunct(tuple(atoms))


def random_frac_disjunct(rng: random.Random, variables, max_atoms=4, bound=3) -> Disjunct:
    """A random disjunct of atoms not solved for any variable: each side
    is linear in up to two variables, with coefficients and constants n/d
    for |n| <= bound and d in {1, 2, 3}."""

    def q() -> Fraction:
        return Fraction(rng.randint(-bound, bound), rng.choice((1, 2, 3)))

    def side() -> LinExpr:
        chosen = rng.sample(variables, rng.randint(0, min(2, len(variables))))
        return LinExpr(q(), {v: q() for v in chosen})

    n = rng.randint(1, max_atoms)
    return Disjunct(tuple(Atom(side(), rng.choice(list(Rel)), side()) for _ in range(n)))


def direct_bound_check(d: Disjunct, var: str, sigma: Valuation):
    """Independent interval analysis of {q : sigma[var -> q] satisfies d}.

    Returns (nonempty, greatest_lower, least_upper) where the bounds are
    extended rationals (defaults -oo / oo) computed directly from the atoms;
    assumes the ``var`` atoms are isolated.
    """
    from linquant import NEG_OO, OO, InfExpr, ext_cmp, lin_eval

    lows: list[tuple] = []
    highs: list[tuple] = []
    for a in d:
        mentions = var in getattr(a.lhs, "coeffs", {}) or var in getattr(a.rhs, "coeffs", {})
        if not mentions:
            if not atom_eval(sigma, a):
                return False, None, None
            continue
        value = lin_eval(sigma, a.rhs)
        if a.rel in (Rel.LT, Rel.LE):
            highs.append((value, a.rel is Rel.LT))
        else:
            lows.append((value, a.rel is Rel.GT))
    glb, glb_strict = NEG_OO, False
    for value, strict in lows:
        c = ext_cmp(value, glb)
        if c > 0:
            glb, glb_strict = value, strict
        elif c == 0:
            glb_strict = glb_strict or strict
    lub, lub_strict = OO, False
    for value, strict in highs:
        c = ext_cmp(value, lub)
        if c < 0:
            lub, lub_strict = value, strict
        elif c == 0:
            lub_strict = lub_strict or strict
    c = ext_cmp(glb, lub)
    closed = not glb_strict and not lub_strict and not isinstance(glb, InfExpr)
    nonempty = c < 0 or (c == 0 and closed)
    return nonempty, glb, lub


def is_antichain(disjuncts) -> bool:
    """No two disjuncts share an atom set and none's set contains another's."""
    sets = [frozenset(d) for d in disjuncts]
    return len(set(sets)) == len(sets) and not any(a < b for a in sets for b in sets)


def dnf_split(guard):
    """Disjuncts of an Or-chain of And-chains of atoms (``true`` is the
    empty conjunction); None for any other shape, an ``Or`` directly
    inside an ``Or`` included."""

    def conj(node):
        if isinstance(node, Atom):
            return (node,)
        if isinstance(node, And):
            parts = [conj(arg) for arg in node.args]
            return None if None in parts else sum(parts, ())
        return None

    if isinstance(guard, TrueExpr):
        return [()]
    parts = [conj(arg) for arg in guard.args] if isinstance(guard, Or) else [conj(guard)]
    return None if None in parts else parts


def has_parallel_atoms(d) -> bool:
    """Whether two atoms of ``d`` that do not fold share a row direction
    (see ``logic.fold_atom``)."""
    directions = [f.row[0] for f in map(fold_atom, d) if isinstance(f, Atom)]
    return len(directions) != len(set(directions))


def seeded_instances(count: int, base_seed: int, **overrides):
    params = GenParams(**overrides)
    from linquant import random_quantity

    return [random_quantity(params, base_seed + k) for k in range(count)]


def entailing_pair(seed: int):
    """A pair (f, g) with g = f plus a nonnegative-valued extra body over
    shared variables (plus occasionally a fresh one), so f entails g by
    construction."""
    from linquant import random_quantity
    from linquant.terms import GuardedTerm, Quantity, fvars_body

    rng = random.Random(seed)
    f = random_quantity(
        GenParams(vars=2, summands=2, atoms_per_guard=2, infinity_prob=0.1, quantifiers=0),
        seed,
    )
    shared = sorted(fvars_body(f.body)) or ["x"]
    extra_terms = []
    for _ in range(rng.randint(1, 2)):
        var = rng.choice(shared + ["w"])
        guard = Atom(
            LinExpr.var(var),
            Rel.LE if rng.random() < 0.5 else Rel.GT,
            LinExpr.const(rng.randint(-2, 2)),
        )
        extra_terms.append(GuardedTerm(guard, LinExpr.const(rng.randint(0, 3))))
    return f, Quantity((), f.body + tuple(extra_terms))


def _small_lin() -> st.SearchStrategy[LinExpr]:
    return st.builds(
        lambda c, a, b: LinExpr(c, {"x": a, "y": b}),
        st.integers(-3, 3),
        st.integers(-2, 2),
        st.integers(-2, 2),
    )


@st.composite
def quantifier_free(draw, max_terms: int = 3) -> Quantity:
    """A well-formed, quantifier-free quantity over x and y built from small
    integers, so hypothesis shrinks it term by term and atom by atom.

    Guards are And/Or/Not trees of up to four atoms (constant atoms
    included); about one value in five is oo or -oo.
    """
    atoms = st.builds(Atom, _small_lin(), st.sampled_from(list(Rel)), st.builds(LinExpr))
    guards = st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.builds(And, inner, inner), st.builds(Or, inner, inner), st.builds(Not, inner)
        ),
        max_leaves=4,
    )
    values = st.builds(
        lambda finite, inf: inf or finite,
        _small_lin(),
        st.sampled_from([None] * 8 + [OO, NEG_OO]),
    )
    terms = draw(st.lists(st.builds(GuardedTerm, guards, values), min_size=1, max_size=max_terms))
    q = Quantity((), tuple(terms))
    assume(check_well_formed(q) is None)
    return q
