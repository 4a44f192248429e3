"""Boolean-level algorithms over linear-inequality atoms.

Satisfiability of a conjunction of atoms is decided exactly by iterated
Fourier-Motzkin elimination over integer rows.  Each atom is folded and
compiled once into a row ``k*(dir.x) + c (<|<=) 0`` whose direction ``dir``
is a primitive integer vector; a system keeps one row per direction, the
tightest of any parallel rows (strict wins a tie).  Eliminating a variable
pairs each of its lower rows with each upper row under integer multipliers
that cancel it; a variable-free row decides the system at once.  All
arithmetic is on Python integers, so no verdict is approximate.  A
satisfying valuation is read back by reversing the elimination order and
picking a point inside each residual interval, computed with exact
rationals from the rows of that stage.

A guard becomes disjuncts in one place, :func:`to_dnf`, through one walk,
``_dnf``, that pushes negation inward as it goes and iterates the
arguments of each n-ary ``And``/``Or``.  A disjunct is a tuple of atoms.
Every layer that builds disjuncts extends one with :func:`conjoin`, which
keeps one atom per row direction, the tightest, by the rule a system keeps
for its rows; no other code above Fourier-Motzkin compares parallel atoms.
Every DNF, :func:`to_dnf`'s, the cell walk's :func:`refine_dnf` states and
the guarded normal form, is kept minimal by one rule, :func:`absorb`: no
disjunct's atoms include all of another's (absorption, McCluskey 1956).
The walk's states are not reduced (:func:`reduce_disjunct`); each emitted cell is.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .numerics import ext_cmp
from .terms import (
    FALSE,
    TRUE,
    And,
    Atom,
    BoolExpr,
    Disjunct,
    FalseExpr,
    InfExpr,
    LinExpr,
    Not,
    Or,
    TrueExpr,
    Valuation,
    and_all,
    fvars_expr,
    lin_eval,
    or_all,
)


def atom_eval(valuation: Valuation, atom: Atom) -> bool:
    """Evaluate an atom under a (total enough) valuation."""
    lhs, rhs = atom.lhs, atom.rhs
    if isinstance(lhs, LinExpr) and isinstance(rhs, LinExpr):
        a = lhs.evaluate(valuation)
        b = rhs.evaluate(valuation)
        return atom.rel.holds((a > b) - (a < b))
    cmp = ext_cmp(lin_eval(valuation, lhs), lin_eval(valuation, rhs))
    return atom.rel.holds(cmp)


def bool_eval(valuation: Valuation, phi: BoolExpr, _atom_cache: dict | None = None) -> bool:
    """Evaluate a guard; an optional per-valuation cache shares atom truth
    values across guards (atoms repeat heavily in engine outputs)."""
    if isinstance(phi, Atom):
        if _atom_cache is None:
            return atom_eval(valuation, phi)
        hit = _atom_cache.get(phi)
        if hit is None:
            hit = _atom_cache[phi] = atom_eval(valuation, phi)
        return hit
    if isinstance(phi, Not):
        return not bool_eval(valuation, phi.arg, _atom_cache)
    if isinstance(phi, And):
        return all(bool_eval(valuation, arg, _atom_cache) for arg in phi.args)
    if isinstance(phi, Or):
        return any(bool_eval(valuation, arg, _atom_cache) for arg in phi.args)
    if isinstance(phi, TrueExpr):
        return True
    if isinstance(phi, FalseExpr):
        return False
    raise TypeError(f"not a Boolean expression: {phi!r}")


def negate_atom(atom: Atom) -> Atom:
    """Complement the relation over the total order (e.g. not (a < b) is a >= b)."""
    return Atom(atom.lhs, atom.rel.negated, atom.rhs)


@lru_cache(maxsize=1 << 16)
def fold_atom(atom: Atom) -> Atom | TrueExpr | FalseExpr:
    """Replace decidable atoms by their truth value.

    An atom folds when either side is infinite (finite expressions always
    evaluate strictly between -oo and oo) or when the two sides differ by a
    constant.  Anything else is returned unchanged.
    """
    lhs, rel, rhs = atom.lhs, atom.rel, atom.rhs
    if isinstance(lhs, InfExpr) or isinstance(rhs, InfExpr):
        # ext_cmp orders the sides by sign alone (a finite side counts as
        # sign 0), so it never compares a finite expression here
        return TRUE if rel.holds(ext_cmp(lhs, rhs)) else FALSE
    diff = lhs - rhs
    if diff.is_constant:
        cmp = (diff.constant > 0) - (diff.constant < 0)
        return TRUE if rel.holds(cmp) else FALSE
    return atom


@lru_cache(maxsize=1 << 16)
def isolate(atom: Atom, var: str) -> Atom:
    """Rewrite a folded atom (two finite sides, as every :func:`to_dnf`
    atom has) mentioning ``var`` into the shape ``var rel bound``.

    The bound never mentions ``var``; the relation flips when the collected
    coefficient is negative and division is exact.  Atoms not mentioning
    ``var`` (including ones where it cancels) come back ``var``-free.
    """
    lhs, rel, rhs = atom.lhs, atom.rel, atom.rhs
    if var not in lhs.coeffs and var not in rhs.coeffs:
        return atom
    diff = lhs - rhs  # atom is equivalent to diff rel 0
    c = diff.coeff(var)
    if c == 0:
        return Atom(diff, rel, LinExpr.const(0))
    bound = diff.without(var).scale(Fraction(-1) / c)
    new_rel = rel if c > 0 else rel.flipped
    return Atom(LinExpr.var(var), new_rel, bound)


def is_isolated_in(atom: Atom, var: str) -> bool:
    """True when the atom is ``var rel bound`` with ``var`` absent from the bound."""
    lhs = atom.lhs
    return (
        isinstance(lhs, LinExpr)
        and lhs.constant == 0
        and lhs.coeffs == {var: Fraction(1)}
        and var not in fvars_expr(atom.rhs)
    )


# Disjunctive normal form ----------------------------------------------------


def conjoin(d: Disjunct, atoms) -> Disjunct:
    """The disjunct ``d`` extended by ``atoms``, one atom per direction.

    Of atoms whose rows share a direction (see :func:`_row`) only the
    tightest stays, in the position of the first of them; an equally tight
    one keeps the first.  This is the rule a Fourier-Motzkin system keeps
    for its rows, so the result is equivalent to the plain conjunction.
    Atoms that fold are kept once each.
    """
    kept: dict = {}  # direction (or a folding atom) -> (position, row)
    out: list[Atom] = []
    for atom in (*d, *atoms):
        row = _row(atom)
        key = row[0] if isinstance(row, tuple) else atom
        old = kept.get(key)
        if old is None:
            kept[key] = len(out), row
            out.append(atom)
        elif isinstance(row, tuple) and not _covers(old[1][1:], *row[1:]):
            kept[key] = old[0], row
            out[old[0]] = atom
    return tuple(out)


def absorb(disjuncts) -> list[Disjunct]:
    """The first disjunct of each minimal atom set, in order.

    A disjunct whose atom set strictly contains another's implies it and
    adds nothing to the disjunction, so it is dropped (absorption:
    ``d || (d && a)`` is ``d``); of equal atom sets the first stays.  Sets
    are visited shortest first, and each is compared only with the kept
    sets filed under one of its atoms, each kept set being filed under one
    atom of its own, so disjuncts that share no atom are never compared.
    """
    disjuncts = list(disjuncts)
    if len(disjuncts) < 2:
        return disjuncts
    sets = [frozenset(d) for d in disjuncts]
    kept: dict[frozenset, int] = {}  # minimal set -> index of its first disjunct
    filed: dict[Atom, list[frozenset]] = {}
    for i in sorted(range(len(sets)), key=lambda i: len(sets[i])):
        s = sets[i]
        if not s:  # true absorbs everything else
            return [disjuncts[i]]
        if s in kept or any(k < s for a in s for k in filed.get(a, ())):
            continue
        kept[s] = i
        # the last atom: a cell-walk state's disjuncts share their first
        # atoms, which come from the guards conjoined first
        filed.setdefault(disjuncts[i][-1], []).append(s)
    return [disjuncts[i] for i in sorted(kept.values())]


def _dnf(phi: BoolExpr, positive: bool) -> list[Disjunct]:
    """Disjuncts of ``phi`` (of its negation when not ``positive``).

    Negation is pushed inward as the walk goes, atoms come folded and each
    disjunct keeps one atom per direction (see :func:`conjoin`).  A
    conjunction's product is checked for satisfiability after each factor
    with more than one disjunct and once at the end, so a conjunction of
    atoms costs one check and one pass over its atoms; each product is
    absorbed first.  A disjunction's parts are concatenated, repeats
    included.  Chains are iterated; only nesting recurses.
    """
    if isinstance(phi, Atom):
        atom = fold_atom(phi if positive else negate_atom(phi))
        if atom is TRUE:
            return [()]
        return [] if atom is FALSE else [(atom,)]
    if isinstance(phi, Not):
        return _dnf(phi.arg, not positive)
    if isinstance(phi, (TrueExpr, FalseExpr)):
        return [()] if isinstance(phi, TrueExpr) == positive else []
    if not isinstance(phi, (And, Or)):
        raise TypeError(f"not a Boolean expression: {phi!r}")
    if isinstance(phi, Or) == positive:
        return [d for arg in phi.args for d in _dnf(arg, positive)]
    product: list[Disjunct] = [()]
    pending: list[Atom] = []  # atoms of one-disjunct factors, conjoined in one go
    for arg in phi.args:
        factor = _dnf(arg, positive)
        if len(factor) == 1:
            pending += factor[0]
            continue
        product = absorb(conjoin(p, (*pending, *d)) for p in product for d in factor)
        product = [p for p in product if disjunct_sat(p)]
        if not product:
            return product
        pending = []
    return refine_dnf(product, [pending]) if pending else product


@lru_cache(maxsize=1 << 14)
def _to_dnf_cached(phi: BoolExpr) -> tuple[Disjunct, ...]:
    return tuple(absorb(_dnf(phi, True)))


def to_dnf(phi: BoolExpr) -> list[Disjunct]:
    """Disjunctive normal form with unsatisfiable disjuncts pruned.

    The returned list's disjunction is equivalent to ``phi``; the empty
    list encodes false.  Atoms come folded, each disjunct keeps one atom
    per direction (the tightest, see :func:`conjoin`) and no disjunct's
    atom set contains another's (:func:`absorb`).  Disjuncts follow the
    order of the guard: a disjunction's parts left to right, a
    conjunction's product with its first factor outermost.
    """
    return list(_to_dnf_cached(phi))


def dnf_to_bool(disjuncts) -> BoolExpr:
    return or_all(and_all(d) for d in disjuncts)


@lru_cache(maxsize=1 << 14)
def reduce_disjunct(d: Disjunct) -> Disjunct:
    """Drop atoms entailed by the rest of the conjunction (same solutions).

    Scans from the back so earlier atoms win when two imply each other.
    """
    atoms = list(d)
    i = len(atoms) - 1
    while i >= 0:
        rest = atoms[:i] + atoms[i + 1 :]
        if rest and not disjunct_sat((*rest, negate_atom(atoms[i]))):
            atoms.pop(i)
        i -= 1
    return tuple(atoms)


def refine_dnf(state: list[Disjunct], branches) -> list[Disjunct]:
    """Conjoin the DNF ``branches`` into a DNF state: absorb, then prune.

    Products are not reduced: :func:`conjoin` keeps one atom per row
    direction, so a disjunct cannot grow with the number of guards
    conjoined, and whoever emits a cell reduces it once.
    """
    return [m for m in absorb(conjoin(d, b) for b in branches for d in state) if disjunct_sat(m)]


# Fourier-Motzkin satisfiability ------------------------------------------


@lru_cache(maxsize=1 << 16)
def _row(atom: Atom):
    """Compile an atom to the row ``(dir, k, c, strict)``, or TRUE/FALSE.

    The row reads ``k*(dir.x) + c < 0`` (``<= 0`` unless strict): ``dir`` is
    a name-sorted tuple of ``(var, int)`` with coprime entries, ``k > 0``
    and ``gcd(k, c) == 1``, so parallel atoms share ``dir`` and an atom's
    bound on ``dir.x`` is ``-c/k``.  Atoms that fold become TRUE or FALSE.
    """
    folded = fold_atom(atom)
    if folded is TRUE or folded is FALSE:
        return folded
    diff = folded.lhs - folded.rhs  # folded atoms have two finite sides
    if not folded.rel.is_upper:
        diff = -diff
    scale = lcm(diff.constant.denominator, *(q.denominator for q in diff.coeffs.values()))
    coeffs = {v: q.numerator * (scale // q.denominator) for v, q in diff.coeffs.items()}
    const = diff.constant.numerator * (scale // diff.constant.denominator)
    return _normalize(coeffs, const, folded.rel.is_strict)


def _normalize(coeffs: dict[str, int], const: int, strict: bool):
    """The row of ``coeffs.x + const (<|<=) 0``; TRUE/FALSE when variable-free."""
    if not coeffs:
        return TRUE if const < 0 or (const == 0 and not strict) else FALSE
    if len(coeffs) == 1:
        ((v, a),) = coeffs.items()
        k = abs(a)
        h = gcd(k, const)
        return ((v, 1 if a > 0 else -1),), k // h, const // h, strict
    k = gcd(*coeffs.values())
    h = gcd(k, const)
    return tuple(sorted((v, a // k) for v, a in coeffs.items())), k // h, const // h, strict


def _covers(old: tuple, k: int, c: int, strict: bool) -> bool:
    """Whether the row ``old`` = ``(k0, c0, s0)`` on a direction is at least
    as tight as ``(k, c, strict)`` on the same direction."""
    k0, c0, s0 = old
    # bounds -c/k on the same dir.x: the larger c/k is the tighter
    new, kept = c * k0, c0 * k
    return new < kept or (new == kept and (s0 or not strict))


def _insert(system: dict, d: tuple, k: int, c: int, strict: bool) -> None:
    """Add a row, keeping only the tightest of rows parallel to it."""
    old = system.get(d)
    if old is None or not _covers(old, k, c, strict):
        system[d] = (k, c, strict)


def _system(atoms):
    """The rows of a conjunction keyed by direction, and the variables of
    its atoms that do not fold to true; None if an atom folds to false."""
    system: dict = {}
    variables: set[str] = set()
    for atom in atoms:
        row = _row(atom)
        if row is TRUE:
            continue
        if row is FALSE:
            return None
        _insert(system, *row)
        # fold_atom returns an unfolded atom itself, with two finite sides
        variables.update(atom.lhs.coeffs, atom.rhs.coeffs)
    return system, variables


def _fm_step(system: dict, var: str):
    """Eliminate ``var``, which must precede every other variable of the
    system in name order, so it leads each ``dir`` that mentions it.

    Returns ``(residue, lowers, uppers)`` where the bounds are the rows on
    ``var`` as ``(dir, (k, c, strict))``; ``residue`` is None when a
    variable-free combination is false.
    """
    lowers, uppers, residue = [], [], {}
    for d, row in system.items():
        lead, a = d[0]
        if lead != var:
            residue[d] = row
        elif a > 0:
            uppers.append((d, row))
        else:
            lowers.append((d, row))
    for dl, (kl, cl, sl) in lowers:
        al = -dl[0][1]
        for du, (ku, cu, su) in uppers:
            au = du[0][1]
            g = gcd(al, au)
            # ku*au/g * (lower row) + kl*al/g * (upper row) cancels var
            ml, mu = ku * (au // g), kl * (al // g)
            fl, fu = ml * kl, mu * ku
            coeffs = {v: fl * a for v, a in dl[1:]}
            for v, a in du[1:]:
                total = coeffs.get(v, 0) + fu * a
                if total:
                    coeffs[v] = total
                else:
                    del coeffs[v]
            row = _normalize(coeffs, ml * cl + mu * cu, sl or su)
            if row is FALSE:
                return None, lowers, uppers
            if row is not TRUE:
                _insert(residue, *row)
    return residue, lowers, uppers


@lru_cache(maxsize=1 << 16)
def _sat_cached(atom_key: frozenset) -> bool:
    compiled = _system(atom_key)
    if compiled is None:
        return False
    system, variables = compiled
    for var in sorted(variables):
        if not system:
            return True
        system = _fm_step(system, var)[0]
        if system is None:
            return False
    return True


def disjunct_sat(d: Disjunct) -> bool:
    """Decide whether some valuation satisfies every atom of the disjunct."""
    return _sat_cached(frozenset(d))


def bool_sat(phi: BoolExpr) -> bool:
    """Satisfiability of an arbitrary guard, via pruned DNF."""
    return bool(to_dnf(phi))


def fm_witness(d: Disjunct, extra_vars=()) -> Valuation | None:
    """A satisfying valuation for the disjunct, or None when unsatisfiable.

    Variables are eliminated in name order; back-substitution picks the
    midpoint of each residual interval, bound +/- 1 when one-sided, and 0
    when unconstrained.  ``extra_vars`` are included (defaulting to 0).
    """
    compiled = _system(d)
    if compiled is None:
        return None
    system, variables = compiled
    stages = []
    for var in sorted(variables):
        system, lowers, uppers = _fm_step(system, var)
        if system is None:
            return None
        stages.append((var, lowers, uppers))
    values: dict[str, Fraction] = {}
    for var, lowers, uppers in reversed(stages):
        lo, lo_strict = _tightest(lowers, values, max)
        hi, hi_strict = _tightest(uppers, values, min)
        if lo is None and hi is None:
            pick = Fraction(0)
        elif lo is None:
            pick = hi - 1
        elif hi is None:
            pick = lo + 1
        elif lo == hi:
            assert not lo_strict and not hi_strict, "empty interval after FM"
            pick = lo
        else:
            assert lo < hi, "inverted interval after FM"
            pick = (lo + hi) / 2
        values[var] = pick
    for var in extra_vars:
        if var not in values:
            values[var] = Fraction(0)
    return Valuation(values)


def _tightest(rows, values: dict[str, Fraction], pick):
    """The tightest bound the rows put on their leading variable once the
    others take ``values``, and whether it is strict; (None, False) if none.

    A row ``k*(a*var + rest) + c`` bounds ``var`` by ``-(rest + c/k)/a``.
    """
    bounds = []
    for d, (k, c, strict) in rows:
        rest = sum((a * values[v] for v, a in d[1:]), Fraction(c, k))
        bounds.append((-rest / d[0][1], strict))
    if not bounds:
        return None, False
    best = pick(b for b, _ in bounds)
    return best, any(strict for b, strict in bounds if b == best)
