"""Boolean-level algorithms over linear-inequality atoms.

Inside the engine each inequality is one atom.  :func:`fold_atom` compiles
an atom once into a row ``k*(dir.x) + c (<|<=) 0`` whose direction ``dir``
is a primitive integer vector, and returns the one interned atom of that
row: ``x < 1``, ``-x > -1`` and ``2*x < 2`` fold to the same object.  Its
printed form is the row solved for its first variable in name order
(``y1 > y2 - 2``), by the one solver that also isolates any other variable
(:func:`isolate`).  It carries its row and the interned atom of the
complement row in slots, which :func:`conjoin`, :func:`negate_atom` and
Fourier-Motzkin read (after Dutertre & de Moura 2006, who canonicalise
each linear form once).

Satisfiability of a conjunction of atoms is decided exactly by iterated
Fourier-Motzkin elimination over the integer rows, cached on the set of
rows.  A system keeps one row per direction, the tightest of any parallel
rows (strict wins a tie).  Eliminating a variable pairs each of its lower
rows with each upper row under integer multipliers that cancel it; a
variable-free row decides the system at once.  The same step gives the
residue of one variable (:func:`fm_residue`) as interned atoms.  All
arithmetic is on Python integers, so no verdict is approximate.  A
satisfying valuation is read back by reversing the elimination order and
picking a point inside each residual interval.

A guard becomes disjuncts in one place, :func:`to_dnf`, through one walk,
``_dnf``, that pushes negation inward as it goes and walks the arguments
of each n-ary ``And``/``Or`` from an explicit stack.  A disjunct is a
tuple of atoms, extended by :func:`conjoin`, which keeps one atom per row
direction, the tightest, by the rule a system keeps for its rows.  Every
DNF the engine builds is kept minimal by one rule, :func:`absorb`: no
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
    Rel,
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
    """The complement over the total order (e.g. not (a < b) is a >= b).

    An interned atom's complement is the interned atom in its ``neg`` slot,
    so ``negate_atom(negate_atom(a)) is a``; any other atom gets its
    relation negated.
    """
    return atom.neg or Atom(atom.lhs, atom.rel.negated, atom.rhs)


@lru_cache(maxsize=1 << 16)
def fold_atom(atom: Atom) -> Atom | TrueExpr | FalseExpr:
    """The truth value of a decidable atom, else the one atom of its row.

    An atom decides when either side is infinite (finite expressions always
    evaluate strictly between -oo and oo) or when the two sides differ by a
    constant.  Every other atom is equivalent to a row with a variable (see
    :func:`_compile`), and all forms of one row fold to the same interned
    atom (:func:`_intern`), printed ``v rel bound`` for the row's first
    variable ``v`` in name order.  The cache maps each form seen to it.
    """
    row = atom.row or _compile(atom)
    if row is _TRUE_ROW:
        return TRUE
    if row is _FALSE_ROW:
        return FALSE
    return _ATOMS.get(row) or _intern(row)


@lru_cache(maxsize=1 << 16)
def isolate(atom: Atom, var: str) -> Atom:
    """The atom's row solved for ``var`` (:func:`_solve`): ``var rel bound``,
    keeping the row; for the row's first variable, its interned atom.

    An atom whose row lacks ``var`` (absent, or it cancels) comes back
    ``var``-free: its row's interned atom, or ``-1 <= 0`` (true) or
    ``1 <= 0`` (false) for a decidable row.
    """
    row = atom.row or _compile(atom)
    d = row[0]
    if not d:
        return Atom(LinExpr.const(row[2]), Rel.LE, LinExpr.const(0))
    if d[0][0] == var or all(v != var for v, _ in d):
        return _ATOMS.get(row) or _intern(row)
    return _solve(row, var)


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

    Of atoms whose rows (their ``row`` slots, see :func:`_compile`) share
    a direction only the tightest stays, in the position of the first of
    them; an equally tight one keeps the first.  This is the rule a
    Fourier-Motzkin system keeps for its rows, so the result is equivalent
    to the plain conjunction.  Decidable atoms share the empty direction,
    so of those a false one stays.
    """
    kept: dict = {}  # direction -> (position, row)
    out: list[Atom] = []
    for atom in (*d, *atoms):
        row = atom.row or _compile(atom)
        old = kept.get(row[0])
        if old is None:
            kept[row[0]] = len(out), row
            out.append(atom)
        elif not _covers(old[1], row):
            kept[row[0]] = old[0], row
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

    Negation is pushed inward as the walk goes, atoms come folded (an
    atom's negation is its interned complement) and each disjunct keeps
    one atom per direction (see :func:`conjoin`).  A conjunction's product
    is checked for satisfiability after each factor with more than one
    disjunct and once at the end, so a conjunction of atoms costs one check
    and one pass over its atoms; each product is absorbed first.  A
    disjunction's parts are concatenated, repeats included.  The walk keeps
    an explicit stack of open connectives, so nesting past the recursion
    limit is fine.
    """
    # per open connective: [args, next arg, positive, is a disjunction, DNF so far, pending]
    open_: list[list] = []
    while True:
        while isinstance(phi, Not):
            phi, positive = phi.arg, not positive
        if isinstance(phi, (And, Or)):
            disjunction = isinstance(phi, Or) == positive
            open_.append([phi.args, 1, positive, disjunction, [] if disjunction else [()], []])
            phi = phi.args[0]
            continue
        if isinstance(phi, Atom):
            folded = fold_atom(phi)
            if folded is TRUE or folded is FALSE:
                value = [()] if (folded is TRUE) == positive else []
            else:
                value = [(folded if positive else folded.neg,)]
        elif isinstance(phi, (TrueExpr, FalseExpr)):
            value = [()] if isinstance(phi, TrueExpr) == positive else []
        else:
            raise TypeError(f"not a Boolean expression: {phi!r}")
        # hand the value up until a connective has an argument left to walk
        while open_:
            frame = open_[-1]
            args, k, frame_positive, disjunction, acc, pending = frame
            if disjunction:
                acc += value
            elif len(value) == 1:
                pending += value[0]  # atoms of one-disjunct factors, conjoined in one go
            else:
                acc = absorb(conjoin(p, (*pending, *d)) for p in acc for d in value)
                acc = frame[4] = [p for p in acc if disjunct_sat(p)]
                pending.clear()
                if not acc:  # an unsatisfiable conjunction: its other factors are not walked
                    open_.pop()
                    value = acc
                    continue
            if k < len(args):
                frame[1] = k + 1
                phi, positive = args[k], frame_positive
                break
            open_.pop()
            value = refine_dnf(acc, [pending]) if pending else acc
        else:
            return value


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

# The rows of decidable atoms: true reads -1 <= 0, false 1 <= 0.
_TRUE_ROW = ((), 1, -1, False)
_FALSE_ROW = ((), 1, 1, False)

# Each row with a variable -> its one interned atom.  A row and its
# complement are interned together and never dropped: a process sees a few
# thousand rows where it sees tens of thousands of disjuncts.
_ATOMS: dict[tuple, Atom] = {}


def _compile(atom: Atom) -> tuple:
    """The atom's row ``(dir, k, c, strict)``, stored in its ``row`` slot.

    The row reads ``k*(dir.x) + c < 0`` (``<= 0`` unless strict): ``dir`` is
    a name-sorted tuple of ``(var, int)`` with coprime entries, ``k > 0``
    and ``gcd(k, c) == 1``, so parallel atoms share ``dir`` and an atom's
    bound on ``dir.x`` is ``-c/k``.  A decidable atom's row is
    ``_TRUE_ROW`` or ``_FALSE_ROW``, whose ``dir`` is empty.
    """
    lhs, rel, rhs = atom.lhs, atom.rel, atom.rhs
    if isinstance(lhs, InfExpr) or isinstance(rhs, InfExpr):
        # ext_cmp orders the sides by sign alone (a finite side counts as
        # sign 0), so it never compares a finite expression here
        row = _TRUE_ROW if rel.holds(ext_cmp(lhs, rhs)) else _FALSE_ROW
    else:
        diff = lhs - rhs if rel.is_upper else rhs - lhs
        scale = lcm(diff.constant.denominator, *(q.denominator for q in diff.coeffs.values()))
        coeffs = {v: q.numerator * (scale // q.denominator) for v, q in diff.coeffs.items()}
        const = diff.constant.numerator * (scale // diff.constant.denominator)
        row = _normalize(coeffs, const, rel.is_strict)
    atom.row = row
    return row


def _intern(row: tuple) -> Atom:
    """The interned atom of a row with a variable, solved for its first
    variable, made with its complement row's; each is the other's ``neg``."""
    d, k, c, strict = row
    comp = (tuple((v, -a) for v, a in d), k, -c, not strict)
    atom, neg = _solve(row, d[0][0]), _solve(comp, d[0][0])
    atom.neg, neg.neg = neg, atom
    _ATOMS[row], _ATOMS[comp] = atom, neg
    return atom


def _solve(row: tuple, var: str) -> Atom:
    """The row solved for one of its variables: ``var rel bound``, the
    bound free of ``var``, with the row in its ``row`` slot."""
    d, k, c, strict = row
    a = next(a for v, a in d if v == var)
    # k*(a*var + rest.x) + c < 0 reads a*var < -(rest.x) - c/k
    bound = LinExpr._raw(Fraction(-c, k * a), {u: Fraction(-b, a) for u, b in d if u != var})
    rel = (Rel.LT if strict else Rel.LE) if a > 0 else (Rel.GT if strict else Rel.GE)
    atom = Atom(LinExpr.var(var), rel, bound)
    atom.row = row
    return atom


def _normalize(coeffs: dict[str, int], const: int, strict: bool) -> tuple:
    """The row of ``coeffs.x + const (<|<=) 0``."""
    if not coeffs:
        return _TRUE_ROW if const < 0 or (const == 0 and not strict) else _FALSE_ROW
    if len(coeffs) == 1:
        ((v, a),) = coeffs.items()
        k = abs(a)
        h = gcd(k, const)
        return ((v, 1 if a > 0 else -1),), k // h, const // h, strict
    k = gcd(*coeffs.values())
    h = gcd(k, const)
    return tuple(sorted((v, a // k) for v, a in coeffs.items())), k // h, const // h, strict


def _covers(old: tuple, new: tuple) -> bool:
    """Whether row ``old`` is at least as tight as row ``new`` on the same direction."""
    _, k0, c0, s0 = old
    _, k, c, strict = new
    # bounds -c/k on the same dir.x: the larger c/k is the tighter
    b_new, b_old = c * k0, c0 * k
    return b_new < b_old or (b_new == b_old and (s0 or not strict))


def _insert(system: dict, row: tuple) -> None:
    """Add a row, keeping only the tightest of rows parallel to it."""
    old = system.get(row[0])
    if old is None or not _covers(old, row):
        system[row[0]] = row


def _system(rows) -> dict | None:
    """A conjunction's rows keyed by direction, the tightest of parallel
    ones; None if one of them is false."""
    system: dict = {}
    for row in rows:
        if row is _FALSE_ROW:
            return None
        if row is not _TRUE_ROW:
            _insert(system, row)
    return system


def _variables(system: dict) -> list[str]:
    return sorted({v for d in system for v, _ in d})


def _fm_step(system: dict, var: str):
    """Eliminate ``var``, which must lead each ``dir`` that mentions it: it
    precedes the system's other variables in name order, or
    :func:`fm_residue` rotated it to the front.

    Returns ``(residue, lowers, uppers)`` where the bounds are the rows on
    ``var``; ``residue`` is None when a variable-free combination is false.
    """
    lowers, uppers, residue = [], [], {}
    for d, row in system.items():
        lead, a = d[0]
        if lead != var:
            residue[d] = row
        elif a > 0:
            uppers.append(row)
        else:
            lowers.append(row)
    for dl, kl, cl, sl in lowers:
        al = -dl[0][1]
        for du, ku, cu, su in uppers:
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
            if row is _FALSE_ROW:
                return None, lowers, uppers
            if row is not _TRUE_ROW:
                _insert(residue, row)
    return residue, lowers, uppers


def fm_residue(d: Disjunct, var: str) -> Disjunct | None:
    """The interned atoms, one per direction, of one :func:`_fm_step` on
    ``var`` over the disjunct's rows, each rotated to lead with ``var``: a
    ``var``-free conjunction that holds exactly where some rational value of
    ``var`` satisfies ``d``.  None when it is false."""
    rows = []
    for atom in d:
        dirs, *rest = atom.row or _compile(atom)
        # a stable sort: var first, the other variables still in name order
        rows.append((tuple(sorted(dirs, key=lambda e: e[0] != var)), *rest))
    system = _system(rows)
    residue = None if system is None else _fm_step(system, var)[0]
    if residue is None:
        return None
    return tuple(_ATOMS.get(row) or _intern(row) for row in residue.values())


@lru_cache(maxsize=1 << 16)
def _sat_cached(rows: frozenset) -> bool:
    system = _system(rows)
    if system is None:
        return False
    for var in _variables(system):
        if not system:
            return True
        system = _fm_step(system, var)[0]
        if system is None:
            return False
    return True


def disjunct_sat(d: Disjunct) -> bool:
    """Decide whether some valuation satisfies every atom of the disjunct.

    The verdict is cached on the set of the atoms' rows, so every form of
    one conjunction of inequalities shares it.
    """
    return _sat_cached(frozenset([a.row or _compile(a) for a in d]))


def bool_sat(phi: BoolExpr) -> bool:
    """Satisfiability of an arbitrary guard, via pruned DNF."""
    return bool(to_dnf(phi))


def fm_witness(d: Disjunct, extra_vars=()) -> Valuation | None:
    """A satisfying valuation for the disjunct, or None when unsatisfiable.

    Variables are eliminated in name order; back-substitution picks the
    midpoint of each residual interval, bound +/- 1 when one-sided, and 0
    when unconstrained; so do the disjunct's variables that no row bounds
    and ``extra_vars``.
    """
    system = _system([a.row or _compile(a) for a in d])
    if system is None:
        return None
    stages = []
    for var in _variables(system):
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
    unbounded = sorted({v for a in d for side in (a.lhs, a.rhs) for v in fvars_expr(side)})
    for var in (*extra_vars, *unbounded):
        values.setdefault(var, Fraction(0))
    return Valuation(values)


def _tightest(rows, values: dict[str, Fraction], pick):
    """The tightest bound the rows put on their leading variable once the
    others take ``values``, and whether it is strict; (None, False) if none.

    A row ``k*(a*var + rest) + c`` bounds ``var`` by ``-(rest + c/k)/a``.
    """
    bounds = []
    for d, k, c, strict in rows:
        rest = sum((a * values[v] for v, a in d[1:]), Fraction(c, k))
        bounds.append((-rest / d[0][1], strict))
    if not bounds:
        return None, False
    best = pick(b for b, _ in bounds)
    return best, any(strict for b, strict in bounds if b == best)
