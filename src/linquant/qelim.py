"""Elimination of sup/inf quantifiers from piecewise linear quantities.

One quantifier is eliminated per round, innermost first.  A round works on
the guarded-normal-form body in three layers:

* per summand, split the DNF guard into disjuncts;
* per disjunct, build a quantifier-free equivalent from the bounds the
  disjunct imposes on the variable: a feasibility constraint (the
  Fourier-Motzkin residue), selector guards picking the least upper or
  greatest lower bound, and an infinity-aware substitution of the chosen
  bound into the value expression;
* recombine everything with a pointwise maximum (for sup) or minimum (for
  inf) of partitioning bodies.  Each output cell is emitted as a
  disjunction of conjunctions of atoms (the reduced DNF the combination
  already holds), which the next round splits without re-normalising.

All constructions prune guards that Fourier-Motzkin refutes; this keeps
outputs near their simplified forms without changing semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IndexOutOfRange, NotIsolated, NotPartitioning
from .logic import (
    disjunct_sat,
    dnf_to_bool,
    fold_atom,
    guard_disjuncts,
    is_isolated_in,
    negate_atom,
    reduce_disjunct,
    refine_dnf,
    to_dnf,
)
from .normalform import check_well_formed, is_partitioning, make_partitioning, to_gnf
from .terms import (
    FALSE,
    NEG_OO,
    OO,
    TRUE,
    Atom,
    BoolExpr,
    Disjunct,
    ExtLinExpr,
    GuardedTerm,
    InfExpr,
    LinExpr,
    Quant,
    Quantity,
    Rel,
    and_all,
    count_atoms,
    fvars_body,
    fvars_expr,
    or_all,
)

Body = tuple[GuardedTerm, ...]


@dataclass(frozen=True)
class BoundSets:
    """Bounds a disjunct imposes on a variable, split by relation.

    Each list preserves first-occurrence order in the disjunct; the
    defaults -oo (non-strict lower) and oo (non-strict upper) always come
    last, so an unbounded variable defaults to the right infinity.
    """

    strict_upper: tuple[ExtLinExpr, ...]
    nonstrict_upper: tuple[ExtLinExpr, ...]
    strict_lower: tuple[ExtLinExpr, ...]
    nonstrict_lower: tuple[ExtLinExpr, ...]

    def uppers(self) -> tuple[ExtLinExpr, ...]:
        return self.strict_upper + self.nonstrict_upper

    def lowers(self) -> tuple[ExtLinExpr, ...]:
        return self.strict_lower + self.nonstrict_lower


def extract_bounds(d: Disjunct, var: str) -> BoundSets:
    """Collect the bounds on ``var`` from a disjunct in isolated shape."""
    buckets: dict[Rel, list[ExtLinExpr]] = {r: [] for r in Rel}
    for atom in d:
        if var not in fvars_expr(atom.lhs) and var not in fvars_expr(atom.rhs):
            continue
        if not is_isolated_in(atom, var):
            raise NotIsolated(f"atom does not isolate {var!r}: {atom!r}")
        bucket = buckets[atom.rel]
        if atom.rhs not in bucket:
            bucket.append(atom.rhs)
    if OO not in buckets[Rel.LE]:
        buckets[Rel.LE].append(OO)
    if NEG_OO not in buckets[Rel.GE]:
        buckets[Rel.GE].append(NEG_OO)
    return BoundSets(
        strict_upper=tuple(buckets[Rel.LT]),
        nonstrict_upper=tuple(buckets[Rel.LE]),
        strict_lower=tuple(buckets[Rel.GT]),
        nonstrict_lower=tuple(buckets[Rel.GE]),
    )


def _x_free_literals(d: Disjunct, var: str) -> list[Atom]:
    return [
        a for a in d if var not in fvars_expr(a.lhs) and var not in fvars_expr(a.rhs)
    ]


def _append_folded(atoms: list[Atom], atom: Atom) -> bool:
    """Fold and append; returns False when the atom folds to false."""
    folded = fold_atom(atom)
    if folded is FALSE:
        return False
    if folded is not TRUE and folded not in atoms:
        atoms.append(folded)
    return True


def _feasibility_atoms(d: Disjunct, var: str, bounds: BoundSets) -> list[Atom] | None:
    """Atoms of the feasibility constraint, or None when it folds to false."""
    atoms: list[Atom] = []
    pairs = (
        (bounds.nonstrict_lower, bounds.nonstrict_upper, Rel.LE),
        (bounds.nonstrict_lower, bounds.strict_upper, Rel.LT),
        (bounds.strict_lower, bounds.nonstrict_upper, Rel.LT),
        (bounds.strict_lower, bounds.strict_upper, Rel.LT),
    )
    for lows, highs, rel in pairs:
        for lo in lows:
            for hi in highs:
                if not _append_folded(atoms, Atom(lo, rel, hi)):
                    return None
    for lit in _x_free_literals(d, var):
        if not _append_folded(atoms, lit):
            return None
    return atoms


def feasibility(d: Disjunct, var: str) -> BoolExpr:
    """A ``var``-free guard equivalent to "some rational value of ``var``
    satisfies the disjunct" (classical Fourier-Motzkin residue)."""
    atoms = _feasibility_atoms(d, var, extract_bounds(d, var))
    return FALSE if atoms is None else and_all(atoms)


def _selector_atoms(blist, i: int, upper: bool) -> list[Atom] | None:
    """Guard atoms selecting entry ``i`` (1-based) as the tightest bound.

    For uppers the selected bound must be strictly below earlier entries
    and at most the later ones; the tie goes to the smallest index.  Lowers
    are the mirror image.  Returns None when a comparison folds to false.
    """
    if not 1 <= i <= len(blist):
        raise IndexOutOfRange(f"bound index {i} not in 1..{len(blist)}")
    strict, nonstrict = (Rel.LT, Rel.LE) if upper else (Rel.GT, Rel.GE)
    chosen = blist[i - 1]
    atoms: list[Atom] = []
    for k, other in enumerate(blist, start=1):
        if k == i:
            continue
        rel = strict if k < i else nonstrict
        if not _append_folded(atoms, Atom(chosen, rel, other)):
            return None
    return atoms


def least_upper_selector(bounds: BoundSets, i: int) -> BoolExpr:
    """Guard stating that upper bound ``i`` (1-based) is the least upper bound."""
    atoms = _selector_atoms(bounds.uppers(), i, upper=True)
    return FALSE if atoms is None else and_all(atoms)


def greatest_lower_selector(bounds: BoundSets, i: int) -> BoolExpr:
    """Guard stating that lower bound ``i`` (1-based) is the greatest lower bound."""
    atoms = _selector_atoms(bounds.lowers(), i, upper=False)
    return FALSE if atoms is None else and_all(atoms)


def substitute_bound(e: ExtLinExpr, var: str, bound: ExtLinExpr) -> ExtLinExpr:
    """Substitute ``bound`` for ``var`` in ``e``, honoring infinities.

    An infinite bound turns the whole expression infinite, with the sign
    set by whether ``var`` occurs positively or negatively; expressions not
    mentioning ``var`` are unchanged; otherwise the replacement is the
    exact syntactic substitution with coefficients merged.
    """
    if isinstance(e, InfExpr):
        return e
    c = e.coeff(var)
    if c == 0:
        return e
    if isinstance(bound, InfExpr):
        return InfExpr(bound.sign if c > 0 else -bound.sign)
    return e.subst(var, bound)


def eliminate_over_disjunct(
    quant: Quant, d: Disjunct, value: ExtLinExpr, var: str
) -> Body:
    """Quantifier-free equivalent of sup/inf over ``var`` of ``[d] * value``
    (with the guard failing mapping to -oo for sup and oo for inf).

    The output is a partitioning, ``var``-free body: one default term for
    the infeasible region plus one term per surviving bound selector, whose
    value is the bound substituted into ``value``.
    """
    bounds = extract_bounds(d, var)
    default = NEG_OO if quant is Quant.SUP else OO
    feas = _feasibility_atoms(d, var, bounds)
    if feas is None:
        return (GuardedTerm(TRUE, default),)
    terms: list[GuardedTerm] = []
    if feas:
        terms.append(GuardedTerm(or_all(negate_atom(a) for a in feas), default))
    coeff = value.coeff(var) if isinstance(value, LinExpr) else 0
    if coeff == 0:
        terms.append(GuardedTerm(and_all(feas), value))
        return tuple(terms)
    use_uppers = (coeff > 0) == (quant is Quant.SUP)
    blist = bounds.uppers() if use_uppers else bounds.lowers()
    for i in range(1, len(blist) + 1):
        selector = _selector_atoms(blist, i, upper=use_uppers)
        if selector is None:
            continue
        guard_atoms = list(feas)
        for a in selector:
            if a not in guard_atoms:
                guard_atoms.append(a)
        if not disjunct_sat(Disjunct(tuple(guard_atoms))):
            continue
        terms.append(
            GuardedTerm(and_all(guard_atoms), substitute_bound(value, var, blist[i - 1]))
        )
    return tuple(terms)


# Pointwise maxima / minima ------------------------------------------------


def _pointwise_extreme(bodies: list[Body], maximum: bool, check: bool) -> Body:
    if not bodies:
        raise ValueError("need at least one body")
    if check:
        for k, b in enumerate(bodies):
            if not is_partitioning(tuple(b)):
                raise NotPartitioning(f"input body {k} is not partitioning")
    n = len(bodies)
    strict = Rel.GT if maximum else Rel.LT
    nonstrict = Rel.GE if maximum else Rel.LE
    out: list[GuardedTerm] = []

    def emit(values: list[ExtLinExpr], state: list[Disjunct]) -> None:
        # ``state`` is the reduced DNF of the chosen guards' conjunction, so
        # each cell is emitted as a disjunction of conjunctions of atoms
        for i in range(n):
            ties: list[Atom] = []
            dead = False
            for k in range(n):
                if k == i:
                    continue
                rel = strict if k < i else nonstrict
                if not _append_folded(ties, Atom(values[i], rel, values[k])):
                    dead = True
                    break
            if dead:
                continue
            live = state
            if ties:
                live = []
                seen: set[frozenset] = set()
                for d in state:
                    cell = Disjunct(d.atoms + tuple(a for a in ties if a not in d.atoms))
                    key = frozenset(cell.atoms)
                    if key not in seen and disjunct_sat(cell):
                        seen.add(key)
                        live.append(cell)
            if live:
                out.append(GuardedTerm(dnf_to_bool(live), values[i]))

    # explicit stack: the recursion depth would otherwise grow with the
    # number of bodies, which can reach the hundreds on later rounds
    stack: list[tuple[int, list[Disjunct], tuple[ExtLinExpr, ...]]] = [
        (0, [Disjunct()], ())
    ]
    while stack:
        k, state, chosen = stack.pop()
        if k == n:
            emit(list(chosen), state)
            continue
        for term in reversed(bodies[k]):  # reversed: pop order matches body order
            refined = refine_dnf(state, term.guard)
            if refined:
                stack.append((k + 1, refined, chosen + (term.value,)))
    assert out, "pointwise extreme of covering bodies cannot be empty"
    return tuple(out)


def pointwise_max(bodies, *, check: bool = True) -> Body:
    """A partitioning body evaluating to the valuation-wise maximum of the
    given partitioning bodies (ties go to the earliest body).

    Every output guard is a disjunction of satisfiable conjunctions of
    atoms: the reduced DNF of the chosen input guards plus the tie atoms.
    """
    return _pointwise_extreme([tuple(b) for b in bodies], maximum=True, check=check)


def pointwise_min(bodies, *, check: bool = True) -> Body:
    """Dual of :func:`pointwise_max`."""
    return _pointwise_extreme([tuple(b) for b in bodies], maximum=False, check=check)


# Driver -------------------------------------------------------------------


def merge_equal_values(body: Body) -> Body:
    """Join terms carrying structurally equal values by disjoining guards.

    The body must be partitioning (or at least have pairwise-disjoint
    guards): where two equal-valued guards overlap, their sum is twice the
    value but the merged term carries it once.
    """
    order: list[ExtLinExpr] = []
    groups: dict[ExtLinExpr, list[BoolExpr]] = {}
    for term in body:
        if term.value not in groups:
            groups[term.value] = []
            order.append(term.value)
        groups[term.value].append(term.guard)
    return tuple(GuardedTerm(or_all(groups[v]), v) for v in order)


def eliminate_var(quant: Quant, var: str, body: Body) -> Body:
    """One elimination round over a body already in GNF w.r.t. ``var``."""
    tasks = [
        (d, term.value) for term in body for d in guard_disjuncts(term.guard)
    ]
    if not tasks:
        return (GuardedTerm(TRUE, LinExpr.const(0)),)
    sub_bodies = [eliminate_over_disjunct(quant, d, v, var) for d, v in tasks]
    combine = pointwise_max if quant is Quant.SUP else pointwise_min
    result = combine(sub_bodies, check=False)
    if __debug__:
        assert var not in fvars_body(result), f"{var} survived elimination"
    return result


def eliminate(q: Quantity, *, simplify: bool = False) -> Quantity:
    """Remove every quantifier, innermost first; the result is equivalent.

    Bodies between rounds stay partitioning; terms with equal values are
    merged between rounds to curb growth.  Combination emits each output
    cell as a disjunction of conjunctions of atoms, so the next round's
    normal form splits those guards without re-normalising them.  The
    optional ``simplify`` pass additionally drops zero-valued and
    unsatisfiable terms from the final result (still semantics-preserving,
    but no longer partitioning); a quantifier-free input is made
    partitioning first, which that pass requires.
    """
    violation = check_well_formed(q)
    if violation is not None:
        raise violation
    body = q.body
    remaining = list(q.prefix)
    partitioned = False
    while remaining:
        quant, var = remaining.pop()
        gnf = to_gnf(Quantity((), body), var, assume_partitioning=partitioned)
        body = eliminate_var(quant, var, gnf.body)
        partitioned = True
        if remaining:
            body = merge_equal_values(body)
        if __debug__:
            bad = check_well_formed(Quantity((), body))
            assert bad is None, f"elimination broke well-formedness: {bad}"
    if simplify:
        if not (partitioned or is_partitioning(body)):
            body = make_partitioning(body)
        body = simplify_body(body)
    return Quantity((), body)


def simplify_body(body: Body) -> Body:
    """Fold guards, drop unsatisfiable, redundant, and zero-valued terms,
    merge equal values.  The body must be partitioning; then the denoted
    function never changes (see :func:`merge_equal_values`)."""
    kept: list[GuardedTerm] = []
    for term in body:
        disjuncts = [reduce_disjunct(d) for d in to_dnf(term.guard)]
        if not disjuncts:
            continue
        if isinstance(term.value, LinExpr) and term.value.is_zero:
            continue
        kept.append(GuardedTerm(dnf_to_bool(disjuncts), term.value))
    merged = merge_equal_values(tuple(kept))
    if not merged:
        return (GuardedTerm(TRUE, LinExpr.const(0)),)
    return merged


# Size metrics ---------------------------------------------------------------


def width(q: Quantity) -> int:
    """Number of guarded terms in the body."""
    return len(q.body)


def depth(q: Quantity) -> int:
    """Largest atom count over the body's guards (constants count zero)."""
    return max(count_atoms(t.guard) for t in q.body)
