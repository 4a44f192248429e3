"""Elimination of sup/inf quantifiers from piecewise linear quantities.

One quantifier is eliminated per round, innermost first.  A round works on
the guarded-normal-form body in three layers:

* per summand, read the disjuncts of the normal form's guard as written:
  reduced, isolated in the variable and absorbed (see
  :func:`~linquant.logic.absorb`), so none is eliminated whose atoms
  include all of another's;
* per disjunct, build a quantifier-free equivalent from the bounds the
  disjunct imposes on the variable: a feasibility constraint (its
  Fourier-Motzkin residue, :func:`~linquant.logic.fm_residue`), and each
  distinct bound that is the least upper (or greatest lower) one somewhere,
  substituted into the value expression with infinities honoured;
* recombine everything with a pointwise maximum (for sup) or minimum (for
  inf) of partitioning bodies: each cell of their product (walked by
  :func:`~linquant.normalform.cells`) keeps each distinct value that is the
  largest (smallest) somewhere in it, guarded by the walk's absorbed DNF
  refined by the tie atoms (conjoined one per direction, see
  :func:`~linquant.logic.refine_dnf`); each emitted disjunct is reduced
  once.

Both selections are :func:`_winners`: ties go to the first candidate.
Merging equal values between rounds and the optional final simplification
share one union step, :func:`_union`, which concatenates each value's
disjuncts and absorbs them, so the guards they build are minimal DNFs too.

All constructions prune guards that Fourier-Motzkin refutes; this keeps
outputs near their simplified forms without changing semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IndexOutOfRange, NotIsolated, NotPartitioning
from .logic import (
    absorb,
    dnf_to_bool,
    fold_atom,
    fm_residue,
    is_isolated_in,
    negate_atom,
    reduce_disjunct,
    refine_dnf,
    to_dnf,
)
from .normalform import (ZERO_TERM, cells, check_well_formed, is_partitioning,
                         make_partitioning, to_gnf)
from .terms import (
    FALSE,
    NEG_OO,
    OO,
    TRUE,
    And,
    Atom,
    BoolExpr,
    Disjunct,
    ExtLinExpr,
    GuardedTerm,
    InfExpr,
    LinExpr,
    Or,
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


def feasibility(d: Disjunct, var: str) -> BoolExpr:
    """A ``var``-free guard equivalent to "some rational value of ``var``
    satisfies the disjunct" (its :func:`~linquant.logic.fm_residue`)."""
    atoms = fm_residue(d, var)
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
        folded = fold_atom(Atom(chosen, strict if k < i else nonstrict, other))
        if folded is FALSE:
            return None
        if folded is not TRUE:
            atoms.append(folded)
    return list(dict.fromkeys(atoms))


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
    the infeasible region plus one term per distinct bound that is the
    tightest somewhere, whose value is the bound substituted into ``value``.
    """
    bounds = extract_bounds(d, var)
    default = NEG_OO if quant is Quant.SUP else OO
    feas = fm_residue(d, var)
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
    for (cell,), bound in _winners([feas], blist, upper=use_uppers):
        terms.append(GuardedTerm(and_all(cell), substitute_bound(value, var, bound)))
    return tuple(terms)


def _winners(state: list[Disjunct], candidates, upper: bool):
    """Yield ``(live, c)`` for each distinct candidate ``c`` (the first of
    repeats) that is the tightest bound somewhere in the DNF ``state``;
    ``live`` is :func:`~linquant.logic.refine_dnf` of ``state`` by its ties."""
    distinct = list(dict.fromkeys(candidates))
    for i, candidate in enumerate(distinct, start=1):
        ties = _selector_atoms(distinct, i, upper)
        if ties is None:
            continue
        live = refine_dnf(state, [ties])
        if live:
            yield live, candidate


# Pointwise maxima / minima ------------------------------------------------


def _pointwise_extreme(bodies: list[Body], maximum: bool, check: bool) -> Body:
    if not bodies:
        raise ValueError("need at least one body")
    if check:
        for k, b in enumerate(bodies):
            if not is_partitioning(tuple(b)):
                raise NotPartitioning(f"input body {k} is not partitioning")
    out: list[GuardedTerm] = []
    for state, chosen in cells(bodies):
        # a maximum is selected as a greatest lower bound, a minimum as a
        # least upper one; each emitted disjunct is reduced here, once
        for live, value in _winners(state, [t.value for t in chosen], upper=not maximum):
            out.append(GuardedTerm(dnf_to_bool(absorb(reduce_disjunct(d) for d in live)), value))
    assert out, "pointwise extreme of covering bodies cannot be empty"
    return tuple(out)


def pointwise_max(bodies, *, check: bool = True) -> Body:
    """A partitioning body evaluating to the valuation-wise maximum of the
    given partitioning bodies (ties go to the earliest body): one term per
    cell of their product and distinct value that is the maximum there.

    Every output guard is a disjunction of satisfiable conjunctions of
    atoms: the chosen guards' DNF plus the tie atoms, each disjunct reduced.
    """
    return _pointwise_extreme([tuple(b) for b in bodies], maximum=True, check=check)


def pointwise_min(bodies, *, check: bool = True) -> Body:
    """Dual of :func:`pointwise_max`."""
    return _pointwise_extreme([tuple(b) for b in bodies], maximum=False, check=check)


# Driver -------------------------------------------------------------------


def _union(pairs) -> Body:
    """One term per distinct value among ``(value, disjunct)`` pairs, in
    first-seen order, guarded by its disjuncts absorbed
    (:func:`~linquant.logic.absorb`); ``ZERO_TERM`` when there are none.
    Equal values on overlapping guards would sum to twice the value, so the
    pairs must come from pairwise-disjoint guards."""
    groups: dict[ExtLinExpr, list[Disjunct]] = {}
    for value, d in pairs:
        groups.setdefault(value, []).append(d)
    merged = tuple(GuardedTerm(dnf_to_bool(absorb(ds)), v) for v, ds in groups.items())
    return merged or (ZERO_TERM,)


def merge_equal_values(body: Body) -> Body:
    """Join equal-valued terms into one, its guard the absorbed DNF of their
    disjunction (:func:`_union`).  The body must have pairwise-disjoint
    guards, as a partitioning one has; then its function never changes."""
    return _union((t.value, d) for t in body for d in to_dnf(t.guard))


def _gnf_disjuncts(guard: BoolExpr) -> list[Disjunct]:
    """The disjuncts of a GNF guard as written: false, or an ``Or`` of
    conjunctions (true, an atom or an ``And`` of atoms), or one of those."""
    if guard == FALSE:
        return []
    disjuncts = []
    for arg in guard.args if isinstance(guard, Or) else (guard,):
        d = () if arg == TRUE else arg.args if isinstance(arg, And) else (arg,)
        if not all(isinstance(a, Atom) for a in d):
            raise NotIsolated(f"guard is not an Or of Ands of atoms: {guard!r}")
        disjuncts.append(d)
    return disjuncts


def eliminate_var(quant: Quant, var: str, body: Body) -> Body:
    """One elimination round over a body in GNF w.r.t. ``var``, each guard
    as :func:`~linquant.normalform.to_gnf` writes it: an ``Or`` of ``And``
    nodes of atoms, whose disjuncts are eliminated as written.  Any other
    shape (a ``Not``, an ``Or`` inside an ``And`` or after the first
    argument of an ``Or``) raises :class:`NotIsolated`."""
    tasks = [(d, term.value) for term in body for d in _gnf_disjuncts(term.guard)]
    if not tasks:
        return (ZERO_TERM,)
    sub_bodies = [eliminate_over_disjunct(quant, d, v, var) for d, v in tasks]
    combine = pointwise_max if quant is Quant.SUP else pointwise_min
    result = combine(sub_bodies, check=False)
    if __debug__:
        assert var not in fvars_body(result), f"{var} survived elimination"
    return result


def eliminate(q: Quantity, *, simplify: bool = False) -> Quantity:
    """Remove every quantifier, innermost first; the result is equivalent.

    Bodies between rounds stay partitioning; terms with equal values are
    merged between rounds to curb growth.  Combination and merging emit
    every guard as a minimal DNF of interned atoms, one per inequality,
    which the next round's normal form splits once through
    :func:`~linquant.logic.to_dnf`; :func:`eliminate_var` reads the normal
    form's disjuncts as written.  The optional ``simplify`` pass additionally
    drops zero-valued and unsatisfiable terms from the final result (still
    semantics-preserving, but no longer partitioning); a quantifier-free
    input is made partitioning first, which that pass requires.
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
    """Drop zero-valued and unsatisfiable terms, reduce each disjunct of
    the rest once and merge equal values (see :func:`_union`), so every
    guard is a minimal DNF of reduced disjuncts.  The body must be
    partitioning; then the denoted function never changes."""
    return _union(
        (t.value, reduce_disjunct(d))
        for t in body
        if not (isinstance(t.value, LinExpr) and t.value.is_zero)
        for d in to_dnf(t.guard)
    )


# Size metrics ---------------------------------------------------------------


def width(q: Quantity) -> int:
    """Number of guarded terms in the body."""
    return len(q.body)


def depth(q: Quantity) -> int:
    """Largest atom count over the body's guards (constants count zero)."""
    return max(count_atoms(t.guard) for t in q.body)
