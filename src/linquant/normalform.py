"""Partitioning and guarded normal form.

A body is *partitioning* when exactly one guard holds at every valuation.
The guarded normal form w.r.t. a variable additionally puts every guard in
DNF and isolates the variable in every atom that mentions it.  Bodies whose
values include both infinities on overlapping guards are ill-formed (their
sum would be undefined); :func:`check_well_formed` detects this.

:func:`cells` walks the product of several bodies, one term from each,
pruning choices whose guards cannot hold together.  Three consumers walk
it: pointwise max/min (:mod:`linquant.qelim`), :func:`make_partitioning`,
the pointwise sum of the two-term :func:`splits` ``[g] * v + [!g] * 0``,
and :func:`~linquant.interpolate.entails`, which compares both sides'
summed values cell by cell.  :func:`is_partitioning` reads each guard as its
:func:`~linquant.logic.to_dnf` disjuncts, which every engine caller
computes next anyway.
"""

from __future__ import annotations

from .errors import UndefinedSum, WellFormednessViolation
from .logic import (
    atom_plane,
    bool_sat,
    conjoin,
    disjunct_sat,
    dnf_to_bool,
    isolate,
    reduce_disjunct,
    refine_dnf,
    to_dnf,
    unique,
)
from .terms import (
    FALSE,
    TRUE,
    And,
    Atom,
    BoolExpr,
    Disjunct,
    ExtLinExpr,
    GuardedTerm,
    InfExpr,
    LinExpr,
    Not,
    Quantity,
    Rel,
    and_all,
)

Body = tuple[GuardedTerm, ...]

ZERO_TERM = GuardedTerm(TRUE, LinExpr.const(0))


def check_well_formed(q: Quantity) -> WellFormednessViolation | None:
    """Return a violation when two overlapping guards carry oo and -oo.

    The returned violation names the 0-based pair of offending terms;
    ``None`` means the quantity is well-formed and every guarded sum it can
    produce is defined.
    """
    body = q.body
    infinite = [(i, t) for i, t in enumerate(body) if isinstance(t.value, InfExpr)]
    for a, (i, ti) in enumerate(infinite):
        for j, tj in infinite[a + 1 :]:
            if ti.value.sign == tj.value.sign:
                continue
            if bool_sat(And(ti.guard, tj.guard)):
                return WellFormednessViolation(i, j)
    return None


def sum_values(values) -> ExtLinExpr:
    """Sum values symbolically: the infinity when one is infinite, else the
    finite sum.  Raises :class:`UndefinedSum` on ``oo + (-oo)``."""
    finite = LinExpr.const(0)
    infinite = None
    for v in values:
        if isinstance(v, InfExpr):
            if infinite is not None and infinite != v:
                raise UndefinedSum("oo + (-oo) in a partitioning combination")
            infinite = v
        else:
            finite = finite + v
    return finite if infinite is None else infinite


def splits(body: Body) -> list[Body]:
    """The two-term bodies ``[g] * v + [!g] * 0``, one per term, that sum to ``body``."""
    return [(t, GuardedTerm(Not(t.guard), ZERO_TERM.value)) for t in body]


def cells(bodies):
    """Walk the product of bodies, one term from each, in body order.

    Yields ``(state, chosen)`` for every choice of terms whose guards can
    hold together: ``state`` is the reduced DNF of the chosen guards'
    conjunction (built with :func:`~linquant.logic.refine_dnf`), never
    empty, and ``chosen`` the terms.  A choice is dropped as soon as its
    growing conjunction is unsatisfiable.  The walk keeps an explicit
    stack, since the number of bodies can reach the hundreds.
    """
    n = len(bodies)
    stack: list[tuple[int, list[Disjunct], tuple[GuardedTerm, ...]]] = [(0, [()], ())]
    while stack:
        k, state, chosen = stack.pop()
        if k == n:
            yield state, chosen
            continue
        for term in reversed(bodies[k]):  # reversed: pop order matches body order
            refined = refine_dnf(state, term.guard)
            if refined:
                stack.append((k + 1, refined, chosen + (term,)))


def make_partitioning(body: Body) -> Body:
    """Expand a body so that exactly one guard holds at every valuation.

    The result is the pointwise sum of the :func:`splits` of the body:
    each cell of their product (see :func:`cells`) is guarded by the
    conjunction of its chosen guards and carries the sum of its chosen
    values.  Requires the body to be well-formed, otherwise
    :class:`UndefinedSum` is raised.
    """
    return tuple(
        GuardedTerm(and_all(t.guard for t in chosen), sum_values(t.value for t in chosen))
        for _, chosen in cells(splits(body))
    )


def is_partitioning(body: Body) -> bool:
    """Exactly one guard true everywhere: pairwise-disjoint and covering.

    Decided exactly by branching on the signs of the hyperplanes of the
    guards' DNF atoms, with Fourier-Motzkin pruning of infeasible sign
    combinations.  A branch stops as soon as the fixed signs force every
    guard's truth value, so only regions where guards actually interact
    get split.  It pays one :func:`~linquant.logic.to_dnf` per guard,
    which every engine caller computes next anyway.
    """
    guards = [to_dnf(t.guard) for t in body]
    planes = [list(dict.fromkeys(atom_plane(a)[0] for d in g for a in d)) for g in guards]
    zero = LinExpr.const(0)

    def dfs(cell: Disjunct, signs: dict, undecided: list[int], trues: int) -> bool:
        still: list[int] = []
        for k in undecided:
            value = _eval_signs(guards[k], signs)
            if value is True:
                trues += 1
                if trues > 1:
                    return False
            elif value is None:
                still.append(k)
        if not still:
            return trues == 1
        split_plane = next(p for p in planes[still[0]] if p not in signs)
        branches = (
            (-1, (Atom(split_plane, Rel.LT, zero),)),
            (0, (Atom(split_plane, Rel.LE, zero), Atom(split_plane, Rel.GE, zero))),
            (1, (Atom(split_plane, Rel.GT, zero),)),
        )
        for sign, branch_atoms in branches:
            extended = cell + branch_atoms
            if not disjunct_sat(extended):
                continue
            signs[split_plane] = sign
            good = dfs(extended, signs, still, trues)
            del signs[split_plane]
            if not good:
                return False
        return True

    return dfs((), {}, list(range(len(guards))), 0)


def _eval_signs(disjuncts: list[Disjunct], signs: dict) -> bool | None:
    """Three-valued truth of a DNF under partial hyperplane signs.

    ``signs`` maps canonical hyperplane expressions to -1, 0, or 1; a DNF
    whose value the fixed signs already force is True or False, any other
    None.
    """
    result: bool | None = False
    for d in disjuncts:
        holds: bool | None = True
        for atom in d:
            expr, positive, rel = atom_plane(atom)
            sign = signs.get(expr)
            if sign is None:
                holds = None
            elif not rel.holds(sign if positive else -sign):
                holds = False
                break
        if holds:
            return True
        if holds is None:
            result = None
    return result


def _gnf_guard(guard: BoolExpr, var: str) -> BoolExpr:
    """DNF the guard, isolating ``var`` in every atom.

    Disjuncts are reduced to minimal equivalent form and deduplicated,
    which keeps later per-disjunct eliminations from multiplying.
    Isolation keeps each atom equivalent and unfoldable, so every
    disjunct stays satisfiable.
    """
    disjuncts = [reduce_disjunct(conjoin((), (isolate(a, var) for a in d))) for d in to_dnf(guard)]
    return dnf_to_bool(unique(disjuncts))


def to_gnf(q: Quantity, var: str, *, assume_partitioning: bool = False) -> Quantity:
    """Guarded normal form w.r.t. ``var``.

    The result is semantically equivalent: its body is partitioning, every
    guard is in DNF, and every atom mentioning ``var`` has the isolated
    shape ``var rel bound``.
    """
    body = q.body
    if not (assume_partitioning or is_partitioning(body)):
        body = make_partitioning(body)
    new_terms: list[GuardedTerm] = []
    for term in body:
        guard = _gnf_guard(term.guard, var)
        if guard is FALSE:
            continue  # never active; dropping preserves both semantics and coverage
        new_terms.append(GuardedTerm(guard, term.value))
    if not new_terms:
        new_terms.append(ZERO_TERM)
    return Quantity(q.prefix, tuple(new_terms))
