"""Partitioning and guarded normal form.

A body is *partitioning* when exactly one guard holds at every valuation.
The guarded normal form w.r.t. a variable additionally puts every guard in
DNF and isolates the variable in every atom that mentions it.  Bodies whose
values include both infinities on overlapping guards are ill-formed (their
sum would be undefined); :func:`check_well_formed` detects this.
"""

from __future__ import annotations

from .errors import UndefinedSum, WellFormednessViolation
from .logic import (
    bool_sat,
    disjunct_sat,
    dnf_to_bool,
    eval_signs,
    fold_atom,
    guard_disjuncts,
    guard_planes,
    isolate,
    reduce_disjunct,
    refine_dnf,
)
from .terms import (
    FALSE,
    TRUE,
    And,
    Atom,
    BoolExpr,
    Disjunct,
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


def _sum_values(values) -> tuple[LinExpr, int]:
    """Sum selected values symbolically; returns (finite part, infinity sign)."""
    finite = LinExpr.const(0)
    inf_sign = 0
    for v in values:
        if isinstance(v, InfExpr):
            if inf_sign and inf_sign != v.sign:
                raise UndefinedSum("oo + (-oo) in a partitioning combination")
            inf_sign = v.sign
        else:
            finite = finite + v
    return finite, inf_sign


def make_partitioning(body: Body) -> Body:
    """Expand a body so that exactly one guard holds at every valuation.

    Enumerates sign patterns over the guards, pruning a pattern as soon as
    its growing conjunction is unsatisfiable; each kept pattern's value is
    the sum of the values whose guards it asserts.  Requires the body to be
    well-formed, otherwise :class:`UndefinedSum` is raised.
    """
    out: list[GuardedTerm] = []

    def rec(i: int, partial: list[Disjunct], chosen_guards: list[BoolExpr], chosen_values):
        if not partial:
            return
        if i == len(body):
            finite, inf_sign = _sum_values(chosen_values)
            value = InfExpr(inf_sign) if inf_sign else finite
            out.append(GuardedTerm(and_all(chosen_guards), value))
            return
        term = body[i]
        for guard_part, value in ((term.guard, term.value), (Not(term.guard), None)):
            refined = refine_dnf(partial, guard_part)
            rec(
                i + 1,
                refined,
                chosen_guards + [guard_part],
                chosen_values + ([value] if value is not None else []),
            )

    rec(0, [Disjunct()], [], [])
    if not out:
        return (ZERO_TERM,)
    return tuple(out)


def is_partitioning(body: Body) -> bool:
    """Exactly one guard true everywhere: pairwise-disjoint and covering.

    Decided exactly by branching on the signs of guard hyperplanes, with
    Fourier-Motzkin pruning of infeasible sign combinations.  A branch
    stops as soon as the fixed signs force every guard's truth value, so
    only regions where guards actually interact get split.
    """
    guards = [t.guard for t in body]
    planes_per_guard = [guard_planes(g) for g in guards]
    zero = LinExpr.const(0)

    def dfs(cell: Disjunct, signs: dict, undecided: list[int], trues: int) -> bool:
        still: list[int] = []
        for k in undecided:
            value = eval_signs(guards[k], signs)
            if value is True:
                trues += 1
                if trues > 1:
                    return False
            elif value is None:
                still.append(k)
        if not still:
            return trues == 1
        split_plane = next(p for p in planes_per_guard[still[0]] if p not in signs)
        branches = (
            (-1, (Atom(split_plane, Rel.LT, zero),)),
            (0, (Atom(split_plane, Rel.LE, zero), Atom(split_plane, Rel.GE, zero))),
            (1, (Atom(split_plane, Rel.GT, zero),)),
        )
        for sign, branch_atoms in branches:
            extended = Disjunct(cell.atoms + branch_atoms)
            if not disjunct_sat(extended):
                continue
            signs[split_plane] = sign
            good = dfs(extended, signs, still, trues)
            del signs[split_plane]
            if not good:
                return False
        return True

    return dfs(Disjunct(), {}, list(range(len(guards))), 0)


def _gnf_guard(guard: BoolExpr, var: str) -> BoolExpr:
    """DNF the guard, isolating ``var`` and folding decidable atoms.

    Guards already in DNF shape are split directly; others are converted.
    Disjuncts are reduced to minimal equivalent form and deduplicated,
    which keeps later per-disjunct eliminations from multiplying.
    """
    disjuncts = []
    seen: set[frozenset] = set()
    for d in guard_disjuncts(guard):
        atoms = []
        dead = False
        for atom in d:
            iso = fold_atom(isolate(atom, var))
            if iso is TRUE:
                continue
            if iso is FALSE:
                dead = True
                break
            if iso not in atoms:
                atoms.append(iso)
        if dead:
            continue
        nd = Disjunct(tuple(atoms))
        if not disjunct_sat(nd):
            continue
        nd = reduce_disjunct(nd)
        key = frozenset(nd.atoms)
        if key not in seen:
            seen.add(key)
            disjuncts.append(nd)
    return dnf_to_bool(disjuncts)


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
