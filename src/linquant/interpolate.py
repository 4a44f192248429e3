"""Quantitative entailment and Craig interpolation.

``f`` entails ``g`` when ``f`` evaluates below-or-equal ``g`` at every
valuation.  Entailment is decided symbolically: eliminate quantifiers from
both sides, make both bodies partitioning, and refute every overlapping
guard pair whose values could compare the wrong way.  Each interpolant of
an entailing pair is one call to :func:`~linquant.qelim.eliminate`: the
strongest is the left side under sup binders over its private variables,
the weakest the right side under inf binders over its private variables.
"""

from __future__ import annotations

from .errors import NotEntailed
from .logic import conjoin, fm_witness, to_dnf
from .normalform import is_partitioning, make_partitioning
from .qelim import eliminate
# unused here, but bench/tracing.py wraps these names in this module
from .qelim import merge_equal_values, simplify_body  # noqa: F401
from .terms import (
    Atom,
    GuardedTerm,
    InfExpr,
    Quant,
    Quantity,
    Rel,
    Valuation,
    free_vars,
)


def _partitioned(q: Quantity) -> tuple[GuardedTerm, ...]:
    """Quantifier-free, partitioning view of a quantity."""
    if q.prefix:
        return eliminate(q).body  # every round ends partitioning
    if is_partitioning(q.body):
        return q.body
    return make_partitioning(q.body)


def _pair_violation(guard_i, guard_j, value_i, value_j, variables) -> Valuation | None:
    """A valuation with both guards true and value_i > value_j, if any."""
    if isinstance(value_i, InfExpr) and value_i.sign < 0:
        return None  # -oo entails anything
    if isinstance(value_j, InfExpr) and value_j.sign > 0:
        return None  # anything entails oo
    if isinstance(value_i, InfExpr) or isinstance(value_j, InfExpr):
        gap = ()  # oo on the left or -oo on the right: any overlap violates
    else:
        gap = (Atom(value_i, Rel.GT, value_j),)
    for di in to_dnf(guard_i):
        for dj in to_dnf(guard_j):
            witness = fm_witness(conjoin(di, dj + gap), extra_vars=variables)
            if witness is not None:
                return witness
    return None


def entails(f: Quantity, g: Quantity) -> Valuation | None:
    """None when ``f`` entails ``g``; otherwise a violating valuation."""
    body_f = _partitioned(f)
    body_g = _partitioned(g)
    variables = sorted(free_vars(f) | free_vars(g))
    for term_f in body_f:
        for term_g in body_g:
            witness = _pair_violation(
                term_f.guard, term_g.guard, term_f.value, term_g.value, variables
            )
            if witness is not None:
                return witness
    return None


def _project(q: Quantity, variables, quant: Quant, *, simplify: bool) -> Quantity:
    # the binders go outermost, so q's own quantifiers are eliminated first
    binders = tuple((quant, v) for v in variables)
    return eliminate(Quantity(binders + q.prefix, q.body), simplify=simplify)


def strongest_interpolant(f: Quantity, g: Quantity, *, simplify: bool = True) -> Quantity:
    """The strongest quantity between ``f`` and ``g`` (w.r.t. entailment)
    over their shared free variables: sup-project f's private variables."""
    witness = entails(f, g)
    if witness is not None:
        raise NotEntailed(witness)
    private = sorted(free_vars(f) - free_vars(g))
    return _project(f, private, Quant.SUP, simplify=simplify)


def weakest_interpolant(f: Quantity, g: Quantity, *, simplify: bool = True) -> Quantity:
    """The weakest quantity between ``f`` and ``g`` over their shared free
    variables: inf-project g's private variables."""
    witness = entails(f, g)
    if witness is not None:
        raise NotEntailed(witness)
    private = sorted(free_vars(g) - free_vars(f))
    return _project(g, private, Quant.INF, simplify=simplify)
