"""Quantitative entailment and Craig interpolation.

``f`` entails ``g`` when ``f`` evaluates below-or-equal ``g`` at every
valuation.  Entailment is decided in one walk over the cells of both
sides (see :func:`~linquant.normalform.cells`).  Each side is a list of
factors whose chosen values sum to its value: a quantified side is its
eliminated, partitioning body, a quantifier-free side its two-term
:func:`~linquant.normalform.splits`.  A cell violates the entailment when
one of its disjuncts has a point where the left sum exceeds the right.
Each interpolant of an entailing pair is one call to
:func:`~linquant.qelim.eliminate`: the strongest is the left side under
sup binders over its private variables, the weakest the right side under
inf binders over its private variables.
"""

from __future__ import annotations

from .errors import NotEntailed
from .logic import conjoin, fm_witness
from .normalform import Body, cells, check_well_formed, splits, sum_values
from .qelim import eliminate
# unused here since entails walks cells, but bench/tracing.py wraps these
# names in this module and its tests require each of them to be present
from .qelim import is_partitioning, make_partitioning, merge_equal_values, simplify_body  # noqa: F401
from .terms import (
    NEG_OO,
    OO,
    Atom,
    InfExpr,
    Quant,
    Quantity,
    Rel,
    Valuation,
    free_vars,
)


def _factors(q: Quantity) -> list[Body]:
    """Bodies whose cells' summed values are ``q``'s value there."""
    if q.prefix:
        return [eliminate(q).body]  # checks well-formedness; ends partitioning
    violation = check_well_formed(q)
    if violation is not None:
        raise violation
    return splits(q.body)


def entails(f: Quantity, g: Quantity) -> Valuation | None:
    """None when ``f`` entails ``g``; otherwise a violating valuation."""
    left = _factors(f)
    variables = sorted(free_vars(f) | free_vars(g))
    for state, chosen in cells(left + _factors(g)):
        value_f = sum_values(t.value for t in chosen[: len(left)])
        value_g = sum_values(t.value for t in chosen[len(left) :])
        if value_f == NEG_OO or value_g == OO:
            continue  # -oo entails anything, and anything entails oo
        # oo on the left or -oo on the right: every point of the cell violates
        infinite = isinstance(value_f, InfExpr) or isinstance(value_g, InfExpr)
        gap = () if infinite else (Atom(value_f, Rel.GT, value_g),)
        for d in state:
            witness = fm_witness(conjoin(d, gap), extra_vars=variables)
            if witness is not None:
                return witness
    return None


def _project(q: Quantity, variables, quant: Quant) -> Quantity:
    # the binders go outermost, so q's own quantifiers are eliminated first
    binders = tuple((quant, v) for v in variables)
    return eliminate(Quantity(binders + q.prefix, q.body), simplify=True)


def strongest_interpolant(f: Quantity, g: Quantity) -> Quantity:
    """The strongest quantity between ``f`` and ``g`` (w.r.t. entailment)
    over their shared free variables: sup-project f's private variables."""
    witness = entails(f, g)
    if witness is not None:
        raise NotEntailed(witness)
    private = sorted(free_vars(f) - free_vars(g))
    return _project(f, private, Quant.SUP)


def weakest_interpolant(f: Quantity, g: Quantity) -> Quantity:
    """The weakest quantity between ``f`` and ``g`` over their shared free
    variables: inf-project g's private variables."""
    witness = entails(f, g)
    if witness is not None:
        raise NotEntailed(witness)
    private = sorted(free_vars(g) - free_vars(f))
    return _project(g, private, Quant.INF)
