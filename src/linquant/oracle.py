"""Independent semantic machinery for testing the engine.

``eval_quantity`` evaluates a quantifier-free body exactly.  ``oracle_sup``
and ``oracle_inf`` compute the one-variable supremum/infimum of any
quantifier-free body by brute-force region analysis: solve every atom for
the variable at the valuation, split the line at the breakpoints, and take
the extremum of the active linear piece on each region via its endpoint
limits.
None of this shares code with the elimination engine, so agreement between
the two is meaningful evidence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import UndefinedSum
from .logic import bool_eval
from .normalform import check_well_formed, make_partitioning
from .numerics import NEG_OO, OO, ExtRat, ext_add, ext_cmp
from .terms import (
    And,
    Atom,
    BoolExpr,
    GuardedTerm,
    InfExpr,
    LinExpr,
    Not,
    Or,
    Quant,
    Quantity,
    Rel,
    Valuation,
    fvars_body,
    lin_eval,
)

Body = tuple[GuardedTerm, ...]


def eval_quantity(valuation: Valuation, body) -> ExtRat:
    """Exact value of a quantifier-free body: the extended sum of the
    values whose guards the valuation satisfies (others contribute 0)."""
    total: ExtRat = Fraction(0)
    atom_cache: dict = {}
    for term in body:
        if bool_eval(valuation, term.guard, atom_cache):
            total = ext_add(total, lin_eval(valuation, term.value))
    return total


# One-variable suprema by region decomposition ------------------------------


def _collect_breakpoints(body, var: str, valuation: Valuation) -> list[Fraction]:
    """Where some atom's truth can change along ``var``: an atom reads
    ``a*var + b rel 0`` at the valuation and changes at ``-b/a``; one with
    an infinite side, or in which ``var`` cancels, never does."""
    points: set[Fraction] = set()

    def scan(phi: BoolExpr):
        if isinstance(phi, Atom):
            if isinstance(phi.lhs, InfExpr) or isinstance(phi.rhs, InfExpr):
                return
            diff = phi.lhs - phi.rhs
            a = diff.coeff(var)
            if a:
                points.add(-diff.without(var).evaluate(valuation) / a)
        elif isinstance(phi, Not):
            scan(phi.arg)
        elif isinstance(phi, (And, Or)):
            for arg in phi.args:
                scan(arg)

    for term in body:
        scan(term.guard)
    return sorted(points)


def _active_piece(body, var: str, valuation: Valuation, sample: Fraction):
    """The active value on a region, as (x-coefficient, offset) or +/-oo.

    With a partitioning body exactly one term is active; summing the active
    terms keeps the helper total for any body whose sum is defined.
    """
    at_sample = valuation.updated(var, sample)
    coeff = Fraction(0)
    offset = Fraction(0)
    inf_sign = 0
    atom_cache: dict = {}
    for term in body:
        if not bool_eval(at_sample, term.guard, atom_cache):
            continue
        v = term.value
        if isinstance(v, InfExpr):
            if inf_sign and inf_sign != v.sign:
                raise UndefinedSum("oo + (-oo) while evaluating a region")
            inf_sign = v.sign
        else:
            coeff += v.coeff(var)
            offset += v.without(var).evaluate(valuation)
    return coeff, offset, inf_sign


def _pick(values, maximum: bool) -> ExtRat:
    best = None
    for v in values:
        if best is None:
            best = v
        elif maximum and ext_cmp(v, best) > 0:
            best = v
        elif not maximum and ext_cmp(v, best) < 0:
            best = v
    assert best is not None
    return best


def _oracle_extremum(valuation: Valuation, var: str, body, maximum: bool) -> ExtRat:
    breakpoints = _collect_breakpoints(body, var, valuation)
    regions: list[tuple[Fraction | None, Fraction | None, Fraction]] = []
    if not breakpoints:
        regions.append((None, None, Fraction(0)))
    else:
        regions.append((None, breakpoints[0], breakpoints[0] - 1))
        for i, b in enumerate(breakpoints):
            regions.append((b, b, b))
            nxt = breakpoints[i + 1] if i + 1 < len(breakpoints) else None
            sample = (b + nxt) / 2 if nxt is not None else b + 1
            regions.append((b, nxt, sample))
    candidates: list[ExtRat] = []
    for lo, hi, sample in regions:
        coeff, offset, inf_sign = _active_piece(body, var, valuation, sample)
        if inf_sign:
            candidates.append(OO if inf_sign > 0 else NEG_OO)
            continue
        if lo is not None and lo == hi:  # breakpoint itself
            candidates.append(coeff * lo + offset)
            continue
        if coeff == 0:
            candidates.append(offset)
            continue
        # Open interval: a linear piece attains its extremum in the closure,
        # so the endpoint limits suffice (even when unattained).
        ends: list[ExtRat] = []
        for end, towards_plus in ((lo, False), (hi, True)):
            if end is None:
                ends.append(OO if (coeff > 0) == towards_plus else NEG_OO)
            else:
                ends.append(coeff * end + offset)
        candidates.append(_pick(ends, maximum))
    return _pick(candidates, maximum)


def oracle_sup(valuation: Valuation, var: str, body) -> ExtRat:
    """Supremum over all rational values of ``var``, by region analysis."""
    return _oracle_extremum(valuation, var, tuple(body), maximum=True)


def oracle_inf(valuation: Valuation, var: str, body) -> ExtRat:
    """Infimum over all rational values of ``var``, by region analysis."""
    return _oracle_extremum(valuation, var, tuple(body), maximum=False)


# Random instances -----------------------------------------------------------

_VAR_POOL = ["x", "y", "z", "w", "u", "v"]


@dataclass(frozen=True)
class GenParams:
    """Knobs for the random-quantity generator.

    ``summands`` and ``atoms_per_guard`` are upper limits; each instance
    draws its actual counts uniformly from 1 up to the limit.
    """

    vars: int = 3
    summands: int = 2
    atoms_per_guard: int = 2
    coeff_bound: int = 3
    infinity_prob: float = 0.0
    quantifiers: int = 1
    partitioning: bool = False


def _var_names(count: int) -> list[str]:
    names = list(_VAR_POOL[:count])
    while len(names) < count:
        names.append(f"t{len(names)}")
    return names


def _random_linexpr(rng: random.Random, names, bound: int, max_vars: int = 2) -> LinExpr:
    coeffs = {}
    for var in rng.sample(names, k=min(rng.randint(1, max_vars), len(names))):
        c = rng.randint(-bound, bound)
        if c:
            coeffs[var] = c
    return LinExpr(rng.randint(-bound, bound), coeffs)


def _random_atom(rng: random.Random, names, bound: int) -> Atom:
    lhs = _random_linexpr(rng, names, bound)
    if rng.random() < 0.5:
        rhs = LinExpr.const(rng.randint(-bound, bound))
    else:
        rhs = _random_linexpr(rng, names, bound)
    rel = rng.choice(list(Rel))
    return Atom(lhs, rel, rhs)


def _random_guard(rng: random.Random, names, atoms: int, bound: int) -> BoolExpr:
    count = rng.randint(1, atoms)
    nodes: list[BoolExpr] = [_random_atom(rng, names, bound) for _ in range(count)]
    while len(nodes) > 1:
        b = nodes.pop(rng.randrange(len(nodes)))
        a = nodes.pop(rng.randrange(len(nodes)))
        if rng.random() < 0.2:
            a = Not(a)
        nodes.append(And(a, b) if rng.random() < 0.6 else Or(a, b))
    node = nodes[0]
    if rng.random() < 0.1:
        node = Not(node)
    return node


def random_quantity(params: GenParams, seed: int) -> Quantity:
    """A deterministic pseudo-random quantity; always well-formed.

    Overlap between an oo-valued and a (-oo)-valued guard is repaired by
    conjoining a fresh splitting atom to the offending pair.
    """
    rng = random.Random(seed)
    names = _var_names(params.vars)
    terms: list[GuardedTerm] = []
    for _ in range(rng.randint(1, params.summands)):
        guard = _random_guard(rng, names, params.atoms_per_guard, params.coeff_bound)
        if rng.random() < params.infinity_prob:
            value: LinExpr | InfExpr = InfExpr(rng.choice((-1, 1)))
        else:
            value = _random_linexpr(rng, names, params.coeff_bound)
        terms.append(GuardedTerm(guard, value))
    body = tuple(terms)
    while True:
        violation = check_well_formed(Quantity((), body))
        if violation is None:
            break
        i, j = violation.pair
        split_var = rng.choice(names)
        pivot = LinExpr.const(rng.randint(-params.coeff_bound, params.coeff_bound))
        low = Atom(LinExpr.var(split_var), Rel.LE, pivot)
        high = Atom(LinExpr.var(split_var), Rel.GT, pivot)
        fixed = list(body)
        fixed[i] = GuardedTerm(And(fixed[i].guard, low), fixed[i].value)
        fixed[j] = GuardedTerm(And(fixed[j].guard, high), fixed[j].value)
        body = tuple(fixed)
    if params.partitioning:
        body = make_partitioning(body)
    quants = tuple(
        (rng.choice((Quant.SUP, Quant.INF)), var)
        for var in rng.sample(names, k=min(params.quantifiers, len(names)))
    )
    return Quantity(quants, body)


# Sampling-based equivalence --------------------------------------------------


def _harvest_constants(q: Quantity) -> set[Fraction]:
    found: set[Fraction] = set()

    def from_expr(e):
        if isinstance(e, LinExpr):
            found.add(e.constant)
            found.update(e.coeffs.values())

    def scan(phi: BoolExpr):
        if isinstance(phi, Atom):
            from_expr(phi.lhs)
            from_expr(phi.rhs)
        elif isinstance(phi, Not):
            scan(phi.arg)
        elif isinstance(phi, (And, Or)):
            for arg in phi.args:
                scan(arg)

    for term in q.body:
        scan(term.guard)
        from_expr(term.value)
    return found


def random_valuation(variables, rng: random.Random, pool=()) -> Valuation:
    """Quarter-integer coordinates in [-10, 10], biased toward the pool."""
    bindings = {}
    pool = list(pool)
    for var in variables:
        if pool and rng.random() < 0.5:
            bindings[var] = rng.choice(pool)
        else:
            bindings[var] = Fraction(rng.randint(-40, 40), 4)
    return Valuation(bindings)


def sample_pool(*quantities: Quantity) -> list[Fraction]:
    """Breakpoint-adjacent coordinates harvested from guards."""
    pool: set[Fraction] = set()
    for q in quantities:
        for c in _harvest_constants(q):
            for delta in (Fraction(0), Fraction(1, 4), Fraction(-1, 4), Fraction(1), Fraction(-1)):
                pool.add(c + delta)
    return sorted(pool)


def equiv_sample(f: Quantity, g: Quantity, n: int, seed: int) -> Valuation | None:
    """Compare two quantifier-free quantities at ``n`` seeded samples.

    Returns None when all samples agree, otherwise the first distinguishing
    valuation.  Sample coordinates are quarter-integers in [-10, 10] plus
    breakpoint-adjacent values harvested from both quantities.
    """
    if f.prefix or g.prefix:
        raise ValueError("equiv_sample expects quantifier-free quantities")
    rng = random.Random(seed)
    variables = sorted(fvars_body(f.body) | fvars_body(g.body))
    pool = sample_pool(f, g)
    for _ in range(n):
        sigma = random_valuation(variables, rng, pool)
        if ext_cmp(eval_quantity(sigma, f.body), eval_quantity(sigma, g.body)) != 0:
            return sigma
    return None
