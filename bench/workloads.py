"""The benchmark's workloads: a fixed seeded corpus, a timed op and an output check each.

An op is text in, text out: parse the printed input, call the engine's public
entry points with default arguments only, print the result.  The op looks
every engine function up on its module at call time, so the span wrappers in
``tracing.py`` see the calls.

Checks run outside the timed region, on the result objects the op printed:
reading a large printed result back takes longer than the op itself.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

from linquant import interpolate, parser, printer, qelim
from linquant.normalform import to_gnf
from linquant.numerics import ext_cmp
from linquant.oracle import (
    GenParams,
    eval_quantity,
    oracle_inf,
    oracle_sup,
    random_quantity,
    random_valuation,
    sample_pool,
)
from linquant.terms import Atom, GuardedTerm, LinExpr, Quant, Quantity, Rel, free_vars, fvars_body

# Sample valuations per op in the output check.
CHECK_POINTS = 10

SINGLE_PARAMS = GenParams(
    vars=3, summands=3, atoms_per_guard=3, coeff_bound=3, infinity_prob=0.1, quantifiers=1
)
NESTED_PARAMS = GenParams(vars=3, summands=3, atoms_per_guard=2, infinity_prob=0.1, quantifiers=2)
PAIR_LEFT_PARAMS = GenParams(
    vars=2, summands=2, atoms_per_guard=2, infinity_prob=0.1, quantifiers=0
)


class NotEntailedPair(Exception):
    """The engine said an entailing pair does not entail."""


def entailing_pair(seed: int) -> tuple[Quantity, Quantity]:
    """The acceptance suite's criterion-8 pair construction, kept here so the
    ``interp`` inputs do not change when the tests do.

    ``g`` is ``f`` plus one or two guarded nonnegative constants over ``f``'s
    variables or a fresh ``w``, so ``f`` entails ``g`` by construction.
    """
    rng = random.Random(seed)
    f = random_quantity(PAIR_LEFT_PARAMS, seed)
    shared = sorted(fvars_body(f.body)) or ["x"]
    extra = []
    for _ in range(rng.randint(1, 2)):
        var = rng.choice(shared + ["w"])
        rel = Rel.LE if rng.random() < 0.5 else Rel.GT
        guard = Atom(LinExpr.var(var), rel, LinExpr.const(rng.randint(-2, 2)))
        extra.append(GuardedTerm(guard, LinExpr.const(rng.randint(0, 3))))
    return f, Quantity((), f.body + tuple(extra))


def _single_texts(seed: int) -> tuple[str, ...]:
    return (printer.print_quantity(random_quantity(SINGLE_PARAMS, seed)),)


def _nested_texts(seed: int) -> tuple[str, ...]:
    return (printer.print_quantity(random_quantity(NESTED_PARAMS, seed)),)


def _pair_texts(seed: int) -> tuple[str, ...]:
    return tuple(printer.print_quantity(q) for q in entailing_pair(seed))


def elim_op(texts: tuple[str, ...]) -> tuple[tuple[str, ...], tuple[Quantity, ...]]:
    """parse -> eliminate -> print; returns the printed text and the result."""
    result = qelim.eliminate(parser.parse_quantity(texts[0]))
    return (printer.print_quantity(result),), (result,)


def interp_op(texts: tuple[str, ...]) -> tuple[tuple[str, ...], tuple[Quantity, ...]]:
    """parse f, g -> entails -> both interpolants -> print both."""
    f = parser.parse_quantity(texts[0])
    g = parser.parse_quantity(texts[1])
    if interpolate.entails(f, g) is not None:
        raise NotEntailedPair(texts)
    strongest = interpolate.strongest_interpolant(f, g)
    weakest = interpolate.weakest_interpolant(f, g)
    return (printer.print_quantity(strongest), printer.print_quantity(weakest)), (
        strongest,
        weakest,
    )


def _agrees_with_oracle(q: Quantity, out: Quantity, var: str, quant: Quant, body, rng) -> bool:
    """``out`` equals sup/inf over ``var`` of ``body`` at seeded points."""
    if out.prefix or var in free_vars(out):
        return False
    oracle = oracle_sup if quant is Quant.SUP else oracle_inf
    variables = sorted(free_vars(q))
    pool = sample_pool(q)
    for _ in range(CHECK_POINTS):
        sigma = random_valuation(variables, rng, pool)
        if ext_cmp(eval_quantity(sigma, out.body), oracle(sigma, var, body)) != 0:
            return False
    return True


def check_single(texts, results, rng: random.Random) -> bool:
    """Criterion-4 method: the oracle over the input's GNF body."""
    q = parser.parse_quantity(texts[0])
    quant, var = q.prefix[0]
    gnf = to_gnf(Quantity((), q.body), var)
    return _agrees_with_oracle(q, results[0], var, quant, gnf.body, rng)


def check_nested(texts, results, rng: random.Random) -> bool:
    """Criterion-5 method: the outer oracle over the inner-only elimination.

    This check runs the engine's own inner elimination, so it is not
    independent of the engine for the inner quantifier.
    """
    q = parser.parse_quantity(texts[0])
    (outer_quant, outer_var), inner = q.prefix
    inner_only = qelim.eliminate(Quantity((inner,), q.body))
    # elimination output is partitioning; the oracle sums active terms anyway
    outer_gnf = to_gnf(Quantity((), inner_only.body), outer_var, assume_partitioning=True)
    return _agrees_with_oracle(q, results[0], outer_var, outer_quant, outer_gnf.body, rng)


def check_interp(texts, results, rng: random.Random) -> bool:
    """f <= s <= w <= g at seeded points; s and w only use shared variables.

    The op itself raised unless ``entails`` said yes.
    """
    f, g = (parser.parse_quantity(t) for t in texts)
    s, w = results
    shared = free_vars(f) & free_vars(g)
    if not (free_vars(s) <= shared and free_vars(w) <= shared):
        return False
    variables = sorted(free_vars(f) | free_vars(g))
    pool = sample_pool(f, g)
    chain = (f, s, w, g)
    for _ in range(CHECK_POINTS):
        sigma = random_valuation(variables, rng, pool)
        values = [eval_quantity(sigma, q.body) for q in chain]
        if any(ext_cmp(a, b) > 0 for a, b in zip(values, values[1:])):
            return False
    return True


def digest(texts) -> str:
    """SHA-256 of newline-joined texts."""
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def inputs_digest(corpus) -> str:
    """One digest over every input text of a corpus, in order."""
    return digest(digest(texts) for texts in corpus)


@dataclass(frozen=True)
class Workload:
    size: int
    base_seed: int
    make_texts: Callable[[int], tuple[str, ...]]
    op: Callable
    check: Callable[..., bool]

    def corpus(self, base_seed: int | None = None) -> list[tuple[str, ...]]:
        base = self.base_seed if base_seed is None else base_seed
        return [self.make_texts(base + k) for k in range(self.size)]


WORKLOADS = {
    # The criterion-4 corpus: the pointwise max/min core dominates, and the
    # large outputs expose the printer.
    "single": Workload(200, 40_000, _single_texts, elim_op, check_single),
    # Two quantifiers: the second round re-DNFs merged Or-trees, so to_gnf
    # dominates.  The natural heavy tail stays in (seed 60007 is about a
    # third of a pass).
    "nested": Workload(150, 60_000, _nested_texts, elim_op, check_nested),
    # Criterion-8 entailing pairs: FM witnesses and partitioning dominate,
    # combine is small.
    "interp": Workload(400, 80_000, _pair_texts, interp_op, check_interp),
}
