"""Quantitative entailment and Craig interpolant construction."""

import hashlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings

from linquant import (
    GenParams,
    LinExpr,
    NotEntailed,
    Quant,
    Quantity,
    WellFormednessViolation,
    eliminate,
    entails,
    equiv_sample,
    eval_quantity,
    ext_cmp,
    free_vars,
    make_partitioning,
    random_quantity,
    strongest_interpolant,
    weakest_interpolant,
)
from linquant.parser import parse_quantity
from linquant.terms import Atom, GuardedTerm, Rel, Valuation, fvars_body

from conftest import entailing_pair, quantifier_free, val


class TestEntails:
    def test_craig_pair(self, craig_pair):
        f, g = craig_pair
        assert entails(f, g) is None

    def test_leaves_recursion_limit(self, craig_pair, fixed_recursion_limit):
        f, g = craig_pair
        quantified = parse_quantity("sup y : [x >= 0 && y <= x] * y")
        assert entails(quantified, g) is None
        strongest_interpolant(f, g)
        weakest_interpolant(f, g)
        assert sys.getrecursionlimit() == fixed_recursion_limit

    def test_reflexive(self, ex1, craig_pair):
        for q in (ex1, *craig_pair, parse_quantity("[true] * 0")):
            assert entails(q, q) is None

    def test_constant_gap(self):
        one = parse_quantity("[true] * 1")
        zero = parse_quantity("[true] * 0")
        witness = entails(one, zero)
        assert witness is not None
        assert entails(zero, one) is None

    def test_witness_is_exact(self):
        f = parse_quantity("[x >= 0] * (2*x + 1)")
        g = parse_quantity("[x >= 3] * (5*x)")
        witness = entails(f, g)
        assert witness is not None
        assert ext_cmp(
            eval_quantity(witness, f.body), eval_quantity(witness, g.body)
        ) > 0

    def test_infinite_right_side_absorbs(self):
        f = parse_quantity("[true] * 100")
        g = parse_quantity("[true] * oo")
        assert entails(f, g) is None
        assert entails(g, f) is not None

    def test_negative_infinity_left_absorbs(self):
        f = parse_quantity("[true] * (-oo)")
        g = parse_quantity("[true] * (-5)")
        assert entails(f, g) is None

    def test_quantified_inputs(self):
        # sup over y of the Craig left side equals [x>=0]*2x pointwise
        projected = parse_quantity("sup y : [x >= 0] * x + [x >= 0 && y <= x] * y")
        assert entails(projected, parse_quantity("[x >= 0] * (3*x)")) is None
        assert entails(parse_quantity("[x >= 0] * (3*x)"), projected) is not None

    @settings(deadline=None, max_examples=60)
    @given(f=quantifier_free(), g=quantifier_free())
    def test_witness_violates(self, f, g):
        # metamorphic: a returned witness is a point where f exceeds g
        witness = entails(f, g)
        assume(witness is not None)
        assert ext_cmp(eval_quantity(witness, f.body), eval_quantity(witness, g.body)) > 0

    @settings(deadline=None, max_examples=60)
    @given(f=quantifier_free(), g=quantifier_free())
    def test_verdict_ignores_side_shape(self, f, g):
        # metamorphic: a side's split terms, their reversal and the already
        # partitioning body they sum to all give the same verdict
        def variants(q):
            yield Quantity((), tuple(reversed(q.body)))
            yield Quantity((), make_partitioning(q.body))

        verdict = entails(f, g) is None
        for f2 in variants(f):
            assert (entails(f2, g) is None) == verdict
        for g2 in variants(g):
            assert (entails(f, g2) is None) == verdict

    @pytest.mark.parametrize("ill_formed_first", [True, False])
    def test_ill_formed_quantifier_free_side(self, ill_formed_first):
        bad = parse_quantity("[x > 0] * oo + [x > -1] * (-oo)")
        other = parse_quantity("[x > 0] * 1")
        pair = (bad, other) if ill_formed_first else (other, bad)
        for decide in (entails, strongest_interpolant, weakest_interpolant):
            with pytest.raises(WellFormednessViolation) as err:
                decide(*pair)
            assert err.value.pair == (0, 1)

    def test_verdict_digest(self):
        # entails(f, g) and entails(g, f) over entailing pairs and over
        # random pairs with a quantifier-free or a quantified left side
        params = dict(vars=2, summands=3, atoms_per_guard=2, infinity_prob=0.15)
        pairs = [entailing_pair(20_000 + s) for s in range(200)]
        pairs += [
            (
                random_quantity(GenParams(**params, quantifiers=q), 12_000 + s),
                random_quantity(GenParams(**params, quantifiers=0), 12_500 + s),
            )
            for q in (0, 1)
            for s in range(50)
        ]
        verdicts = "".join(
            "y" if entails(a, b) is None else "n" for f, g in pairs for a, b in ((f, g), (g, f))
        )
        assert verdicts.count("y") == 271
        assert hashlib.sha256(verdicts.encode()).hexdigest()[:16] == "1f676730f4a5c80b"


class TestStrongestInterpolant:
    def test_craig_example(self, craig_pair):
        f, g = craig_pair
        s = strongest_interpolant(f, g)
        expected = parse_quantity("[x >= 0] * (2*x)")
        assert s.prefix == ()
        assert equiv_sample(s, expected, 1000, seed=7) is None
        assert free_vars(s) <= free_vars(f) & free_vars(g)
        assert entails(f, s) is None
        assert entails(s, g) is None

    def test_no_private_variables_degenerates_to_elimination(self):
        f = parse_quantity("[x >= 0] * x")
        g = parse_quantity("[x >= 0] * (x + 1) + [y > 0] * 1")
        s = strongest_interpolant(f, g)
        assert equiv_sample(s, f, 500, seed=3) is None

    def test_not_entailed_raises(self):
        f = parse_quantity("[true] * 1")
        g = parse_quantity("[true] * 0")
        with pytest.raises(NotEntailed) as err:
            strongest_interpolant(f, g)
        assert err.value.witness is not None


class TestWeakestInterpolant:
    def test_craig_example(self, craig_pair):
        f, g = craig_pair
        w = weakest_interpolant(f, g)
        expected = parse_quantity("[x >= 0] * (3*x + 1)")
        assert equiv_sample(w, expected, 1000, seed=7) is None
        assert free_vars(w) <= free_vars(f) & free_vars(g)
        assert entails(f, w) is None
        assert entails(w, g) is None

    def test_strongest_entails_weakest(self, craig_pair):
        f, g = craig_pair
        s = strongest_interpolant(f, g)
        w = weakest_interpolant(f, g)
        assert entails(s, w) is None

    def test_no_private_variables(self):
        f = parse_quantity("[x >= 0] * x + [y > 0] * 1")
        g = parse_quantity("[x >= 0] * (x + 2) + [y > 0] * 2")
        w = weakest_interpolant(f, g)
        assert equiv_sample(w, g, 500, seed=4) is None


class TestEntailsSamplingAgreement:
    def test_yes_verdicts_hold_at_samples(self):
        rng = random.Random(555)
        for seed in range(5):
            f, g = entailing_pair(seed)
            assert entails(f, g) is None
            variables = sorted(fvars_body(f.body) | fvars_body(g.body))
            for _ in range(500):
                sigma = Valuation(
                    {v: Fraction(rng.randint(-40, 40), 4) for v in variables}
                )
                assert (
                    ext_cmp(eval_quantity(sigma, f.body), eval_quantity(sigma, g.body))
                    <= 0
                )


    def test_no_verdicts_carry_exact_witnesses(self):
        rng = random.Random(777)
        saw_no = 0
        for seed in range(30):
            f = random_quantity(
                GenParams(vars=2, summands=2, atoms_per_guard=2, infinity_prob=0.1,
                          quantifiers=0),
                7_000 + seed,
            )
            g = random_quantity(
                GenParams(vars=2, summands=2, atoms_per_guard=2, infinity_prob=0.1,
                          quantifiers=0),
                7_500 + seed,
            )
            witness = entails(f, g)
            if witness is None:
                continue
            saw_no += 1
            assert ext_cmp(
                eval_quantity(witness, f.body), eval_quantity(witness, g.body)
            ) > 0
        assert saw_no > 10  # random pairs rarely entail


# the left side has its own sup prefix and a private free variable u
QUANTIFIED_PAIR = (
    "sup y : [x >= 0 && y <= x && u <= 0] * (y + u)",
    "[x >= 0] * (2*x + 1)",
)


class TestSandwich:
    def test_constructed_pairs(self):
        pairs = [entailing_pair(seed) for seed in range(25)]
        pairs.append(tuple(parse_quantity(text) for text in QUANTIFIED_PAIR))
        for f, g in pairs:
            assert entails(f, g) is None
            s = strongest_interpolant(f, g)
            w = weakest_interpolant(f, g)
            # each interpolant is one elimination, private binders outermost
            sup_f = tuple((Quant.SUP, v) for v in sorted(free_vars(f) - free_vars(g)))
            inf_g = tuple((Quant.INF, v) for v in sorted(free_vars(g) - free_vars(f)))
            assert s == eliminate(Quantity(sup_f + f.prefix, f.body), simplify=True)
            assert w == eliminate(Quantity(inf_g + g.prefix, g.body), simplify=True)
            shared = free_vars(f) & free_vars(g)
            assert free_vars(s) <= shared
            assert free_vars(w) <= shared
            assert entails(f, s) is None
            assert entails(s, w) is None
            assert entails(w, g) is None

    def test_strongest_entails_generated_candidates(self):
        # candidates = strongest + nonnegative constants over shared variables
        for seed in range(8):
            f, g = entailing_pair(100 + seed)
            s = strongest_interpolant(f, g)
            rng = random.Random(seed)
            candidate = Quantity(
                (),
                s.body
                + (
                    GuardedTerm(
                        Atom(
                            LinExpr.var(sorted(free_vars(f) & free_vars(g) or {"x"})[0]),
                            Rel.GE,
                            LinExpr.const(rng.randint(-2, 2)),
                        ),
                        LinExpr.const(rng.randint(0, 2)),
                    ),
                ),
            )
            if entails(f, candidate) is None and entails(candidate, g) is None:
                assert entails(s, candidate) is None
