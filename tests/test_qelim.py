"""The elimination engine: bounds, selectors, substitution, recombination."""

import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linquant import (
    Disjunct,
    GenParams,
    IndexOutOfRange,
    InfExpr,
    LinExpr,
    NEG_OO,
    OO,
    Quant,
    Quantity,
    depth,
    eliminate,
    eliminate_over_disjunct,
    eliminate_var,
    equiv_sample,
    eval_quantity,
    ext_cmp,
    extract_bounds,
    feasibility,
    free_vars,
    greatest_lower_selector,
    least_upper_selector,
    lin_eval,
    oracle_inf,
    oracle_sup,
    pointwise_max,
    pointwise_min,
    random_quantity,
    substitute_bound,
    to_gnf,
    width,
)
import linquant
from linquant.errors import NotIsolated, NotPartitioning, WellFormednessViolation
from linquant.logic import atom_eval, bool_eval, disjunct_sat, fold_atom, negate_atom, reduce_disjunct
from linquant.normalform import cells
from linquant.oracle import random_valuation, sample_pool
from linquant.parser import parse_body, parse_quantity
from linquant.printer import print_bool, print_quantity
from linquant.terms import (
    FALSE,
    TRUE,
    And,
    Atom,
    GuardedTerm,
    Not,
    Or,
    Rel,
    TrueExpr,
    Valuation,
    atoms,
    fvars_body,
)

from conftest import atom, dnf_split, has_parallel_atoms, is_antichain, lin, quantifier_free, val

# the bounded disjunct of the running example: x < y1+2, x <= -y3, x >= y2
D_BOUNDED = Disjunct(
    (
        atom(lin(0, x=1), "<", lin(2, y1=1)),
        atom(lin(0, x=1), "<=", lin(0, y3=-1)),
        atom(lin(0, x=1), ">=", lin(0, y2=1)),
    )
)


class TestExtractBounds:
    def test_running_example_disjunct(self):
        bs = extract_bounds(D_BOUNDED, "x")
        assert bs.strict_upper == (lin(2, y1=1),)
        assert bs.nonstrict_upper == (lin(0, y3=-1), OO)
        assert bs.nonstrict_lower == (lin(0, y2=1), NEG_OO)
        assert bs.strict_lower == ()

    def test_var_free_disjunct_defaults(self):
        bs = extract_bounds(Disjunct((atom(lin(0, y=1), "<", 1),)), "x")
        assert bs.uppers() == (OO,)
        assert bs.lowers() == (NEG_OO,)

    def test_occurrence_order_preserved(self):
        d = Disjunct((atom(lin(0, x=1), ">", 0), atom(lin(0, x=1), ">", 1)))
        bs = extract_bounds(d, "x")
        assert bs.strict_lower == (LinExpr.const(0), LinExpr.const(1))

    def test_unisolated_rejected(self):
        d = Disjunct((atom(lin(0, x=2), "<", 0),))
        with pytest.raises(NotIsolated):
            extract_bounds(d, "x")


class TestFeasibility:
    def test_running_example_folded(self):
        phi = feasibility(D_BOUNDED, "x")
        expected = {
            atom(lin(0, y2=1), "<=", lin(0, y3=-1)),
            atom(lin(0, y1=1), ">", lin(-2, y2=1)),
        }
        assert _atoms_of(phi) == expected

    def test_folds_to_false(self):
        d = Disjunct((atom(lin(0, x=1), ">=", 0), atom(lin(0, x=1), "<=", -1)))
        assert feasibility(d, "x") is FALSE

    def test_var_free_literal_survives(self):
        d = Disjunct((atom(lin(0, y=1), "<", 1),))
        assert feasibility(d, "x") == atom(lin(0, y=1), "<", 1)

    def test_matches_solution_set_existence(self):
        # cross-check the residue against direct interval analysis; y and z
        # follow x in name order, so their rows are rotated to lead with them
        rng = random.Random(7)
        from conftest import direct_bound_check, random_iso_disjunct

        for var in ("x", "y", "z") * 100:
            d = random_iso_disjunct(rng, ["x", "y", "z"], var)
            phi = feasibility(d, var)
            assert all(a is fold_atom(a) for a in atoms(phi))
            for _ in range(5):
                sigma = Valuation({v: Fraction(rng.randint(-12, 12), 4) for v in ("x", "y", "z")})
                nonempty, _, _ = direct_bound_check(d, var, sigma)
                assert bool_eval(sigma, phi) == nonempty


def _atoms_of(phi) -> set:
    from linquant.terms import And, Atom as A, Not, Or

    if isinstance(phi, A):
        return {phi}
    if isinstance(phi, (And, Or)):
        return set().union(*(_atoms_of(arg) for arg in phi.args))
    if isinstance(phi, Not):
        return _atoms_of(phi.arg)
    return set()


class TestSelectors:
    def test_first_upper_of_running_example(self):
        bs = extract_bounds(D_BOUNDED, "x")
        # uppers are [y1+2, -y3, oo]; the oo comparison folds away
        assert least_upper_selector(bs, 1) == atom(lin(0, y1=1), "<=", lin(-2, y3=-1))

    def test_single_real_upper_folds_true(self):
        # the only comparison is against the oo default, which folds away
        bs = extract_bounds(Disjunct((atom(lin(0, x=1), "<=", lin(0, u=1)),)), "x")
        assert bs.uppers() == (lin(0, u=1), OO)
        assert isinstance(least_upper_selector(bs, 1), TrueExpr)

    def test_singleton_list_empty_conjunction(self):
        from linquant import BoundSets

        bs = BoundSets((), (lin(0, u=1),), (), (NEG_OO,))
        assert isinstance(least_upper_selector(bs, 1), TrueExpr)

    def test_two_uppers_second(self):
        d = Disjunct((atom(lin(0, x=1), "<=", lin(0, u=1)), atom(lin(0, x=1), "<=", lin(0, w=1))))
        bs = extract_bounds(d, "x")
        sel = least_upper_selector(bs, 2)
        assert _atoms_of(sel) == {atom(lin(0, u=1), ">", lin(0, w=1))}

    def test_lower_selector_folds_true(self):
        bs = extract_bounds(Disjunct((atom(lin(0, x=1), ">=", lin(0, y2=1)),)), "x")
        assert bs.lowers() == (lin(0, y2=1), NEG_OO)
        assert isinstance(greatest_lower_selector(bs, 1), TrueExpr)

    def test_constant_lower_list(self):
        d = Disjunct((atom(lin(0, x=1), ">", 0), atom(lin(0, x=1), ">", 1)))
        bs = extract_bounds(d, "x")
        assert isinstance(greatest_lower_selector(bs, 2), TrueExpr)

    def test_repeated_bound_compared_once(self):
        # lowers (0, 0, 2*y - 2, -oo): both 0s ask for 2*y - 2 > 0
        from linquant import BoundSets

        bs = BoundSets((), (OO,), (lin(0),), (lin(0), lin(-2, y=2), NEG_OO))
        assert greatest_lower_selector(bs, 3) == atom(lin(0, y=1), ">", 1)

    def test_index_out_of_range(self):
        bs = extract_bounds(D_BOUNDED, "x")
        with pytest.raises(IndexOutOfRange):
            least_upper_selector(bs, 4)
        with pytest.raises(IndexOutOfRange):
            greatest_lower_selector(bs, 0)

    def test_uniqueness_and_value(self):
        """Whenever the feasibility guard holds, exactly one upper selector
        fires and it names the least evaluated upper bound (dually below)."""
        from conftest import direct_bound_check, random_iso_disjunct

        rng = random.Random(1234)
        checked = 0
        for _ in range(200):
            d = random_iso_disjunct(rng, ["x", "y", "z"], "x")
            phi = feasibility(d, "x")
            bs = extract_bounds(d, "x")
            for _ in range(5):
                sigma = Valuation({v: Fraction(rng.randint(-12, 12), 4) for v in ("x", "y", "z")})
                if not bool_eval(sigma, phi):
                    continue
                checked += 1
                _, glb, lub = direct_bound_check(d, "x", sigma)
                ups = [
                    i
                    for i in range(1, len(bs.uppers()) + 1)
                    if bool_eval(sigma, least_upper_selector(bs, i))
                ]
                lows = [
                    i
                    for i in range(1, len(bs.lowers()) + 1)
                    if bool_eval(sigma, greatest_lower_selector(bs, i))
                ]
                assert len(ups) == 1 and len(lows) == 1
                assert ext_cmp(lin_eval(sigma, bs.uppers()[ups[0] - 1]), lub) == 0
                assert ext_cmp(lin_eval(sigma, bs.lowers()[lows[0] - 1]), glb) == 0
        assert checked > 100


class TestSubstituteBound:
    def test_running_example_substitution(self):
        assert substitute_bound(lin(0, x=2, z=1), "x", lin(0, y3=-1)) == lin(0, y3=-2, z=1)

    def test_positive_against_pos_inf(self):
        assert substitute_bound(lin(0, x=2, z=1), "x", OO) == OO

    def test_negative_against_pos_inf(self):
        assert substitute_bound(lin(1, x=-1), "x", OO) == NEG_OO

    def test_var_absent(self):
        assert substitute_bound(lin(0, z=1), "x", NEG_OO) == lin(0, z=1)

    @settings(deadline=None, max_examples=200)
    @given(data=st.data())
    def test_homomorphism(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**9)))
        e = LinExpr(rng.randint(-3, 3), {"x": rng.randint(-3, 3), "y": rng.randint(-3, 3)})
        a = LinExpr(rng.randint(-3, 3), {"y": rng.randint(-3, 3), "z": rng.randint(-3, 3)})
        sigma = val(
            x=Fraction(rng.randint(-20, 20), 4),
            y=Fraction(rng.randint(-20, 20), 4),
            z=Fraction(rng.randint(-20, 20), 4),
        )
        replaced = substitute_bound(e, "x", a)
        bound_value = lin_eval(sigma, a)
        shifted = sigma.updated("x", bound_value)
        assert ext_cmp(lin_eval(sigma, replaced), lin_eval(shifted, e)) == 0


class TestEliminateOverDisjunct:
    def test_running_example_case_split(self):
        out = eliminate_over_disjunct(Quant.SUP, D_BOUNDED, lin(0, x=2, z=1), "x")
        expected = parse_body(
            "[!(y2 <= -y3) || !(y2 < y1 + 2)] * (-oo)"
            " + [y2 <= -y3 && y2 < y1 + 2 && y1 + 2 <= -y3] * (2*y1 + z + 4)"
            " + [y2 <= -y3 && y2 < y1 + 2 && -y3 < y1 + 2] * (-2*y3 + z)"
        )
        rng = random.Random(11)
        for _ in range(400):
            sigma = Valuation(
                {v: Fraction(rng.randint(-24, 24), 4) for v in ("y1", "y2", "y3", "z")}
            )
            assert ext_cmp(eval_quantity(sigma, out), eval_quantity(sigma, expected)) == 0
        values = {t.value for t in out}
        assert lin(4, y1=2, z=1) in values
        assert lin(0, y3=-2, z=1) in values
        assert NEG_OO in values

    def test_var_free_disjunct_with_increasing_value(self):
        d = Disjunct((atom(lin(0, y1=1), "<", lin(0, z=1)),))
        out = eliminate_over_disjunct(Quant.SUP, d, lin(0, x=2, z=1), "x")
        expected = parse_body("[y1 < z] * oo + [y1 >= z] * (-oo)")
        rng = random.Random(12)
        for _ in range(200):
            sigma = Valuation({v: Fraction(rng.randint(-20, 20), 4) for v in ("y1", "z")})
            assert ext_cmp(eval_quantity(sigma, out), eval_quantity(sigma, expected)) == 0

    def test_infeasible_disjunct_collapses(self):
        d = Disjunct((atom(lin(0, x=1), ">=", 0), atom(lin(0, x=1), "<=", -1)))
        out = eliminate_over_disjunct(Quant.SUP, d, lin(0, x=1), "x")
        assert out == (parse_body("[true] * (-oo)")[0],)

    def test_inf_dual_default(self):
        d = Disjunct((atom(lin(0, x=1), ">=", 0), atom(lin(0, x=1), "<=", -1)))
        out = eliminate_over_disjunct(Quant.INF, d, lin(0, x=1), "x")
        assert out == (parse_body("[true] * oo")[0],)

    def test_outputs_are_var_free_and_partitioning(self):
        from linquant import is_partitioning

        out = eliminate_over_disjunct(Quant.SUP, D_BOUNDED, lin(0, x=2, z=1), "x")
        assert "x" not in fvars_body(out)
        assert is_partitioning(out)


class TestPointwiseMaxMin:
    def test_singleton_identity(self):
        body = parse_body("[x >= 0] * 1 + [x < 0] * 2")
        out = pointwise_max([body])
        rng = random.Random(3)
        for _ in range(50):
            sigma = val(x=Fraction(rng.randint(-20, 20), 4))
            assert ext_cmp(eval_quantity(sigma, out), eval_quantity(sigma, body)) == 0

    def test_constant_bodies(self):
        out = pointwise_max([parse_body("[true] * 1"), parse_body("[true] * 2")])
        assert eval_quantity(val(), out) == lin_eval(val(), LinExpr.const(2))
        out_min = pointwise_min([parse_body("[true] * 1"), parse_body("[true] * 2")])
        assert eval_quantity(val(), out_min) == 1

    def test_piecewise_against_constant(self):
        a = parse_body("[x >= 0] * x + [x < 0] * 0")
        b = parse_body("[true] * 1")
        out = pointwise_max([a, b])
        assert eval_quantity(val(x=5), out) == 5
        assert eval_quantity(val(x=-3), out) == 1
        assert eval_quantity(val(x=Fraction(1, 2)), out) == 1

    def test_rejects_non_partitioning(self):
        with pytest.raises(NotPartitioning):
            pointwise_max([parse_body("[x > 0] * 1")])

    def test_repeated_value_is_one_candidate(self):
        # the third body repeats the first one's value: it neither wins a
        # term of its own nor adds a non-strict twin of a strict tie atom
        bodies = [parse_body(t) for t in ("[true] * y", "[true] * z", "[true] * y")]
        assert print_quantity(Quantity((), pointwise_max(bodies))) == "[y >= z] * y + [y < z] * z"
        assert print_quantity(Quantity((), pointwise_min(bodies))) == "[y <= z] * y + [y > z] * z"

    def test_random_pointwise_agreement(self):
        rng = random.Random(314)
        for case in range(60):
            bodies = [
                random_quantity(
                    GenParams(vars=2, summands=2, atoms_per_guard=2, infinity_prob=0.15,
                              quantifiers=0, partitioning=True),
                    seed=9_000 + 3 * case + k,
                ).body
                for k in range(rng.choice((2, 3)))
            ]
            for maximum, combine in ((True, pointwise_max), (False, pointwise_min)):
                out = combine(bodies)
                from linquant import is_partitioning

                assert is_partitioning(out)
                for term in out:  # each cell comes out as a DNF of live disjuncts
                    disjuncts = dnf_split(term.guard)
                    assert disjuncts is not None, term.guard
                    assert all(disjunct_sat(d) for d in disjuncts)
                variables = sorted(set().union(*(fvars_body(b) for b in bodies)))
                for _ in range(25):
                    sigma = Valuation(
                        {v: Fraction(rng.randint(-20, 20), 4) for v in variables}
                    )
                    values = [eval_quantity(sigma, b) for b in bodies]
                    want = max(values) if maximum else min(values)
                    assert ext_cmp(eval_quantity(sigma, out), want) == 0


class TestEliminateVar:
    def test_unbounded_increasing_piece(self):
        q = parse_quantity("sup x : [true] * x")
        gnf = to_gnf(Quantity((), q.body), "x")
        out = eliminate_var(Quant.SUP, "x", gnf.body)
        assert eval_quantity(val(), out) == lin_eval(val(), OO)

    def test_var_absent_everywhere(self):
        q = parse_quantity("inf x : [true] * (3*c)")
        gnf = to_gnf(Quantity((), q.body), "x")
        out = eliminate_var(Quant.INF, "x", gnf.body)
        for c in (-2, 0, 7):
            assert eval_quantity(val(c=c), out) == 3 * c

    @pytest.mark.parametrize(
        "guard",
        [
            Not(atom(lin(0, x=1), ">", 0)),
            And(atom(lin(0, x=1), ">", 0), Or(atom(lin(0, y=1), ">", 0), atom(lin(0, y=1), "<", -1))),
            Or(atom(lin(0, x=1), ">", 0), Or(atom(lin(0, y=1), ">", 0), atom(lin(0, y=1), "<", -1))),
        ],
        ids=["not", "or-in-and", "or-in-later-or-argument"],
    )
    def test_rejects_guard_not_in_gnf(self, guard):
        # a GNF guard is read as written, an Or of Ands of atoms
        with pytest.raises(NotIsolated):
            eliminate_var(Quant.SUP, "x", (GuardedTerm(guard, LinExpr.var("x")),))

    def test_example_one_agrees_with_oracle(self, ex1):
        gnf = to_gnf(Quantity((), ex1.body), "x")
        out = eliminate_var(Quant.SUP, "x", gnf.body)
        rng = random.Random(2718)
        for _ in range(200):
            sigma = Valuation(
                {v: Fraction(rng.randint(-24, 24), 4) for v in ("y1", "y2", "y3", "z")}
            )
            assert ext_cmp(eval_quantity(sigma, out), oracle_sup(sigma, "x", ex1.body)) == 0


CRITERION_4 = GenParams(
    vars=3, summands=3, atoms_per_guard=3, coeff_bound=3, infinity_prob=0.1, quantifiers=1
)


class TestMinimalDnf:
    def test_gnf_guards_and_cell_states_are_antichains(self):
        # no GNF guard and no state of the cell walk under pointwise max/min
        # keeps a disjunct whose atom set contains another's
        for seed in range(40_000, 40_060):
            q = random_quantity(CRITERION_4, seed)
            quant, var = q.prefix[0]
            gnf = to_gnf(Quantity((), q.body), var)
            tasks = []
            for term in gnf.body:
                disjuncts = dnf_split(term.guard)
                assert is_antichain(disjuncts), (seed, term.guard)
                tasks += [(d, term.value) for d in disjuncts]
            sub_bodies = [eliminate_over_disjunct(quant, d, v, var) for d, v in tasks]
            for state, _ in cells(sub_bodies):
                assert is_antichain(state), (seed, state)

    def test_heavy_tail_depth(self):
        # a nested instance whose guards reached depth 470 while only
        # repeated disjuncts were dropped
        q = random_quantity(replace(CRITERION_4, vars=4, quantifiers=2), 904)
        full = eliminate(q)
        assert depth(full) <= 200
        # the criterion-5 method: the outer oracle over the inner-only elimination
        (outer_quant, outer_var), inner = q.prefix
        inner_only = eliminate(Quantity((inner,), q.body))
        oracle = oracle_sup if outer_quant is Quant.SUP else oracle_inf
        rng = random.Random(904)
        pool = sample_pool(q)
        for _ in range(10):
            sigma = random_valuation(sorted(free_vars(q)), rng, pool)
            expected = oracle(sigma, outer_var, inner_only.body)
            assert ext_cmp(eval_quantity(sigma, full.body), expected) == 0


NESTED = GenParams(vars=3, summands=3, atoms_per_guard=2, infinity_prob=0.1, quantifiers=2)
VALUES = [parse_body(f"[true] * ({v})")[0].value for v in ("y", "z", "2*y - 1", "0", "oo", "-oo")]


class TestDistinctCandidates:
    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.sampled_from(VALUES), min_size=2, max_size=6))
    def test_repeated_values_change_nothing(self, values):
        # over ``true`` guards every output atom is a tie atom, and a value
        # repeated by a later body is the same candidate as its first copy
        for combine in (pointwise_max, pointwise_min):
            out = combine([(GuardedTerm(TRUE, v),) for v in values])
            assert out == combine([(GuardedTerm(TRUE, v),) for v in dict.fromkeys(values)])

    def test_no_strict_and_non_strict_twin(self):
        # no output disjunct holds two atoms of one row direction: a value
        # repeated in a cell gave a disjunct both ``a < b`` and ``a <= b``
        # (seeds 60014 and 60066); a tie atom conjoined beside a parallel
        # cell-state atom kept both (seeds 60014 and 40000).  Every emitted
        # disjunct is also reduced: no atom is implied by the rest (tie
        # atoms conjoined after a reduction left such atoms in 920 of the
        # criterion-4 disjuncts)
        parallel, unreduced = set(), set()
        corpora = ((NESTED, range(60_000, 60_100)), (CRITERION_4, range(40_000, 40_200)))
        for params, seeds in corpora:
            for seed in seeds:
                for term in eliminate(random_quantity(params, seed)).body:
                    disjuncts = dnf_split(term.guard)
                    assert disjuncts is not None, (seed, term.guard)
                    if any(has_parallel_atoms(d) for d in disjuncts):
                        parallel.add(seed)
                    if any(reduce_disjunct(d) != d for d in disjuncts):
                        unreduced.add(seed)
        assert parallel == set()
        assert unreduced == set()


class TestEliminate:
    def test_example_full(self, ex1):
        out = eliminate(ex1)
        assert out.prefix == ()
        assert "x" not in fvars_body(out.body)
        assert free_vars(out) <= free_vars(ex1)
        rng = random.Random(13)
        pool = sample_pool(out)
        for _ in range(200):
            sigma = random_valuation(["y1", "y2", "y3", "z"], rng, pool)
            assert ext_cmp(eval_quantity(sigma, out.body), oracle_sup(sigma, "x", ex1.body)) == 0

    def test_quantifier_free_unchanged(self):
        q = parse_quantity("[x > 0] * 1 + [x <= 0] * 2")
        assert eliminate(q) == q

    def test_craig_projection(self, craig_pair):
        f, _ = craig_pair
        projected = eliminate(Quantity(((Quant.SUP, "y"),) + f.prefix, f.body), simplify=True)
        expected = parse_quantity("[x >= 0] * 2*x")
        assert equiv_sample(projected, expected, 500, seed=21) is None

    @pytest.mark.parametrize(
        "text",
        ["[x > 0] * 1 + [x > 1] * 1", "[x >= 0 && y >= 0] * (x + 1) + [x <= 1] * (x + 1)"],
    )
    def test_simplify_quantifier_free_overlap(self, text):
        # overlapping equal-valued terms add up; merging them unpartitioned would not
        q = parse_quantity(text)
        assert equiv_sample(eliminate(q, simplify=True), q, 500, seed=31) is None

    @settings(deadline=None, max_examples=60)
    @given(q=quantifier_free())
    def test_quantifier_free_random(self, q):
        # metamorphic: nothing to eliminate leaves the body as it is, and
        # simplifying it (through make_partitioning) keeps its function
        assert eliminate(q) == q
        assert equiv_sample(eliminate(q, simplify=True), q, 60, seed=5) is None

    def test_rejects_ill_formed(self):
        q = parse_quantity("sup x : [x > 0] * oo + [x > -1] * (-oo)")
        with pytest.raises(WellFormednessViolation):
            eliminate(q)

    def test_leaves_recursion_limit(self, ex1, fixed_recursion_limit):
        eliminate(ex1)
        assert sys.getrecursionlimit() == fixed_recursion_limit

    def test_inf_is_negated_sup_of_negation(self):
        # inf x : f == -(sup x : -f), compared at sample points; needs no oracle
        def negate(v):
            return InfExpr(-v.sign) if isinstance(v, InfExpr) else -v

        params = GenParams(vars=3, summands=2, atoms_per_guard=2, infinity_prob=0.1)
        rng = random.Random(95)
        for case in range(60):
            q = random_quantity(params, seed=95_000 + case)
            _, var = q.prefix[0]
            neg_body = tuple(GuardedTerm(t.guard, negate(t.value)) for t in q.body)
            low = eliminate(Quantity(((Quant.INF, var),), q.body))
            high = eliminate(Quantity(((Quant.SUP, var),), neg_body))
            pool = sample_pool(low, high)
            variables = sorted(fvars_body(q.body) - {var})
            for _ in range(20):
                sigma = random_valuation(variables, rng, pool)
                got = eval_quantity(sigma, low.body)
                want = negate(eval_quantity(sigma, high.body))
                assert ext_cmp(got, want) == 0, (case, sigma, got, want)

    def test_adjacent_same_kind_quantifiers_commute(self):
        # sup x : sup y : f == sup y : sup x : f, and dually for inf; no oracle
        params = GenParams(vars=3, summands=2, atoms_per_guard=2, infinity_prob=0.1,
                           quantifiers=0)
        for case in range(40):
            q = random_quantity(params, seed=97_000 + case)
            variables = sorted(fvars_body(q.body))
            if len(variables) < 2:
                continue
            x, y = variables[:2]
            for quant in Quant:
                xy = eliminate(Quantity(((quant, x), (quant, y)), q.body))
                yx = eliminate(Quantity(((quant, y), (quant, x)), q.body))
                assert equiv_sample(xy, yx, 20, seed=case) is None, (case, quant)

    def test_free_vars_shrink_random(self):
        for case in range(25):
            q = random_quantity(
                GenParams(vars=3, summands=2, atoms_per_guard=2, infinity_prob=0.1, quantifiers=1),
                seed=77_000 + case,
            )
            out = eliminate(q)
            assert out.prefix == ()
            assert free_vars(out) <= free_vars(q)
            bound = {v for _, v in q.prefix}
            assert not (fvars_body(out.body) & bound)


# One inequality is one interned atom, printed from its row alone.
_ORDER_SCRIPT = """
import json, sys
from linquant import GenParams, eliminate, print_quantity, random_quantity
single = GenParams(vars=3, summands=3, atoms_per_guard=3, coeff_bound=3,
                   infinity_prob=0.1, quantifiers=1)
nested = GenParams(vars=3, summands=3, atoms_per_guard=2, infinity_prob=0.1, quantifiers=2)
corpus = [(single, 40_000 + k) for k in range(40)] + [(nested, 60_000 + k) for k in range(20)]
order = list(range(len(corpus)))
if sys.argv[1] == "reversed":
    order.reverse()
printed = {}
for i in order:
    params, seed = corpus[i]
    printed[i] = print_quantity(eliminate(random_quantity(params, seed)))
print(json.dumps([printed[i] for i in range(len(corpus))]))
"""


def _canonical_text(a: Atom) -> str:
    """The atom's inequality with its first variable in name order isolated."""
    diff = a.lhs - a.rhs  # a reads diff rel 0
    v = min(diff.coeffs)
    c = diff.coeff(v)
    bound = diff.without(v).scale(Fraction(-1) / c)
    return print_bool(Atom(LinExpr.var(v), a.rel if c > 0 else a.rel.flipped, bound))


class TestInternedAtoms:
    def test_outputs_print_the_canonical_form(self):
        single = GenParams(vars=3, summands=3, atoms_per_guard=3, coeff_bound=3,
                           infinity_prob=0.1, quantifiers=1)
        nested = GenParams(vars=3, summands=3, atoms_per_guard=2, infinity_prob=0.1, quantifiers=2)
        checked = 0
        for params, seeds in ((single, range(40_000, 40_040)), (nested, range(60_000, 60_012))):
            for seed in seeds:
                for term in eliminate(random_quantity(params, seed)).body:
                    for a in atoms(term.guard):
                        assert print_bool(a) == _canonical_text(a)
                        assert fold_atom(a) is a
                        assert negate_atom(negate_atom(a)) is a
                        checked += 1
        assert checked > 1_000

    def test_output_independent_of_op_order_and_hash_seed(self):
        # the interning table and the caches outlive an op: run one slice
        # forward and reversed in fresh interpreters under two hash seeds
        src = str(Path(linquant.__file__).resolve().parents[1])
        runs = []
        for order, hash_seed in (("forward", "1"), ("reversed", "2")):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            proc = subprocess.run([sys.executable, "-c", _ORDER_SCRIPT, order], env=env,
                                  capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout))
        assert len(runs[0]) == 60
        assert runs[0] == runs[1]

    def test_deep_alternating_guard(self, default_recursion_limit):
        # g alternates And/Or 5,000 levels deep over 0 < x < y: each And
        # level conjoins x > -3 and each Or level adds x <= -1, so g is
        # 0 < x < y || x <= -1, and its DNFs stay two disjuncts wide
        g = And(atom(lin(0, x=1), ">", 0), atom(lin(0, x=1), "<", lin(0, y=1)))
        for level in range(1, 5_001):
            if level % 2:
                g = And(atom(lin(0, x=1), ">", -3), g)
            else:
                g = Or(atom(lin(0, x=1), "<=", -1), g)
        y = lin(0, y=1)
        out = eliminate(Quantity(((Quant.SUP, "x"),), (GuardedTerm(g, y), GuardedTerm(Not(g), lin(0)))))
        flat = Or(atom(lin(0, x=1), "<=", -1), And(atom(lin(0, x=1), ">", 0), atom(lin(0, x=1), "<", y)))
        body = (GuardedTerm(flat, y), GuardedTerm(Not(flat), lin(0)))
        for q in (-2, Fraction(-1, 3), 0, Fraction(1, 2), 3):
            sigma = val(y=q)
            assert ext_cmp(eval_quantity(sigma, out.body), oracle_sup(sigma, "x", body)) == 0


class TestMetrics:
    def test_width_of_three_region_quantity(self):
        q = parse_quantity(
            "[y1 < z] * oo"
            " + [y1 >= z && y2 < y1 + 2 && y2 <= -y3 && y1 + 2 <= -y3] * (2*y1 + z + 4)"
            " + [y1 >= z && y2 < y1 + 2 && y2 <= -y3 && y1 + 2 > -y3] * (-2*y3 + z)"
        )
        assert width(q) == 3
        assert depth(q) == 4

    def test_trivial_quantity(self):
        q = parse_quantity("[true] * 0")
        assert width(q) == 1
        assert depth(q) == 0

    def test_single_round_size_bounds(self):
        # loose upper bounds from the size analysis; never violated
        for case in range(30):
            q = random_quantity(
                GenParams(vars=3, summands=3, atoms_per_guard=3, infinity_prob=0.1,
                          quantifiers=1, partitioning=True),
                seed=88_000 + case,
            )
            n = width(q)
            m = max(depth(q), 1)
            out = eliminate(q)
            blow = n * 2**m
            assert width(out) <= blow * (m + 2) ** blow
            assert depth(out) <= blow * ((Fraction(m + 2, 2)) ** 2 + m + 1)
