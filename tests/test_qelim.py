"""The elimination engine: bounds, selectors, substitution, recombination."""

import random
import sys
from fractions import Fraction

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
from linquant.errors import NotIsolated, NotPartitioning, WellFormednessViolation
from linquant.logic import atom_eval, bool_eval, disjunct_sat
from linquant.oracle import random_valuation, sample_pool
from linquant.parser import parse_body, parse_quantity
from linquant.terms import (
    FALSE,
    TRUE,
    And,
    Atom,
    GuardedTerm,
    Or,
    Rel,
    TrueExpr,
    Valuation,
    fvars_body,
)

from conftest import atom, lin, val

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
            atom(lin(0, y2=1), "<", lin(2, y1=1)),
        }
        assert _atoms_of(phi) == expected

    def test_folds_to_false(self):
        d = Disjunct((atom(lin(0, x=1), ">=", 0), atom(lin(0, x=1), "<=", -1)))
        assert feasibility(d, "x") is FALSE

    def test_var_free_literal_survives(self):
        d = Disjunct((atom(lin(0, y=1), "<", 1),))
        assert feasibility(d, "x") == atom(lin(0, y=1), "<", 1)

    def test_matches_solution_set_existence(self):
        # cross-check the residue against direct interval analysis
        rng = random.Random(7)
        from conftest import direct_bound_check, random_iso_disjunct

        for _ in range(100):
            d = random_iso_disjunct(rng, ["x", "y", "z"], "x")
            phi = feasibility(d, "x")
            for _ in range(5):
                sigma = Valuation({v: Fraction(rng.randint(-12, 12), 4) for v in ("x", "y", "z")})
                nonempty, _, _ = direct_bound_check(d, "x", sigma)
                assert bool_eval(sigma, phi) == nonempty


def _atoms_of(phi) -> set:
    from linquant.terms import And, Atom as A, Not, Or

    if isinstance(phi, A):
        return {phi}
    if isinstance(phi, (And, Or)):
        return _atoms_of(phi.lhs) | _atoms_of(phi.rhs)
    if isinstance(phi, Not):
        return _atoms_of(phi.arg)
    return set()


class TestSelectors:
    def test_first_upper_of_running_example(self):
        bs = extract_bounds(D_BOUNDED, "x")
        # uppers are [y1+2, -y3, oo]; the oo comparison folds away
        assert least_upper_selector(bs, 1) == atom(lin(2, y1=1), "<=", lin(0, y3=-1))

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
        assert _atoms_of(sel) == {atom(lin(0, w=1), "<", lin(0, u=1))}

    def test_lower_selector_folds_true(self):
        bs = extract_bounds(Disjunct((atom(lin(0, x=1), ">=", lin(0, y2=1)),)), "x")
        assert bs.lowers() == (lin(0, y2=1), NEG_OO)
        assert isinstance(greatest_lower_selector(bs, 1), TrueExpr)

    def test_constant_lower_list(self):
        d = Disjunct((atom(lin(0, x=1), ">", 0), atom(lin(0, x=1), ">", 1)))
        bs = extract_bounds(d, "x")
        assert isinstance(greatest_lower_selector(bs, 2), TrueExpr)

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


def dnf_split(guard):
    """Disjuncts of an Or-chain of And-chains of atoms (``true`` is the
    empty conjunction); None for any other shape."""
    if isinstance(guard, Or):
        left, right = dnf_split(guard.lhs), dnf_split(guard.rhs)
        return None if left is None or right is None else left + right

    def conj(node):
        if isinstance(node, Atom):
            return (node,)
        if isinstance(node, And):
            a, b = conj(node.lhs), conj(node.rhs)
            return None if a is None or b is None else a + b
        return None

    atoms = () if isinstance(guard, TrueExpr) else conj(guard)
    return None if atoms is None else [Disjunct(atoms)]


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

    def test_example_one_agrees_with_oracle(self, ex1):
        gnf = to_gnf(Quantity((), ex1.body), "x")
        out = eliminate_var(Quant.SUP, "x", gnf.body)
        rng = random.Random(2718)
        for _ in range(200):
            sigma = Valuation(
                {v: Fraction(rng.randint(-24, 24), 4) for v in ("y1", "y2", "y3", "z")}
            )
            assert ext_cmp(eval_quantity(sigma, out), oracle_sup(sigma, "x", gnf.body)) == 0


class TestEliminate:
    def test_example_full(self, ex1):
        out = eliminate(ex1)
        assert out.prefix == ()
        assert "x" not in fvars_body(out.body)
        assert free_vars(out) <= free_vars(ex1)
        gnf = to_gnf(Quantity((), ex1.body), "x")
        rng = random.Random(13)
        pool = sample_pool(out)
        for _ in range(200):
            sigma = random_valuation(["y1", "y2", "y3", "z"], rng, pool)
            assert ext_cmp(eval_quantity(sigma, out.body), oracle_sup(sigma, "x", gnf.body)) == 0

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
