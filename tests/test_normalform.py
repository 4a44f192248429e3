"""Partitioning construction, guarded normal form, well-formedness."""

import hashlib
import random
from fractions import Fraction

import pytest

from linquant import (
    GenParams,
    InfExpr,
    LinExpr,
    Quantity,
    UndefinedSum,
    check_well_formed,
    eliminate,
    eval_quantity,
    ext_cmp,
    is_partitioning,
    make_partitioning,
    random_quantity,
    to_gnf,
)
from linquant.logic import atom_eval, bool_eval, is_isolated_in
from linquant.parser import parse_body, parse_quantity
from linquant.terms import (
    And,
    Atom,
    GuardedTerm,
    Not,
    Or,
    Rel,
    Valuation,
    fvars_body,
    fvars_expr,
)

from conftest import WIDE_OR_TEXT, val


def _random_sigma(rng, variables):
    return Valuation({v: Fraction(rng.randint(-40, 40), 4) for v in variables})


class TestMakePartitioning:
    def test_example_two_branches(self, ex1):
        result = make_partitioning(ex1.body)
        assert len(result) == 2
        values = {t.value for t in result}
        assert LinExpr(0, {"x": 2, "z": 1}) in values
        assert LinExpr.const(0) in values
        assert is_partitioning(result)
        # semantics preserved at the guard boundary
        for sigma in (val(x=3, y1=5, z=1, y3=-10, y2=0), val(x=3, y1=0, z=1, y3=0, y2=0)):
            assert ext_cmp(eval_quantity(sigma, ex1.body), eval_quantity(sigma, result)) == 0

    def test_true_guard_keeps_single_branch(self):
        body = parse_body("[true] * 5")
        assert make_partitioning(body) == body

    def test_infinite_values_kept_disjoint(self):
        body = parse_body("[x >= 0] * oo + [x < 0] * (-oo)")
        result = make_partitioning(body)
        assert len(result) == 2
        assert {t.value for t in result} == {InfExpr(1), InfExpr(-1)}
        assert is_partitioning(result)

    def test_raises_on_ill_formed_overlap(self):
        body = parse_body("[x > 0] * oo + [x > -1] * (-oo)")
        with pytest.raises(UndefinedSum):
            make_partitioning(body)

    def test_semantic_preservation_random(self):
        rng = random.Random(4242)
        for case in range(200):
            q = random_quantity(
                GenParams(vars=3, summands=3, atoms_per_guard=2, infinity_prob=0.1, quantifiers=0),
                seed=10_000 + case,
            )
            result = make_partitioning(q.body)
            variables = sorted(fvars_body(q.body))
            for _ in range(100):
                sigma = _random_sigma(rng, variables)
                assert ext_cmp(eval_quantity(sigma, q.body), eval_quantity(sigma, result)) == 0

    def test_output_is_partitioning_random(self):
        for case in range(40):
            q = random_quantity(
                GenParams(vars=2, summands=3, atoms_per_guard=2, infinity_prob=0.1, quantifiers=0),
                seed=31_337 + case,
            )
            assert is_partitioning(make_partitioning(q.body))


class TestIsPartitioning:
    def test_constructed_partition(self, ex1):
        assert is_partitioning(make_partitioning(ex1.body))

    def test_overlap_detected(self):
        body = parse_body("[x >= 0] * 1 + [x >= 1] * 2")
        assert not is_partitioning(body)

    def test_coverage_gap_detected(self):
        body = parse_body("[x > 0] * 1")
        assert not is_partitioning(body)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("[x < 1] * 0 + [2*x >= 2] * 1", True),
            ("[x < 1] * 0 + [x >= 1 && x <= 1] * 1 + [1 < x] * 2", True),
            ("[x <= 1] * 0 + [x >= 1] * 1", False),  # overlap at a point
            ("[x < 1] * 0 + [x > 1] * 1", False),  # gap at a point
        ],
    )
    def test_shared_hyperplane_boundaries(self, text, expected):
        # guards written over one hyperplane in different atoms
        assert is_partitioning(parse_body(text)) is expected

    def test_verdict_digest(self):
        # elimination inputs and outputs, then random bodies with their
        # partitioning, a copy with an extra term and a copy missing one
        bodies = []
        params = GenParams(
            vars=3, summands=3, atoms_per_guard=3, coeff_bound=3, infinity_prob=0.1, quantifiers=1
        )
        for s in range(30):
            q = random_quantity(params, 40_000 + s)
            bodies += [q.body, eliminate(q).body]
        params = GenParams(vars=2, summands=3, atoms_per_guard=2, infinity_prob=0.15, quantifiers=0)
        for s in range(200):
            b = random_quantity(params, 7_000 + s).body
            p = make_partitioning(b)
            bodies += [b, p, p + b[:1]]
            if len(p) > 1:
                bodies.append(p[1:])
        verdicts = "".join("y" if is_partitioning(b) else "n" for b in bodies)
        assert (len(verdicts), verdicts.count("y")) == (850, 243)
        assert hashlib.sha256(verdicts.encode()).hexdigest()[:16] == "e8c9663e36b97009"


class TestToGnf:
    def test_running_example_form(self, ex1):
        gnf = to_gnf(ex1, "x")
        assert len(gnf.body) == 2
        by_value = {t.value: t.guard for t in gnf.body}
        pos = by_value[LinExpr(0, {"x": 2, "z": 1})]
        zero = by_value[LinExpr.const(0)]
        expected_pos = parse_body(
            "[y1 < z || x < y1 + 2 && x <= -y3 && x >= y2] * 0"
        )[0].guard
        expected_zero = parse_body(
            "[(y1 >= z && x >= y1 + 2) || (y1 >= z && x > -y3) || (y1 >= z && x < y2)] * 0"
        )[0].guard
        rng = random.Random(5)
        for _ in range(300):
            sigma = _random_sigma(rng, ["x", "y1", "y2", "y3", "z"])
            assert bool_eval(sigma, pos) == bool_eval(sigma, expected_pos)
            assert bool_eval(sigma, zero) == bool_eval(sigma, expected_zero)

    def test_idempotent_modulo_folding(self):
        q = parse_quantity("[x < 2 && y >= 0] * 1 + [!(x < 2 && y >= 0)] * 0")
        once = to_gnf(q, "x")
        twice = to_gnf(once, "x")
        assert once == twice

    def test_isolation_with_division(self):
        q = parse_quantity("sup x : [2*x < 4] * 1 + [2*x >= 4] * 0")
        gnf = to_gnf(q, "x")
        atoms = [
            a
            for t in gnf.body
            for a in _guard_atoms(t.guard)
            if "x" in fvars_expr(a.lhs) | fvars_expr(a.rhs)
        ]
        assert atoms
        for a in atoms:
            assert is_isolated_in(a, "x")
            assert a.rhs == LinExpr.const(2)

    def test_every_x_atom_isolated(self):
        rng = random.Random(99)
        for case in range(40):
            q = random_quantity(
                GenParams(vars=3, summands=2, atoms_per_guard=3, infinity_prob=0.1, quantifiers=1),
                seed=500 + case,
            )
            var = q.prefix[0][1]
            gnf = to_gnf(Quantity((), q.body), var)
            assert is_partitioning(gnf.body)
            for t in gnf.body:
                for a in _guard_atoms(t.guard):
                    if var in fvars_expr(a.lhs) | fvars_expr(a.rhs):
                        assert is_isolated_in(a, var)
            variables = sorted(fvars_body(q.body))
            for _ in range(30):
                sigma = _random_sigma(rng, variables)
                assert ext_cmp(eval_quantity(sigma, q.body), eval_quantity(sigma, gnf.body)) == 0

    def test_wide_chain(self, default_recursion_limit):
        q = parse_quantity(WIDE_OR_TEXT)
        guard = q.body[0].guard
        gnf = to_gnf(q, "y")
        y_le_0 = Atom(LinExpr.var("y"), Rel.LE, LinExpr.const(0))
        assert [t.guard for t in gnf.body] == [guard, y_le_0]
        assert is_partitioning(gnf.body)

    def test_chain_longer_than_the_recursion_limit(self, default_recursion_limit):
        # is_partitioning fixes one more atom of the chain per branch, so
        # its walk is 1,200 splits deep on the uncovered side
        q = parse_quantity("[" + " || ".join(f"y > {i}" for i in range(1_200)) + "] * x")
        assert not is_partitioning(q.body)
        gnf = to_gnf(q, "y")
        y_le_0 = Atom(LinExpr.var("y"), Rel.LE, LinExpr.const(0))
        assert [t.guard for t in gnf.body] == [q.body[0].guard, y_le_0]
        assert is_partitioning(gnf.body)


def _guard_atoms(phi):
    if isinstance(phi, Atom):
        return [phi]
    if isinstance(phi, Not):
        return _guard_atoms(phi.arg)
    if isinstance(phi, (And, Or)):
        return [a for arg in phi.args for a in _guard_atoms(arg)]
    return []


class TestCheckWellFormed:
    def test_overlapping_infinities(self):
        q = parse_quantity("[x > 0] * oo + [x > -1] * (-oo)")
        violation = check_well_formed(q)
        assert violation is not None
        assert violation.pair == (0, 1)

    def test_disjoint_infinities(self):
        q = parse_quantity("[x > 0] * oo + [x <= 0] * (-oo)")
        assert check_well_formed(q) is None

    def test_no_infinite_values(self):
        q = parse_quantity("[x > 0] * 1 + [x > -1] * 2")
        assert check_well_formed(q) is None
