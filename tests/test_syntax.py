"""Parser, printer, free variables, and leaf evaluation."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linquant import (
    NEG_OO,
    OO,
    Atom,
    GenParams,
    InfExpr,
    LinExpr,
    MissingVariable,
    NonLinearError,
    ParseError,
    Quant,
    Rel,
    free_vars,
    lin_eval,
    parse_quantity,
    print_quantity,
    quantity_from_json,
    quantity_to_json,
    random_quantity,
)
from linquant.printer import print_bool
from linquant.terms import And, Not, Or, TrueExpr

from conftest import EX1_TEXT, WIDE_OR_TEXT, lin, quantifier_free, val

SOUP_TOKENS = [
    "sup", "inf", "x", "y1", ":", "[", "]", "(", ")", "*", "+", "-", "/", "<", "<=", ">", ">=",
    "!", "&&", "||", "->", "true", "false", "oo", "0", "12", "%", "²", "٣", "\n",
]


class TestParse:
    def test_example_structure(self, ex1):
        assert [(q.value, v) for q, v in ex1.prefix] == [("sup", "x")]
        assert len(ex1.body) == 1
        term = ex1.body[0]
        # implication desugars to !lhs || rhs
        assert isinstance(term.guard, Or)
        assert isinstance(term.guard.args[0], Not)
        assert term.value == lin(0, x=2, z=1)

    def test_minimal_program(self):
        q = parse_quantity("[true] * 0")
        assert q.prefix == ()
        assert len(q.body) == 1
        assert isinstance(q.body[0].guard, TrueExpr)
        assert q.body[0].value == LinExpr.const(0)

    def test_infinite_values(self):
        q = parse_quantity("inf y : [x > 0] * oo + [x <= 0] * (-oo)")
        assert [(qq.value, v) for qq, v in q.prefix] == [("inf", "y")]
        assert [t.value for t in q.body] == [OO, NEG_OO]

    def test_normalizes_like_terms(self):
        q = parse_quantity("[2*x + y <= 4 + x - y + x] * 1")
        guard = q.body[0].guard
        assert isinstance(guard, Atom)
        assert guard.lhs == lin(0, x=2, y=1)
        assert guard.rhs == lin(4, x=2, y=-1)

    def test_rational_literals_and_division(self):
        q = parse_quantity("[x >= 5/3] * (x/2)")
        assert q.body[0].guard.rhs == lin(Fraction(5, 3))
        assert q.body[0].value == lin(0, x=Fraction(1, 2))

    def test_nonlinear_product_rejected(self):
        with pytest.raises(NonLinearError):
            parse_quantity("[x * y > 0] * 1")

    def test_division_by_variable_rejected(self):
        with pytest.raises(NonLinearError):
            parse_quantity("[x / y > 0] * 1")

    def test_duplicate_prefix_variable_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_quantity("sup x : inf x : [true] * 0")
        assert "duplicate" in str(err.value)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_quantity("[true] *\n  %")
        assert err.value.line == 2
        assert err.value.column == 3

    def test_infinity_inside_arithmetic_rejected(self):
        with pytest.raises(ParseError):
            parse_quantity("[x > 0] * (oo + 1)")

    def test_boolean_precedence(self):
        q = parse_quantity("[x > 0 || y > 0 && z > 0] * 1")
        guard = q.body[0].guard
        assert isinstance(guard, Or)
        assert isinstance(guard.args[1], And)

    def test_parenthesized_boolean_group(self):
        q = parse_quantity("[(x > 0 || y > 0) && z > 0] * 1")
        guard = q.body[0].guard
        assert isinstance(guard, And)
        assert isinstance(guard.args[0], Or)

    def test_parenthesis_followed_by_operator_starts_an_atom(self):
        guard = parse_quantity("[(x + 1) * 2 <= y] * 1").body[0].guard
        assert guard == Atom(lin(2, x=2), Rel.LE, lin(0, y=1))
        assert parse_quantity("[(x) > 0] * 1").body[0].guard == Atom(lin(0, x=1), Rel.GT, lin(0))

    def test_other_parentheses_group(self):
        assert parse_quantity("[((x > 0))] * 1") == parse_quantity("[x > 0] * 1")
        x_pos, y_pos = (Atom(lin(0, **{v: 1}), Rel.GT, lin(0)) for v in "xy")
        guard = parse_quantity("[(x > 0) -> (y > 0)] * 1").body[0].guard
        assert guard == Or(Not(x_pos), y_pos)

    @pytest.mark.parametrize(
        "text, char, line, column",
        [
            ("[x > ²] * 1", "²", 1, 6),
            ("[x > 1²] * 1", "²", 1, 7),
            ("[true] * ³", "³", 1, 10),
            ("[true]\n * ³", "³", 2, 4),
        ],
    )
    def test_digit_that_is_not_decimal_rejected(self, text, char, line, column):
        with pytest.raises(ParseError) as err:
            parse_quantity(text)
        assert type(err.value) is ParseError
        assert str(err.value) == f"{line}:{column}: unexpected character {char!r}"

    def test_number_past_the_int_conversion_limit_rejected(self):
        digits = sys.get_int_max_str_digits() + 1
        with pytest.raises(ParseError) as err:
            parse_quantity("[true] * " + "1" * digits)
        assert str(err.value) == "1:10: number too long"

    def test_unicode_decimal_digits_and_names(self):
        # "٣" is a decimal digit, so a number; "²" may continue a name
        guard = parse_quantity("[x² > ٣] * 1").body[0].guard
        assert guard == Atom(LinExpr.var("x²"), Rel.GT, lin(3))

    @settings(deadline=None, max_examples=600)
    @given(
        st.sampled_from(["", "[", "[x > ", "[true] * ", "sup x : [(x + "]),
        st.lists(st.sampled_from(SOUP_TOKENS), max_size=12),
        st.sampled_from(["", " "]),
    )
    def test_only_parse_errors(self, head, tokens, sep):
        # the heads put the parser where a number or a name may come next
        try:
            parse_quantity(head + sep.join(tokens))
        except ParseError:
            pass


class TestPrint:
    def test_example_round_trip(self, ex1):
        assert parse_quantity(print_quantity(ex1)) == ex1

    def test_rational_value_rendering(self):
        q = parse_quantity("[true] * (5/3)")
        assert print_quantity(q) == "[true] * 5/3"

    def test_true_guard_rendering(self):
        assert print_quantity(parse_quantity("[true] * 0")) == "[true] * 0"

    def test_negative_infinity_parenthesized(self):
        assert print_quantity(parse_quantity("[x > 0] * (-oo)")) == "[x > 0] * (-oo)"

    @settings(deadline=None, max_examples=500)
    @given(seed=st.integers(0, 10**9))
    def test_round_trip_random(self, seed):
        q = random_quantity(
            GenParams(vars=3, summands=3, atoms_per_guard=3, infinity_prob=0.15, quantifiers=2),
            seed,
        )
        assert parse_quantity(print_quantity(q)) == q
        assert quantity_from_json(quantity_to_json(q)) == q

    @settings(deadline=None, max_examples=300)
    @given(q=quantifier_free())
    def test_round_trips_nested_chains(self, q):
        # the strategy nests And/Or on either side of a connective
        assert parse_quantity(print_quantity(q)) == q
        assert quantity_from_json(quantity_to_json(q)) == q

    def test_chain_splices_only_its_first_argument(self):
        a, b, c = (Atom(LinExpr.var(v), Rel.GT, LinExpr.const(0)) for v in "xyz")
        assert And(And(a, b), c) == And(a, b, c)
        assert hash(And(And(a, b), c)) == hash(And(a, b, c))
        nested = And(a, And(b, c))
        assert nested.args == (a, And(b, c)) and nested != And(a, b, c)
        assert print_bool(nested) == "x > 0 && (y > 0 && z > 0)"
        assert Or(Or(a, b), c).args == (a, b, c) and And(Or(a, b), c).args == (Or(a, b), c)

    def test_wide_chain_round_trips(self, default_recursion_limit):
        q = parse_quantity(WIDE_OR_TEXT)
        assert parse_quantity(print_quantity(q)) == q
        assert quantity_from_json(json.loads(json.dumps(quantity_to_json(q)))) == q
        assert len(q.body[0].guard.args) == 600

    def test_deep_guards_hash(self, default_recursion_limit):
        # each node hashes from its arguments' cached hashes, so hashing a
        # guard nested past the recursion limit does not recurse
        b = Atom(LinExpr.var("x"), Rel.GT, LinExpr.const(0))
        negations, alternating = b, b
        for _ in range(5_000):
            negations = Not(negations)
            alternating = Or(b, And(b, alternating))
            hash(negations)
            hash(alternating)
        assert hash(Not(b)) == hash(Not(b)) and Not(b) == Not(b)
        assert hash(Or(b, And(b, b))) == hash(Or(b, And(b, b)))

    def test_json_round_trip(self, ex1):
        assert quantity_from_json(quantity_to_json(ex1)) == ex1
        packed = quantity_to_json(parse_quantity("[x >= 1/2] * oo"))
        assert packed["body"][0]["value"] == "oo"
        assert packed["body"][0]["guard"]["rhs"]["const"] == {"num": "1", "den": "2"}


class TestFreeVars:
    def test_example_binds_x(self, ex1):
        assert free_vars(ex1) == {"y1", "y2", "y3", "z"}

    def test_closed_term(self):
        assert free_vars(parse_quantity("[true] * 0")) == set()

    def test_all_occurrences_bound(self):
        assert free_vars(parse_quantity("sup x : [x >= 0] * x")) == set()


class TestLinEval:
    def test_direct_arithmetic(self):
        assert lin_eval(val(x=3, z=1), lin(0, x=2, z=1)) == 7

    def test_infinite_constant(self):
        assert lin_eval(val(), NEG_OO) == NEG_OO

    def test_zero(self):
        assert lin_eval(val(), LinExpr.const(0)) == 0

    def test_missing_variable(self):
        with pytest.raises(MissingVariable):
            lin_eval(val(x=1), lin(0, x=1, y=1))

    @given(
        ax=st.fractions(max_denominator=10),
        ay=st.fractions(max_denominator=10),
        bx=st.fractions(max_denominator=10),
        c=st.fractions(max_denominator=10),
        x=st.fractions(max_denominator=10),
        y=st.fractions(max_denominator=10),
    )
    def test_linearity(self, ax, ay, bx, c, x, y):
        from linquant import ext_add

        e1 = LinExpr(c, {"x": ax, "y": ay})
        e2 = LinExpr(0, {"x": bx})
        sigma = val(x=x, y=y)
        assert lin_eval(sigma, e1 + e2) == ext_add(lin_eval(sigma, e1), lin_eval(sigma, e2))


def test_prefix_order_preserved():
    q = parse_quantity("sup a : inf b : [a > b] * 1")
    assert [(qq, v) for qq, v in q.prefix] == [(Quant.SUP, "a"), (Quant.INF, "b")]
