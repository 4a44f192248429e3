"""Extended-rational arithmetic: rules for the infinities and exactness.

A value is a plain ``Fraction`` or one of the infinite constants ``OO`` /
``NEG_OO``."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linquant import NEG_OO, OO, UndefinedSum, ext_add, ext_cmp

finite = st.fractions(max_denominator=50)
ext_rats = st.one_of(st.just(OO), st.just(NEG_OO), finite)


class TestExtAdd:
    def test_inf_plus_finite(self):
        assert ext_add(OO, Fraction(3)) == OO
        assert ext_add(Fraction(3), OO) == OO

    def test_neg_inf_plus_neg_inf(self):
        assert ext_add(NEG_OO, NEG_OO) == NEG_OO

    def test_exact_rational_sum(self):
        assert ext_add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)

    @pytest.mark.parametrize("a,b", [(OO, NEG_OO), (NEG_OO, OO)])
    def test_undefined_sum(self, a, b):
        with pytest.raises(UndefinedSum):
            ext_add(a, b)

    @given(a=ext_rats, b=ext_rats)
    def test_commutative_where_defined(self, a, b):
        try:
            left = ext_add(a, b)
        except UndefinedSum:
            with pytest.raises(UndefinedSum):
                ext_add(b, a)
            return
        assert left == ext_add(b, a)

    @given(a=finite, b=ext_rats, c=ext_rats)
    def test_associative_where_defined(self, a, b, c):
        # keep one operand finite so every intermediate sum is defined
        try:
            bc = ext_add(b, c)
        except UndefinedSum:
            return
        assert ext_add(ext_add(a, b), c) == ext_add(a, bc)


class TestExtCmp:
    def test_neg_inf_below_finite(self):
        assert ext_cmp(NEG_OO, Fraction(7)) == -1

    def test_inf_equals_inf(self):
        assert ext_cmp(OO, OO) == 0

    def test_canonical_fractions_equal(self):
        assert ext_cmp(Fraction(2, 4), Fraction(1, 2)) == 0

    @given(a=ext_rats, b=ext_rats)
    def test_antisymmetry(self, a, b):
        assert ext_cmp(a, b) == -ext_cmp(b, a)

    @given(a=ext_rats, b=ext_rats, c=ext_rats)
    def test_transitivity(self, a, b, c):
        if ext_cmp(a, b) <= 0 and ext_cmp(b, c) <= 0:
            assert ext_cmp(a, c) <= 0

    @given(a=ext_rats, b=ext_rats)
    def test_totality(self, a, b):
        assert ext_cmp(a, b) in (-1, 0, 1)

    @given(a=ext_rats, b=ext_rats)
    def test_operators_follow_ext_cmp(self, a, b):
        # mixed Fraction/infinity comparisons and max/min use this order
        c = ext_cmp(a, b)
        assert (a < b, a <= b, a > b, a >= b, a == b) == (c < 0, c <= 0, c > 0, c >= 0, c == 0)
        assert ext_cmp(max(a, b), a) >= 0 and ext_cmp(max(a, b), b) >= 0
        assert ext_cmp(min(a, b), a) <= 0 and ext_cmp(min(a, b), b) <= 0


def test_rendering():
    assert str(OO) == "oo"
    assert str(NEG_OO) == "-oo"
    assert str(Fraction(-5, 3)) == "-5/3"
    assert str(Fraction(7)) == "7"
