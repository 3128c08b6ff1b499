import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from apxval.errors import PreconditionError
from apxval.ordval import (
    INF,
    Cut,
    compare_value_cut,
    format_value,
    parse_cut,
    parse_value,
    scale_cut,
    shift_cut,
)

rationals = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=60
)


def test_infinity_ordering():
    assert INF > Fraction(10**9)
    assert not INF < Fraction(0)
    assert Fraction(-1) < INF
    assert INF == INF
    assert INF >= INF and INF <= INF


def test_infinity_absorbs_addition():
    assert INF + Fraction(5) is INF
    assert Fraction(-3, 7) + INF is INF
    assert 2 * INF is INF


def test_infinity_rejects_bad_ops():
    with pytest.raises(PreconditionError):
        -INF
    with pytest.raises(PreconditionError):
        0 * INF


def test_compare_value_cut_strict_below():
    c = Cut.strictly_below(0)
    r = compare_value_cut(Fraction(-1, 4), c)
    assert r.lt and r.le and not r.ge and not r.gt
    r = compare_value_cut(Fraction(0), c)
    assert r.gt and r.ge and not r.le
    r = compare_value_cut(Fraction(5), Cut.plus_infinity())
    assert r.le and r.lt and not r.ge


def test_compare_value_cut_attained():
    c = Cut.below_or_equal(Fraction(1, 2))
    r = compare_value_cut(Fraction(1, 2), c)
    # the boundary is the last element of the lower set
    assert r.le and not r.lt and r.ge and not r.gt
    r = compare_value_cut(Fraction(1), c)
    assert r.gt and r.ge


def test_compare_infinity_value():
    r = compare_value_cut(INF, Cut.strictly_below(3))
    assert r.gt and r.ge and not r.le
    r = compare_value_cut(INF, Cut.plus_infinity())
    assert r.le and r.ge and not r.gt and not r.lt


def test_scale_cut():
    assert scale_cut(3, Cut.strictly_below(0)) == Cut.strictly_below(0)
    assert scale_cut(1, Cut.below_or_equal(7)) == Cut.below_or_equal(7)
    assert scale_cut(3, Cut.below_or_equal(Fraction(1, 2))) == Cut.below_or_equal(
        Fraction(3, 2)
    )
    assert scale_cut(5, Cut.plus_infinity()) == Cut.plus_infinity()
    with pytest.raises(PreconditionError):
        scale_cut(0, Cut.strictly_below(0))


def test_shift_cut():
    c = Cut.strictly_below(0)
    assert shift_cut(Fraction(0), c) == c
    assert shift_cut(Fraction(2), c) == Cut.strictly_below(2)
    assert shift_cut(Fraction(-1, 2), Cut.plus_infinity()) == Cut.plus_infinity()
    with pytest.raises(PreconditionError, match="shift by infinity"):
        shift_cut(INF, c)


def test_cut_order_is_lower_set_inclusion():
    a = Cut.strictly_below(0)
    b = Cut.below_or_equal(0)
    c = Cut.strictly_below(1)
    assert a < b < c < Cut.plus_infinity()
    assert a <= a and not a < a


@given(rationals, rationals, rationals)
def test_total_order_and_monotone_addition(a, b, c):
    if a <= b:
        assert a + c <= b + c
    if a <= b and b <= c:
        assert a <= c
    if a <= b and b <= a:
        assert a == b


def test_scale_cut_composes():
    rng = random.Random(7)
    for _ in range(200):
        n, m = rng.randint(1, 20), rng.randint(1, 20)
        for cut in (
            Cut.strictly_below(Fraction(rng.randint(-9, 9), rng.randint(1, 9))),
            Cut.below_or_equal(Fraction(rng.randint(-9, 9), rng.randint(1, 9))),
            Cut.plus_infinity(),
        ):
            assert scale_cut(n, scale_cut(m, cut)) == scale_cut(n * m, cut)


def test_relations_are_consistent():
    rng = random.Random(11)
    for _ in range(2000):
        alpha = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        cut = random.choice(
            [
                Cut.strictly_below(Fraction(rng.randint(-40, 40), rng.randint(1, 12))),
                Cut.below_or_equal(Fraction(rng.randint(-40, 40), rng.randint(1, 12))),
                Cut.plus_infinity(),
            ]
        )
        r = compare_value_cut(alpha, cut)
        assert not (r.gt and r.le)
        if r.gt:
            assert r.ge
        if r.lt:
            assert r.le


def test_value_and_cut_text_round_trip():
    assert format_value(INF) == "inf"
    assert parse_value("inf") is INF
    assert parse_value("-3/4") == Fraction(-3, 4)
    for text in ["(<0)", "(<=1/2)", "(+inf)", "(<-7/3)"]:
        assert str(parse_cut(text)) == text
