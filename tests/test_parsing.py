import random
from fractions import Fraction

import pytest

from apxval.hahn import Series
from apxval.ordval import INF
from apxval.parsing import (
    ParseError,
    format_poly,
    format_series,
    parse_poly,
    parse_series,
)
from apxval.valpoly import ValPoly


def test_grammar_example():
    p = 5
    s = parse_series("t^(-1/2) + 2*t^(1/3) + O(t^2)", p)
    assert s.terms == ((Fraction(-1, 2), 1), (Fraction(1, 3), 2))
    assert s.precision == 2


def test_whitespace_insignificant():
    p = 3
    a = parse_series("t^(-1/2)+2*t^(1/3)+O(t^2)", p)
    b = parse_series("  t^( -1/2 ) + 2 * t^( 1/3 ) + O( t^2 )  ", p)
    assert a == b


def test_coefficients_reduced_mod_p():
    p = 3
    s = parse_series("7*t^(1/2) + 4", p)
    assert s.coeff(Fraction(1, 2)) == 1
    assert s.coeff(0) == 1


def test_zero_denominator_rejected():
    with pytest.raises(ParseError):
        parse_series("t^(1/0)", 3)


def test_syntax_errors_are_positioned():
    with pytest.raises(ParseError) as exc:
        parse_series("t^(1/2) + +", 3)
    assert "position" in str(exc.value)


@pytest.mark.parametrize(
    "text, message",
    [
        ("(t^(1/2) + )*X + 1", "at position 11: expected an integer"),
        ("(2*t^(1/0))*X", "at position 9: zero denominator"),
    ],
)
def test_coefficient_errors_are_positioned_in_the_polynomial(text, message):
    with pytest.raises(ParseError) as exc:
        parse_poly(text, 3)
    assert str(exc.value) == f"{message} in {text!r}"


def test_poly_literal():
    p = 3
    f = parse_poly("X^3 + (t^(-1))*X + 1", p)
    assert f.degree() == 3
    assert f.coeff(1).terms == ((Fraction(-1), 1),)
    assert f.coeff(0).terms == ((Fraction(0), 1),)
    assert f.coeff(3).terms == ((Fraction(0), 1),)


def test_poly_round_trip():
    p = 5
    for text in [
        "X^2 + (t)*X + 1",
        "(t^(-1/2) + 1)*X^4 + (2*t^(1/3))*X + (3)",
        "X",
        "(2)",
    ]:
        f = parse_poly(text, p)
        assert parse_poly(format_poly(f), p) == f


def random_series(rng, p):
    terms = []
    for _ in range(rng.randint(0, 8)):
        e = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
        terms.append((e, rng.randint(1, p - 1)))
    prec = INF if rng.random() < 0.5 else Fraction(rng.randint(21, 40), rng.randint(1, 4))
    return Series.make(p, terms, prec)


def test_series_round_trip_randomized():
    rng = random.Random(31)
    p = 5
    for _ in range(10_000):
        s = random_series(rng, p)
        assert parse_series(format_series(s), p) == s


def test_poly_round_trip_randomized():
    rng = random.Random(32)
    p = 3
    for _ in range(2000):
        coeffs = [random_series(rng, p) for _ in range(rng.randint(1, 6))]
        # the constructor takes the raw list, trailing exact zeros included
        f = ValPoly(p, coeffs)
        assert f == ValPoly.make(p, iter(coeffs))
        assert f.is_zero or not f.coeffs[-1].is_exact_zero
        assert parse_poly(format_poly(f), p) == f


def test_parse_poly_drops_zero_leading_coefficients():
    f = parse_poly("(0)*X^2 + X", 3)
    assert f.degree() == 1
    assert f == ValPoly.make(3, (Series.zero(3), Series.one(3)))
    assert parse_poly(format_poly(f), 3) == f


@pytest.mark.parametrize(
    "text, pos", [("X^-1", 2), ("X^-1 + X", 2), ("X + (t)*X^ -2", 11)]
)
def test_parse_poly_rejects_negative_degrees(text, pos):
    with pytest.raises(ParseError, match="negative degree") as exc:
        parse_poly(text, 3)
    assert exc.value.pos == pos


def test_format_zero_poly_round_trips():
    z = ValPoly.zero(3)
    assert format_poly(z) == "(0)"
    assert parse_poly(format_poly(z), 3) == z
    assert parse_poly("(0)*X^3 + (0)", 3) == z
