import math
import random
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest

from apxval.errors import (
    ApxError,
    InsufficientPrecision,
    InternalInconsistency,
    MarkerViolation,
    PreconditionError,
    StabilizationError,
)
from apxval.envelope import envelope_law
from apxval.hahn import Series, invert, p_power_denominators
from apxval.ordval import INF, Cut, scale_cut, shift_cut
from apxval.parsing import parse_poly
from apxval.valpoly import ValPoly, formal_derivative, taylor_coefficients
from apxval.valpoly import power_sum as valpoly_power_sum
from apxval.apprtype import ApproxType, Fixed
from apxval.curated import (
    generic_immediate_type,
    theta_minpoly,
    theta_target,
    theta_type,
)
import apxval.reldeg as reldeg
from apxval.reldeg import (
    NotFixedLaw,
    approx_coefficient,
    check_multiplicativity,
    coefficient_dist_law,
    combine_same_degree,
    h_upper_bound_from_coeffs,
    reduced_factor_shape,
    rel_degree,
    rel_degree_general,
    sampled_law,
    tail_factor_shape,
)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_theta_anchor(p):
    A = theta_type(p)
    rd = rel_degree(A, theta_minpoly(p))
    assert rd.h == p
    assert rd.beta == 0


def test_linear_gives_h_one():
    p = 3
    A = theta_type(p)
    u = Series.monomial(p, Fraction(2, 3), 2)
    f = ValPoly(p, (Series.one(p), u))
    rd = rel_degree(A, f)
    assert rd.h == 1
    assert rd.beta == u.val()


def test_curated_shifted_boundary_case():
    p = 2
    A = generic_immediate_type(
        p,
        [Fraction(5) - Fraction(1, p**i) for i in range(1, 9)],
        precision=6,
        boundary=Fraction(5),
    )
    c0 = A.approximants[2]
    f = ValPoly(p, (c0 * c0, Series.one(p), Series.one(p)))  # (X-c0)^2 + X at p=2
    rd = rel_degree(A, f)
    assert rd.h == 1
    # direct tail check
    fx = f(A.target)
    for n in A.tail():
        assert (fx - f(A.approximants[n])).val() == rd.beta + rd.h * A.gamma(n)


def test_rel_degree_general_consistency():
    p = 3
    A = theta_type(p)
    f = theta_minpoly(p)
    res = rel_degree_general(A, f, f)
    assert res == NotFixedLaw(1, p, Fraction(0))


def test_rel_degree_general_square():
    p = 2
    A = theta_type(p, precision=10)
    f = theta_minpoly(p)
    res = rel_degree_general(A, f * f, f)
    assert isinstance(res, NotFixedLaw)
    assert res.m * res.h == 2 * p


def test_rel_degree_general_constant():
    p = 3
    A = theta_type(p)
    f = theta_minpoly(p)
    c = ValPoly(p, (Series.monomial(p, -4, 2),))
    assert rel_degree_general(A, c, f) == Fixed(Fraction(-4))
    with pytest.raises(PreconditionError, match="zero polynomial has no value"):
        rel_degree_general(A, ValPoly.zero(p), f)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rel_degree_general_rejects_a_fixed_minpoly(p):
    A = theta_type(p)
    X = ValPoly.make(p, [Series.zero(p), Series.one(p)])
    assert A.fixes_value(X) == Fixed(Fraction(-1, p))
    with pytest.raises(PreconditionError, match="fixes the value"):
        rel_degree_general(A, X, X)
    with pytest.raises(PreconditionError, match="fixes the value"):
        rel_degree_general(A, theta_minpoly(p), X)


def test_rel_degree_general_does_not_fit_the_minpoly_law():
    # one tail point: fixes_value cannot fit its law, but the minimal
    # polynomial's value is not fixed, so rel_degree_general still runs
    p = 3
    A = replace(theta_type(p), tail_depth=1)
    f = theta_minpoly(p)
    with pytest.raises(StabilizationError):
        A.fixes_value(f)
    X = ValPoly.make(p, [Series.zero(p), Series.one(p)])
    assert rel_degree_general(A, X * f, f) == NotFixedLaw(
        1, 3, Fraction(-1, 3)
    )


def test_rel_degree_general_checks_only_points_past_the_thresholds():
    # the digit law holds past the minimal polynomial's envelope threshold
    # and the digit family's order threshold; the whole tail put the first
    # point (-1/2, 1) off the line w = -1/2 + 4 * gamma and raised
    # InternalInconsistency
    p = 2
    A = replace(theta_type(p, precision=10), tail_depth=8, window=1)
    g = parse_poly("X^5 + (t^2)X^4 + X^3 + (t^(-2) + t^2)X + t", p)
    assert rel_degree_general(A, g, theta_minpoly(p)) == NotFixedLaw(
        2, 2, Fraction(-1, 2)
    )


def test_rel_degree_general_starts_where_every_digit_is_fixed():
    # g = X^2 * f has the one digit X^2, whose value the type fixes at
    # -2/3; at c_0 = 0 the digit vanishes, so g(c_0) = 0 lies off the law,
    # though gamma_0 = -1/3 is past both thresholds; checking it raised
    # InternalInconsistency
    p = 3
    A = replace(theta_type(p), tail_depth=8)
    f = theta_minpoly(p)
    X = ValPoly.make(p, [Series.zero(p), Series.one(p)])
    assert A.approximants[0].is_exact_zero
    assert A.fixes_value(X * X) == Fixed(Fraction(-2, 3))
    res = rel_degree_general(A, X * X * f, f)
    assert res == NotFixedLaw(1, 3, Fraction(-2, 3))
    for n in A.tail()[1:]:
        c = A.approximants[n]
        assert (X * X * f)(c).val() == res.beta + res.m * res.h * A.gamma(n)


def test_h_upper_bound():
    p = 3
    # unique minimum coefficient value at index p
    coeffs = [Series.one(p)] * (p + 2)
    coeffs[p] = Series.monomial(p, -2)
    f = ValPoly(p, tuple(coeffs))
    assert h_upper_bound_from_coeffs(f) == p

    # minimum at index 3q for a prime q not dividing 3
    q = 5
    coeffs = [Series.one(q)] * (3 * q + 1)
    coeffs[3 * q] = Series.monomial(q, -5)
    f = ValPoly(q, tuple(coeffs))
    assert h_upper_bound_from_coeffs(f) == q

    with pytest.raises(PreconditionError):
        h_upper_bound_from_coeffs(
            ValPoly(p, (Series.one(p), Series.one(p), Series.one(p)))
        )


def test_h_strict_bound_corollary():
    # c_i = 0 whenever p^e | i, all other values distinct: h < p^e
    p, e = 2, 2
    A = theta_type(p, precision=12)
    coeffs = [Series.zero(p)] * 7
    coeffs[0] = Series.one(p)
    for i in (1, 2, 3, 5, 6):
        coeffs[i] = Series.monomial(p, i + 7)  # distinct positive values
    f = ValPoly.make(p, coeffs)
    rd = rel_degree(A, f)
    assert rd.h < p**e


@pytest.mark.parametrize("p", [2, 3, 5])
def test_approx_coefficient_theta(p):
    A = theta_type(p)
    f = theta_minpoly(p)
    d, rd = approx_coefficient(A, f)
    assert d.terms == ((Fraction(0), 1),)  # f_p is the constant 1
    fh = formal_derivative(f, rd.h)
    for n in A.tail():
        s = fh(A.approximants[n])
        assert s.val() == d.val()
        diff = s - d
        assert diff.is_exact_zero or diff.val() > d.val()


def test_approx_coefficient_linear():
    p = 3
    A = theta_type(p)
    u = Series.make(p, [(Fraction(1, 3), 2), (2, 1)])
    f = ValPoly(p, (Series.one(p), u))
    d, rd = approx_coefficient(A, f)
    assert rd.h == 1
    assert d.val() == u.val()
    assert (u - d).val() > d.val()


def test_approx_coefficient_checks_only_points_past_the_threshold():
    # h = 1, beta = -1 with envelope threshold -1/6: the first tail point
    # (-1/2, -2) lies below the threshold and off the law, and must not
    # count against the coefficient
    p = 2
    A = theta_type(p, 5, precision=1, transcendental=True)
    f = parse_poly("X^4 + X^2 + (t^(-1))*X", p)
    fx = f(A.target)
    n = A.tail()[0]
    assert (A.gamma(n), (fx - f(A.approximants[n])).val()) == (
        Fraction(-1, 2), Fraction(-2)
    )
    d, rd = approx_coefficient(A, f)
    assert (rd.h, rd.beta) == (1, Fraction(-1))
    assert d == Series.monomial(p, -1)


def test_coefficient_dist_law():
    p = 3
    A = theta_type(p)
    d, rd = approx_coefficient(A, theta_minpoly(p))
    cut = coefficient_dist_law(A, rd.h, d)
    assert cut == shift_cut(d.val(), scale_cut(rd.h, A.distance()))
    assert cut == Cut.strictly_below(0)


def test_rel_degree_proxy_independence():
    p = 3
    A = theta_type(p)
    f = theta_minpoly(p)
    rd1 = rel_degree(A, f)
    # second proxy differing by a polynomial of very high value
    g = f + ValPoly(p, (Series.zero(p), Series.monomial(p, 10)))
    rd2 = rel_degree(A, g)
    assert (rd1.h, rd1.beta) == (rd2.h, rd2.beta)


def test_multiplicativity_linear_right_factor():
    p = 3
    A = theta_type(p, precision=10, transcendental=True)
    f = theta_minpoly(p)
    g = ValPoly(p, (Series.monomial(p, 1), Series.monomial(p, 0, 2)))  # 2X + t
    assert check_multiplicativity(A, f, g)


def test_multiplicativity_chain():
    p = 2
    A = theta_type(p, precision=10, transcendental=True)
    f = theta_minpoly(p)
    assert check_multiplicativity(A, f, f)


def test_multiplicativity_composed_law_only_past_both_thresholds():
    # the composed law starts past f's threshold and past the preimage of
    # g's threshold on the image type; the whole tail put (-1/2, -1/4) off
    # the line w = gamma and raised InternalInconsistency
    p = 2
    A = replace(theta_type(p), tail_depth=8)
    f = parse_poly(
        "X^5 + (t^(-1/2))X^4 + (t^2)X^3 + (t^(-1/4))X^2 + (t^(-1))X + 1", p
    )
    g = parse_poly("(t^2)X", p)
    assert check_multiplicativity(A, f, g)


def test_multiplicativity_refuses_when_an_image_approximant_is_hidden():
    # f(c_2) agrees with f(x) up to the image's precision, so v(f(x) - f(c_2))
    # is unknown: a precision refusal, not IndeterminateValuation
    p = 2
    A = replace(theta_type(p, precision=1, transcendental=True), tail_depth=8)
    f = parse_poly("(t^(-4))X^4 + X^3 + (t^2)X^2 + (t^3)X + t^(1/2)", p)
    g = parse_poly("(t^(-1/2))X", p)
    with pytest.raises(
        InsufficientPrecision, match=r"f\(c_2\) .* precision -9/2"
    ):
        check_multiplicativity(A, f, g)


def test_combine_same_degree():
    p = 3
    A = theta_type(p)
    f = theta_minpoly(p)
    one = Series.one(p)
    proxies = [f, f + ValPoly(p, (one,))]
    ds = [one, one]
    rd = combine_same_degree(A, proxies, [one, one], ds)
    assert rd.h == p


def test_combine_rejects_cancellation():
    p = 3
    A = theta_type(p)
    f = theta_minpoly(p)
    one = Series.one(p)
    neg = Series.monomial(p, 0, p - 1)
    proxies = [f, f]
    with pytest.raises(PreconditionError, match="cancellation"):
        combine_same_degree(A, proxies, [one, neg], [one, one])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_reduced_factor_shape_theta(p):
    A = theta_type(p)
    f = theta_minpoly(p)
    n = A.tail()[-1]
    c = A.approximants[n]
    d = Series.monomial(p, -A.gamma(n))
    residues = reduced_factor_shape(A, f, c, d)
    r = (d * (A.target - c)).residue()
    # (Z - r)^p in characteristic p is Z^p - r^p
    expected = [0] * (p + 1)
    expected[p] = 1
    expected[0] = (-r) ** p % p
    assert residues == expected
    # single root of multiplicity h: no other residue root
    roots = [
        z
        for z in range(p)
        if sum(cf * pow(z, i, p) for i, cf in enumerate(residues)) % p == 0
    ]
    assert roots == [r % p]


@pytest.mark.parametrize("p", [3, 5])
def test_reduced_factor_shape_with_every_residue_root(p):
    # d = u * t^(-gamma) puts the root at r = u, so r^i differs between
    # powers i and the shape reads every power x0^i as it is
    A = theta_type(p)
    n = A.tail()[-1]
    c = A.approximants[n]
    linear = ValPoly(p, (Series.one(p), Series.monomial(p, 0, 2)))
    for f in (theta_minpoly(p), linear):
        h = f.degree()
        for u in range(1, p):
            d = Series.monomial(p, -A.gamma(n), u)
            residues = reduced_factor_shape(A, f, c, d)
            assert (d * (A.target - c)).residue() == u
            expected = [comb(h, i) * (-u) ** (h - i) % p for i in range(h + 1)]
            assert residues == expected


def _x_power(p, k):
    return ValPoly.make(p, [Series.zero(p)] * k + [Series.one(p)])


# polynomials of degree >= 2h over the theta type
_PAST_H = {
    "2:f*X^2": (2, lambda f: f * _x_power(2, 2)),
    "3:X^2+X": (3, lambda f: _x_power(3, 2) + _x_power(3, 1)),
    "3:f+X^6": (3, lambda f: f + _x_power(3, 6)),
    "5:f+X^10": (5, lambda f: f + _x_power(5, 10)),
}


@pytest.mark.parametrize("case", sorted(_PAST_H))
def test_reduced_factor_shape_reads_rows_past_h(case):
    # the rows past h scale by inverse powers of d up to d^(deg - h),
    # beyond the d^(h - 1) the rows below h read
    p, build = _PAST_H[case]
    A = theta_type(p, precision=20, transcendental=True)
    g = build(theta_minpoly(p))
    h = rel_degree(A, g).h
    assert g.degree() >= 2 * h
    n = A.tail()[-1]
    c = A.approximants[n]
    d = Series.monomial(p, -A.gamma(n))
    residues = reduced_factor_shape(A, g, c, d)
    expected = [comb(h, i) * (-1) ** (h - i) % p for i in range(h + 1)]
    assert residues == expected + [0] * (g.degree() - h)
    assert tail_factor_shape(A, g) == (residues, 1)


def test_reduced_factor_shape_linear():
    p = 3
    A = theta_type(p)
    u = Series.monomial(p, 0, 2)
    f = ValPoly(p, (Series.one(p), u))
    n = A.tail()[-1]
    c = A.approximants[n]
    d = Series.monomial(p, -A.gamma(n))
    residues = reduced_factor_shape(A, f, c, d)
    r = (d * (A.target - c)).residue()
    assert residues[1] == 1
    assert residues[0] == (-r) % p


def test_unfixed_polynomial_value_strictly_above_law():
    # when the type does not fix f, v(f(x)) > beta + h*v(x - c_n) on the tail
    for p in (2, 3, 5):
        A = theta_type(p)
        f = theta_minpoly(p)
        rd = rel_degree(A, f)
        vfx = f(A.target).val()
        for n in A.tail():
            assert vfx > rd.beta + rd.h * A.gamma(n)


def test_dist_inequality_chain():
    # dist(f(x), K) >= beta + h*dist(x, K), with equality for the image cut
    p = 3
    A = theta_type(p)
    rd = rel_degree(A, theta_minpoly(p))
    image_cut = shift_cut(rd.beta, scale_cut(rd.h, A.distance()))
    from apxval.curated import theta_f_of_theta_exact

    fx_exact = theta_f_of_theta_exact(p)
    B = ApproxType.from_truncations(fx_exact, p_power_denominators(p))
    assert B.distance() == Cut.plus_infinity()
    assert B.distance() > image_cut


def test_rel_degree_says_when_the_envelope_answers_alone():
    for p in (2, 3, 5):
        deep = rel_degree(theta_type(p), theta_minpoly(p))
        assert deep.sampled_points == 6
        # one tail point: nothing to fit, the envelope's law stands alone
        shallow = replace(theta_type(p), tail_depth=1)
        with pytest.raises(InsufficientPrecision, match="too few"):
            sampled_law(shallow, theta_minpoly(p))
        alone = rel_degree(shallow, theta_minpoly(p))
        assert alone.sampled_points == 0
        assert (alone.h, alone.beta) == (deep.h, deep.beta)
        # both answers carry the envelope's order threshold
        for rd, A in ((deep, theta_type(p)), (alone, shallow)):
            law = envelope_law(list(rd.taylor_intercepts), A.distance())
            assert rd.threshold == law[2]


# --- the sampled route's power cache -----------------------------------------


class _Tripwire:
    """Raises on any access: stands in for the Taylor route's powers."""

    def __getattr__(self, name):
        raise AssertionError(f"_powers was read ({name})")

    def __getitem__(self, key):
        raise AssertionError("_powers was read")

    def __iter__(self):
        raise AssertionError("_powers was read")

    def __len__(self):
        raise AssertionError("_powers was read")


def _law_polys(p):
    f = theta_minpoly(p)
    X = ValPoly.make(p, [Series.zero(p), Series.one(p)])
    return [f, X * X * f, X * X * X * f]


def test_sampled_law_never_reads_the_taylor_powers():
    for p in (2, 3):
        for f in _law_polys(p):
            A = theta_type(p, precision=12)
            object.__setattr__(A, "_powers", _Tripwire())
            law = sampled_law(theta_type(p, precision=12), f)
            assert sampled_law(A, f) == law


def test_sampled_powers_equal_the_taylor_powers():
    # c^k by the Frobenius map where p divides k and by the halving split
    # elsewhere, against c^(k-1) * c: the Frobenius image must equal the
    # product, and the mul kernel must be associative on the approximants
    for p in (2, 3):
        A = theta_type(p, precision=12)
        for f in _law_polys(p):
            rel_degree(A, f)
        assert len(A._sampled_powers) == len(A.approximants) + 1
        assert any(A._powers)
        # each route holds the powers it read: compare them on the keys
        # both hold (a tail point below the envelope threshold is never
        # sampled, so its dict may be empty)
        shared = 0
        for sampled, taylor in zip(A._sampled_powers, A._powers):
            for k in set(sampled) & set(range(1, len(taylor) + 1)):
                assert sampled[k] == taylor[k - 1]
                shared += 1
        assert shared >= len(A.tail()) * 3
        # the Taylor route stops short of the sampled route at the last
        # approximant: it builds no f(c_n) row, so it never reads c^deg
        deg = max(f.degree() for f in _law_polys(p))
        c, sampled, taylor = A.approximants[-1], A._sampled_powers[-2], A._powers[-1]
        assert taylor != [] and set(sampled) == set(range(1, deg + 1))
        assert len(taylor) < deg
        assert sampled[deg] == taylor[-1] * c ** (deg - len(taylor))
        x = A.target
        assert A._sampled_powers[-1] == {k: x**k for k in range(1, p + 4)}


@pytest.mark.parametrize("p", [3, 5])
def test_the_anchor_law_makes_no_power_product(p, monkeypatch):
    # X^p - X - 1/t reads 1, x and x^p, and no Taylor row f_1..f_p reads a
    # power of c, as C(p, i) = 0 mod p: x^p is a Frobenius image, and no
    # series product is formed outside the sums' dots
    def tripwire(a, b):
        raise AssertionError("a series product was formed")

    A = theta_type(p)
    monkeypatch.setattr(Series, "__mul__", tripwire)
    rd = rel_degree(A, theta_minpoly(p))
    monkeypatch.undo()
    assert (rd.h, rd.sampled_points) == (p, 6)
    assert A._powers == tuple([] for _ in A.approximants)
    filled = [ps for ps in A._sampled_powers if ps]
    assert A._sampled_powers[-1] and A._sampled_powers[-2]
    assert len(filled) == rd.sampled_points + 1
    for ps in filled:
        assert set(ps) == {1, p}


def test_taylor_route_never_calls_frobenius(monkeypatch):
    # the Taylor tables build c^k as c^(k-1) * c, so only the sampled
    # route's powers come from the Frobenius map
    def tripwire(y):
        raise AssertionError("frobenius called")

    for p in (2, 3):
        want = [
            theta_type(p, precision=12).taylor_intercepts(f)
            for f in _law_polys(p)
        ]
        monkeypatch.setattr(Series, "frobenius", tripwire)
        A = theta_type(p, precision=12)
        for f, intercepts in zip(_law_polys(p), want):
            assert intercepts[0] is not None
            assert A.taylor_intercepts(f) == intercepts
            for c in A.approximants:
                taylor_coefficients(f, c)
        assert max(map(len, A._powers)) > p
        # the sampled route does reach it
        with pytest.raises(AssertionError, match="frobenius called"):
            sampled_law(A, _law_polys(p)[0])
        monkeypatch.undo()


def test_second_rel_degree_grows_no_power_list():
    for p in (2, 3):
        A = theta_type(p, precision=12)

        def cached():
            return [[id(s) for s in ps] for ps in A._powers] + [
                [(k, id(s)) for k, s in ps.items()] for ps in A._sampled_powers
            ]

        for f in _law_polys(p):
            first = rel_degree(A, f)
            assert A._sampled_powers[-1] and A._sampled_powers[-2]
            before = cached()
            assert rel_degree(A, f) == first
            assert cached() == before


# --- the envelope route's Taylor rows ----------------------------------------


def test_rows_are_the_taylor_tables_at_the_tail_approximants():
    # exactly, precision included: one row tuple per tail approximant
    cases = [(theta_type(p), theta_minpoly(p)) for p in (2, 3, 5)]
    cases += [(theta_type(p, precision=12), f) for p in (2, 3) for f in _law_polys(p)]
    cases += [(A, f) for A, f, _, _ in _shape_cases(99, 300)]
    answered = 0
    for A, f in cases:
        rd = _outcome(rel_degree, A, f)
        if not isinstance(rd, reldeg.RelDegree):
            continue
        answered += 1
        assert len(rd.rows) == len(A.tail())
        for n, row in zip(A.tail(), rd.rows):
            assert row == tuple(taylor_coefficients(f, A.approximants[n], start=1))
    assert answered > 100


def test_approx_coefficient_and_tail_shape_read_rel_degrees_rows(monkeypatch):
    # one Taylor table per tail approximant, all inside taylor_intercepts;
    # no derivative polynomial and no Horner evaluation
    import apxval.apprtype as apprtype
    import apxval.valpoly as valpoly

    real_tables = apprtype.taylor_coefficients
    real_intercepts = ApproxType.taylor_intercepts
    inside, tables = [], []

    def intercepts(self, g):
        inside.append(True)
        try:
            return real_intercepts(self, g)
        finally:
            inside.pop()

    def counting(*args, **kwargs):
        assert inside, "a Taylor table built outside taylor_intercepts"
        tables.append(args[1])
        return real_tables(*args, **kwargs)

    def tripwire(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(ApproxType, "taylor_intercepts", intercepts)
    monkeypatch.setattr(apprtype, "taylor_coefficients", counting)
    monkeypatch.setattr(reldeg, "taylor_coefficients", tripwire)
    for module in (valpoly, reldeg):
        monkeypatch.setattr(module, "formal_derivative", tripwire, raising=False)
    monkeypatch.setattr(ValPoly, "__call__", tripwire)
    for p in (2, 3, 5):
        cases = [(theta_type(p), theta_minpoly(p))]
        if p < 5:
            cases += [(theta_type(p, precision=12), f) for f in _law_polys(p)]
        for A, f in cases:
            for run in (approx_coefficient, tail_factor_shape):
                tables.clear()
                run(A, f)
                assert tables == [A.approximants[n] for n in A.tail()]


# --- failure branches of the two law routes ---------------------------------


def _shift_last_intercept(monkeypatch):
    """Patch the envelope's input so that it predicts another law than the
    sampled tail values follow."""
    real = ApproxType.taylor_intercepts

    def shifted(self, g):
        betas, rows = real(self, g)
        if betas is not None:
            betas = betas[:-1] + [betas[-1] + 1]
        return betas, rows

    monkeypatch.setattr(ApproxType, "taylor_intercepts", shifted)


def test_rel_degree_routes_disagree(monkeypatch):
    p = 3
    A = theta_type(p)
    _shift_last_intercept(monkeypatch)
    with pytest.raises(InternalInconsistency, match="envelope gives"):
        rel_degree(A, theta_minpoly(p))


def test_fixes_value_routes_disagree(monkeypatch):
    p = 3
    A = theta_type(p)
    _shift_last_intercept(monkeypatch)
    with pytest.raises(InternalInconsistency, match="envelope prediction"):
        A.fixes_value(theta_minpoly(p))


def _misreport_rel_degree(monkeypatch, **wrong):
    """Patch rel_degree, as the other reldeg functions see it, to report a
    wrong h or beta; their tail checks must catch it."""
    import dataclasses

    real = reldeg.rel_degree
    monkeypatch.setattr(
        reldeg,
        "rel_degree",
        lambda A, f: dataclasses.replace(real(A, f), **wrong),
    )


def test_rel_degree_general_checks_the_digit_law(monkeypatch):
    p = 3
    A = theta_type(p)
    f = theta_minpoly(p)
    _misreport_rel_degree(monkeypatch, beta=Fraction(1))
    with pytest.raises(InternalInconsistency, match="digit-expansion law"):
        rel_degree_general(A, f, f)


def test_approx_coefficient_checks_the_defining_identity(monkeypatch):
    p = 3
    A = theta_type(p)
    # with h = 1 the candidate is f' = -1, which certifies, but
    # v(f(x) - f(c_n)) grows like 3 * gamma_n, not gamma_n
    _misreport_rel_degree(monkeypatch, h=1)
    with pytest.raises(InternalInconsistency, match="defining value identity"):
        approx_coefficient(A, theta_minpoly(p))
    # one tail point: rel_degree fits nothing and keeps no points, and the
    # identity is still checked on that point
    shallow = replace(A, tail_depth=1)
    assert reldeg.rel_degree(shallow, theta_minpoly(p)).points == ()
    with pytest.raises(InternalInconsistency, match="defining value identity"):
        approx_coefficient(shallow, theta_minpoly(p))


class _ValueTable:
    """Stands in for a polynomial through its values: the type's target maps
    to ``at_target`` and approximant n to ``at[n]``."""

    is_zero = False

    def __init__(self, A, at_target, at):
        self.table = dict(zip(A.approximants, at))
        self.table[A.target] = at_target

    def degree(self):
        return 2

    def __call__(self, s):
        return self.table[s]

    @staticmethod
    def power_sum(f, x, powers, through=None):
        """valpoly.power_sum, the sampled route's evaluation, for the stub:
        its values are exact monomials, so ``through`` changes nothing."""
        return f(x)


# value of the tail point at approximant n (of len_ approximants) as a function
# of gamma_n, or None for an exactly vanishing value; the fit goes through
# the last two tail points, so the point off the line comes before them
_SHAPES = {
    "one-point": lambda n, len_, g: g if n == len_ - 1 else None,
    "slope-1/2": lambda n, len_, g: g / 2,
    "slope-0": lambda n, len_, g: Fraction(5),
    "off-the-line": lambda n, len_, g: 2 * g + (1 if n == len_ - 3 else 0),
}
# what each failure says
_SHAPE_MESSAGES = {
    "one-point": "too few",
    "slope-1/2": "slope 1/2 is not a positive integer",
    "slope-0": "slope 0 is not a positive integer",
    "off-the-line": "no .*affine law",
}


def _shaped_values(A, shape):
    """Monomials whose values follow ``shape`` (zero where it gives None)."""
    p = A.target.p
    len_ = len(A.approximants)
    out = []
    for n in range(len_):
        w = _SHAPES[shape](n, len_, A.gamma(n))
        out.append(Series.zero(p) if w is None else Series.monomial(p, w))
    return out


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_sampled_law_failure_shapes(shape, monkeypatch):
    monkeypatch.setattr(reldeg, "power_sum", _ValueTable.power_sum)
    p = 3
    A = theta_type(p)
    f = _ValueTable(A, Series.zero(p), _shaped_values(A, shape))
    err = InsufficientPrecision if shape == "one-point" else InternalInconsistency
    with pytest.raises(err, match=_SHAPE_MESSAGES[shape]):
        sampled_law(A, f)


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_fixes_value_failure_shapes(shape, monkeypatch):
    # the stub has no coefficients, so no derivative value is fixed and
    # fixes_value fits the whole tail
    monkeypatch.setattr(
        ApproxType, "taylor_intercepts", lambda self, g: (None, ())
    )
    p = 3
    A = theta_type(p)
    # the target's value differs from every tail value, so a constant
    # window does not count as stabilized
    g = _ValueTable(A, Series.monomial(p, 7), _shaped_values(A, shape))
    with pytest.raises(StabilizationError, match=_SHAPE_MESSAGES[shape]):
        A.fixes_value(g)


# --- the law layer's refusal paths -------------------------------------------


def test_rel_degree_preconditions():
    p = 3
    A = theta_type(p)
    for f in (ValPoly.zero(p), ValPoly(p, (Series.one(p),))):
        with pytest.raises(PreconditionError, match="degree >= 1"):
            rel_degree(A, f)
    # an approximant equal to the target: the type is not immediate
    x = Series.monomial(p, -1)
    trivial = ApproxType(x, p_power_denominators(p), (Series.zero(p), x))
    assert trivial.is_trivial
    with pytest.raises(PreconditionError, match="immediate"):
        rel_degree(trivial, theta_minpoly(p))


def test_sampled_law_skips_an_infinite_gamma():
    # rel_degree refuses a trivial type, but the sampled route alone fits
    # the points of finite gamma: f(x) - f(c) = (x - c)^p - (x - c), and
    # at c = x it vanishes
    p = 3
    x = Series.make(p, [(-2, 1), (-1, 1)])
    trivial = ApproxType(
        x, p_power_denominators(p), (Series.zero(p), x.prefix(1), x)
    )
    assert trivial.gammas() == [-2, -1, INF]
    pts = ((-2, -2 * p), (-1, -p))
    assert sampled_law(trivial, theta_minpoly(p)) == (p, 0, pts)


def test_rel_degree_general_refuses_a_digit_the_type_does_not_fix():
    # v(c_n - c_last) is gamma_n, then infinite at the last approximant:
    # the window of the last values is not constant
    p = 2
    A = theta_type(p)
    g = ValPoly.make(p, [-A.approximants[-1], Series.one(p)])
    with pytest.raises(MarkerViolation, match="digit 0 value is not fixed"):
        rel_degree_general(A, g, theta_minpoly(p))


def test_rel_degree_general_skips_a_hidden_value_of_g(monkeypatch):
    # g = f + t has the digits t and 1, so m = 1; a tail approximant known
    # only below t^0 hides g(c) = -t^(-1/64) + t behind O(t^(-1/2)), and
    # the law is checked on the other tail points, the deeper one included
    checked = []
    real = reldeg._check_tail_law
    monkeypatch.setattr(
        reldeg, "_check_tail_law",
        lambda pts, *rest: checked.append(pts) or real(pts, *rest),
    )
    p = 2
    A = theta_type(p)
    f = theta_minpoly(p)
    n = A.tail()[-2]
    approximants = list(A.approximants)
    approximants[n] = approximants[n].truncate(0)
    A = replace(A, approximants=tuple(approximants))
    g = f + ValPoly.make(p, [Series.monomial(p, 1)])
    assert not g(A.approximants[n]).terms
    assert rel_degree_general(A, g, f) == NotFixedLaw(1, p, 0)
    gammas = [gamma for gamma, _ in checked[-1]]
    assert A.gamma(n) not in gammas and A.gamma(A.tail()[-1]) in gammas


def test_certify_coefficient_matches_the_formed_difference():
    # v(s - d), or the precision of s - d where truncation hides it
    rng = random.Random(2424)

    def series(p, e0):
        terms = [(e0 + Fraction(k, rng.choice([1, 2, 3])), rng.randint(1, p - 1))
                 for k in range(rng.randint(1, 3))]
        prec = rng.choice([INF, e0 + Fraction(rng.randint(0, 6), 2)])
        return Series.make(p, terms, prec)

    for _ in range(2000):
        p = rng.choice([2, 3, 5])
        d = series(p, Fraction(rng.randint(-3, 3), 3))
        if d.is_exact_zero or not d.terms:
            continue
        s = d + series(p, d.val() + Fraction(rng.randint(-2, 4), 4))
        vd = d.val()
        assert reldeg._certify_coefficient([s], d) == (
            reldeg._value_or_precision(s - d) > vd
        ), (s, d)


def test_a_hidden_derivative_value_is_a_marker_violation():
    # at p = 2, f_1(c) = 2c + a_1 = a_1 = O(t^2): truncation hides it
    A = theta_type(2)
    g = parse_poly("X^2 + (O(t^2))*X", 2)
    assert A.taylor_intercepts(g)[0] is None
    with pytest.raises(MarkerViolation, match="not fixed at this depth"):
        rel_degree(A, g)


def test_approx_coefficient_refuses_a_coefficient_outside_the_ground():
    # f_1 = t^(1/2) + t: every truncation keeps t^(1/2), outside Z[1/3],
    # though the longer one certifies
    A = theta_type(3)
    f = parse_poly("(t^(1/2) + t)*X", 3)
    assert reldeg._certify_coefficient(
        [f.coeff(1)] * len(A.tail()), f.coeff(1)
    )
    with pytest.raises(InsufficientPrecision, match="no truncation"):
        approx_coefficient(A, f)


def test_certify_coefficient_refusals():
    p = 3
    d = Series.monomial(p, Fraction(-1, 3))
    # a sample of another value
    s = Series.monomial(p, Fraction(-1, 9))
    assert not reldeg._certify_coefficient([d, s], d)
    # a sample of the same value that d does not approximate
    s = Series.monomial(p, Fraction(-1, 3), 2)
    assert not reldeg._certify_coefficient([d, s], d)
    # a sample whose difference from d truncation hides: its precision,
    # above v(d) since v(s) = v(d) is visible, stands in for its value
    for prec in (Fraction(1), Fraction(-1, 6)):
        s = d + Series.zero(p, prec)
        assert reldeg._value_or_precision(s - d) == prec
        assert reldeg._certify_coefficient([d, s], d)


def test_rel_degree_general_with_a_hidden_minpoly_value():
    # X^3 - X - 1/t with its constant known only below t^(-1/3): v(f(c_1))
    # is hidden, so the type is not seen to fix v(f), and the law of g
    # comes from f's digits
    p = 3
    A = theta_type(p)
    f = parse_poly("X^3 + (2)*X + (2*t^(-1) + O(t^(-1/3)))", p)
    with pytest.raises(InsufficientPrecision, match="c_1"):
        A.fixes_value(f)
    X = ValPoly.make(p, [Series.zero(p), Series.one(p)])
    assert rel_degree_general(A, X, f) == Fixed(Fraction(-1, 3))


# over theta at p = 2, (h, beta) = (2, -7/8) with the threshold -1/32: the
# value of f_1(c_n) settles only at gamma_n = -1/16
LATE_LAW_POLY = (
    "(t)*X^5 + (t^(-1/4) + t)*X^4 + (t^(-3/4) + t^(-1/4) + 1)*X^3"
    " + (t^(-5/4) + t^(-1) + t^(-3/4))*X^2 + (t^(-7/4) + t^(-1))*X + (t^(-2))"
)


def test_factor_shape_refusals():
    p = 3
    A = theta_type(p)
    f = theta_minpoly(p)
    c = A.approximants[-1]
    with pytest.raises(PreconditionError, match="scaling element"):
        reduced_factor_shape(A, f, c, Series.one(p))
    # at gamma = -1/8 the rescaled row 1 has a negative value
    A = theta_type(2)
    g = parse_poly(LATE_LAW_POLY, 2)
    assert A.gamma(2) == Fraction(-1, 8)
    with pytest.raises(PreconditionError, match="coefficient 1 is not integral"):
        reduced_factor_shape(A, g, A.approximants[2], Series.monomial(2, Fraction(1, 8)))
    assert reduced_factor_shape(
        A, g, A.approximants[3], Series.monomial(2, Fraction(1, 16))
    ) == [1, 0, 1, 0, 0, 0]


def test_combine_same_degree_refusals():
    p = 3
    A = theta_type(p)
    f = theta_minpoly(p)
    one = Series.one(p)
    for proxies, ks, ds in (([f], [one, one], [one]), ([], [], [])):
        with pytest.raises(PreconditionError, match="matching nonempty"):
            combine_same_degree(A, proxies, ks, ds)
    X = _x_power(p, 1)
    with pytest.raises(PreconditionError, match="common h"):
        combine_same_degree(A, [f, X], [one, one], [one, one])
    # a sum that truncation hides counts as cancelled
    neg = Series.monomial(p, 0, p - 1)
    with pytest.raises(PreconditionError, match="cancellation"):
        combine_same_degree(A, [f, f], [one, neg], [one, one + Series.zero(p, 1)])
    # coefficients that do not belong to the proxies hide a cancellation:
    # f - (f + X) = -X has h = 1
    t = Series.monomial(p, 1)
    with pytest.raises(InternalInconsistency, match="changed h from 3 to 1"):
        combine_same_degree(A, [f, f + X], [one, neg], [one, t])


def test_approx_coefficient_drops_a_zero_binomial():
    # 3 * a_3 = 0 is an exact zero in the derivative f_1, as in the Taylor
    # row, whatever the precision of a_3
    A = theta_type(3, 6, precision=3, transcendental=True)
    f = parse_poly(
        "(t)*X^4 + (t^(-7/12) + O(t^(-1/4)))*X^3 + (2*t^(-1/6) + t^(1/4))*X^2"
        " + (2*t^(-5/6) + 2*t^(-1/4))*X + (O(t^(-5/4)))",
        3,
    )
    c = A.approximants[A.tail()[-1]]
    last = formal_derivative(f, 1)(c)
    assert last == taylor_coefficients(f, c, start=1)[0]
    assert last.precision is INF and last.val() == Fraction(-5, 6)
    # the sample is seen, but its leading exponent lies outside Z[1/3], so
    # no truncation of it is a ground element
    assert not A.ground(Fraction(-5, 6))
    with pytest.raises(InsufficientPrecision, match="no truncation"):
        approx_coefficient(A, f)
    # with h = 1 and f_1 = 3 a_3 X^2 + 1 = 1 every sample is exactly 1; a
    # zero that kept the precision of a_3 hid them all behind O(t^0)
    A = theta_type(3)
    f = parse_poly("(t^(1/3) + O(t^(2/3)))*X^3 + X", 3)
    d, rd = approx_coefficient(A, f)
    assert (d, rd.h, rd.beta) == (Series.one(3), 1, 0)


def test_approx_coefficient_skips_a_sample_at_c_2_below_the_threshold():
    # f_1(c) = 2c + c_2 vanishes exactly at c_2, the first tail
    # approximant, and is of value -1/27 past it; c_2 lies below the law's
    # threshold -1/54, where the coefficient need not hold
    A = theta_type(3)
    c2 = A.approximants[A.tail()[0]]
    f = parse_poly(f"(t + O(t^2))*X^3 + X^2 + ({c2})*X", 3)
    samples = [formal_derivative(f, 1)(A.approximants[n]) for n in A.tail()]
    assert samples[0].is_exact_zero
    assert all(s.val() == Fraction(-1, 27) for s in samples[1:])
    d, rd = approx_coefficient(A, f)
    assert (rd.h, rd.beta, rd.threshold) == (1, Fraction(-1, 27), Fraction(-1, 54))
    assert A.gamma(A.tail()[0]) == Fraction(-1, 27) < rd.threshold
    assert d == Series.monomial(3, Fraction(-1, 27), 2)


def test_approx_coefficient_refuses_a_sample_past_the_threshold(monkeypatch):
    # f_3 = 1 for the theta anchor, whose threshold is -1/2; a stand-in
    # row f_3 of leading coefficient 2 at one tail point past it, the
    # first or the one before the last, fails certification
    p = 3
    A = theta_type(p)
    f = theta_minpoly(p)
    assert rel_degree(A, f).threshold == Fraction(-1, 2)
    real = ApproxType.taylor_intercepts

    def row_off_at(k):
        def intercepts(self, g):
            betas, rows = real(self, g)
            off = rows[k][:2] + (Series.monomial(p, 0, 2),)
            return betas, rows[:k] + (off,) + rows[k + 1:]

        return intercepts

    for k in (0, len(A.tail()) - 2):
        assert A.gamma(A.tail()[k]) > Fraction(-1, 2)
        monkeypatch.setattr(ApproxType, "taylor_intercepts", row_off_at(k))
        with pytest.raises(InsufficientPrecision, match="no truncation"):
            approx_coefficient(A, f)
    monkeypatch.undo()
    # no tail point past the threshold: a shallow type read at window 1
    A = replace(theta_type(2, 5), window=1)
    g = parse_poly(LATE_LAW_POLY, 2)
    rd = rel_degree(A, g)
    assert max(A.gamma(n) for n in A.tail()) == rd.threshold == Fraction(-1, 32)
    with pytest.raises(InsufficientPrecision, match="no tail point past"):
        approx_coefficient(A, g)


# --- the factor shape read by the residue map --------------------------------


def _series_factor_shape(A, f, c, d):
    """The factor shape built from series: each row rescaled by powers of d
    and an inverse of f_h(c), the constant term from the powers of
    x0 = d * (x - c), and every residue read off a series."""
    h = rel_degree(A, f).h
    xc = A.target - c
    if d.val() != -xc.val():
        raise PreconditionError("scaling element must have value -v(x - c)")
    p = f.p
    tab = taylor_coefficients(f, c, start=1)
    fh_c = tab[h - 1]
    v_fh = fh_c.val()
    slack = Fraction(1)
    for i, f_i in enumerate(tab, 1):
        if f_i.is_exact_zero:
            continue
        need = 2 * v_fh - (f_i.val() + (h - i) * d.val()) + 1
        slack = max(slack, need - v_fh)
    inv = invert(fh_c, v_fh + slack)
    x0 = d * xc
    d_powers = [Series.one(p)]
    while len(d_powers) < max(h, len(tab) - h + 1):
        d_powers.append(d_powers[-1] * d)
    coeffs = [Series.zero(p)]
    power = Series.one(p)
    for i, f_i in enumerate(tab, 1):
        scale = d_powers[h - i] if h >= i else invert(d_powers[i - h], INF)
        a_i = f_i * scale * inv
        if reldeg._value_or_precision(a_i) < 0:
            raise PreconditionError(f"coefficient {i} is not integral")
        coeffs.append(a_i)
        power = power * x0
        coeffs[0] = coeffs[0] - a_i * power
    if reldeg._value_or_precision(coeffs[0]) < 0:
        raise PreconditionError("constant term is not integral")
    residues = [a.residue() for a in coeffs]
    r = x0.residue()
    if residues != reldeg._power_of_linear(p, r, h, f.degree()):
        raise InternalInconsistency(f"residue polynomial {residues}")
    return residues, r


def _random_series(rng, p, exps, trunc):
    terms = [
        (rng.choice(exps), rng.randint(1, p - 1)) for _ in range(rng.randint(0, 2))
    ]
    if not trunc:
        return Series(p, terms)
    top = max([e for e, _ in terms], default=exps[0])
    return Series(p, terms, top + Fraction(1, 4))


def _shape_cases(seed, count):
    """(A, f, c, d) over p = 2, 3, 5: theta-like targets with random
    coefficients, so x - c need not lead with 1; theta's polynomial,
    perturbations of it and random ones, some coefficients truncated; c
    every approximant, some moved off it; d a monomial, two terms or
    truncated."""
    rng = random.Random(seed)
    while count > 0:
        p = rng.choice([2, 3, 5])
        terms = rng.choice([4, 6, 8])
        target = Series(
            p,
            [(Fraction(-1, p**i), rng.randint(1, p - 1)) for i in range(1, terms + 1)],
            rng.choice([1, 2]),
        )
        A = ApproxType.from_truncations(
            target, p_power_denominators(p), distance_hint=Cut.strictly_below(0)
        )
        exps = [Fraction(k, 2 * p * p) for k in range(-4 * p * p, 4 * p * p + 1)]
        f = theta_minpoly(p)
        kind = rng.random()
        if kind > 0.3:
            coeffs = [
                _random_series(rng, p, exps, rng.random() < 0.3)
                for _ in range(rng.randint(1, p + 2))
            ]
            g = ValPoly(p, coeffs + [Series.monomial(p, rng.choice(exps), 1)])
            f = f + g if kind < 0.6 else g
        for c in A.approximants:
            u = rng.randint(1, p - 1)
            if rng.random() < 0.2:
                c = c + Series.monomial(p, rng.choice(exps[len(exps) // 2:]), u)
            e = -(A.target - c).val()
            d = Series.monomial(p, e, u)
            kind = rng.random()
            if kind < 0.3:
                d = d + Series.monomial(p, e + Fraction(rng.randint(1, 12), 6), u)
            elif kind < 0.6:
                d = d + Series.zero(p, e + Fraction(rng.randint(1, 24), 8))
            yield A, f, c, d
            count -= 1


def _factor_shape_at(A, f, c, d):
    """reldeg._factor_shape with the law of f and its Taylor rows at c."""
    table = taylor_coefficients(f, c, start=1)
    return reldeg._factor_shape(A, f, rel_degree(A, f), table, c, d)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ApxError, TypeError) as exc:
        return type(exc)


def test_factor_shape_matches_the_series_construction_randomized():
    answered = refused = 0
    tails = set()
    for A, f, c, d in _shape_cases(2024, 2000):
        want = _outcome(_series_factor_shape, A, f, c, d)
        got = _outcome(_factor_shape_at, A, f, c, d)
        if isinstance(want, tuple):
            assert got == want, (str(f), str(c), str(d))
            answered += 1
        else:
            refused += 1
        if id(A) not in tails:
            tails.add(id(A))
            want = _outcome(_series_tail_shape, A, f)
            if isinstance(want, tuple):
                assert tail_factor_shape(A, f) == want
    assert answered > 1000 and refused > 100


def _series_tail_shape(A, f):
    n = A.tail()[-1]
    return _series_factor_shape(
        A, f, A.approximants[n], Series.monomial(f.p, -A.gamma(n))
    )


def test_factor_shape_never_reads_the_taylor_powers(monkeypatch):
    # X^3 * f reads powers of c in its Taylor rows: the shape at any c
    # builds its own, and the tail shape reads rel_degree's rows, so
    # neither reads the type's list once the law is known
    for p in (2, 3):
        f = _law_polys(p)[2]
        A = theta_type(p, precision=12)
        rd = rel_degree(A, f)
        scales = [Series.monomial(p, -A.gamma(n)) for n in A.tail()]
        want = [
            reduced_factor_shape(A, f, A.approximants[n], d)
            for n, d in zip(A.tail(), scales)
        ]
        tail = tail_factor_shape(A, f)
        assert want[-1] == tail[0]
        monkeypatch.setattr(reldeg, "rel_degree", lambda B, g: rd)
        object.__setattr__(A, "_powers", _Tripwire())
        for n, d, shape in zip(A.tail(), scales, want):
            c = A.approximants[n]
            assert reduced_factor_shape(A, f, c, d) == shape
            foreign = c + Series.monomial(p, 5)
            assert reduced_factor_shape(A, f, foreign, d) == shape
        assert tail_factor_shape(A, f) == tail
        monkeypatch.undo()


def test_factor_shape_and_chi_never_call_invert(monkeypatch):
    # every residue is a ratio of leading coefficients mod p
    import apxval.hahn as hahn
    import apxval.tamegal as tamegal

    def tripwire(a, target):
        raise AssertionError("invert called")

    for module in (hahn, reldeg, tamegal):
        monkeypatch.setattr(module, "invert", tripwire, raising=False)
    for A, f, c, d in _shape_cases(5, 60):
        _outcome(_factor_shape_at, A, f, c, d)
    for p in (2, 3, 5):
        A = theta_type(p)
        assert tail_factor_shape(A, theta_minpoly(p))[1] == 1
    G = tamegal.TameCyclic.make(5, 4)
    d = Series(5, [(Fraction(1, 4), 2), (Fraction(3, 4), 1)], Fraction(1, 2))
    assert tamegal.chi(G, G.element(1), d) == G.zeta


def test_factor_shape_refuses_a_vanishing_or_hidden_f_h():
    # h = 1 and f_1(0) = 3 t^(-1/2) * 0 + 2 t^(1/2) * 0 = 0 exactly, at
    # v(x - c_0) = -1/2 before the threshold -1/4: the type is too shallow
    A = theta_type(2)
    f = parse_poly("(t^(-1/2))*X^3 + (t^(1/2))*X^2", 2)
    assert rel_degree(A, f).threshold == Fraction(-1, 4)
    d = Series.monomial(2, Fraction(1, 2))
    with pytest.raises(
        InsufficientPrecision, match=r"vanishes at v\(x - c\) = -1/2 .* -1/4"
    ):
        reduced_factor_shape(A, f, A.approximants[0], d)
    # over a window of one, f = X^3 + X^2 + c* X has h = 1, and f_1 = c* - X
    # vanishes at c = c*, of v(x - c*) = 1/2 past the threshold
    p = 3
    A = replace(theta_type(p), window=1)
    c = A.target.prefix(len(A.target.terms)) + Series.monomial(p, Fraction(1, 2))
    one = Series.one(p)
    d = Series.monomial(p, Fraction(-1, 2))
    f = ValPoly(p, (Series.zero(p), c, one, one))
    assert rel_degree(A, f).h == 1
    with pytest.raises(PreconditionError, match="h-th derivative vanishes"):
        reduced_factor_shape(A, f, c, d)
    # with c*'s coefficient known only below t, f_1(c*) = O(t)
    f = ValPoly(p, (Series.zero(p), c + Series.zero(p, 1), one, one))
    with pytest.raises(InsufficientPrecision, match="truncation hides f_1"):
        reduced_factor_shape(A, f, c, d)


def _shallow_type():
    return ApproxType.from_truncations(
        Series(2, [(Fraction(-1, 2), 1), (Fraction(-1, 4), 1)], 1),
        p_power_denominators(2),
        distance_hint=Cut.strictly_below(0),
        window=1,
    )


def test_factor_shape_on_a_too_shallow_type_is_a_refusal():
    # the envelope alone answers h = 1 (the law is h = 2) with the
    # threshold -1/8, which both tail approximants lie before
    A = _shallow_type()
    g = parse_poly(LATE_LAW_POLY, 2)
    rd = rel_degree(A, g)
    assert (rd.h, rd.threshold, rd.points) == (1, Fraction(-1, 8), ())
    for n in A.tail():
        gamma = A.gamma(n)
        with pytest.raises(
            InsufficientPrecision, match=rf"v\(x - c\) = {gamma} .* -1/8"
        ):
            reduced_factor_shape(
                A, g, A.approximants[n], Series.monomial(2, -gamma)
            )


def test_a_failing_shape_past_the_threshold_is_a_route_disagreement(monkeypatch):
    # at p = 2, gamma_0 = -1/2 is theta's threshold, and the shape there
    # holds; a shape that fails there is a refusal, past it a disagreement
    A = theta_type(2)
    f = theta_minpoly(2)
    assert rel_degree(A, f).threshold == A.gamma(0) == Fraction(-1, 2)
    shape = [1, 0, 1]
    for n in (0, A.tail()[-1]):
        d = Series.monomial(2, -A.gamma(n))
        assert reduced_factor_shape(A, f, A.approximants[n], d) == shape
    monkeypatch.setattr(reldeg, "_power_of_linear", lambda p, r, h, deg: [0, 0, 1])
    d = Series.monomial(2, -A.gamma(0))
    with pytest.raises(InsufficientPrecision, match="not \\(Z - 1\\)\\^2"):
        reduced_factor_shape(A, f, A.approximants[0], d)
    with pytest.raises(InternalInconsistency, match="not \\(Z - 1\\)\\^2"):
        tail_factor_shape(A, f)


# --- the sampled route's sums stop at the values they look for ---------------


def _criterion5_inputs(seed, count):
    """(type, f) pairs drawn as criterion 5 draws them, degree <= 8: random
    monomial polynomials, the minimal polynomial scaled and perturbed, and
    its multiples, over theta at p = 2, 3 (precision 12) and the value-0
    type A0; a tenth of the coefficients are truncated."""
    rng = random.Random(seed)
    thetas = {p: theta_type(p, precision=12) for p in (2, 3)}
    A0 = generic_immediate_type(
        3, [Fraction(0)] + [1 - Fraction(1, 3**i) for i in range(2, 9)],
        precision=6, boundary=Fraction(1),
    )

    def coeff(p):
        if rng.random() < 0.3:
            return Series.zero(p)
        e = Fraction(rng.randint(-4, 4), p ** rng.randint(0, 2))
        c = Series.monomial(p, e, rng.randint(1, p - 1))
        # now and then a coefficient known only up to a precision, which
        # hides some tail values
        if rng.random() < 0.1:
            c = c + Series.zero(p, e + Fraction(rng.randint(1, 4), p))
        return c

    def poly(p, max_deg):
        cs = [coeff(p) for _ in range(rng.randint(1, max_deg) + 1)]
        return ValPoly.make(p, cs[:-1] + [Series.one(p)])

    out = []
    while len(out) < count:
        kind = len(out) % 4
        p = 3 if kind == 3 else rng.choice([2, 3])
        A = A0 if kind == 3 else thetas[p]
        if kind == 0:
            f = poly(p, 8)
        elif kind == 1:
            f = theta_minpoly(p).scale(coeff(p) + Series.one(p)) + poly(p, p - 1)
        elif kind == 2:
            f = theta_minpoly(p) * poly(p, 3)
        else:
            f = poly(p, 8)
        if not f.is_zero and f.degree() >= 1:
            out.append((A, f))
    return out


def _lattice_step(A, f):
    """1/D for D the common exponent denominator of every full sum the
    sampled route reads: one step of the lattice its values lie on."""
    sums = [valpoly_power_sum(f, s, {}) for s in (A.target, *A.approximants)]
    return Fraction(1, math.lcm(*(s.den for s in sums)))


def _laws_to_try(h, beta, step):
    """The envelope's law, h one up and down (while >= 1), beta one
    lattice step up and down, and no law."""
    laws = [(h, beta), (h + 1, beta), (h, beta + step), (h, beta - step), None]
    return laws + ([(h - 1, beta)] if h > 1 else [])


class _SumSpy:
    """Counts the sampled route's sums, those that run in full (no
    ``through``) and the cut ones: while a law is in hand, each full one
    is a fallback to the full sums."""

    def __init__(self, monkeypatch):
        self.real, self.full, self.cut = reldeg.power_sum, 0, 0
        monkeypatch.setattr(reldeg, "power_sum", self)

    def __call__(self, f, x, powers, through=INF):
        if through is INF:
            self.full += 1
        else:
            self.cut += 1
        return self.real(f, x, powers, through)


def test_tail_values_do_not_depend_on_the_law_randomized(monkeypatch):
    # criterion-5 inputs: the points are identical with the true law, with
    # wrong ones and with none, past the threshold and over the whole tail
    spy = _SumSpy(monkeypatch)
    cases = hidden = fallbacks = 0
    for A, f in _criterion5_inputs(2727, 48):
        betas, _ = A.taylor_intercepts(f)
        if betas is None:
            continue
        h, beta, threshold = envelope_law(betas, A.distance())
        step = _lattice_step(A, f)
        for above in (threshold, None):
            want = reldeg._tail_values(A, f, above)
            tail = [n for n in A.tail() if above is None or A.gamma(n) > above]
            hidden += len(want) < len(tail)
            for law in _laws_to_try(h, beta, step):
                spy.full = 0
                assert reldeg._tail_values(A, f, above, law) == want, (f, law)
                fallbacks += law is not None and spy.full > 0
                cases += 1
    # the wrong laws reach the full sums, and some inputs hide a value
    assert cases > 300 and fallbacks > 20 and hidden > 0


def test_tail_values_with_a_law_skip_hidden_values_and_an_infinite_gamma():
    p = 2
    f = theta_minpoly(p)
    # a tail approximant known only below t^0 hides f(c_n) - f(x)
    A = theta_type(p)
    n = A.tail()[-2]
    approximants = list(A.approximants)
    approximants[n] = approximants[n].truncate(0)
    hidden = replace(A, approximants=tuple(approximants))
    # a coefficient known only below t^(-1) hides every value above it
    g = f + parse_poly("(O(t^(-1)))*X", p)
    # the last approximant is the target itself: gamma is infinite
    x = Series.make(p, [(-2, 1), (-1, 1)])
    trivial = ApproxType(x, p_power_denominators(p), (Series.zero(p), x.prefix(1), x))
    assert trivial.gammas()[-1] is INF
    for B, F in ((hidden, f), (A, g), (trivial, f)):
        want = reldeg._tail_values(B, F)
        assert len(want) < len(B.tail())
        for law in _laws_to_try(p, Fraction(0), Fraction(1, 64)):
            assert reldeg._tail_values(B, F, None, law) == want


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rel_degree_on_the_anchors_never_falls_back(p, monkeypatch):
    # every sum of the sampled route stops at the value it looks for
    spy = _SumSpy(monkeypatch)
    A = theta_type(p)
    rd = rel_degree(A, theta_minpoly(p))
    assert (rd.h, rd.beta, spy.full) == (p, 0, 0)
    assert spy.cut == rd.sampled_points + 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_law_too_low_costs_f_x_and_one_point_in_full(p, monkeypatch):
    # beta one lattice step down hides the deepest value: that point and
    # f(x) are summed in full, once, and every shallower point is cut
    # through the value found one point deeper
    A, f = theta_type(p), theta_minpoly(p)
    betas, _ = A.taylor_intercepts(f)
    h, beta, threshold = envelope_law(betas, A.distance())
    want = reldeg._tail_values(A, f, threshold)
    spy = _SumSpy(monkeypatch)
    low = (h, beta - _lattice_step(A, f))
    assert reldeg._tail_values(A, f, threshold, low) == want
    assert (spy.full, spy.cut) == (2, len(want) + 1)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_tail_values_without_a_law_chain_the_cut(p, monkeypatch):
    # f(x) and the deepest point in full; each shallower point is cut
    # through the value found one point deeper
    A, f = theta_type(p), theta_minpoly(p)
    betas, _ = A.taylor_intercepts(f)
    threshold = envelope_law(betas, A.distance())[2]
    spy = _SumSpy(monkeypatch)
    points = reldeg._tail_values(A, f, threshold)
    assert len(points) > 2
    assert (spy.full, spy.cut) == (2, len(points) - 1)


@pytest.mark.parametrize("shift", [1, -1])
def test_a_shifted_envelope_law_is_still_a_route_disagreement(shift, monkeypatch):
    # the law only says where the sums may stop: shifted down, the deepest
    # value is hidden and that point and f(x) are summed in full; either
    # way the sampled points follow the true law and the routes disagree
    p = 3
    A = theta_type(p)
    real = reldeg.envelope_law

    def shifted(betas, dist):
        h, beta, threshold = real(betas, dist)
        return h, beta + Fraction(shift, 27), threshold

    monkeypatch.setattr(reldeg, "envelope_law", shifted)
    spy = _SumSpy(monkeypatch)
    with pytest.raises(InternalInconsistency, match="envelope gives"):
        rel_degree(A, theta_minpoly(p))
    assert (spy.full > 0) == (shift < 0)
