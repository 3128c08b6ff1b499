import random
from fractions import Fraction
from math import comb

import pytest

from apxval import hahn, valpoly
from apxval.errors import PreconditionError
from apxval.hahn import Series, min_value
from apxval.ordval import INF
from apxval.curated import theta_minpoly, theta_type
from apxval.parsing import parse_poly
from apxval.valpoly import (
    ValPoly,
    binom_val,
    f_adic_expand,
    f_adic_reconstruct,
    formal_derivative,
    poly_divmod,
    power_sum,
    taylor_check,
    taylor_coefficients,
)


def random_series(rng, p, max_terms=3, max_den=6):
    terms = [
        (Fraction(rng.randint(-8, 8), rng.randint(1, max_den)), rng.randint(1, p - 1))
        for _ in range(rng.randint(0, max_terms))
    ]
    return Series.make(p, terms)


def random_poly(rng, p, max_deg, monic=False):
    deg = rng.randint(1, max_deg)
    coeffs = [random_series(rng, p) for _ in range(deg + 1)]
    if monic or coeffs[-1].is_exact_zero:
        coeffs[-1] = Series.one(p)
    return ValPoly.make(p, coeffs)


def artin_schreier(p):
    coeffs = [Series.zero(p)] * (p + 1)
    coeffs[1] = Series.monomial(p, 0, p - 1)
    coeffs[p] = Series.one(p)
    return ValPoly(p, tuple(coeffs))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_derivatives_of_artin_schreier(p):
    f = artin_schreier(p)  # X^p - X
    f1 = formal_derivative(f, 1)
    assert f1.degree() == 0 and f1.coeff(0).coeff(0) == p - 1
    for i in range(2, p):
        assert formal_derivative(f, i).is_zero
    fp = formal_derivative(f, p)
    assert fp.degree() == 0 and fp.coeff(0).coeff(0) == 1


def test_derivative_edges():
    p = 5
    f = ValPoly(p, (Series.zero(p), Series.zero(p), Series.one(p)))  # X^2
    assert formal_derivative(f, 0) == f
    d1 = formal_derivative(f, 1)
    assert d1.degree() == 1 and d1.coeff(1).coeff(0) == 2
    assert formal_derivative(f, 3).is_zero
    assert formal_derivative(ValPoly.zero(p), 0).is_zero
    with pytest.raises(PreconditionError, match="nonnegative"):
        formal_derivative(f, -1)


def test_the_zero_polynomial_takes_the_general_path():
    p = 3
    rng = random.Random(5)
    f = random_poly(rng, p, 5)
    zero = ValPoly.zero(p)
    assert zero * f == zero and f * zero == zero and zero * zero == zero
    c, x = random_series(rng, p), random_series(rng, p)
    assert taylor_coefficients(zero, c) == []
    assert taylor_coefficients(zero, c, start=2) == []
    assert taylor_check(zero, c, x)
    with pytest.raises(PreconditionError, match="nonnegative"):
        taylor_coefficients(zero, c, start=-1)


def test_the_constructor_drops_trailing_exact_zeros():
    # theta_minpoly(3) with one more coefficient, an exact zero, built raw
    p = 3
    f = theta_minpoly(p)
    g = ValPoly(p, f.coeffs + (Series.zero(p),))
    assert g == f and hash(g) == hash(f) and g.coeffs == f.coeffs
    assert g.degree() == 3 and (-g).degree() == 3 and -g == -f
    assert (g - f).is_zero and (g + ValPoly.zero(p)) == g
    A = theta_type(p)
    assert len(taylor_coefficients(g, A.approximants[-1])) == 4
    assert A.taylor_intercepts(g)[0] == [0, INF, 0]
    assert parse_poly(str(g), p) == g
    q, r = poly_divmod(f, g)
    assert q == ValPoly(p, (Series.one(p),)) and r.is_zero
    assert f_adic_expand(f * f, g) == [ValPoly.zero(p), ValPoly.zero(p), q]
    # a generator is taken as any iterable is; a truncated zero is kept
    hidden = Series.zero(p, Fraction(2))
    h = ValPoly(p, (c for c in (Series.one(p), hidden, Series.zero(p))))
    assert h.coeffs == (Series.one(p), hidden) and h.degree() == 1
    assert ValPoly(p, [Series.zero(p)] * 3) == ValPoly.zero(p)


def test_taylor_artin_schreier_identity():
    # f(X) - f(c) = (X - c)^p - (X - c)
    for p in (2, 3, 5):
        f = artin_schreier(p)
        rng = random.Random(p)
        c = random_series(rng, p)
        x = random_series(rng, p)
        assert taylor_check(f, c, x)


def test_taylor_at_zero_is_coefficients():
    p = 3
    rng = random.Random(1)
    f = random_poly(rng, p, 6)
    tab = taylor_coefficients(f, Series.zero(p))
    for i, fi in enumerate(tab):
        assert fi == f.coeff(i)


def test_taylor_check_randomized():
    rng = random.Random(42)
    for _ in range(1000):
        p = rng.choice([2, 3, 5])
        f = random_poly(rng, p, 8)
        c = random_series(rng, p)
        x = random_series(rng, p)
        assert taylor_check(f, c, x)


def test_taylor_check_sees_a_wrong_row(monkeypatch):
    # f(x) - sum_i f_i(c) (x - c)^i lies below both precisions, so any
    # term of it is a disagreement
    rng = random.Random(8)
    p = 3
    f, c, x = random_poly(rng, p, 4), random_series(rng, p), random_series(rng, p)
    assert taylor_check(f, c, x)
    rows = taylor_coefficients(f, c)
    wrong = rows[:1] + [rows[1] + Series.one(p)] + rows[2:]
    monkeypatch.setattr(valpoly, "taylor_coefficients", lambda f, c: wrong)
    assert not taylor_check(f, c, x)


def test_difference_is_the_sum_with_the_negation():
    rng = random.Random(9)
    for p in (2, 3, 5):
        f, g = random_poly(rng, p, 5), random_poly(rng, p, 3)
        assert f - g == f + (-g)
        # zero up to each coefficient's precision
        assert all(not c.terms for c in (f - f).coeffs)


def test_taylor_table_matches_derivatives():
    rng = random.Random(4)
    for _ in range(200):
        p = rng.choice([3, 5])
        f = random_poly(rng, p, 8)
        c = random_series(rng, p)
        tab = taylor_coefficients(f, c)
        for i in range(f.degree() + 1):
            assert tab[i] == formal_derivative(f, i)(c)


def test_taylor_identity_between_derivatives():
    # f_i(X) = sum_{j>=i} C(j,i) f_j(c) (X - c)^{j-i}
    rng = random.Random(8)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        f = random_poly(rng, p, 10)
        c = random_series(rng, p, max_terms=2)
        xc = ValPoly(p, (-c, Series.one(p)))
        tab = taylor_coefficients(f, c)
        for i in range(f.degree() + 1):
            expect = ValPoly.zero(p)
            power = ValPoly(p, (Series.one(p),))
            for j in range(i, f.degree() + 1):
                coeff = tab[j].scale(comb(j, i) % p)
                expect = expect + power.scale(coeff)
                power = power * xc
            assert expect == formal_derivative(f, i)


# --- Taylor tables against a synthetic-division reference ----------------


def synthetic_division_table(f, c):
    """Every f_i(c) by repeated synthetic division of f by (X - c): the
    final Horner value is the remainder f_i(c), the intermediate values
    are the quotient's coefficients."""
    if f.is_zero:
        return []
    work = list(f.coeffs)
    out = []
    while work:
        acc = Series.zero(f.p)
        quot = []
        for coeff in reversed(work):
            acc = acc * c + coeff
            quot.append(acc)
        out.append(quot.pop())
        quot.reverse()
        work = quot
    return out


def truncated_series(rng, p, max_terms=3):
    s = random_series(rng, p, max_terms)
    if rng.random() < 0.5:
        return s
    return s.truncate(Fraction(rng.randint(-4, 16), rng.randint(1, 4)))


def test_taylor_table_matches_synthetic_division_on_exact_inputs():
    rng = random.Random(404)
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        f = random_poly(rng, p, 10)
        c = random_series(rng, p)
        assert taylor_coefficients(f, c) == synthetic_division_table(f, c)


def test_taylor_table_agrees_with_synthetic_division_when_truncated():
    rng = random.Random(405)
    higher = 0
    for _ in range(600):
        p = rng.choice([2, 3, 5])
        deg = rng.randint(1, 8)
        coeffs = [truncated_series(rng, p) for _ in range(deg + 1)]
        if coeffs[-1].is_exact_zero:
            coeffs[-1] = Series.one(p)
        f = ValPoly.make(p, coeffs)
        c = truncated_series(rng, p)
        tab = taylor_coefficients(f, c)
        # the rows from f_1 on alone, built from the powers they read
        powers = []
        assert taylor_coefficients(f, c, powers, start=1) == tab[1:]
        assert len(powers) == taylor_reach(f, 1)
        for got, ref in zip(tab, synthetic_division_table(f, c)):
            common = min_value(got.precision, ref.precision)
            assert got.truncate(common) == ref.truncate(common)
            # the binomial sums never know less than the reference
            assert got.precision >= ref.precision
            higher += got.precision != ref.precision
    assert higher  # the seeded inputs do reach the lossier reference


def test_truncated_zero_coefficient_still_bounds_precision():
    p = 3
    # f = X^2 + O(t)*X + 1 at c = t^-2: C(1,0) = 1, so the unknown middle
    # coefficient leaves f(c) known only below v(c) + 1 = -1
    f = ValPoly(p, (Series.one(p), Series.zero(p, Fraction(1)), Series.one(p)))
    c = Series.monomial(p, -2)
    tab = taylor_coefficients(f, c)
    assert tab[0].precision == -1
    assert tab[1].precision == 1
    assert tab[2] == Series.one(p)
    assert tab == synthetic_division_table(f, c)


def test_truncated_coefficient_with_vanishing_binomial_contributes_nothing():
    p = 2
    # f = (1 + O(t^5)) X^2 + t X: f_1(c) = t + C(2,1) a_2 c = t exactly in
    # characteristic 2, however little of a_2 is known
    a2 = Series.make(p, [(0, 1)], Fraction(5))
    f = ValPoly(p, (Series.zero(p), Series.monomial(p, 1), a2))
    c = Series.monomial(p, -1)
    tab = taylor_coefficients(f, c)
    assert tab[1] == Series.monomial(p, 1)
    assert tab[0].precision == 3  # C(2,0) = 1: a_2 c^2 is known below 5 - 2
    assert synthetic_division_table(f, c)[1].precision is not INF


def test_shared_powers_match_fresh_tables():
    rng = random.Random(406)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        c = truncated_series(rng, p)
        powers = []
        for deg in (3, 8, 2, 11, 5, 1, 9):
            coeffs = [truncated_series(rng, p) for _ in range(deg + 1)]
            coeffs[-1] = Series.one(p)
            f = ValPoly(p, tuple(coeffs))
            fresh = taylor_coefficients(f, c)
            assert taylor_coefficients(f, c, powers, start=1) == fresh[1:]
            assert taylor_coefficients(f, c, powers) == fresh
        assert len(powers) == 11 and powers[0] is c
        with pytest.raises(PreconditionError):
            taylor_coefficients(f, c, start=-1)
        for k in range(1, 11):
            assert powers[k] == powers[k - 1] * c


def taylor_reach(f, start):
    """The largest j - i over the terms C(j,i) a_j c^(j-i) of the rows
    i >= start with C(j,i) != 0 mod p and a_j not an exact zero; 0 when no
    row reads a power of c."""
    n = len(f.coeffs)
    return max(
        (
            j - i
            for i in range(start, n)
            for j in range(i + 1, n)
            if comb(j, i) % f.p and not f.coeffs[j].is_exact_zero
        ),
        default=0,
    )


def power_keys(f):
    """The k with x^k in a power_sum cache after f: each k >= 1 with a_k
    not an exact zero, and x^(k/p) where p | k, else x^ceil(k/2) and
    x^floor(k/2), down to x itself."""
    todo = [k for k, a in enumerate(f.coeffs) if k and not a.is_exact_zero]
    keys = set()
    while todo:
        k = todo.pop()
        if k not in keys:
            keys.add(k)
            if k > 1:
                todo += [k // f.p] if k % f.p == 0 else [k - k // 2, k // 2]
    return keys


def horner(f, x):
    """f(x) by Horner's scheme, the reference kept apart from the library's
    one evaluator: each step multiplies the whole accumulator by x."""
    acc = Series.zero(f.p)
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def test_power_sum_equals_horner_randomized():
    # Horner is the reference: equal terms and equal precision, for
    # power_sum over a shared list, over a fresh one, and for f(x)
    rng = random.Random(407)
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        make = truncated_series if rng.random() < 0.7 else random_series
        x = make(rng, p)
        powers = {}
        keys = set()
        # one shared power dict across degrees, as the type's cache holds it
        for deg in (4, 0, 9, 2, 12, 6):
            coeffs = [make(rng, p) for _ in range(deg)] + [Series.one(p)]
            if deg:
                coeffs[rng.randrange(deg)] = Series.zero(p)
            f = ValPoly(p, tuple(coeffs))
            ref = horner(f, x)
            assert power_sum(f, x, powers) == ref
            assert power_sum(f, x, {}) == ref
            assert f(x) == ref
            keys |= power_keys(f)
        assert set(powers) == keys and powers[1] is x
        for k, x_k in powers.items():
            assert x_k == x**k
    # degrees from 2p to p^2 at p = 5 and 7: x^p, x^(2p) and x^(p^2) are
    # the Frobenius images of x, x^2 and x^p
    for trial in range(40):
        p = (5, 7)[trial % 2]
        make = truncated_series if trial % 4 < 3 else random_series
        x = make(rng, p)
        powers = {}
        keys = set()
        for deg in (2 * p, p * p, 2 * p + 1):
            coeffs = [make(rng, p) for _ in range(deg)] + [Series.one(p)]
            f = ValPoly(p, tuple(coeffs))
            ref = horner(f, x)
            assert power_sum(f, x, powers) == ref
            assert power_sum(f, x, {}) == ref
            keys |= power_keys(f)
        assert set(powers) == keys and {p, p * p} <= keys
    assert power_sum(ValPoly.zero(3), Series.monomial(3, 1), {}) == Series.zero(3)
    assert ValPoly.zero(3)(Series.monomial(3, 1)) == Series.zero(3)


def test_power_sum_through_keeps_the_terms_and_the_powers_randomized():
    # a sum cut at ``through`` has the full sum's terms up to it, shows
    # every value up to it that the full sum shows, and enters the same
    # whole powers in its dict
    rng = random.Random(2729)
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        make = truncated_series if rng.random() < 0.7 else random_series
        x = make(rng, p)
        deg = rng.randint(1, 9)
        f = ValPoly(p, tuple([make(rng, p) for _ in range(deg)] + [Series.one(p)]))
        through = Fraction(rng.randint(-24, 24), rng.choice([1, 2, 3, 4]))
        full_powers, cut_powers = {}, {}
        full = power_sum(f, x, full_powers)
        cut = power_sum(f, x, cut_powers, through=through)
        assert cut.terms == tuple(t for t in full.terms if t[0] <= through)
        assert cut.precision > through or cut.precision == full.precision
        assert cut_powers == full_powers


def sparse_poly(rng, p, deg):
    """Degree ``deg`` with many exact-zero and truncated-zero coefficients
    below the monic top."""
    coeffs = []
    for _ in range(deg):
        r = rng.random()
        if r < 0.4:
            coeffs.append(Series.zero(p))
        elif r < 0.6:
            coeffs.append(Series.zero(p, Fraction(rng.randint(-6, 12), rng.randint(1, 3))))
        else:
            coeffs.append(truncated_series(rng, p))
    return ValPoly(p, (*coeffs, Series.one(p)))


def test_on_demand_powers_match_the_full_chain_randomized():
    # power_sum and the Taylor rows read only the powers a term needs; the
    # references build every power as c^(k-1) * c and use them all
    rng = random.Random(408)
    truncated_zero_read = 0
    for _ in range(400):
        p = rng.choice([2, 3, 5])
        deg = rng.randint(1, 12)
        f = sparse_poly(rng, p, deg)
        x = truncated_series(rng, p)
        chain = [Series.one(p), x]
        while len(chain) <= deg:
            chain.append(chain[-1] * x)
        want = Series.zero(p)
        for a, x_k in zip(f.coeffs, chain):
            if not a.is_exact_zero:
                want = want + a * x_k
        powers = {}
        got = power_sum(f, x, powers)
        assert got == want and got.precision == want.precision
        assert got == horner(f, x)
        assert set(powers) == power_keys(f)
        for k, x_k in powers.items():
            assert x_k == chain[k]
        start = rng.choice([0, 1])
        rows = []
        for i in range(start, deg + 1):
            acc = f.coeffs[i]
            for j in range(i + 1, deg + 1):
                b = comb(j, i) % p
                if b and not f.coeffs[j].is_exact_zero:
                    acc = acc + f.coeffs[j].scale(b) * chain[j - i]
            rows.append(acc)
        taylor = []
        got_rows = taylor_coefficients(f, x, taylor, start=start)
        assert got_rows == rows
        assert [r.precision for r in got_rows] == [r.precision for r in rows]
        assert taylor == chain[1 : taylor_reach(f, start) + 1]
        truncated_zero_read += any(
            not a.exps and a.precision is not INF for a in f.coeffs[1:]
        )
    assert truncated_zero_read > 100


def test_power_sum_takes_powers_divisible_by_p_from_frobenius(monkeypatch):
    # at p = 2 a fresh list for degree 4 forms one product, x^3 = x^2 * x,
    # and the final dot: x^2 and x^4 are Frobenius images, no convolution
    p = 2
    x = Series.make(p, [(0, 1), (Fraction(1, 3), 1), (1, 1)], Fraction(4))
    a = Series.make(p, [(0, 1), (Fraction(1, 2), 1)])
    f = ValPoly(p, (a,) * 5)
    convolved, images = [], []
    convolve, frobenius = hahn._convolve, Series.frobenius

    def counted_convolve(pairs, cutoff, p):
        convolved.append(len(pairs))
        return convolve(pairs, cutoff, p)

    def counted_frobenius(y):
        images.append(y)
        return frobenius(y)

    monkeypatch.setattr(hahn, "_convolve", counted_convolve)
    monkeypatch.setattr(Series, "frobenius", counted_frobenius)
    powers = {}
    got = power_sum(f, x, powers)
    assert convolved == [1, 5]  # x^3, then the dot of five pairs
    assert len(images) == 2
    assert images[0] is powers[1] and images[1] is powers[2]
    assert set(powers) == {1, 2, 3, 4}
    # a + a X^4 reads x^4 alone, which two Frobenius images reach: no
    # product but the dot of its two pairs
    sparse = ValPoly(p, (a, Series.zero(p), Series.zero(p), Series.zero(p), a))
    convolved.clear()
    images.clear()
    powers = {}
    got_sparse = power_sum(sparse, x, powers)
    assert convolved == [2] and len(images) == 2
    assert set(powers) == {1, 2, 4}
    monkeypatch.undo()
    assert got == horner(f, x)
    assert got_sparse == horner(sparse, x)


def test_f_adic_by_construction():
    p = 3
    f = ValPoly(
        p, (Series.monomial(p, -1), Series.zero(p), Series.one(p))
    )  # X^2 + 1/t
    x = ValPoly.make(p, [Series.zero(p), Series.one(p)])
    one = ValPoly(p, (Series.one(p),))
    g = f * f + x * f + one
    digits = f_adic_expand(g, f)
    assert digits[0] == one
    assert digits[1] == x
    assert digits[2] == one


def test_f_adic_small_degree():
    p = 3
    f = ValPoly(p, (Series.one(p), Series.zero(p), Series.one(p)))
    g = ValPoly.make(p, [Series.zero(p), Series.one(p)])
    assert f_adic_expand(g, f) == [g]


def test_f_adic_round_trip_randomized():
    rng = random.Random(77)
    for _ in range(1000):
        p = rng.choice([2, 3, 5])
        f = random_poly(rng, p, 4, monic=True)
        g = random_poly(rng, p, 12)
        digits = f_adic_expand(g, f)
        assert all(d.is_zero or d.degree() < f.degree() for d in digits)
        assert f_adic_reconstruct(digits, f) == g


def test_poly_divmod_exact():
    rng = random.Random(13)
    for _ in range(300):
        p = rng.choice([3, 5])
        f = random_poly(rng, p, 4, monic=True)
        q = random_poly(rng, p, 5)
        r = random_poly(rng, p, min(3, f.degree()))
        if not r.is_zero and r.degree() >= f.degree():
            continue
        g = q * f + r
        q2, r2 = poly_divmod(g, f)
        assert q2 == q and r2 == r


def test_poly_divmod_refuses_a_divisor_without_an_exact_monomial_lead():
    p = 3
    X = ValPoly.make(p, [Series.zero(p), Series.one(p)])
    g = X * X + X
    for text in ("t + t^2", "t + O(t^3)", "O(t^2)"):
        lead = parse_poly(f"({text})", p)
        with pytest.raises(PreconditionError, match="exact monomial"):
            poly_divmod(g, X * lead)
    q, r = poly_divmod(g, X.scale(Series.monomial(p, 1, 2)))
    assert q.scale(Series.monomial(p, 1, 2)) * X + r == g
    with pytest.raises(PreconditionError, match="zero polynomial"):
        poly_divmod(g, ValPoly.zero(p))
    with pytest.raises(PreconditionError, match="zero polynomial"):
        ValPoly.zero(p).degree()
    with pytest.raises(PreconditionError, match="degree >= 1"):
        f_adic_expand(g, ValPoly(p, (Series.one(p),)))


def test_binom_val_examples():
    assert binom_val(2, 1, 3) == 0  # C(6,2) = 15
    assert binom_val(3, 2, 2) == 0  # C(18,9)
    assert binom_val(5, 0, 7) == 0  # C(7,1) = 7


def test_binom_val_rejects():
    with pytest.raises(PreconditionError):
        binom_val(3, 1, 6)


def test_binom_val_exhaustive_grid():
    for p in (2, 3, 5):
        for t in range(5):
            for r in range(2, 10):
                if r % p == 0:
                    continue
                assert binom_val(p, t, r) == 0
