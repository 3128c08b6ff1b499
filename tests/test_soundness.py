"""Precision soundness: an operation on truncated operands never claims a
term it cannot know.  Each trial draws exact operands, truncates them at
random precisions, and checks that op(truncated) equals op(exact) at every
exponent below op(truncated).precision, which is what ``==`` against the
exact result truncated there states.  At the law level, a deeper
truncation of the theta target gives the same (h, beta) or a refusal.

Tightness: how much precision a kernel gives away against a known-true
bound, measured so far for ``frobenius``."""

import random
from fractions import Fraction

from apxval.curated import theta_minpoly, theta_type
from apxval.errors import ApxError, InternalInconsistency
from apxval.hahn import Series, dot, invert
from apxval.ordval import INF
from apxval.reldeg import rel_degree
from apxval.valpoly import (
    ValPoly,
    f_adic_expand,
    poly_divmod,
    power_sum,
    taylor_coefficients,
)


def exact_series(rng, p):
    dens = (1, 2, 3, p, p * p)
    terms = [
        (Fraction(rng.randint(-6, 12), rng.choice(dens)), rng.randint(1, p - 1))
        for _ in range(rng.randint(0, 4))
    ]
    return Series.make(p, terms)


def truncated(rng, s):
    """``s`` cut at a random precision near its terms, or left exact."""
    if rng.random() < 0.2:
        return s
    lo = s.terms[0][0] if s.terms else Fraction(0)
    return s.truncate(lo + Fraction(rng.randint(-2, 12), rng.choice((1, 2, 4))))


def sound(approx, exact):
    """approx agrees with exact below approx's precision."""
    return approx == exact.truncate(approx.precision)


def test_truncated_operands_give_sound_results_randomized():
    rng = random.Random(20130401)
    checked = 0
    for trial in range(800):
        p = (2, 3, 5, 7)[trial % 4]
        a, b = exact_series(rng, p), exact_series(rng, p)
        ta, tb = truncated(rng, a), truncated(rng, b)
        pairs = [
            ("+", ta + tb, a + b),
            ("-", ta - tb, a - b),
            ("*", ta * tb, a * b),
            ("**", ta ** 3, a ** 3),
            ("frobenius", ta.frobenius(), a.frobenius()),
        ]
        xs = [exact_series(rng, p) for _ in range(3)]
        ys = [exact_series(rng, p) for _ in range(3)]
        txs = [truncated(rng, x) for x in xs]
        tys = [truncated(rng, y) for y in ys]
        pairs.append(("dot", dot(txs, tys), dot(xs, ys)))
        if ta.terms and ta.precision is not INF:
            # the exact operand's inverse, computed past the precision of
            # the truncated operand's
            pairs.append(
                ("invert", invert(ta, ta.precision), invert(a, ta.precision + 4))
            )
        f = ValPoly.make(p, [exact_series(rng, p) for _ in range(rng.randint(1, 4))])
        tf = ValPoly.make(p, [truncated(rng, c) for c in f.coeffs])
        pairs.append(("power_sum", power_sum(tf, ta, {}), power_sum(f, a, {})))
        if not f.is_zero:
            exact = taylor_coefficients(f, a)
            pairs += [
                ("taylor", got, want)
                for got, want in zip(taylor_coefficients(tf, ta), exact)
            ]
        for op, got, want in pairs:
            assert sound(got, want), (op, p, a, b, ta, tb, got, want)
        checked += len(pairs)
    assert checked > 6000


def test_frobenius_precision_against_the_true_bound_randomized():
    # (y + e)^p = y^p + e^p, so the image of a truncated y is known below
    # p * prec(y); frobenius claims the product chain's (p - 1) v(y) +
    # prec(y), which gives away (p - 1) (prec(y) - v(y)) when y has terms
    rng = random.Random(20140917)
    gaps = lost = 0
    for trial in range(800):
        p = (2, 3, 5, 7)[trial % 4]
        y = exact_series(rng, p)
        ty = truncated(rng, y)
        if ty.precision is INF:
            continue
        true = p * ty.precision
        image = Series.make(p, [(e * p, c) for e, c in ty.terms], true)
        assert image == (y**p).truncate(true), (p, y, ty)
        got = ty.frobenius()
        gap = true - got.precision
        assert gap == ((p - 1) * (ty.precision - ty.val()) if ty.terms else 0)
        assert got == image.truncate(got.precision)
        gaps += gap > 0
        lost += len(image.terms) - len(got.terms)
    # most operands have terms, and their images lose known terms
    assert gaps > 400 and lost > 100


def coeff_pairs(op, got, want):
    """(op, got coefficient, exact coefficient) for every degree of either
    polynomial, a missing coefficient standing in as an exact zero."""
    n = max(len(got.coeffs), len(want.coeffs))
    return [(op, got.coeff(i), want.coeff(i)) for i in range(n)]


def exact_poly(rng, p, max_deg):
    return ValPoly.make(
        p, [exact_series(rng, p) for _ in range(rng.randint(1, max_deg + 1))]
    )


def test_division_expansion_and_composition_are_sound_randomized():
    # poly_divmod needs an exact monomial as the divisor's leading
    # coefficient, so only the divisor's lower coefficients are truncated
    rng = random.Random(19420901)
    checked = 0
    for trial in range(300):
        p = (2, 3, 5, 7)[trial % 4]
        g = exact_poly(rng, p, 5)
        e = Fraction(rng.randint(-3, 3), rng.choice((1, p)))
        lead = Series.monomial(p, e, rng.randint(1, p - 1))
        lower = [exact_series(rng, p) for _ in range(rng.randint(1, 3))]
        f = ValPoly.make(p, [*lower, lead])
        h = exact_poly(rng, p, 2)
        tg, th = (
            ValPoly.make(p, [truncated(rng, c) for c in u.coeffs]) for u in (g, h)
        )
        tf = ValPoly.make(p, [*(truncated(rng, c) for c in f.coeffs[:-1]), lead])
        (tq, tr), (q, r) = poly_divmod(tg, tf), poly_divmod(g, f)
        pairs = coeff_pairs("quotient", tq, q) + coeff_pairs("remainder", tr, r)
        got, want = f_adic_expand(tg, tf), f_adic_expand(g, f)
        zero = ValPoly.zero(p)
        for i in range(max(len(got), len(want))):
            pairs += coeff_pairs(
                f"digit {i}",
                got[i] if i < len(got) else zero,
                want[i] if i < len(want) else zero,
            )
        pairs += coeff_pairs("compose", tg.compose(th), g.compose(h))
        for op, got, want in pairs:
            assert sound(got, want), (op, p, g, f, h, tg, tf, th, got, want)
        checked += len(pairs)
    assert checked > 2500


def monomial_poly(rng, p, max_deg):
    """Degree 1..max_deg, each coefficient zero or a monomial."""
    coeffs = [
        Series.zero(p) if rng.random() < 0.3 else Series.monomial(
            p, Fraction(rng.randint(-4, 4), p ** rng.randint(0, 2)),
            rng.randint(1, p - 1),
        )
        for _ in range(rng.randint(1, max_deg) + 1)
    ]
    if coeffs[-1].is_exact_zero:
        coeffs[-1] = Series.one(p)
    return ValPoly.make(p, coeffs)


def test_deeper_theta_truncations_give_the_same_law_or_refuse():
    # the theta target known to O(t^P): a deeper truncation may let the
    # library answer where a shallower one refused, but never changes the
    # law it reports, and never finds the two routes disagreeing
    rng = random.Random(13040200)
    precisions = (1, 4, 12)
    types = {
        (p, P): theta_type(p, precision=P) for p in (2, 3) for P in precisions
    }
    answered = 0
    for trial in range(150):
        p = (2, 3)[trial % 2]
        g = monomial_poly(rng, p, 6)
        if trial % 3 == 0:
            g = theta_minpoly(p) * g
        laws = set()
        for P in precisions:
            try:
                rd = rel_degree(types[p, P], g)
            except InternalInconsistency:
                raise
            except ApxError:
                continue
            laws.add((rd.h, rd.beta))
            answered += 1
        assert len(laws) <= 1, (p, g, laws)
    assert answered > 400
