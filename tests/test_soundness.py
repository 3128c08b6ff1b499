"""Precision soundness: an operation on truncated operands never claims a
term it cannot know.  Each trial draws exact operands, truncates them at
random precisions, and checks that op(truncated) equals op(exact) at every
exponent below op(truncated).precision, which is what ``==`` against the
exact result truncated there states."""

import random
from fractions import Fraction

from apxval.hahn import Series, dot, invert
from apxval.ordval import INF
from apxval.valpoly import ValPoly, power_sum, taylor_coefficients


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
        pairs.append(("power_sum", power_sum(tf, ta, []), power_sum(f, a, [])))
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
