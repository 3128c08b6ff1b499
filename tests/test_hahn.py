import math
import pickle
import random
from fractions import Fraction

import pytest

from apxval import hahn
from apxval.errors import (
    IndeterminateValuation,
    InsufficientPrecision,
    NotRepresentable,
    PreconditionError,
)
from apxval.hahn import (
    Series,
    dot,
    integers_predicate,
    invert,
    min_value,
    p_power_denominators,
    truncate_to_subfield,
    val_diff,
)
from apxval.ordval import INF
from apxval.tamegal import TameCyclic


def random_series(rng, p, max_terms=12, max_den=60, exact=True):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        e = Fraction(rng.randint(-30, 30), rng.randint(1, max_den))
        terms.append((e, rng.randint(1, p - 1)))
    prec = INF if exact else Fraction(rng.randint(10, 40))
    return Series.make(p, terms, prec)


def test_val_basic():
    p = 5
    s = Series.make(p, [(Fraction(-1, 2), 1), (1, 1)])
    assert s.val() == Fraction(-1, 2)
    assert Series.zero(p).val() is INF
    with pytest.raises(IndeterminateValuation):
        Series.zero(p, Fraction(3)).val()


def test_add_cancellation_and_mul():
    p = 5
    a = Series.make(p, [(-1, 1), (0, 1)])
    b = Series.make(p, [(-1, p - 1)])
    assert (a + b).terms == ((Fraction(0), 1),)
    x = Series.monomial(p, Fraction(1, 2)) * Series.monomial(p, Fraction(1, 3))
    assert x.terms == ((Fraction(5, 6), 1),)


def test_ultrametric_equality_when_values_differ():
    p = 3
    a = Series.make(p, [(-1, 2)])
    b = Series.make(p, [(0, 1)])
    assert (a + b).val() == -1


def test_precision_propagation():
    p = 3
    a = Series.make(p, [(0, 1)], Fraction(2))
    b = Series.make(p, [(1, 1)], Fraction(5))
    assert (a + b).precision == 2
    prod = a * b
    # min(va + prec_b, vb + prec_a) = min(0 + 5, 1 + 2)
    assert prod.precision == 3


def test_ultrametric_randomized():
    rng = random.Random(2024)
    p = 5
    for _ in range(10_000):
        a = random_series(rng, p, max_terms=6)
        b = random_series(rng, p, max_terms=6)
        va = a.val()
        vb = b.val()
        vs = (a + b).val()
        assert vs >= min(va, vb)
        if va != vb:
            assert vs == min(va, vb)
        if va is not INF and vb is not INF:
            assert (a * b).val() == va + vb


def test_ring_laws_randomized():
    rng = random.Random(99)
    p = 3
    for _ in range(1000):
        a = random_series(rng, p, max_terms=5, max_den=12)
        b = random_series(rng, p, max_terms=5, max_den=12)
        c = random_series(rng, p, max_terms=5, max_den=12)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a


def test_invert_monomial_and_geometric():
    p = 5
    assert invert(Series.monomial(p, Fraction(1, 2)), INF).terms == (
        (Fraction(-1, 2), 1),
    )
    a = Series.make(p, [(0, 1), (1, 1)])
    inv = invert(a, Fraction(4))
    expected = Series.make(p, [(0, 1), (1, p - 1), (2, 1), (3, p - 1)])
    assert inv.truncate(Fraction(4)).terms == expected.terms
    t_shift = Series.make(p, [(1, 1), (2, 1)])
    inv2 = invert(t_shift, Fraction(4))
    rem = t_shift * inv2 - Series.one(p)
    assert (not rem.terms) or rem.terms[0][0] >= 4 - 1


def test_invert_round_trip_randomized():
    rng = random.Random(5)
    p = 5
    for _ in range(1000):
        a = random_series(rng, p, max_terms=6, max_den=10)
        if not a.terms:
            continue
        target = a.val() + rng.randint(1, 8)
        inv = invert(a, target)
        rem = a * inv - Series.one(p)
        if rem.terms:
            assert rem.terms[0][0] >= target - a.val()


def test_invert_requires_precision():
    p = 3
    a = Series.make(p, [(0, 1)], Fraction(2))
    with pytest.raises(InsufficientPrecision):
        invert(a, Fraction(5))
    with pytest.raises(PreconditionError, match="cannot invert zero"):
        invert(Series.zero(p), INF)


def test_residue():
    p = 5
    assert Series.make(p, [(0, 1), (1, 1)]).residue() == 1
    assert Series.monomial(p, Fraction(1, 2)).residue() == 0
    assert Series.make(p, [(0, 3), (2, 1)]).residue() == 3
    with pytest.raises(PreconditionError, match="negative-value series"):
        Series.monomial(p, -1).residue()
    with pytest.raises(InsufficientPrecision, match="does not reach exponent 0"):
        Series.zero(p, 0).residue()


def test_truncate_to_subfield_theta_prefix():
    p = 3
    pred = p_power_denominators(p)
    theta = Series.make(
        p, [(Fraction(-1, p**i), 1) for i in range(1, 9)], Fraction(1)
    )
    alpha = Fraction(-1, p**3)
    c = truncate_to_subfield(theta, pred, alpha)
    assert len(c.terms) == 2
    assert (theta - c).val() == alpha


def test_truncate_to_subfield_edges():
    p = 3
    pred = integers_predicate()
    x = Series.monomial(p, Fraction(1, 2))
    assert truncate_to_subfield(x, pred, x.val()).is_exact_zero
    with pytest.raises(NotRepresentable):
        truncate_to_subfield(x, pred, Fraction(1))
    # a truncated series has no exact truncation, nor one past its precision
    y = Series.make(p, [(0, 1)], Fraction(2))
    assert truncate_to_subfield(y, pred, Fraction(2)) == Series.one(p)
    with pytest.raises(InsufficientPrecision, match="exact truncation"):
        truncate_to_subfield(y, pred, INF)
    with pytest.raises(InsufficientPrecision, match="alpha 3 beyond precision 2"):
        truncate_to_subfield(y, pred, Fraction(3))


def test_subfield_predicates_compare_by_name():
    from apxval.curated import theta_type
    from apxval.hahn import resolve_predicate

    a, b = theta_type(3), theta_type(3)
    assert a.ground == b.ground and hash(a.ground) == hash(b.ground)
    assert a == b and hash(a) == hash(b)
    assert theta_type(2) != theta_type(3)
    assert theta_type(2).ground != theta_type(3).ground
    assert resolve_predicate("Z[1/p]", 3) == p_power_denominators(3)
    assert resolve_predicate("div6", 3) != resolve_predicate("div4", 3)


def assert_series_invariants(s):
    """Strictly increasing exponents, coefficients in 1..p-1, all below
    precision: what the merge in ``+`` and the cutoff in ``*`` rely on.
    Checked on the stored tuples ``exps`` and ``coeffs`` and on the
    ``terms`` view built from them."""
    exps, coeffs = s.exps, s.coeffs
    assert type(exps) is tuple and type(coeffs) is tuple, (exps, coeffs)
    assert all(type(k) is int for k in exps + coeffs), (exps, coeffs)
    assert len(exps) == len(coeffs), (exps, coeffs)
    assert all(x < y for x, y in zip(exps, exps[1:])), exps
    assert all(1 <= c < s.p for c in coeffs), coeffs
    cut = hahn._cutoff(s.precision, s.den)
    assert not exps or cut is None or exps[-1] < cut, (exps, s.den, s.precision)
    terms = [e for e, _ in s.terms]
    assert all(x < y for x, y in zip(terms, terms[1:])), s.terms
    assert all(1 <= c < s.p for _, c in s.terms), s.terms
    assert all(e < s.precision for e in terms), (s.terms, s.precision)


def assert_pickle_round_trip(s):
    """``__reduce__`` rebuilds the same stored tuples, denominator and
    precision, and a series equal to and hashing like ``s``."""
    again = pickle.loads(pickle.dumps(s))
    assert (again.exps, again.coeffs, again.den, again.precision) == (
        s.exps, s.coeffs, s.den, s.precision
    )
    assert again == s and hash(again) == hash(s)
    assert_series_invariants(again)


def differential_operand(rng, p):
    """Exact or truncated; term exponents in (1/den)Z; precisions whose
    denominator need not divide den (e.g. O(t^(7/4)) against (1/6)Z)."""
    den = rng.choice([1, 2, 3, 6])
    terms = [
        (Fraction(rng.randint(-24, 24), den), rng.randint(1, p - 1))
        for _ in range(rng.randint(0, 8))
    ]
    if rng.random() < 0.3:
        prec = INF
    else:
        prec = Fraction(rng.randint(-12, 60), rng.choice([1, 4, 5, 7]))
    return Series.make(p, terms, prec)


def _val_or_raise(thunk):
    """thunk()'s value, or the IndeterminateValuation message it raised."""
    try:
        return thunk()
    except IndeterminateValuation as exc:
        return ("raised", str(exc))


def _sharing_pair(rng, p):
    """Two series agreeing on a long prefix: a, and a's first k terms
    followed by a random tail, either side exact or truncated."""
    a = random_series(rng, p, max_terms=30, max_den=rng.choice([1, 4, 12, 60]),
                      exact=rng.random() < 0.4)
    k = rng.randint(0, len(a.exps))
    head = a.prefix(k)
    tail = random_series(rng, p, max_terms=4, max_den=rng.choice([1, 3, 7]))
    if head.exps and tail.exps:
        tail = tail.shift(head.val() - tail.val() + Fraction(rng.randint(0, 6), 5))
    b = head + tail
    if rng.random() < 0.6:
        b = b.truncate(Fraction(rng.randint(-10, 40), rng.choice([1, 2, 9])))
    return (a, b) if rng.random() < 0.5 else (b, a)


def test_val_diff_equals_the_value_of_the_difference_randomized():
    # the reference forms a - b; val_diff must agree on every value and on
    # every raise, message included
    rng = random.Random(20261020)
    raised = shared = 0
    for trial in range(6000):
        p = (2, 3, 5, 7)[trial % 4]
        if trial % 3 == 0:
            a, b = _sharing_pair(rng, p)
            shared += 1
        else:
            a = differential_operand(rng, p)
            b = differential_operand(rng, p) if rng.random() < 0.7 else a
        want = _val_or_raise(lambda: (a - b).val())
        assert _val_or_raise(lambda: val_diff(a, b)) == want, (a, b)
        raised += isinstance(want, tuple)
    assert raised > 300 and shared == 2000
    with pytest.raises(PreconditionError, match="mixed primes"):
        val_diff(Series.one(2), Series.one(3))


def test_val_diff_on_the_images_of_a_theta_type():
    # f(x) and f(c_n) share a prefix that grows along the tail
    from apxval.curated import theta_minpoly, theta_type

    for p in (2, 3, 5):
        A = theta_type(p)
        f = theta_minpoly(p)
        fx = f(A.target)
        for c in A.approximants:
            fc = f(c)
            want = _val_or_raise(lambda: (fx - fc).val())
            assert _val_or_raise(lambda: val_diff(fx, fc)) == want
            assert _val_or_raise(lambda: val_diff(fc, fx)) == want


def test_add_mul_match_make_definition_randomized():
    rng = random.Random(31337)
    for trial in range(4000):
        p = rng.choice([2, 3, 5])
        a = differential_operand(rng, p)
        kind = trial % 4
        if kind == 0:
            b = differential_operand(rng, p)
        elif kind == 1:
            # exact cancellation mod p on a's terms, plus a few of its own
            extra = differential_operand(rng, p)
            b = Series.make(
                p,
                [(e, p - c) for e, c in a.terms] + list(extra.terms),
                extra.precision,
            )
        elif kind == 2:
            b = Series.zero(
                p, rng.choice([INF, Fraction(rng.randint(-6, 30), 4)])
            )
        else:
            b = a.truncate(
                Fraction(rng.randint(-12, 40), rng.choice([3, 4, 7]))
            )
        if rng.random() < 0.5:
            a, b = b, a
        for x in (a, b):
            assert_series_invariants(x)

        total = a + b
        assert_series_invariants(total)
        assert total == Series.make(
            p, a.terms + b.terms, min_value(a.precision, b.precision)
        )

        prod = a * b
        assert_series_invariants(prod)
        assert prod == Series.make(
            p,
            [(ea + eb, ca * cb) for ea, ca in a.terms for eb, cb in b.terms],
            a._mul_precision(b),
        )


def fraction_mul_precision(a, b):
    """The product's precision by Fraction arithmetic: v(a) + prec(b) and
    v(b) + prec(a), a precision standing in for the value of an operand
    without terms; INF if both are exact or either is an exact zero."""
    if a.is_exact_zero or b.is_exact_zero:
        return INF
    cands = []
    for x, y in ((a, b), (b, a)):
        if y.precision is not INF:
            low = x.val() if x.terms else x.precision
            if low is not INF:
                cands.append(low + y.precision)
    return min(cands) if cands else INF


def test_mul_precision_matches_fraction_formula_randomized():
    rng = random.Random(2718)
    for trial in range(6000):
        p = rng.choice([2, 3, 5])
        ops = []
        for _ in range(2):
            kind = rng.randrange(4)
            if kind == 0:
                ops.append(Series.zero(p))
            elif kind == 1:
                # term-less but truncated, at an int or a Fraction precision
                ops.append(Series.zero(p, rng.choice(
                    [rng.randint(-9, 9), Fraction(rng.randint(-30, 30), 7)]
                )))
            else:
                ops.append(differential_operand(rng, p))
        a, b = ops
        got = a._mul_precision(b)
        want = fraction_mul_precision(a, b)
        assert got == want, (a, b)
        assert (got is INF) == (want is INF)
        assert b._mul_precision(a) == got


def dot_operands(rng, p):
    """1 to 6 pairs over mixed denominators: zeros, exact or truncated,
    one-term operands and differential operands."""
    xs, ys = [], []
    for _ in range(rng.randint(1, 6)):
        pair = []
        for _ in range(2):
            kind = rng.randrange(6)
            if kind == 0:
                pair.append(Series.zero(p))
            elif kind == 1:
                pair.append(Series.zero(p, Fraction(rng.randint(-30, 30), 7)))
            elif kind == 2:
                pair.append(one_term_operand(rng, p, rng.choice(DEN_CHOICES)))
            else:
                pair.append(differential_operand(rng, p))
        xs.append(pair[0])
        ys.append(pair[1])
    return xs, ys


def test_dot_equals_the_sum_of_products_randomized():
    # the left-to-right sum of the products is the reference: equal terms
    # and equal precision, over mixed denominators and one-term operands
    rng = random.Random(1618)
    for trial in range(3000):
        p = rng.choice([2, 3, 5])
        xs, ys = dot_operands(rng, p)
        want = xs[0] * ys[0]
        for a, b in zip(xs[1:], ys[1:]):
            want = want + a * b
        got = dot(xs, ys)
        assert got == want, (xs, ys)
        assert_series_invariants(got)
    with pytest.raises(PreconditionError, match="mixed primes"):
        dot([Series.one(2)], [Series.one(3)])


def test_dot_through_is_the_full_sum_truncated_randomized():
    # exactly the terms of exponent <= through; where a product term lies
    # past it, the precision is the next point of the 1/den lattice of
    # the operands with terms, else the full sum's
    rng = random.Random(2718)
    for trial in range(3000):
        p = rng.choice([2, 3, 5])
        xs, ys = dot_operands(rng, p)
        through = Fraction(rng.randint(-60, 60), rng.choice([1, 2, 3, 5, 12]))
        full = dot(xs, ys)
        got = dot(xs, ys, through=through)
        pairs = [(a, b) for a, b in zip(xs, ys) if a.exps and b.exps]
        den = math.lcm(*(s.den for pair in pairs for s in pair))
        step = Fraction(math.floor(through * den) + 1, den)
        tops = [a.terms[-1][0] + b.terms[-1][0] for a, b in pairs]
        want = full.truncate(step) if any(e > through for e in tops) else full
        assert got == want, (xs, ys, through)
        # so every value <= through that the full sum shows, it shows
        assert got.terms == tuple(t for t in full.terms if t[0] <= through)
        assert got.precision > through or got.precision == full.precision
        assert_series_invariants(got)


def frobenius_operand(rng, p):
    """Exact, truncated, or truncated below its terms (so with none), over
    a denominator with a p-power part and a part coprime to p; exponents
    and precisions reach below 0."""
    coprime = [d for d in (1, 2, 3, 5, 7) if d % p]
    den = p ** rng.randint(0, 2) * rng.choice(coprime)
    terms = [
        (Fraction(rng.randint(-20, 20), den), rng.randint(1, p - 1))
        for _ in range(rng.randint(1, 6))
    ]
    kind = rng.choice(("exact", "truncated", "no terms"))
    if kind == "exact":
        return Series.make(p, terms)
    lo = min(e for e, _ in terms)
    prec = lo + Fraction(rng.randint(1, 30), rng.choice((1, 2, p, 3 * p)))
    if kind == "no terms":
        prec = lo - Fraction(rng.randint(0, 9), rng.choice((1, 4, p)))
    return Series.make(p, terms, prec)


def test_frobenius_equals_the_p_fold_product_randomized():
    # y ** p and y * y * ... * y are the references: equal terms, equal
    # precision and equal hash, over every prime of the tests
    rng = random.Random(1729)
    seen = set()
    for trial in range(2000):
        p = (2, 3, 5, 7)[trial % 4]
        y = frobenius_operand(rng, p)
        got = y.frobenius()
        product = y
        for _ in range(p - 1):
            product = product * y
        assert got == y**p == product, (y, got, product)
        assert hash(got) == hash(product)
        assert_series_invariants(got)
        exact = y.precision is INF
        assert (got.precision is INF) == exact
        negative = bool(y.exps) and y.val() < 0
        seen.add((p, exact, bool(y.exps), negative))
    # each prime: exact and truncated operands with terms, of either sign
    # of v(y), and truncated ones without terms
    for p in (2, 3, 5, 7):
        assert (p, False, False, False) in seen
        for exact in (True, False):
            assert {(p, exact, True, False), (p, exact, True, True)} <= seen
    assert Series.zero(5).frobenius() == Series.zero(5)


def test_direct_constructions_keep_invariants_randomized():
    rng = random.Random(4242)
    G = TameCyclic.make(5, 4)
    for _ in range(1000):
        terms = [
            (
                Fraction(rng.randint(-20, 20), G.n * G.p ** rng.randint(0, 2)),
                rng.randint(1, G.p - 1),
            )
            for _ in range(rng.randint(0, 8))
        ]
        prec = rng.choice([INF, Fraction(rng.randint(-4, 12), 3)])
        s = Series.make(G.p, terms, prec)
        for out in (
            -s,
            s.scale(rng.randint(-6, 6)),
            s.shift(Fraction(rng.randint(-9, 9), rng.randint(1, 6))),
            s.truncate(Fraction(rng.randint(-8, 12), rng.randint(1, 5))),
            G.element(rng.randrange(G.n))(s),
        ):
            assert_series_invariants(out)


# --- the integer representation against a Fraction-keyed reference -------
#
# A reference value is (dict exponent -> coeff, precision), exponents as
# Fractions; every kernel result is compared with it through ``terms``.


def ref_of(s):
    return dict(s.terms), s.precision


def ref_series(p, ref):
    terms, prec = ref
    return tuple(sorted((e, c % p) for e, c in terms.items() if c % p)), prec


def ref_keep(p, terms, prec):
    return {e: c % p for e, c in terms.items() if c % p and e < prec}, prec


def ref_neg(a):
    return {e: -c for e, c in a[0].items()}, a[1]


def ref_add(p, a, b):
    prec = min_value(a[1], b[1])
    out = dict(a[0])
    for e, c in b[0].items():
        out[e] = out.get(e, 0) + c
    return ref_keep(p, out, prec)


def ref_mul(p, a, b):
    (ta, pa), (tb, pb) = a, b
    if (not ta and pa is INF) or (not tb and pb is INF):
        prec = INF
    else:
        # the unknown part of a*b starts at v(a) + prec(b) or v(b) + prec(a)
        low_a = min(ta) if ta else pa
        low_b = min(tb) if tb else pb
        prec = min_value(low_a + pb, low_b + pa)
    out = {}
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    return ref_keep(p, out, prec)


def assert_matches(p, s, ref):
    assert_series_invariants(s)
    assert (s.terms, s.precision) == ref_series(p, ref)
    # the public constructor and the normalising one rebuild the same value
    again = Series(p, s.terms, s.precision)
    made = Series.make(p, s.terms, s.precision)
    assert again == s and made == s
    assert hash(again) == hash(s) == hash(made)


DEN_CHOICES = (1, 4, 6, 9, 25)


def den_operand(rng, p, den):
    """Terms in (1/den)Z, exact or truncated at a precision of its own
    denominator."""
    terms = [
        (Fraction(rng.randint(-30, 30), den), rng.randint(1, p - 1))
        for _ in range(rng.randint(0, 7))
    ]
    prec = INF
    if rng.random() < 0.6:
        prec = Fraction(rng.randint(-10, 40), rng.choice([1, 2, 3, 5, 7]))
    return Series.make(p, terms, prec)


def one_term_operand(rng, p, den):
    """A single term in (1/den)Z, exact or truncated above it."""
    e = Fraction(rng.randint(-30, 30), den)
    prec = INF
    if rng.random() < 0.5:
        prec = e + Fraction(rng.randint(1, 40), rng.choice([1, 2, 3, 5, 7]))
    return Series.make(p, [(e, rng.randint(1, p - 1))], prec)


def test_mixed_denominators_match_fraction_reference_randomized():
    rng = random.Random(909)
    for _ in range(1500):
        p = rng.choice([2, 3, 5, 7])
        a = den_operand(rng, p, rng.choice(DEN_CHOICES))
        b = den_operand(rng, p, rng.choice(DEN_CHOICES))
        ra, rb = ref_of(a), ref_of(b)
        assert_matches(p, a + b, ref_add(p, ra, rb))
        assert_matches(p, a - b, ref_add(p, ra, ref_neg(rb)))
        assert_matches(p, a * b, ref_mul(p, ra, rb))
        m = one_term_operand(rng, p, rng.choice(DEN_CHOICES))
        rm = ref_of(m)
        assert_matches(p, a * m, ref_mul(p, ra, rm))
        assert_matches(p, m * a, ref_mul(p, rm, ra))
        assert_matches(p, m * m, ref_mul(p, rm, rm))
        assert_matches(p, -a, ref_neg(ra))
        k = rng.randint(-7, 7)
        # a multiple of p scales to an exact zero, as 0 * a does
        assert_matches(
            p,
            a.scale(k),
            ({e: c * k for e, c in ra[0].items()}, ra[1] if k % p else INF),
        )
        e = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 5, 7, 27]))
        assert_matches(
            p,
            a.shift(e),
            ({x + e: c for x, c in ra[0].items()}, ra[1] + e),
        )
        cut = Fraction(rng.randint(-12, 40), rng.choice([1, 3, 8, 11]))
        assert_matches(p, a.truncate(cut), ref_keep(p, ra[0], min_value(ra[1], cut)))
        n = rng.randint(0, 3)
        want = ({Fraction(0): 1}, INF)
        for _ in range(n):
            want = ref_mul(p, want, ra)
        assert_matches(p, a**n, want)
        x = Fraction(rng.randint(-30, 30), rng.choice(DEN_CHOICES))
        assert a.coeff(x) == ra[0].get(x, 0)


def test_invert_matches_fraction_reference_randomized():
    rng = random.Random(1717)
    for _ in range(600):
        p = rng.choice([2, 3, 5, 7])
        a = den_operand(rng, p, rng.choice(DEN_CHOICES))
        if not a.terms:
            continue
        va = a.val()
        target = va + Fraction(rng.randint(1, 24), rng.choice([1, 2, 3, 4]))
        if a.precision < target:
            with pytest.raises(InsufficientPrecision):
                invert(a, target)
            continue
        inv = invert(a, target)
        rel = target - va
        assert_series_invariants(inv)
        assert inv.precision == rel - va
        assert Series(p, inv.terms, inv.precision) == inv
        # a * inv = 1 + O(t^rel) fixes every term of inv below rel - v(a)
        prod, _ = ref_mul(p, ref_of(a), (dict(inv.terms), INF))
        assert {e: c for e, c in prod.items() if e < rel} == {Fraction(0): 1}


def test_cancelled_finest_terms_equal_and_hash_like_make():
    p = 5
    a = Series.make(p, [(Fraction(1, 9), 1), (Fraction(1, 2), 2)])
    b = Series.make(p, [(Fraction(1, 9), p - 1), (Fraction(1, 3), 3)])
    total = a + b
    want = Series.make(p, [(Fraction(1, 2), 2), (Fraction(1, 3), 3)])
    assert total.den != want.den  # the 1/9 terms cancelled, 1/18 stays
    assert total == want and hash(total) == hash(want)
    assert {total: "x"}[want] == "x"
    # equal values over different denominators, precision included
    c = Series.make(p, [(Fraction(1, 9), 1), (Fraction(2, 3), 1)], Fraction(5, 2))
    d = Series.make(p, [(Fraction(1, 9), p - 1)])
    assert c + d == Series.make(p, [(Fraction(2, 3), 1)], Fraction(5, 2))
    assert hash(c + d) == hash(Series.make(p, [(Fraction(2, 3), 1)], Fraction(5, 2)))
    assert c + d != Series.make(p, [(Fraction(2, 3), 1)])


def test_shift_to_new_denominators():
    p = 3
    s = Series.make(p, [(Fraction(-1, 4), 1), (Fraction(1, 6), 2)], Fraction(2))
    for e in (Fraction(1, 9), Fraction(-5, 7), Fraction(1, 12), 3):
        out = s.shift(e)
        assert out.terms == tuple((x + e, c) for x, c in s.terms)
        assert out.precision == 2 + e
        assert out.shift(-Fraction(e)) == s


def test_public_constructor_scales_exponents_to_one_denominator():
    p = 7
    s = Series(p, ((Fraction(-1, 6), 3), (0, 1), (Fraction(5, 4), 6)), Fraction(3, 2))
    assert s.den == 12
    assert (s.exps, s.coeffs) == ((-2, 0, 15), (3, 1, 6))
    assert s.terms == ((Fraction(-1, 6), 3), (Fraction(0), 1), (Fraction(5, 4), 6))
    assert s == Series.make(p, s.terms, s.precision)
    assert Series(p, iter(s.terms), s.precision) == s
    assert repr(s) == (
        "Series(p=7, terms=((Fraction(-1, 6), 3), (Fraction(0, 1), 1), "
        "(Fraction(5, 4), 6)), precision=Fraction(3, 2))"
    )
    with pytest.raises(AttributeError):
        s.p = 5


def test_public_constructor_keeps_the_invariants_randomized():
    # Series(3, [(1, 1), (0, 2)]) stored exps (1, 0), and Series(3, [(0, 5),
    # (1, 3)]) the coefficients (5, 3): the constructor trusted its input
    assert Series(3, [(1, 1), (0, 2)]).exps == (0, 1)
    assert Series(3, [(0, 5), (1, 3)]).coeffs == (2,)
    # exponents Fraction() reads, beside int and Fraction
    half = Series(3, [(Fraction(1, 2), 2)])
    assert Series(3, [("1/2", 1), (0.5, 1)]) == half
    assert Series(3, [(Fraction(1, 2), 1), ("1/2", 1)]) == half
    rng = random.Random(1818)
    for trial in range(400):
        p = (2, 3, 5, 7)[trial % 4]
        pool = [Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, p, p * p)))
                for _ in range(rng.randint(1, 6))]
        terms = []
        for _ in range(rng.randint(0, 12)):
            e = rng.choice(pool)  # repeats sum their coefficients
            e = e.numerator if e.denominator == 1 and rng.random() < 0.5 else e
            c = rng.choice((rng.randint(-2 * p, 3 * p), p * rng.randint(-2, 2)))
            terms.append((e, c))
        rng.shuffle(terms)
        prec = rng.choice((INF, Fraction(rng.randint(-12, 12), rng.choice((1, 2, p)))))
        want = {}
        for e, c in terms:
            want[Fraction(e)] = (want.get(Fraction(e), 0) + c) % p
        want = sorted(
            (e, c) for e, c in want.items() if c and (prec is INF or e < prec)
        )
        s = Series(p, terms, prec)
        assert_series_invariants(s)
        assert list(s.terms) == want and s.precision == prec, (terms, prec)
        assert s == Series.make(p, terms, prec)


# --- the three convolution routes of * and dot -----------------------------
#
# ``_convolve`` multiplies pairwise or by Kronecker substitution, which packs
# each operand into an ``int`` with ``_pack`` or, for long products, into a
# ``Decimal`` (``_decimal_residues``).  Emptying ``_SLOTS`` leaves no slot
# width, so every call takes the pairwise route: the reference both
# Kronecker routes must match in ``exps``, ``coeffs``, ``den`` and
# ``precision``.
# Emptying ``_DIGITS`` leaves the integer route in place of the decimal one.


@pytest.fixture
def packed_widths(monkeypatch):
    """The slot width of every operand the Kronecker route packs."""
    widths = []
    pack = hahn._pack

    def spy(ints, low, width, fmt):
        widths.append(width)
        return pack(ints, low, width, fmt)

    monkeypatch.setattr(hahn, "_pack", spy)
    return widths


def pairwise(monkeypatch, f, *args):
    with monkeypatch.context() as m:
        m.setattr(hahn, "_SLOTS", ())
        return f(*args)


def int_route(monkeypatch, f, *args):
    with monkeypatch.context() as m:
        m.setattr(hahn, "_DIGITS", ())
        return f(*args)


def assert_same_representation(got, want):
    assert (got.exps, got.coeffs, got.den, got.precision) == (
        want.exps, want.coeffs, want.den, want.precision
    )


def spread_operand(rng, p, n, den, dense, exact):
    """n terms over (1/den)Z from a start at or below 0, in steps of 1-2
    slots (dense) or 1-600 (sparse); a truncated operand is cut at a
    precision inside its terms, so it keeps only some of them."""
    k = rng.randint(-40, 0)
    step = 2 if dense else 600
    ks = []
    for _ in range(n):
        ks.append(k)
        k += rng.randint(1, step)
    terms = [(Fraction(k, den), rng.randint(1, p - 1)) for k in ks]
    prec = INF if exact else Fraction(rng.randint(ks[1], k), den)
    return Series.make(p, terms, prec)


def route_size(rng):
    r = rng.random()
    if r < 0.03:
        return rng.randint(100, 300)
    if r < 0.5:
        return rng.randint(13, 60)
    return rng.randint(2, 12)


def test_both_routes_match_the_references_randomized(
    monkeypatch, packed_widths
):
    rng = random.Random(6060)
    trials = 240
    dense_trials = 0
    for _ in range(trials):
        p = rng.choice([2, 3, 5, 7, 251])
        dense, exact = rng.random() < 0.7, rng.random() < 0.5
        a, b = (
            spread_operand(
                rng, p, route_size(rng), rng.choice([1, 2, 3, 6]), dense,
                exact or rng.random() < 0.3,
            )
            for _ in range(2)
        )
        before = len(packed_widths)
        prod = a * b
        dense_trials += len(packed_widths) > before
        assert_same_representation(prod, pairwise(monkeypatch, a.__mul__, b))
        assert_matches(p, prod, ref_mul(p, ref_of(a), ref_of(b)))
        assert_pickle_round_trip(prod)
        if len(a.exps) * len(b.exps) <= 2000:
            pairs = [
                (ea + eb, ca * cb) for ea, ca in a.terms for eb, cb in b.terms
            ]
            assert prod == Series.make(p, pairs, a._mul_precision(b))
    # both routes ran, and more than one slot width
    assert 0 < dense_trials < trials
    assert len(set(packed_widths)) > 1


def test_dot_routes_match_the_sum_of_products_randomized(
    monkeypatch, packed_widths
):
    rng = random.Random(7070)
    trials = 250
    dense_trials = summed_pairs = 0
    for _ in range(trials):
        p = rng.choice([2, 3, 5])
        dense = rng.random() < 0.7
        xs, ys = [], []
        for _ in range(rng.randint(1, 4)):
            for out in (xs, ys):
                out.append(spread_operand(
                    rng, p, rng.randint(2, 40), rng.choice([1, 2, 4]),
                    dense, rng.random() < 0.6,
                ))
        before = len(packed_widths)
        got = dot(xs, ys)
        packed = len(packed_widths) - before
        dense_trials += packed > 0
        summed_pairs += packed > 2
        assert_same_representation(got, pairwise(monkeypatch, dot, xs, ys))
        assert_pickle_round_trip(got)
        want = xs[0] * ys[0]
        for a, b in zip(xs[1:], ys[1:]):
            want = want + a * b
        assert got == want
        ref = ref_mul(p, ref_of(xs[0]), ref_of(ys[0]))
        for a, b in zip(xs[1:], ys[1:]):
            ref = ref_add(p, ref, ref_mul(p, ref_of(a), ref_of(b)))
        assert_matches(p, got, ref)
    assert 0 < dense_trials < trials
    assert summed_pairs > 0  # several pair products summed at one base


def ones(p, n, c=1):
    return Series.make(p, [(k, c) for k in range(n)])


@pytest.mark.parametrize("n, width", [(255, 1), (256, 2)])
def test_one_byte_slots_hold_up_to_255_products(n, width, packed_widths):
    # the middle coefficient of the all-ones square is n before reduction
    prod = ones(2, n) * ones(2, n)
    assert packed_widths == [width, width]
    want = [(k, 1) for k in range(2 * n - 1) if min(k + 1, 2 * n - 1 - k) % 2]
    assert tuple(zip(prod.exps, prod.coeffs)) == tuple(want)


def test_dot_slots_hold_the_sum_over_its_pairs(packed_widths):
    # each product's coefficient at t^127 (128) fits a byte, their sum not
    a, b = ones(2, 128), ones(2, 129)
    got = dot([a, a], [a, b])
    assert set(packed_widths) == {2}
    assert got == a * a + a * b


@pytest.mark.parametrize("p, width", [(251, 4), (65521, 8)])
def test_wide_primes_take_wider_slots(monkeypatch, p, width, packed_widths):
    a, b = ones(p, 40, p - 1), ones(p, 60, p - 2)
    prod = a * b
    assert packed_widths == [width, width]
    assert_same_representation(prod, pairwise(monkeypatch, a.__mul__, b))
    assert_matches(p, prod, ref_mul(p, ref_of(a), ref_of(b)))


@pytest.mark.parametrize("n, widths", [(4, [8, 8]), (5, [])])
def test_slots_past_8_bytes_take_the_pairwise_route(n, widths, packed_widths):
    # 4 * (p - 1)^2 is just below 2^64 and 5 * (p - 1)^2 above it
    p = 2147483647
    a, b = ones(p, n, p - 1), ones(p, 40, p - 1)
    prod = a * b
    assert packed_widths == widths
    assert_matches(p, prod, ref_mul(p, ref_of(a), ref_of(b)))


def test_sparse_exponents_take_the_pairwise_route(packed_widths):
    rng = random.Random(8)
    a = spread_operand(rng, 3, 120, 1, dense=False, exact=True)
    prod = a * a
    assert packed_widths == []
    assert_matches(3, prod, ref_mul(3, ref_of(a), ref_of(a)))


@pytest.fixture
def decimal_digits(monkeypatch):
    """The digits per slot of every decimal-route call."""
    digits = []
    residues = hahn._decimal_residues

    def spy(pairs, low, slots, d, p):
        digits.append(d)
        return residues(pairs, low, slots, d, p)

    monkeypatch.setattr(hahn, "_decimal_residues", spy)
    return digits


def gapped_operand(rng, p, n, step, den, start, exact):
    """n terms over (1/den)Z from ``start``, in steps of 1 to ``step``
    slots; a truncated operand is known up to a precision past its last
    term, so a product's cutoff falls among its slots."""
    ks = [start]
    for _ in range(n - 1):
        ks.append(ks[-1] + rng.randint(1, step))
    terms = [(Fraction(k, den), rng.randint(1, p - 1)) for k in ks]
    span = ks[-1] - ks[0]
    prec = INF if exact else Fraction(ks[-1] + rng.randint(span // 2, span), den)
    return Series.make(p, terms, prec)


# (terms, step) per prime: long and sparse enough for the decimal route
DECIMAL_SHAPES = {2: (270, 50), 3: (160, 60), 7: (130, 90)}


def check_decimal_route(monkeypatch, decimal_digits, rng, p, n, step):
    """``*`` and ``dot`` of about n-term operands at p, gapped by up to
    ``step`` slots, exact and truncated: the decimal route runs and matches
    the integer and pairwise routes.  Returns every operand."""
    operands = []
    for exact in (True, False):
        den = rng.choice([1, 2, 3])
        xs, ys = [], []
        for _ in range(2):  # pairs at different offsets
            for out in (xs, ys):
                out.append(gapped_operand(
                    rng, p, rng.randint(n - 8, n + 8), step, den,
                    rng.randint(-30, 30), exact or rng.random() < 0.5,
                ))
        before = len(decimal_digits)
        prod = xs[0] * ys[0]
        got = dot(xs, ys)
        assert len(decimal_digits) == before + 2
        for route in (int_route, pairwise):
            assert_same_representation(
                prod, route(monkeypatch, xs[0].__mul__, ys[0])
            )
            assert_same_representation(got, route(monkeypatch, dot, xs, ys))
        assert got == prod + xs[1] * ys[1]
        for x in (prod, got):
            assert_series_invariants(x)
            assert_pickle_round_trip(x)
        if exact:  # the Fraction reference takes most of the time
            ref = ref_mul(p, ref_of(xs[0]), ref_of(ys[0]))
            assert (prod.terms, prod.precision) == ref_series(p, ref)
        operands += xs + ys
    return operands


def test_decimal_route_matches_the_other_routes_randomized(
    monkeypatch, decimal_digits
):
    rng = random.Random(1313)
    for p, (n, step) in DECIMAL_SHAPES.items():
        check_decimal_route(monkeypatch, decimal_digits, rng, p, n, step)
    assert set(decimal_digits) == {3, 4}


def test_decimal_route_packs_two_digit_coefficients(monkeypatch, decimal_digits):
    # at p = 11 and 13 a coefficient can take two of its slot's digits
    rng = random.Random(1113)
    for p in (11, 13):
        operands = check_decimal_route(
            monkeypatch, decimal_digits, rng, p, 200, 90
        )
        assert any(c >= 10 for x in operands for c in x.coeffs)
    assert set(decimal_digits) == {5}


def test_decimal_slots_hold_the_sum_over_its_pairs(decimal_digits):
    # every tenth exponent: each product's coefficient at t^5990 (600) has
    # 3 digits, their sum 4
    a = Series.make(2, [(10 * k, 1) for k in range(600)])
    b = Series.make(2, [(10 * k, 1) for k in range(601)])
    got = dot([a, a], [a, b])
    assert decimal_digits == [4]
    assert got == a * a + a * b


def test_decimal_route_needs_digit_residues_below_a_byte(
    monkeypatch, decimal_digits
):
    # 8 digits a slot at p = 251: the residues of a slot's digits could sum
    # past a byte, so this long product, which the decimal route's cost
    # estimate would win, takes another route
    rng = random.Random(251)
    a, b = (gapped_operand(rng, 251, 200, 90, 1, 0, True) for _ in range(2))
    prod = a * b
    assert decimal_digits == []
    assert_same_representation(prod, pairwise(monkeypatch, a.__mul__, b))


def test_running_unit_power_equals_pow_randomized():
    # a unit u (v(u) = 0) has u^i known up to prec(u) in every product
    # order, so the running product u^(i-1) * u is u ** i exactly
    rng = random.Random(8080)
    for p in (2, 3, 5, 7):
        dens = (1, 2, 3, p, p * p, 2 * p, 6)
        for _ in range(40):
            terms = [(Fraction(0), rng.randint(1, p - 1))]
            for _ in range(rng.randint(0, 4)):
                e = Fraction(rng.randint(1, 12), rng.choice(dens))
                terms.append((e, rng.randint(1, p - 1)))
            prec = Fraction(rng.randint(1, 8), rng.choice(dens))
            u = Series.make(p, terms, prec)
            assert u.val() == 0
            power = Series.one(p)
            for i in range(1, 13):
                power = power * u
                expected = u ** i
                assert power == expected, (u, i)
                assert hash(power) == hash(expected)
                assert power.precision == expected.precision
