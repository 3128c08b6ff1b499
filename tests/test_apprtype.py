import random
from dataclasses import replace
from fractions import Fraction

import pytest

from apxval.errors import (
    InsufficientPrecision,
    MarkerViolation,
    PreconditionError,
    StabilizationError,
)
from apxval.hahn import Series, integers_predicate, p_power_denominators
from apxval.ordval import Cut, INF, compare_value_cut
import apxval.apprtype as apprtype
from apxval.valpoly import ValPoly
from apxval.apprtype import ApproxType, Fixed, NotFixed, pushed_forward
from apxval.curated import theta_minpoly, theta_target, theta_type
from apxval.parsing import parse_poly
from apxval.reldeg import rel_degree


def test_default_approximants_exclude_full_prefix():
    p = 3
    A = theta_type(p)
    assert len(A.approximants) == 8  # 0 plus seven partial sums
    assert A.approximants[0].is_exact_zero
    for n in range(8):
        assert A.gamma(n) == Fraction(-1, p ** (n + 1))


def test_distance_theta():
    for p in (2, 3, 5):
        assert theta_type(p).distance() == Cut.strictly_below(0)


def test_distance_trivial_element():
    p = 3
    x = Series.make(p, [(1, 1), (2, 2)])
    A = ApproxType.from_truncations(x, integers_predicate())
    assert A.distance() == Cut.plus_infinity()


def test_distance_attained_for_inadmissible_exponent():
    p = 3
    x = Series.monomial(p, Fraction(1, 2))
    A = ApproxType.from_truncations(x, integers_predicate())
    assert A.distance() == Cut.below_or_equal(Fraction(1, 2))


def test_distance_precision_limited():
    p = 3
    x = Series.make(p, [(i, 1) for i in range(5)], Fraction(5))
    A = ApproxType.from_truncations(x, integers_predicate())
    assert A.distance() == Cut.below_or_equal(5)


def test_distance_hint_checked():
    p = 3
    x = theta_target(p)
    with pytest.raises(MarkerViolation):
        ApproxType.from_truncations(
            x,
            p_power_denominators(p),
            distance_hint=Cut.strictly_below(-1),
        ).distance()


def test_distance_hint_names_the_first_contradicting_value():
    # the values -1/3, -1/9, -1/27, ...: every one from -1/9 on contradicts
    # (<-1/9), and the message names -1/9, not the last one
    p = 3
    A = ApproxType.from_truncations(
        theta_target(p), p_power_denominators(p),
        distance_hint=Cut.strictly_below(Fraction(-1, 9)),
    )
    assert A.gammas()[:2] == [Fraction(-1, 3), Fraction(-1, 9)]
    with pytest.raises(MarkerViolation) as exc:
        A.distance()
    assert str(exc.value) == (
        "approximant value -1/9 contradicts the declared distance (<-1/9)"
    )


def test_distance_hint_checked_against_an_outside_exponent():
    # over Z the theta target's first exponent -1/3 lies outside the
    # ground, so the distance is attained there whatever the hint says;
    # the hint (<0) once passed, and factor-shape then exited 3
    p = 3
    attained = Cut.below_or_equal(Fraction(-1, 3))
    A = ApproxType.from_truncations(
        theta_target(p), integers_predicate(), distance_hint=Cut.strictly_below(0)
    )
    with pytest.raises(MarkerViolation, match="outside the ground"):
        A.distance()
    with pytest.raises(MarkerViolation, match="outside the ground"):
        rel_degree(A, parse_poly("X^2 + 1", p))
    assert replace(A, distance_hint=None).distance() == attained
    # the approximant 0 reaches -1/3 itself: (<=-1/3) is still the one
    # hint that holds, and the approximant value does not refuse it
    assert A.gammas() == [Fraction(-1, 3)]
    assert replace(A, distance_hint=attained).distance() == attained
    for hint in (Cut.strictly_below(Fraction(-1, 3)), Cut.below_or_equal(0)):
        with pytest.raises(MarkerViolation, match="outside the ground"):
            replace(A, distance_hint=hint).distance()
    # an approximant short of the outside exponent 1/2 leaves (<=1/2) the
    # one hint that holds
    x = Series.make(p, [(0, 1), (Fraction(1, 2), 1)])
    B = ApproxType(x, integers_predicate(), (Series.zero(p),))
    for hint in (Cut.below_or_equal(Fraction(1, 2)), None):
        assert replace(B, distance_hint=hint).distance() == Cut.below_or_equal(
            Fraction(1, 2)
        )
    for hint in (Cut.strictly_below(Fraction(1, 2)), Cut.strictly_below(1)):
        with pytest.raises(MarkerViolation, match="outside the ground"):
            replace(B, distance_hint=hint).distance()


def test_same_type():
    p = 3
    A = theta_type(p)
    shifted = A.target + Series.one(p)
    assert A.same_type(shifted)
    assert A.same_type(A.target)
    assert not A.same_type(A.target + Series.monomial(p, -2))


def test_same_type_refusals():
    p = 3
    A = theta_type(p)
    # a difference that truncation hides decides only when its precision
    # clears the distance cut (<0)
    assert A.same_type(A.target + Series.zero(p, Fraction(1, 2)))
    with pytest.raises(InsufficientPrecision, match="precision too low"):
        A.same_type(A.target + Series.zero(p, Fraction(-1, 2)))
    x = Series.monomial(p, -1)
    trivial = ApproxType(x, p_power_denominators(p), (Series.zero(p), x))
    with pytest.raises(PreconditionError, match="immediate"):
        trivial.same_type(x)
    # on an attained distance (<=1/2), the boundary value itself is >= it
    x = Series.make(p, [(0, 1), (Fraction(1, 2), 1)])
    B = ApproxType(x, integers_predicate(), (Series.zero(p),))
    assert B.distance() == Cut.below_or_equal(Fraction(1, 2))
    assert B.same_type(x + Series.monomial(p, Fraction(1, 2)))
    assert not B.same_type(x + Series.monomial(p, Fraction(1, 3)))


def test_every_value_is_at_or_past_a_cut_or_below_it():
    # same_type answers False for any value that is not >= the distance
    cuts = [Cut.strictly_below(0), Cut.below_or_equal(0), Cut.plus_infinity()]
    for cut in cuts:
        for v in (Fraction(-1), Fraction(0), Fraction(1), INF):
            rel = compare_value_cut(v, cut)
            assert rel.ge or rel.lt


def test_fixes_value_minpoly_not_fixed():
    for p in (2, 3, 5):
        A = theta_type(p)
        res = A.fixes_value(theta_minpoly(p))
        assert res == NotFixed(p, Fraction(0))


# over theta at p = 2, v(g(c_n)) follows w = -7/8 + 2 * gamma_n only past
# the envelope threshold -1/32: the tail point at gamma = -1/8 lies off it
LATE_LAW_POLY = (
    "(t)*X^5 + (t^(-1/4) + t)*X^4 + (t^(-3/4) + t^(-1/4) + 1)*X^3"
    " + (t^(-5/4) + t^(-1) + t^(-3/4))*X^2 + (t^(-7/4) + t^(-1))*X + (t^(-2))"
)


def test_fixes_value_fits_the_law_past_the_envelope_threshold():
    A = theta_type(2)
    g = parse_poly(LATE_LAW_POLY, 2)
    rd = rel_degree(A, g)
    assert (rd.h, rd.beta, rd.threshold) == (2, Fraction(-7, 8), Fraction(-1, 32))
    assert (Fraction(-1, 8), Fraction(-1)) in [
        (A.gamma(n), g(A.approximants[n]).val()) for n in A.tail()
    ]
    assert A.fixes_value(g) == NotFixed(2, Fraction(-7, 8))


def test_fixes_value_linear_and_constant():
    p = 3
    A = theta_type(p)
    c0 = A.approximants[2]
    res = A.fixes_value(ValPoly(p, (-c0, Series.one(p))))
    assert isinstance(res, Fixed)
    assert res.value == A.gamma(2)
    k = Series.monomial(p, Fraction(5, 3), 2)
    res = A.fixes_value(ValPoly(p, (k,)))
    assert res == Fixed(Fraction(5, 3))
    # a constant whose value truncation hides is hidden at every point
    with pytest.raises(InsufficientPrecision, match=r"v\(g\(c_0\)\) is swallowed"):
        A.fixes_value(ValPoly(p, (Series.zero(p, Fraction(2)),)))
    with pytest.raises(PreconditionError, match="zero polynomial has no value"):
        A.fixes_value(ValPoly.zero(p))


def test_not_fixed_law_exact_on_all_approximants():
    p = 3
    A = theta_type(p)
    f = theta_minpoly(p)
    res = A.fixes_value(f)
    for n in range(len(A.approximants)):
        assert f(A.approximants[n]).val() == res.beta + res.h * A.gamma(n)


def test_ball_transport():
    # v(x - c) >= gamma iff v(f(x) - f(c)) >= beta + h*gamma on samples
    p = 3
    A = theta_type(p)
    f = theta_minpoly(p)
    res = A.fixes_value(f)
    fx = f(A.target)
    for n in range(1, len(A.approximants)):
        gamma = A.gamma(n)
        for c in A.approximants:
            lhs = (A.target - c).val() >= gamma
            rhs = (fx - f(c)).val() >= res.beta + res.h * gamma
            assert lhs == rhs


def test_support_matches_truncation_witness():
    from apxval.hahn import truncate_to_subfield

    p = 3
    A = theta_type(p)
    for n in range(len(A.approximants)):
        alpha = A.gamma(n)
        c = truncate_to_subfield(A.target, A.ground, alpha)
        assert (A.target - c).val() >= alpha


def test_same_type_implies_same_fixed_values():
    p = 3
    A = theta_type(p)
    B = ApproxType(
        A.target + Series.one(p),
        A.ground,
        tuple(c + Series.one(p) for c in A.approximants),
        distance_hint=Cut.strictly_below(0),
    )
    assert A.same_type(B.target - Series.one(p) + Series.one(p))
    rng = random.Random(17)
    checked = 0
    for _ in range(100):
        deg = rng.randint(1, 3)
        coeffs = [
            Series.monomial(p, rng.randint(-3, 3), rng.randint(1, p - 1))
            for _ in range(deg + 1)
        ]
        g = ValPoly.make(p, coeffs)
        if g.is_zero or g.degree() == 0:
            continue
        shift_one = ValPoly(p, (Series.one(p), Series.one(p)))  # X + 1
        try:
            res_a = A.fixes_value(g.compose(shift_one))
            res_b = B.fixes_value(g.compose(shift_one))
        except (MarkerViolation, StabilizationError):
            continue
        assert res_a == res_b
        checked += 1
    assert checked >= 50


def test_kaplansky_extend_linear_and_constant():
    p = 3
    A = theta_type(p, transcendental=True)
    c = A.approximants[1]
    assert A.kaplansky_extend(ValPoly(p, (-c, Series.one(p)))) == A.gamma(1)
    k = Series.monomial(p, -2)
    assert A.kaplansky_extend(ValPoly(p, (k,))) == -2
    with pytest.raises(InsufficientPrecision, match=r"v\(g\(c_0\)\) is swallowed"):
        A.kaplansky_extend(ValPoly(p, (Series.zero(p, Fraction(2)),)))


def test_a_hidden_target_value_leaves_the_verdict_to_the_approximants():
    # g = X - c for the target's exact part: v(g(c_n)) = gamma_n rises
    # while g(target) = O(t) is hidden, so no visible value contradicts
    p = 3
    A = theta_type(p)
    c = A.target.prefix(len(A.target.terms))
    g = ValPoly(p, (-c, Series.one(p)))
    stab, values = A._fixed(g)
    assert stab is None and values == [*A.gammas(), None]
    assert A.fixes_value(g) == NotFixed(1, Fraction(0))
    # over the last approximant alone the window reads one value, which
    # the hidden v(g(target)) cannot contradict
    B = ApproxType(A.target, A.ground, A.approximants[-1:])
    assert B._fixed(g) == (A.gammas()[-1], [A.gammas()[-1], None])


@pytest.mark.parametrize(
    "knob, message",
    [
        ({"tail_depth": 0}, "tail depth must be at least 1"),
        ({"window": 0}, "window must be at least 1"),
        ({"window": -2}, "window must be at least 1"),
    ],
)
def test_depth_knobs_below_1_are_refused(knob, message):
    # the tail depth is refused when the type is built, the window where
    # the one window rule reads it
    A = theta_type(3)
    f = theta_minpoly(3)
    for call in (ApproxType.fixes_value, rel_degree):
        with pytest.raises(PreconditionError, match=message):
            call(replace(A, **knob), f)


class _ValueTable:
    """Stands in for a polynomial of degree 2 through its values: the type's
    target maps to t^at_target and approximant n to t^at[n]."""

    is_zero = False

    def __init__(self, A, at_target, at):
        p = A.target.p
        self.table = {c: Series.monomial(p, v) for c, v in zip(A.approximants, at)}
        self.table[A.target] = Series.monomial(p, at_target)

    def degree(self):
        return 2

    def __call__(self, s):
        return self.table[s]


@pytest.mark.parametrize("window, fixed", [(4, False), (3, True)])
def test_the_window_reads_exactly_window_values(window, fixed):
    # the values end in [1, 2, 2, 2]: the last 4 differ and the last 3 agree
    # with v(g(target)) = 2, so reading one value fewer would fix the value
    A = replace(theta_type(2, transcendental=True), window=window)
    values = [1] * (len(A.approximants) - 3) + [2, 2, 2]
    g = _ValueTable(A, 2, values)
    if fixed:
        assert A.kaplansky_extend(g) == 2
    else:
        with pytest.raises(MarkerViolation, match="not fixed"):
            A.kaplansky_extend(g)


def test_kaplansky_requires_marker():
    p = 3
    A = theta_type(p)
    with pytest.raises(PreconditionError):
        A.kaplansky_extend(ValPoly.make(p, [Series.zero(p), Series.one(p)]))


def test_kaplansky_product_rule():
    p = 5
    A = theta_type(p, transcendental=True)
    rng = random.Random(23)
    for _ in range(100):
        gs = []
        for _ in range(2):
            deg = rng.randint(1, 2)
            coeffs = [
                Series.monomial(p, rng.randint(-2, 2), rng.randint(1, p - 1))
                for _ in range(deg + 1)
            ]
            gs.append(ValPoly.make(p, coeffs))
        g, h = gs
        try:
            vg = A.kaplansky_extend(g)
            vh = A.kaplansky_extend(h)
            vgh = A.kaplansky_extend(g * h)
        except MarkerViolation:
            continue
        assert vgh == vg + vh


def test_verify_not_fixed_for_minpoly_theta():
    for p in (2, 3, 5):
        A = theta_type(p)
        assert A.verify_not_fixed_for_minpoly(theta_minpoly(p))


def test_verify_not_fixed_rejects_non_immediate():
    p = 3
    x = Series.monomial(p, Fraction(1, 2))
    A = ApproxType.from_truncations(x, integers_predicate())
    g = ValPoly(p, (-Series.monomial(p, 1), Series.zero(p), Series.one(p)))  # X^2 - t
    with pytest.raises(PreconditionError):
        A.verify_not_fixed_for_minpoly(g)


def test_verify_not_fixed_refusals():
    p = 3
    x = Series.monomial(p, -1)
    trivial = ApproxType(x, p_power_denominators(p), (Series.zero(p), x))
    with pytest.raises(PreconditionError, match="needs an immediate type"):
        trivial.verify_not_fixed_for_minpoly(theta_minpoly(p))
    # v(x) = -1/3 is no higher than v(c_n) = -1/3: x is no root of X
    A = theta_type(p)
    X = ValPoly(p, (Series.zero(p), Series.one(p)))
    with pytest.raises(PreconditionError, match="root"):
        A.verify_not_fixed_for_minpoly(X)


def test_verify_not_fixed_answers_false_for_a_fixed_value():
    # g vanishes at both approximants 0 and t^(-1/3), and truncation hides
    # g(x) through its factor X - (t^(-1/3) + t^(-1/9)): the type fixes
    # v(g) = inf
    p = 3
    A = ApproxType.from_truncations(
        theta_target(p, 2, 0), p_power_denominators(p),
        distance_hint=Cut.strictly_below(0),
    )
    g = ValPoly(p, (Series.zero(p), Series.one(p)))
    for c in (A.approximants[1], A.target.prefix(2)):
        g = g * ValPoly(p, (-c, Series.one(p)))
    assert A._fixed(g) == (INF, [INF, INF, None])
    assert A.verify_not_fixed_for_minpoly(g) is False


def test_verify_not_fixed_composite_degree():
    # digits of g in the minimal polynomial exercise degree p^2
    p = 2
    A = theta_type(p, precision=10)
    f = theta_minpoly(p)
    assert A.verify_not_fixed_for_minpoly(f * f)


def test_pushed_forward_distance():
    p = 3
    A = theta_type(p)
    f = theta_minpoly(p)
    res = A.fixes_value(f)
    B = pushed_forward(A, f, res.h, res.beta)
    assert B.distance() == Cut.strictly_below(0)
    for n in range(len(B.approximants)):
        assert B.gamma(n) == res.beta + res.h * A.gamma(n)


def test_strictly_increasing_approximants_enforced():
    p = 3
    x = Series.make(p, [(0, 1), (1, 1), (2, 1)])
    with pytest.raises(PreconditionError):
        ApproxType(
            x,
            integers_predicate(),
            (Series.zero(p), Series.zero(p)),
        )


def test_approximant_outside_the_ground_is_refused_in_any_position():
    # the approximants need not be prefixes of the target: each exponent is
    # tested against the ground once, wherever it first appears
    p = 3
    x = theta_target(p)
    ground = p_power_denominators(p)
    c1, c2 = x.prefix(1), x.prefix(2)
    off = Series.monomial(p, Fraction(1, 2))  # 1/2 is not in Z[1/3]
    for approximants in (
        (c1 + off, c2),
        (c1, c2 + off),
        (Series.zero(p), c2, c2 + off.shift(1)),
    ):
        with pytest.raises(PreconditionError, match="leaves the ground field"):
            ApproxType(x, ground, approximants)
    # a non-prefix approximant whose every exponent is in the ground stands
    wide = ApproxType(x, ground, (c1 + Series.monomial(p, 5), c2))
    assert wide.gammas() == [Fraction(-1, 9), Fraction(-1, 27)]
    # the approximants are refused in order: a value that fails to increase
    # before the approximant that leaves the ground is reported first
    with pytest.raises(PreconditionError, match="strictly increase"):
        ApproxType(x, ground, (c2, c1, c2 + off))


def test_empty_approximants_rejected():
    p = 3
    with pytest.raises(PreconditionError, match="at least one approximant"):
        ApproxType(theta_target(p), p_power_denominators(p), ())


# --- the per-approximant power cache ---------------------------------------


def _cache_is_empty(A):
    return (
        len(A._powers) == len(A.approximants)
        and len(A._sampled_powers) == len(A.approximants) + 1
        and not any(A._powers)
        and not any(A._sampled_powers)
    )


def _reads_powers(p):
    """theta_minpoly(p) times X: the row f_1 reads a_(p+1) c^p, where
    theta_minpoly(p) alone, whose binomials C(p, i) vanish mod p, reads no
    power of c."""
    return theta_minpoly(p) * ValPoly.make(p, [Series.zero(p), Series.one(p)])


def test_power_cache_reuse_keeps_the_intercepts():
    for p in (2, 3):
        f = theta_minpoly(p)
        g = _reads_powers(p)
        warm = theta_type(p, precision=12)
        first = warm.taylor_intercepts(g * g)
        assert not _cache_is_empty(warm)
        assert warm.taylor_intercepts(g * g) == first
        # a lower degree after a higher one reads a prefix of the powers
        for h in (g, f):
            assert warm.taylor_intercepts(h) == theta_type(
                p, precision=12
            ).taylor_intercepts(h)


def test_power_cache_is_invisible_to_eq_hash_and_repr():
    p = 3
    warm = theta_type(p)
    # equal fields, the ground predicate included (it compares by identity)
    cold = replace(warm)
    warm.taylor_intercepts(_reads_powers(p))
    assert _cache_is_empty(cold) and not _cache_is_empty(warm)
    assert warm == cold
    assert hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)
    # the sampled route's dicts are as invisible
    rel_degree(warm, theta_minpoly(p))
    assert any(warm._sampled_powers) and not any(cold._sampled_powers)
    assert warm == cold
    assert hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)


def test_replace_and_push_forward_start_with_an_empty_cache():
    p = 3
    A = theta_type(p)
    f = theta_minpoly(p)
    A.taylor_intercepts(_reads_powers(p))
    rel_degree(A, f)
    assert any(A._powers) and any(A._sampled_powers)
    assert _cache_is_empty(replace(A, window=3))
    res = A.fixes_value(f)
    assert _cache_is_empty(pushed_forward(A, f, res.h, res.beta))


def test_taylor_intercepts_build_one_table_per_tail_approximant(monkeypatch):
    # perfbench's escape check counts these calls through the module
    # attribute: exactly min(len(approximants), tail_depth) per call
    real = apprtype.taylor_coefficients
    seen = []

    def counting(f, c, *args, **kwargs):
        seen.append(c)
        return real(f, c, *args, **kwargs)

    monkeypatch.setattr(apprtype, "taylor_coefficients", counting)
    A = theta_type(3)
    for B in (A, replace(A, tail_depth=2), replace(A, tail_depth=20)):
        X = ValPoly.make(3, [Series.zero(3), Series.one(3)])
        for f in (theta_minpoly(3), X):
            seen.clear()
            B.taylor_intercepts(f)
            assert len(seen) == min(len(B.approximants), B.tail_depth)
            assert seen == [B.approximants[n] for n in B.tail()]


def test_taylor_intercepts_build_powers_up_to_one_below_the_degree():
    # the tables hold the rows f_1..f_d, which read c^1..c^(d-1): no f(c)
    for p in (2, 3):
        X = ValPoly.make(p, [Series.zero(p), Series.one(p)])
        f = theta_minpoly(p) * X
        A = theta_type(p, precision=12)
        A.taylor_intercepts(f)
        tail = A.tail()
        for n, powers in enumerate(A._powers):
            assert len(powers) == (f.degree() - 1 if n in tail else 0)


@pytest.mark.parametrize("window", [1, 2, 4])
def test_kaplansky_extend_returns_only_the_value_fixes_value_fixes(window):
    # at window 1 every sequence of v(g(c_n)) is constant over its window,
    # so only a visible v(g(target)) tells a fixed value from a passing one
    A = replace(theta_type(2, transcendental=True), window=window)
    fmin = theta_minpoly(2)  # X^2 + X + t^(-1); extend once gave -1/128
    assert isinstance(A.fixes_value(fmin), NotFixed)
    with pytest.raises(MarkerViolation):
        A.kaplansky_extend(fmin)
    rng = random.Random(5)
    refused = 0
    for p in (2, 3):
        A = replace(theta_type(p, transcendental=True), window=window)
        fmin = theta_minpoly(p)
        for _ in range(12):
            c = Series.monomial(p, rng.randint(-2, 2), rng.randint(1, p - 1))
            lin = ValPoly.make(p, [c, Series.one(p)])
            g = fmin.scale(c) + lin if rng.random() < 0.5 else fmin * lin
            fixed = A.fixes_value(g)
            if isinstance(fixed, Fixed):
                assert A.kaplansky_extend(g) == fixed.value
            else:
                refused += 1
                with pytest.raises(MarkerViolation):
                    A.kaplansky_extend(g)
    assert refused > 0
