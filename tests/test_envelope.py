import random
from fractions import Fraction

import pytest

from apxval import envelope
from apxval.envelope import (
    AffineFamily,
    envelope_law,
    eventual_argmin,
    eventual_order,
    fit_tail_law,
)
from apxval.errors import PreconditionError, StabilizationError
from apxval.ordval import INF, Cut


def test_single_item():
    fam = AffineFamily.make([(7, Fraction(2), 3)], Cut.plus_infinity())
    assert eventual_order(fam).permutation == (7,)
    assert eventual_argmin(fam) == 7


@pytest.mark.parametrize("p", [2, 3, 5])
def test_theta_family(p):
    fam = AffineFamily.make(
        [(1, Fraction(0), 1), (p, Fraction(0), p)], Cut.strictly_below(0)
    )
    assert eventual_argmin(fam) == p


def test_toward_infinity_minimum_is_smallest_slope():
    fam = AffineFamily.make(
        [(1, Fraction(0), 1), (2, Fraction(0), 2)], Cut.plus_infinity()
    )
    assert eventual_argmin(fam) == 1


def test_crossing_respected_toward_infinity():
    fam = AffineFamily.make(
        [(1, Fraction(5), 1), (2, Fraction(0), 2)], Cut.plus_infinity()
    )
    order = eventual_order(fam)
    assert order.beta > 5
    assert eventual_argmin(fam) == 1


def test_infinite_intercepts_rank_top():
    fam = AffineFamily.make(
        [(1, INF, 1), (2, Fraction(0), 2), (3, INF, 3)], Cut.plus_infinity()
    )
    assert eventual_argmin(fam) == 2
    assert set(eventual_order(fam).permutation[:2]) == {1, 3}


def test_all_infinite_rejected():
    fam = AffineFamily.make([(1, INF, 1)], Cut.plus_infinity())
    with pytest.raises(PreconditionError):
        eventual_argmin(fam)


def test_duplicate_slopes_rejected():
    with pytest.raises(PreconditionError):
        AffineFamily.make(
            [(1, Fraction(0), 2), (2, Fraction(1), 2)], Cut.plus_infinity()
        )


def _random_family(rng):
    m = rng.randint(1, 8)
    slopes = rng.sample(range(-30, 31), m)
    items = []
    for i, s in enumerate(slopes):
        if rng.random() < 0.15:
            b = INF
        else:
            b = Fraction(rng.randint(-60, 60), rng.randint(1, 20))
        items.append((i, b, s))
    if all(b is INF for _, b, _ in items):
        items[0] = (items[0][0], Fraction(0), items[0][2])
    if rng.random() < 0.5:
        approach = Cut.plus_infinity()
    else:
        boundary = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        approach = (
            Cut.strictly_below(boundary)
            if rng.random() < 0.7
            else Cut.below_or_equal(boundary)
        )
    return AffineFamily.make(items, approach)


def _sample_points(fam, beta, k=5):
    if fam.approach.is_infinite:
        return [beta + j for j in range(1, k + 1)]
    g0 = fam.approach.boundary
    return [g0 - (g0 - beta) / 2**j for j in range(1, k + 1)]


def _order_at(fam, gamma):
    def key(it):
        if it.intercept is INF:
            return (1, 0)
        return (0, it.intercept + it.slope * gamma)

    return tuple(
        it.index for it in sorted(fam.items, key=key, reverse=True)
    )


def test_oracle_equivalence_10k():
    rng = random.Random(20240823)
    for _ in range(10_000):
        fam = _random_family(rng)
        order = eventual_order(fam)
        for gamma in _sample_points(fam, order.beta):
            assert _order_at(fam, gamma) == order.permutation, (
                fam,
                gamma,
                order,
            )


def test_permutation_independent_of_threshold():
    rng = random.Random(6)
    for _ in range(500):
        fam = _random_family(rng)
        order = eventual_order(fam)
        for gamma in _sample_points(fam, order.beta, k=3):
            assert _order_at(fam, gamma) == order.permutation


def test_argmin_invariant_under_common_shift():
    rng = random.Random(9)
    for _ in range(500):
        fam = _random_family(rng)
        if all(it.intercept is INF for it in fam.items):
            continue
        shift = Fraction(rng.randint(-10, 10), rng.randint(1, 5))
        shifted = AffineFamily.make(
            [
                (it.index, it.intercept if it.intercept is INF else it.intercept + shift, it.slope)
                for it in fam.items
            ],
            fam.approach,
        )
        assert eventual_argmin(fam) == eventual_argmin(shifted)


def _crossings(items):
    """Brute-force oracle: the crossing of every pair of finite items."""
    finite = [it for it in items if it.intercept is not INF]
    return [
        Fraction(a.intercept - b.intercept, b.slope - a.slope)
        for a in finite
        for b in finite
        if a.slope < b.slope
    ]


def _oracle_beta(fam):
    crossings = _crossings(fam.items)
    if fam.approach.is_infinite:
        return max(crossings) + 1 if crossings else Fraction(0)
    g0 = fam.approach.boundary
    base = max([x for x in crossings if x < g0], default=g0 - 1)
    return Fraction(base + g0, 2)


def _tied_family(rng):
    """Small integer lines: many share a value at the boundary, several pass
    through one point, some intercepts are infinite."""
    slopes = rng.sample(range(-5, 6), rng.randint(1, 8))
    x0, y0 = rng.randint(-2, 2), rng.randint(-2, 2)
    items = []
    for i, s in enumerate(slopes):
        r = rng.random()
        if r < 0.15:
            b = INF
        elif r < 0.5:
            b = Fraction(y0 - s * x0)  # concurrent at (x0, y0)
        else:
            b = Fraction(rng.randint(-3, 3))
        items.append((i, b, s))
    g0 = Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
    approach = rng.choice(
        [Cut.plus_infinity(), Cut.strictly_below(g0), Cut.below_or_equal(g0)]
    )
    return AffineFamily.make(items, approach)


def test_threshold_matches_all_pairs_oracle():
    rng = random.Random(31)
    for k in range(4_000):
        fam = _tied_family(rng) if k % 2 == 0 else _random_family(rng)
        order = eventual_order(fam)
        assert order.beta == _oracle_beta(fam), fam
        for gamma in _sample_points(fam, order.beta, k=2):
            assert _order_at(fam, gamma) == order.permutation, (fam, gamma)


def test_tie_at_the_boundary_goes_to_the_smaller_slope():
    fam = AffineFamily.make(
        [(0, Fraction(0), 1), (1, Fraction(-1), 2), (2, INF, 3)],
        Cut.strictly_below(1),
    )
    order = eventual_order(fam)
    assert order == eventual_order(
        AffineFamily(fam.items, Cut.below_or_equal(1))
    )
    # both lines equal 1 at g0 = 1; just below it the smaller slope is larger
    assert order.permutation == (2, 0, 1)
    assert order.beta == Fraction(1, 2)


# --- integer keys against the Fraction-keyed reference ----------------------


def _fraction_eventual_order(family):
    """The eventual order with a Fraction sort key per item and a Fraction
    per neighbour crossing."""
    approach = family.approach
    g0 = None if approach.is_infinite else approach.boundary

    def key(it):
        if it.intercept is INF:
            return (0,)
        if g0 is None:
            return (1, -it.slope)
        return (1, -(it.intercept + it.slope * g0), it.slope)

    ordered = sorted(family.items, key=key)
    finite = [it for it in ordered if it.intercept is not INF]
    crossings = [
        Fraction(a.intercept - b.intercept, b.slope - a.slope)
        for a, b in zip(finite, finite[1:])
    ]
    if g0 is None:
        beta = max(crossings) + 1 if crossings else Fraction(0)
    else:
        base = max([x for x in crossings if x < g0], default=g0 - 1)
        beta = Fraction(base + g0, 2)
    return envelope.EventualOrder(beta, tuple(it.index for it in ordered))


# the first 48 primes: distinct denominators whose lcm is about 10^90
PRIMES = [q for q in range(2, 224) if all(q % r for r in range(2, q))]


def _differential_family(rng):
    """Up to 48 items: int intercepts, distinct prime denominators, lines
    tied at the boundary, or a single finite item among infinite ones."""
    m = rng.choice([1, 2, rng.randint(1, 8), rng.randint(16, 48)])
    slopes = rng.sample(range(-4 * m - 4, 4 * m + 5), m)
    g0 = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
    kind = rng.choice(["int", "primes", "tied", "mixed"])
    dens = rng.sample(PRIMES, m)
    intercepts = []
    for q, s in zip(dens, slopes):
        if kind == "int":
            b = rng.randint(-60, 60)
        elif kind == "primes":
            b = Fraction(rng.randint(1, 10**3) * rng.choice([-1, 1]), q)
        elif kind == "tied":
            b = Fraction(rng.randint(-2, 2), rng.choice([1, 3])) - s * g0
        else:
            b = Fraction(rng.randint(-60, 60), rng.randint(1, 20))
        intercepts.append(b)
    infinite = [rng.random() < 0.15 for _ in slopes]
    if rng.random() < 0.1 or all(infinite):
        keep = rng.randrange(m)
        infinite = [i != keep for i in range(m)]
    items = [
        (i, INF if inf else b, s)
        for i, (b, s, inf) in enumerate(zip(intercepts, slopes, infinite))
    ]
    approach = rng.choice(
        [Cut.plus_infinity(), Cut.strictly_below(g0), Cut.below_or_equal(g0)]
    )
    return AffineFamily.make(items, approach)


def test_integer_keys_match_the_fraction_reference():
    rng = random.Random(4848)
    for _ in range(3_000):
        fam = _differential_family(rng)
        order = eventual_order(fam)
        assert order == _fraction_eventual_order(fam), fam
        assert type(order.beta) is Fraction


def test_a_large_query_builds_at_most_two_fractions(monkeypatch):
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(envelope, "Fraction", counted)
    items = [
        (i, Fraction(i - 24, q), 3 * i - 70) for i, q in enumerate(PRIMES)
    ]
    for approach in (Cut.plus_infinity(), Cut.strictly_below(Fraction(-7, 5))):
        fam = AffineFamily.make(items, approach)
        built.clear()
        eventual_order(fam), eventual_argmin(fam)
        assert len(built) <= 2, built


def _count_orders(monkeypatch):
    calls = []
    real = envelope.eventual_order

    def counted(family):
        calls.append(family)
        return real(family)

    monkeypatch.setattr(envelope, "eventual_order", counted)
    return calls


def test_envelope_law_sorts_once(monkeypatch):
    calls = _count_orders(monkeypatch)
    h, beta, threshold = envelope_law(
        [Fraction(2), INF, Fraction(0)], Cut.strictly_below(0)
    )
    assert len(calls) == 1
    assert (h, beta, threshold) == (3, 0, Fraction(-1, 2))
    calls.clear()
    with pytest.raises(PreconditionError, match="all intercepts are infinite"):
        envelope_law([INF, INF], Cut.plus_infinity())
    assert calls == []


def test_eventual_argmin_reads_one_order(monkeypatch):
    calls = _count_orders(monkeypatch)
    fam = AffineFamily.make(
        [(1, Fraction(5), 1), (2, Fraction(0), 2)], Cut.plus_infinity()
    )
    assert eventual_argmin(fam) == 1
    assert calls == [fam]


# --- the two law routes' shared pieces --------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_envelope_law_theta_intercepts(p):
    # theta's minimal polynomial X^p - X - 1/t: beta_1 = 0, beta_p = 0 and
    # every middle Taylor coefficient vanishes exactly
    betas = [Fraction(0)] + [INF] * (p - 2) + [Fraction(0)]
    h, beta, threshold = envelope_law(betas, Cut.strictly_below(0))
    assert (h, beta) == (p, 0)
    assert threshold < 0


def test_envelope_law_matches_the_family_it_builds():
    rng = random.Random(5)
    for _ in range(200):
        betas = [
            INF if rng.random() < 0.2 else Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for _ in range(rng.randint(1, 6))
        ]
        if all(b is INF for b in betas):
            with pytest.raises(PreconditionError):
                envelope_law(betas, Cut.plus_infinity())
            continue
        approach = rng.choice(
            [Cut.plus_infinity(), Cut.strictly_below(Fraction(rng.randint(-3, 3)))]
        )
        fam = AffineFamily.make(
            [(i, b, i) for i, b in enumerate(betas, 1)], approach
        )
        h, beta, threshold = envelope_law(betas, approach)
        assert h == eventual_argmin(fam)
        assert beta == betas[h - 1]
        assert threshold == eventual_order(fam).beta


def test_fit_tail_law_exact_line():
    pts = [(Fraction(-1, 3**k), 2 * Fraction(-1, 3**k) + Fraction(1, 2)) for k in (1, 2, 3, 4)]
    assert fit_tail_law(pts) == (2, Fraction(1, 2))
    assert fit_tail_law(pts[-2:]) == (2, Fraction(1, 2))


@pytest.mark.parametrize(
    "pts, message",
    [
        ([], "too few"),
        ([(Fraction(1), Fraction(3))], "too few"),
        ([(Fraction(1), Fraction(1)), (Fraction(3), Fraction(2))], "slope 1/2 "),
        ([(Fraction(1), Fraction(4)), (Fraction(3), Fraction(4))], "slope 0 "),
        ([(Fraction(1), Fraction(5)), (Fraction(3), Fraction(1))], "slope -2 "),
        (
            [(Fraction(0), Fraction(2)), (Fraction(1), Fraction(3)), (Fraction(2), Fraction(5))],
            r"\(0, 2\) is off the line w = 1 \+ 2 \* gamma",
        ),
    ],
)
def test_fit_tail_law_failures(pts, message):
    with pytest.raises(StabilizationError, match=message):
        fit_tail_law(pts)
