"""Eventual strict ordering of a finite affine family, and the affine law
v(f(x) - f(c)) = beta + h * v(x - c) read off it or off sampled values.

Each item is a function gamma -> intercept + slope * gamma.  As gamma
increases toward an approach cut, the family is eventually strictly
ordered; this module computes the ordering permutation, an explicit
threshold beta past which it holds, and the eventual argmin.  One query
is one sort: the threshold comes from the crossings of neighbours in the
sorted order, not from all pairs.

Both the order and the fit work on integer numerators over one common
denominator: the sort and the crossings over that of the intercepts, the
fit over that of its points' coordinates.  Each builds one Fraction, its
beta (the order's threshold, the law's constant).

The relative approximation degree law has two independent routes, and
both use this module: ``envelope_law`` takes h as the eventual argmin of
the Taylor-intercept family, ``fit_tail_law`` fits the law to sampled
(gamma, value) points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import PreconditionError, StabilizationError
from .ordval import INF, Cut, GroupValue, is_finite


@dataclass(frozen=True, slots=True)
class AffineItem:
    index: int
    intercept: GroupValue
    slope: int


@dataclass(frozen=True, slots=True)
class AffineFamily:
    items: tuple[AffineItem, ...]
    approach: Cut

    def __post_init__(self):
        if not self.items:
            raise PreconditionError("empty affine family")
        slopes = [it.slope for it in self.items]
        if len(set(slopes)) != len(slopes):
            raise PreconditionError("slopes must be pairwise distinct")

    @staticmethod
    def make(items, approach: Cut) -> "AffineFamily":
        return AffineFamily(
            tuple(AffineItem(i, b, s) for i, b, s in items), approach
        )


@dataclass(frozen=True, slots=True)
class EventualOrder:
    """Permutation (descending: first item is eventually largest) plus a
    threshold beta valid for every gamma with beta <= gamma below the cut."""

    beta: Fraction
    permutation: tuple[int, ...]


def eventual_order(family: AffineFamily) -> EventualOrder:
    """The strict descending order holding for all gamma past beta and
    below the approach cut, computed with integer keys over the intercepts'
    common denominator: every finite intercept is N / L, L the lcm of their
    denominators, so items compare as integers and only beta is a Fraction.

    Infinite intercepts come first, in family order.  Toward +inf the
    finite items sort by slope descending.  Toward a principal boundary
    g0 = n0 / d0 they sort by value at g0 descending, L * d0 times that
    value being N * d0 + slope * n0 * L, ties by slope ascending (just
    below g0 the smaller slope is larger among items equal at g0)."""
    g0 = family.approach.boundary
    finite = [it for it in family.items if it.intercept is not INF]
    L = lcm(*[it.intercept.denominator for it in finite])
    # (N, slope, index) per finite item
    lines = [
        (it.intercept.numerator * (L // it.intercept.denominator), it.slope, it.index)
        for it in finite
    ]
    if g0 is None:
        lines.sort(key=lambda ln: -ln[1])
    else:
        n0, d0 = g0.numerator, g0.denominator
        n0L = n0 * L
        lines.sort(key=lambda ln: (-(ln[0] * d0 + ln[1] * n0L), ln[1]))
    # Past the last crossing that matters the order is the sorted one, and
    # the items meeting at that crossing are neighbours in it, so the
    # crossings of neighbouring finite items reach the all-pairs maximum.
    # Neighbours a, b cross at (N_a - N_b) / (L * (s_b - s_a)), kept as a
    # pair (num, den) with den > 0 and compared by cross-multiplication.
    best = None
    for (na, sa, _), (nb, sb, _) in zip(lines, lines[1:]):
        num, den = na - nb, L * (sb - sa)
        if den < 0:
            num, den = -num, -den
        # toward a boundary only crossings below it disturb the order on
        # an interval just below it
        if g0 is not None and not num * d0 < n0 * den:
            continue
        if best is None or num * best[1] > best[0] * den:
            best = (num, den)
    if g0 is None:
        # one past the last crossing
        beta = Fraction(best[0] + best[1], best[1]) if best else Fraction(0)
    else:
        # halfway from the last crossing below g0, or from g0 - 1, to g0
        num, den = best or (n0 - d0, d0)
        beta = Fraction(num * d0 + n0 * den, 2 * den * d0)
    infinite = [it.index for it in family.items if it.intercept is INF]
    return EventualOrder(beta, (*infinite, *[ln[2] for ln in lines]))


def _ordered_argmin(family: AffineFamily) -> tuple[int, EventualOrder]:
    """The eventual argmin among finite items, with the order it is read
    from: infinite intercepts sort first, so it is the last item."""
    if not any(is_finite(it.intercept) for it in family.items):
        raise PreconditionError("all intercepts are infinite")
    order = eventual_order(family)
    return order.permutation[-1], order


def eventual_argmin(family: AffineFamily) -> int:
    """The index that is eventually the strict minimum among finite items."""
    return _ordered_argmin(family)[0]


def envelope_law(
    betas: list[GroupValue], approach: Cut
) -> tuple[int, GroupValue, Fraction]:
    """h, beta_h and the order threshold of the Taylor-intercept family
    i -> beta_i + i * gamma (i = 1..len(betas)): h is its eventual argmin
    toward the approach cut, and its order holds past the threshold."""
    fam = AffineFamily.make(
        [(i, b, i) for i, b in enumerate(betas, 1)], approach
    )
    h, order = _ordered_argmin(fam)
    return h, betas[h - 1], order.beta


def fit_tail_law(
    points: list[tuple[Fraction, Fraction]],
) -> tuple[int, Fraction]:
    """The law w = beta + h * gamma, h a positive integer, through the last
    two of the (gamma, w) points, checked on every point.  Raises
    StabilizationError when there are fewer than two points, when one of
    the last two is infinite, or when no such law holds on all of them.

    Every finite coordinate is N / L over one common denominator L, so the
    slope is an exact integer division, each point is checked as
    W == B + h * G, and beta = B / L is the one Fraction a fit builds.  An
    earlier point with an infinite coordinate is on the line only when
    both are infinite, as beta + h * inf is inf."""
    if len(points) < 2:
        raise StabilizationError("too few points to fit an affine law")
    (g1, w1), (g2, w2) = points[-2], points[-1]
    for g, w in points[-2:]:
        if g is INF or w is INF:
            raise StabilizationError(f"law slope through ({g}, {w}) is not finite")
    L = lcm(*[x.denominator for pt in points for x in pt if x is not INF])
    G1, W1, G2, W2 = [x.numerator * (L // x.denominator) for x in (g1, w1, g2, w2)]
    h, rem = divmod(W2 - W1, G2 - G1)
    if rem or h < 1:
        raise StabilizationError(
            f"law slope {Fraction(W2 - W1, G2 - G1)} is not a positive integer"
        )
    B = W1 - h * G1
    # the last two points lie on the line by construction
    for g, w in points[:-2]:
        if g is INF or w is INF:
            on = g is w
        else:
            on = w.numerator * (L // w.denominator) == (
                B + h * g.numerator * (L // g.denominator)
            )
        if not on:
            raise StabilizationError(
                f"values follow no affine law: ({g}, {w}) is off the line "
                f"w = {Fraction(B, L)} + {h} * gamma"
            )
    return h, Fraction(B, L)
