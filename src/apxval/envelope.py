"""Eventual strict ordering of a finite affine family, and the affine law
v(f(x) - f(c)) = beta + h * v(x - c) read off it or off sampled values.

Each item is a function gamma -> intercept + slope * gamma.  As gamma
increases toward an approach cut, the family is eventually strictly
ordered; this module computes the ordering permutation, an explicit
threshold beta past which it holds, and the eventual argmin.  One query
is one sort: the threshold comes from the crossings of neighbours in the
sorted order, not from all pairs.

The relative approximation degree law has two independent routes, and
both use this module: ``envelope_law`` takes h as the eventual argmin of
the Taylor-intercept family, ``fit_tail_law`` fits the law to sampled
(gamma, value) points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


def _descending_key(approach: Cut):
    """Sort key for the eventual order just below the approach cut:
    infinite intercepts first (kept in family order); toward +inf by slope
    descending; toward a principal boundary g0 by value at g0 descending,
    ties by slope ascending (just below g0 the smaller slope is larger
    among items equal at g0)."""
    g0 = None if approach.is_infinite else approach.boundary

    def key(it: AffineItem):
        if it.intercept is INF:
            return (0,)
        if g0 is None:
            return (1, -it.slope)
        return (1, -(it.intercept + it.slope * g0), it.slope)

    return key


def eventual_order(family: AffineFamily) -> EventualOrder:
    """The strict descending order holding for all gamma past beta and
    below the approach cut."""
    approach = family.approach
    ordered = sorted(family.items, key=_descending_key(approach))
    # Past the last crossing that matters the order is the sorted one, and
    # the items meeting at that crossing are neighbours in it, so the
    # crossings of neighbouring finite items reach the all-pairs maximum.
    finite = [it for it in ordered if is_finite(it.intercept)]
    crossings = [
        Fraction(a.intercept - b.intercept, b.slope - a.slope)
        for a, b in zip(finite, finite[1:])
    ]
    if approach.is_infinite:
        beta = max(crossings) + 1 if crossings else Fraction(0)
    else:
        # crossings at or above the boundary never disturb the order on an
        # interval just below it; only crossings below the boundary matter
        g0 = approach.boundary
        base = max([x for x in crossings if x < g0], default=g0 - 1)
        beta = Fraction(base + g0, 2)
    return EventualOrder(beta, tuple(it.index for it in ordered))


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
    two of the finite (gamma, w) points, checked on every point.  Raises
    StabilizationError when there are fewer than two points or no such law
    holds on all of them."""
    if len(points) < 2:
        raise StabilizationError("too few points to fit an affine law")
    (g1, w1), (g2, w2) = points[-2], points[-1]
    h = Fraction(w2 - w1, g2 - g1)
    if h.denominator != 1 or h < 1:
        raise StabilizationError(f"law slope {h} is not a positive integer")
    h = int(h)
    beta = w1 - h * g1
    for g, w in points:
        if w != beta + h * g:
            raise StabilizationError(
                f"values follow no affine law: ({g}, {w}) is off the line "
                f"w = {beta} + {h} * gamma"
            )
    return h, beta
