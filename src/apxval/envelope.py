"""Eventual strict ordering of a finite affine family, and the affine law
v(f(x) - f(c)) = beta + h * v(x - c) read off it or off sampled values.

Each item is a function gamma -> intercept + slope * gamma.  As gamma
increases toward an approach cut, the family is eventually strictly
ordered; this module computes the ordering permutation, an explicit
threshold beta past which it holds, and the eventual argmin.

The relative approximation degree law has two independent routes, and
both use this module: ``envelope_law`` takes h as the eventual argmin of
the Taylor-intercept family, ``fit_tail_law`` fits the law to sampled
(gamma, value) points.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError, StabilizationError
from .ordval import INF, Cut, GroupValue, is_finite


@dataclass(frozen=True)
class AffineItem:
    index: int
    intercept: GroupValue
    slope: int

    def at(self, gamma: Fraction) -> GroupValue:
        if self.intercept is INF:
            return INF
        return self.intercept + self.slope * gamma


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class EventualOrder:
    """Permutation (descending: first item is eventually largest) plus a
    threshold beta valid for every gamma with beta <= gamma below the cut."""

    beta: Fraction
    permutation: tuple[int, ...]


def _crossings(items: tuple[AffineItem, ...]) -> list[Fraction]:
    xs = []
    finite = [it for it in items if is_finite(it.intercept)]
    for a in finite:
        for b in finite:
            if a.slope < b.slope:
                xs.append(Fraction(a.intercept - b.intercept, b.slope - a.slope))
    return xs


def _descending_key(approach: Cut):
    """Comparator for the eventual order just below the approach cut:
    infinite intercepts first; toward +inf sort by slope descending; toward
    a principal boundary g0 sort by value at g0 descending, ties by slope
    ascending (just below g0 the smaller slope is larger among items equal
    at g0)."""

    def cmp(a: AffineItem, b: AffineItem) -> int:
        a_inf = a.intercept is INF
        b_inf = b.intercept is INF
        if a_inf or b_inf:
            if a_inf and b_inf:
                return 0
            return -1 if a_inf else 1
        if approach.is_infinite:
            return -1 if a.slope > b.slope else (1 if a.slope < b.slope else 0)
        g0 = approach.boundary
        va = a.intercept + a.slope * g0
        vb = b.intercept + b.slope * g0
        if va != vb:
            return -1 if va > vb else 1
        if a.slope != b.slope:
            return -1 if a.slope < b.slope else 1
        return 0

    return functools.cmp_to_key(cmp)


def eventual_order(family: AffineFamily) -> EventualOrder:
    """The strict descending order holding for all gamma past beta and
    below the approach cut."""
    items = family.items
    crossings = _crossings(items)
    top = max(crossings) if crossings else None
    if family.approach.is_infinite:
        beta = (top + 1) if top is not None else Fraction(0)
    else:
        # crossings at or above the boundary never disturb the order on an
        # interval just below it; only crossings below the boundary matter
        g0 = family.approach.boundary
        base = max([x for x in crossings if x < g0], default=g0 - 1)
        beta = Fraction(base + g0, 2)
    ordered = sorted(items, key=_descending_key(family.approach))
    return EventualOrder(beta, tuple(it.index for it in ordered))


def eventual_argmin(family: AffineFamily) -> int:
    """The index that is eventually the strict minimum among finite items."""
    finite = [it for it in family.items if is_finite(it.intercept)]
    if not finite:
        raise PreconditionError("all intercepts are infinite")
    order = eventual_order(family)
    finite_idx = {it.index for it in finite}
    for idx in reversed(order.permutation):
        if idx in finite_idx:
            return idx
    raise PreconditionError("unreachable")


def envelope_law(
    betas: list[GroupValue], approach: Cut
) -> tuple[int, GroupValue, Fraction]:
    """h, beta_h and the order threshold of the Taylor-intercept family
    i -> beta_i + i * gamma (i = 1..len(betas)): h is its eventual argmin
    toward the approach cut, and its order holds past the threshold."""
    fam = AffineFamily.make(
        [(i, b, i) for i, b in enumerate(betas, 1)], approach
    )
    h = eventual_argmin(fam)
    return h, betas[h - 1], eventual_order(fam).beta


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
