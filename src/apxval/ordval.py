"""Exact arithmetic for the divisible value group and for cuts in it.

Group values are arbitrary-precision rationals (``fractions.Fraction``)
together with a single absorbing element ``INF``.  Cuts are restricted to
principal cuts (rational boundary, two sides) plus the cut whose lower set
is all of the divisible hull; non-principal cuts cannot arise from finitely
described series and are rejected at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError


class _Infinity:
    """The absorbing top element of the value group.

    Strictly greater than every rational, absorbing under addition and
    under scaling by positive rationals.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    # total order against Fraction / int
    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("apxval-infinity")

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __mul__(self, other):
        if other <= 0:
            raise PreconditionError("infinity scaled by a non-positive factor")
        return self

    __rmul__ = __mul__

    def __neg__(self):
        raise PreconditionError("negating infinity is not defined")


INF = _Infinity()

# A value-group element: an exact rational or +infinity.
GroupValue = Fraction | _Infinity


def is_finite(v: GroupValue) -> bool:
    return v is not INF


@dataclass(frozen=True)
class Cut:
    """A cut in the divisible hull, given by its lower cut set.

    ``boundary is None`` means the lower cut set is all of the hull (the
    cut written ``(+inf)``).  Otherwise the lower set is ``{d | d < boundary}``
    when ``attained`` is false and ``{d | d <= boundary}`` when true.
    """

    boundary: Fraction | None
    attained: bool = False

    @classmethod
    def strictly_below(cls, gamma) -> "Cut":
        return cls(Fraction(gamma), attained=False)

    @classmethod
    def below_or_equal(cls, gamma) -> "Cut":
        return cls(Fraction(gamma), attained=True)

    @classmethod
    def plus_infinity(cls) -> "Cut":
        return cls(None, attained=False)

    @property
    def is_infinite(self) -> bool:
        return self.boundary is None

    def contains(self, alpha: Fraction) -> bool:
        """Membership of alpha in the lower cut set."""
        if self.is_infinite:
            return True
        if self.attained:
            return alpha <= self.boundary
        return alpha < self.boundary

    # Cut comparison is inclusion of lower cut sets.
    def __lt__(self, other: "Cut") -> bool:
        if self.is_infinite:
            return False
        if other.is_infinite:
            return True
        if self.boundary != other.boundary:
            return self.boundary < other.boundary
        return (not self.attained) and other.attained

    def __le__(self, other: "Cut") -> bool:
        return self == other or self < other

    def __gt__(self, other: "Cut") -> bool:
        return other < self

    def __ge__(self, other: "Cut") -> bool:
        return other <= self

    def __str__(self) -> str:
        if self.is_infinite:
            return "(+inf)"
        op = "<=" if self.attained else "<"
        return f"({op}{self.boundary})"


@dataclass(frozen=True)
class ValueCutRelation:
    """The four relations of a group value to a cut (they are not mutually
    exclusive: e.g. every alpha strictly inside the lower set has both
    ``le`` and ``lt``)."""

    le: bool
    lt: bool
    ge: bool
    gt: bool


def compare_value_cut(alpha: GroupValue, cut: Cut) -> ValueCutRelation:
    """Relations of alpha to the cut: alpha <= C iff alpha lies in the lower
    set; alpha < C iff additionally it is not the last element; alpha >= C
    iff alpha bounds the lower set from above, alpha > C strictly so."""
    if alpha is INF:
        return ValueCutRelation(
            le=cut.is_infinite, lt=False, ge=True, gt=not cut.is_infinite
        )
    le = cut.contains(alpha)
    if cut.is_infinite:
        return ValueCutRelation(le=True, lt=True, ge=False, gt=False)
    lt = le and not (cut.attained and alpha == cut.boundary)
    ge = alpha >= cut.boundary
    gt = alpha > cut.boundary if cut.attained else alpha >= cut.boundary
    return ValueCutRelation(le=le, lt=lt, ge=ge, gt=gt)


def scale_cut(n: int, cut: Cut) -> Cut:
    """The cut with lower set {n*d | d in lower set}; n must be >= 1."""
    if not isinstance(n, int) or n < 1:
        raise PreconditionError(f"cut scaling needs a positive integer, got {n!r}")
    if cut.is_infinite:
        return cut
    return Cut(cut.boundary * n, cut.attained)


def shift_cut(beta: Fraction, cut: Cut) -> Cut:
    """Adds the finite value beta to the boundary; the infinite cut absorbs."""
    if beta is INF:
        raise PreconditionError("cut shift by infinity is not defined")
    if cut.is_infinite:
        return cut
    return Cut(cut.boundary + Fraction(beta), cut.attained)


def format_value(v: GroupValue) -> str:
    return "inf" if v is INF else str(v)


def parse_value(text: str) -> GroupValue:
    """The value "inf" or a rational literal names; ValueError, as for any
    other malformed input text, when it names none."""
    text = text.strip()
    if text == "inf":
        return INF
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in value {text!r}") from None


def parse_cut(text: str) -> Cut:
    """The cut a literal "(+inf)", "(<=b)" or "(<b)" names; ValueError, as
    for any other malformed input text, when it names none."""
    text = text.strip()
    if text == "(+inf)":
        return Cut.plus_infinity()
    for prefix, make in (("(<=", Cut.below_or_equal), ("(<", Cut.strictly_below)):
        if text.startswith(prefix) and text.endswith(")"):
            try:
                return make(Fraction(text[len(prefix) : -1]))
            except (ValueError, ZeroDivisionError):
                break
    raise ValueError(f"unrecognized cut literal {text!r}")
