"""Truncated Hahn series over a prime field.

A series is a finite exponent -> coefficient map over F_p together with a
precision bound: terms with exponent >= precision are unknown.  Precision
INF marks an exact element.  The valuation is the least stored exponent,
with v(t) = 1 throughout.

The terms are stored as two parallel tuples of ints of one length:
``exps``, the exponents as integers over one common denominator ``den``
per series, strictly increasing, and ``coeffs``, their coefficients in
1..p-1.  No term is a tuple of its own, so a dense product decodes its
slots straight into the two tuples.  The kernels (+, *, dot, frobenius,
scale, truncate, coeff, residue, invert, val_diff) run on these integers,
and inside them an operand is an (exps, coeffs) pair.  Where operand
denominators differ the exponents are rescaled to lcm(den_a, den_b); the
coefficients never depend on the denominator, and a kernel that keeps the
exponents (``scale``) or the coefficients (``frobenius``, a shift by t^e)
reuses that tuple.  Negation is ``scale(-1)`` and ``shift`` a product with a
monomial.  ``frobenius`` is the p-th power with no product: over F_p,
(sum c t^e)^p = sum c t^(p e).  ``Fraction`` appears only at the API
boundary: the derived ``terms`` view, ``val()``, ``leading()``,
precisions and subfield predicates.

Products (``*`` and ``dot``) have three routes.  Where the exponents lie
dense on the common denominator, one big product per operand pair forms
every pairwise product (Kronecker substitution): each operand is packed
into one integer with a coefficient per fixed-width byte slot, or, for long
products over small primes, into one ``Decimal`` with a coefficient per
slot of a few decimal digits, which libmpdec multiplies by a
number-theoretic transform.  Elsewhere, and where a slot would need more
than 8 bytes, the terms are multiplied pair by pair.  A product of two
multi-term series is ``dot`` of one pair, and ``dot`` reaches the routes
through ``_convolve`` alone, where one fixed cost rule, stated at
``_kronecker``, picks the route; all three give the same series.

A precision trims the terms in one place, ``_below``, at the integer cut
``_cutoff`` gives.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import FrozenInstanceError, dataclass, field
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded
from fractions import Fraction
from functools import lru_cache
from itertools import compress, repeat
from math import gcd, lcm
from sys import byteorder as _ORDER
from typing import Callable, Iterable, Sequence

from .errors import (
    IndeterminateValuation,
    InsufficientPrecision,
    NotRepresentable,
    PreconditionError,
)
from .ordval import INF, GroupValue


@dataclass(frozen=True)
class SubfieldPredicate:
    """A decidable predicate on exponents carving a ground field out of the
    ambient Hahn field.  The accepted set must be a subgroup of Q containing Z.

    The name is the predicate's identity: every constructor puts its
    parameters into it, and equality and hash read only the name.
    """

    name: str
    accepts: Callable[[Fraction], bool] = field(compare=False)

    def __call__(self, e: Fraction) -> bool:
        return self.accepts(e)


def integers_predicate() -> SubfieldPredicate:
    return SubfieldPredicate("Z", lambda e: e.denominator == 1)


def _prime_to_p(d: int, p: int) -> int:
    """d with every factor p divided out."""
    while d % p == 0:
        d //= p
    return d


def p_power_denominators(p: int) -> SubfieldPredicate:
    return SubfieldPredicate(
        f"Z[1/{p}]", lambda e: _prime_to_p(e.denominator, p) == 1
    )


def denominators_dividing(n: int) -> SubfieldPredicate:
    return SubfieldPredicate(f"(1/{n})Z", lambda e: n % e.denominator == 0)


def lattice_p_power(n: int, p: int) -> SubfieldPredicate:
    """Exponents m/(n*p^j): the perfect hull of the degree-n ramified step."""
    return SubfieldPredicate(
        f"(1/{n})Z[1/{p}]", lambda e: n % _prime_to_p(e.denominator, p) == 0
    )


def all_rationals() -> SubfieldPredicate:
    return SubfieldPredicate("Q", lambda e: True)


def resolve_predicate(name: str, p: int) -> SubfieldPredicate:
    if name == "Z":
        return integers_predicate()
    if name == "Z[1/p]":
        return p_power_denominators(p)
    if name == "Q":
        return all_rationals()
    if name.startswith("div") and name[3:].isdecimal() and int(name[3:]) > 0:
        return denominators_dividing(int(name[3:]))
    raise PreconditionError(f"unknown subfield predicate {name!r}")


class Series:
    """A truncated Hahn series: terms c * t^(k/den) stored as two tuples
    of ints of one length, ``exps`` (the k, strictly increasing) and
    ``coeffs`` (the c, in 1..p-1), with every exponent k/den strictly
    below ``precision``.

    ``den`` is a common exponent denominator, not necessarily the least
    one: equality and hashing do not depend on it.  ``terms`` is the
    derived (Fraction exponent, coeff) view, built on each access.
    Instances are immutable.
    """

    __slots__ = ("p", "den", "exps", "coeffs", "precision")

    def __init__(
        self,
        p: int,
        terms: Iterable[tuple[Fraction | int, int]],
        precision: GroupValue = INF,
    ):
        """Terms as (exponent, coeff) pairs in any order: like exponents
        are summed, coefficients reduced mod p, and zero terms and terms at
        or past ``precision`` dropped; ``den`` is the least common
        denominator of the given exponents."""
        terms = tuple(terms)
        ratios = [
            (e if isinstance(e, (int, Fraction)) else Fraction(e)).as_integer_ratio()
            for e, _ in terms
        ]
        den = lcm(*{d for _, d in ratios})
        acc: dict[int, int] = {}
        for (n, d), (_, c) in zip(ratios, terms):
            k = n * (den // d)
            acc[k] = acc.get(k, 0) + c
        exps, coeffs = _below(*_reduced(acc, p), _cutoff(precision, den))
        _P(self, p)
        _DEN(self, den)
        _EXPS(self, exps)
        _COEFFS(self, coeffs)
        _PREC(self, precision)

    @staticmethod
    def make(
        p: int,
        terms: Iterable[tuple[Fraction | int, int]],
        precision: GroupValue = INF,
    ) -> "Series":
        return Series(p, terms, precision)

    @staticmethod
    def zero(p: int, precision: GroupValue = INF) -> "Series":
        return _from_ints(p, 1, (), (), precision)

    @staticmethod
    def one(p: int) -> "Series":
        return _from_ints(p, 1, (0,), (1,), INF)

    @staticmethod
    def monomial(p: int, e, c: int = 1) -> "Series":
        return Series(p, ((e, c),))

    @property
    def terms(self) -> tuple[tuple[Fraction, int], ...]:
        den = self.den
        return tuple(zip(map(_fraction, self.exps, repeat(den)), self.coeffs))

    @property
    def is_exact_zero(self) -> bool:
        return not self.exps and self.precision is INF

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _from_ints, (self.p, self.den, self.exps, self.coeffs, self.precision)

    def _canonical(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """(den, the terms as (k, c) pairs) over the least common exponent
        denominator."""
        g = gcd(self.den, *self.exps)
        return self.den // g, tuple(zip([k // g for k in self.exps], self.coeffs))

    def __eq__(self, other):
        if other.__class__ is not Series:
            return NotImplemented
        if (
            self.p != other.p
            or self.precision != other.precision
            or self.coeffs != other.coeffs
        ):
            return False
        if self.den == other.den:
            return self.exps == other.exps
        return self._canonical() == other._canonical()

    def __hash__(self):
        return hash((self.p, self._canonical(), self.precision))

    def __repr__(self) -> str:
        return (
            f"Series(p={self.p!r}, terms={self.terms!r}, "
            f"precision={self.precision!r})"
        )

    def val(self) -> GroupValue:
        if self.exps:
            return _fraction(self.exps[0], self.den)
        if self.precision is INF:
            return INF
        raise IndeterminateValuation(
            f"series is zero up to precision {self.precision}"
        )

    def coeff(self, e) -> int:
        e = Fraction(e)
        if self.den % e.denominator:
            return 0  # not a multiple of 1/den: no stored exponent
        return self._coeff_at(e.numerator * (self.den // e.denominator))

    def _coeff_at(self, k: int) -> int:
        exps = self.exps
        i = bisect_left(exps, k)
        return self.coeffs[i] if i < len(exps) and exps[i] == k else 0

    def leading(self) -> tuple[Fraction, int]:
        if not self.exps:
            raise IndeterminateValuation("no leading term")
        return _fraction(self.exps[0], self.den), self.coeffs[0]

    def prefix(self, k: int) -> "Series":
        """The exact series of the first k terms."""
        return _from_ints(self.p, self.den, self.exps[:k], self.coeffs[:k], INF)

    def _require_same_p(self, other: "Series"):
        if self.p != other.p:
            raise PreconditionError(f"mixed primes {self.p} and {other.p}")

    def __add__(self, other: "Series") -> "Series":
        """Both operands cut at the sum's precision, then concatenated where
        their exponent ranges do not overlap and merged by index where they
        do.

        Relies on each operand's invariants (sorted, reduced, below its
        precision); the result then has them too.
        """
        self._require_same_p(other)
        p = self.p
        prec = min_value(self.precision, other.precision)
        den, ea, eb = _common(self, other)
        cut = _cutoff(prec, den)
        ea, ca = _below(ea, self.coeffs, cut)
        eb, cb = _below(eb, other.coeffs, cut)
        if not ea or (eb and eb[-1] < ea[0]):
            return _from_ints(p, den, eb + ea, cb + ca, prec)
        if not eb or ea[-1] < eb[0]:
            return _from_ints(p, den, ea + eb, ca + cb, prec)
        exps, coeffs = [], []
        i = j = 0
        na, nb = len(ea), len(eb)
        while i < na and j < nb:
            x, y = ea[i], eb[j]
            if x < y:
                exps.append(x)
                coeffs.append(ca[i])
                i += 1
            elif y < x:
                exps.append(y)
                coeffs.append(cb[j])
                j += 1
            else:
                c = (ca[i] + cb[j]) % p
                if c:
                    exps.append(x)
                    coeffs.append(c)
                i += 1
                j += 1
        exps += ea[i:] + eb[j:]
        coeffs += ca[i:] + cb[j:]
        return _from_ints(p, den, tuple(exps), tuple(coeffs), prec)

    def __neg__(self) -> "Series":
        return self.scale(-1)

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def __mul__(self, other: "Series") -> "Series":
        """The product truncated at ``_mul_precision``: ``dot`` of the one
        pair, so ``_convolve`` picks the route.  A one-term operand shifts
        and scales the other's terms instead.

        Relies on each operand's invariants, as ``dot`` does.
        """
        self._require_same_p(other)
        if len(self.exps) > 1 and len(other.exps) > 1:
            return dot((self,), (other,))
        p = self.p
        prec = self._mul_precision(other)
        if not self.exps or not other.exps:
            return _from_ints(p, 1, (), (), prec)
        # one term: shift and scale the other operand, no sort needed
        den, ea, eb = _common(self, other)
        ca, cb = self.coeffs, other.coeffs
        if len(ea) != 1:
            ea, ca, eb, cb = eb, cb, ea, ca
        (e,), (c,) = ea, ca
        cut = _cutoff(prec, den)
        eb, cb = _below(eb, cb, None if cut is None else cut - e)
        if c != 1:
            cb = tuple([x * c % p for x in cb])
        return _from_ints(p, den, tuple([k + e for k in eb]), cb, prec)

    def _mul_precision(self, other: "Series") -> GroupValue:
        """min(v(a) + prec(b), v(b) + prec(a)) over the truncated operands,
        an operand without terms standing in with its precision for its
        value; INF when both are exact or either is an exact zero.  The
        sums are compared as integer fractions, and only the least becomes
        a ``Fraction``."""
        sp, op = self.precision, other.precision
        if sp is INF:
            if op is INF or not self.exps:
                return INF
            n, d = _low_plus(self, op)
        elif op is INF:
            if not other.exps:
                return INF
            n, d = _low_plus(other, sp)
        else:
            n, d = _low_plus(self, op)
            n2, d2 = _low_plus(other, sp)
            if n2 * d < n * d2:
                n, d = n2, d2
        return _fraction(n, d)

    def scale(self, c: int) -> "Series":
        """Multiplication by the integer c: an exact zero when p divides c,
        as ``0 * self`` is."""
        p = self.p
        c %= p
        if c == 0:
            return Series.zero(p)
        coeffs = tuple([x * c % p for x in self.coeffs])
        return _from_ints(p, self.den, self.exps, coeffs, self.precision)

    def shift(self, e) -> "Series":
        """Multiplication by the monomial t^e."""
        return self * Series.monomial(self.p, e)

    def frobenius(self) -> "Series":
        """self ** p with no product: in characteristic p with coefficients
        in F_p, (sum c t^e)^p = sum c t^(p e), so every exponent is
        multiplied by p over the same ``den``.

        The precision is the one the product chain gives,
        (p - 1) v + prec, a series without terms standing in with its
        precision for v; below it the truncated product is exactly this
        image.  An exact series stays exact.
        """
        p, den, prec = self.p, self.den, self.precision
        if prec is not INF:
            n, d = prec.numerator, prec.denominator
            if self.exps:
                n, d = (p - 1) * self.exps[0] * d + n * den, den * d
            else:
                n *= p
            prec = _fraction(n, d)
        exps = tuple([k * p for k in self.exps])
        exps, coeffs = _below(exps, self.coeffs, _cutoff(prec, den))
        return _from_ints(p, den, exps, coeffs, prec)

    def __pow__(self, k: int) -> "Series":
        if k < 0:
            raise PreconditionError("negative power; use invert")
        out = Series.one(self.p)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def truncate(self, precision: GroupValue) -> "Series":
        prec = min_value(self.precision, precision)
        exps, coeffs = _below(self.exps, self.coeffs, _cutoff(prec, self.den))
        return _from_ints(self.p, self.den, exps, coeffs, prec)

    def residue(self) -> int:
        if self.exps and self.exps[0] < 0:
            raise PreconditionError("residue of a negative-value series")
        if self.precision is not INF and self.precision <= 0:
            raise InsufficientPrecision("precision does not reach exponent 0")
        return self._coeff_at(0)

    def __str__(self) -> str:
        from .parsing import format_series

        return format_series(self)


_new = object.__new__
# the slots' own setters, past the __setattr__ that refuses assignment
_P, _DEN, _EXPS, _COEFFS, _PREC = [Series.__dict__[n].__set__ for n in Series.__slots__]
# Fraction(k, den) for the boundary views; exponents recur across series
_fraction = lru_cache(maxsize=1024)(Fraction)


def _from_ints(
    p: int, den: int, exps: tuple[int, ...], coeffs: tuple[int, ...], precision
) -> Series:
    """The trusted integer constructor: ``exps`` and ``coeffs`` must already
    satisfy the Series invariants over ``den``."""
    s = _new(Series)
    _P(s, p)
    _DEN(s, den)
    _EXPS(s, exps)
    _COEFFS(s, coeffs)
    _PREC(s, precision)
    return s


def _cutoff(prec: GroupValue, den: int) -> int | None:
    """ceil(prec * den), the least integer exponent over ``den`` that the
    precision hides: k / den < prec exactly when k is below it.  None for
    INF, where every exponent is kept."""
    if prec is INF:
        return None
    return -(-prec.numerator * den // prec.denominator)


def _low_plus(s: Series, prec) -> tuple[int, int]:
    """v(s) + prec as an integer pair (numerator, positive denominator); a
    series without terms contributes its precision in place of v(s)."""
    n, d = prec.numerator, prec.denominator
    if s.exps:
        den = s.den
        return s.exps[0] * d + n * den, den * d
    q = s.precision
    return q.numerator * d + n * q.denominator, q.denominator * d


def _common(a: Series, b: Series):
    """(den, a.exps, b.exps) over one common denominator; an operand
    without terms takes the other's denominator.  The coefficients stay
    as they are."""
    da, db = a.den, b.den
    if da == db or not b.exps:
        return da, a.exps, b.exps
    if not a.exps:
        return db, a.exps, b.exps
    den = lcm(da, db)
    return den, _rescaled(a, den), _rescaled(b, den)


def _rescaled(s: Series, den: int):
    """s.exps over ``den``, a multiple of s.den."""
    if den == s.den:
        return s.exps
    f = den // s.den
    return tuple([k * f for k in s.exps])


# Slot widths in bytes of the Kronecker routes, with their memoryview formats
_SLOTS = ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))
# Digits per slot of the decimal route: every slot bound below 256^8 fits
_DIGITS = range(1, 21)
# Exact decimal arithmetic: a rounded product or sum raises
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded])


def _convolve(pairs, cutoff, p: int):
    """The reduced, sorted terms k < ``cutoff`` (every k when it is None)
    of sum a * b over ``pairs`` of operands with terms on one denominator,
    each pair given as (a's exps, a's coeffs, b's exps, b's coeffs), as an
    (exps, coeffs) pair: by Kronecker substitution where the exponents are
    dense (``_kronecker``), pair by pair elsewhere.  The one place the
    product route is chosen, for ``*`` and ``dot`` alike."""
    if not pairs:
        return (), ()
    work = 0
    low = high = None
    for ea, _, eb, _ in pairs:
        work += len(ea) * len(eb)
        lo, hi = ea[0] + eb[0], ea[-1] + eb[-1]
        if low is None or lo < low:
            low = lo
        if high is None or hi > high:
            high = hi
    if cutoff is not None and high >= cutoff:
        high = cutoff - 1
    if high - low + 51 <= 3 * work:  # else too sparse for _kronecker
        dense = _kronecker(pairs, cutoff, low, high, work, p)
        if dense is not None:
            return dense
    return _pairwise(pairs, cutoff, p)


def _pairwise(pairs, cutoff, p: int):
    """``_convolve`` term by term: every product below the cutoff goes into
    one accumulator."""
    acc: dict[int, int] = {}
    for ea, ca, eb, cb in pairs:
        if len(ea) > len(eb):  # the outer loop runs over the shorter operand
            ea, ca, eb, cb = eb, cb, ea, ca
        # an exact product keeps every k, all of them below the last one + 1
        top = ea[-1] + eb[-1] + 1 if cutoff is None else cutoff
        b0 = eb[0]
        # the coefficients by index: no zip object per row of short operands
        i = 0
        for x in ea:
            lim = top - x
            if b0 >= lim:
                break  # ea is sorted, so every later x is past the cutoff too
            cx = ca[i]
            i += 1
            j = 0
            for y in eb:
                if y >= lim:
                    break  # eb is sorted
                k = x + y
                acc[k] = acc.get(k, 0) + cx * cb[j]
                j += 1
    return _reduced(acc, p)


def _kronecker(pairs, cutoff, low: int, high: int, work: int, p: int):
    """``_convolve``'s dense routes, or None where the pairwise loop is
    estimated cheaper or a slot would need more than 8 bytes.  ``low`` and
    ``high`` bound the exponents kept, ``work`` is the number of term
    products; ``_convolve`` sends only products with high - low + 51 <=
    3 * work, the least a dense route can cost (see below).

    Terms that cannot land below the cutoff are dropped first.  Each
    operand becomes one number with its coefficient at slot (exponent - its
    least exponent), slots wide enough for every sum of coefficient
    products; the shifted sum of the pair products holds each exponent's
    sum in slot (exponent - ``low``), read up to ``high``.  The integer
    route packs byte slots into an ``int``; the decimal route packs slots
    of ``digits`` decimal digits into a ``Decimal``, whose long products
    libmpdec forms by a number-theoretic transform.  Either route reduces
    its slot sums to one residue mod p per slot, and one decode keeps the
    nonzero ones.

    The route rule compares cost estimates in units of 0.1 us, fitted on
    CPython 3.11, x86-64: the pairwise loop costs about 3 per term product
    below the cutoff; either dense route about 50, plus 1 per slot to
    decode, plus its product: the integer route d_a * d_b^0.585 / 9 per
    product of d_a >= d_b 30-bit digits (Karatsuba), the decimal route 0.6
    per decimal digit of its operands (libmpdec's transform is close to
    linear).  Measured crossovers, pairwise to integer at p = 3: 6 x 6
    terms one slot apart; about 0.5 pairs per slot at 1,000 one-byte
    slots, 1 at 4,000 two-byte slots, 3 at 100,000.  Integer to decimal,
    two operands of equal span: about 3,000 slots each at p = 3 and 7
    (4 digits a slot, two-byte slots), 2,500 at p = 2 with 400 terms
    (3 digits, two-byte slots), 14,000 at p = 2 with 200 terms (3 digits,
    one-byte slots).  The decimal route needs digits * (p - 1) < 256, so
    it serves small primes only.
    """
    if low > high:
        return None  # every product lands at or past the cutoff
    kept_pairs = []
    terms = 0
    if cutoff is not None:
        work = 0
    for ea, ca, eb, cb in pairs:
        if cutoff is not None:
            if ea[0] + eb[0] >= cutoff:
                continue  # every product lands at or past the cutoff
            ea, ca = _below(ea, ca, cutoff - eb[0])
            eb, cb = _below(eb, cb, cutoff - ea[0])
            # the pairwise loop makes only the products below the cutoff
            j = len(eb)
            for x in ea:
                while eb[j - 1] >= cutoff - x:
                    j -= 1
                work += j
        terms += min(len(ea), len(eb))
        kept_pairs.append((ea, ca, eb, cb))
    # a slot sums at most (p - 1)^2 per term of each pair's shorter side
    bound = terms * (p - 1) ** 2
    width, fmt = next(((w, f) for w, f in _SLOTS if bound < 256**w), (0, ""))
    if not width:
        return None
    karatsuba = spans = 0.0
    for ea, _, eb, _ in kept_pairs:
        short, long = sorted((ea[-1] - ea[0] + 1, eb[-1] - eb[0] + 1))
        karatsuba += long * short**0.585
        spans += short + long
    # a slot of ``width`` bytes is 8 * width / 30 digits
    karatsuba *= (4 * width / 15) ** 1.585 / 9
    decimal = 0.6 * spans
    if karatsuba > decimal:  # else no number of digits can win
        digits = next((d for d in _DIGITS if bound < 10**d), 0)
        decimal *= digits
        if not digits or digits * (p - 1) > 255:
            decimal = karatsuba  # the residue decode needs one byte a slot
    if min(karatsuba, decimal) + high - low + 51 > 3 * work:
        return None
    if decimal < karatsuba:
        res = _decimal_residues(kept_pairs, low, high - low + 1, digits, p)
    else:
        bits = 8 * width
        total = 0
        for ea, ca, eb, cb in kept_pairs:
            ia = _pack((ea, ca), ea[0], width, fmt)
            # the two sides of a square hold the same tuples: one packing
            ib = ia if ea is eb and ca is cb else _pack((eb, cb), eb[0], width, fmt)
            total += (ia * ib) << (bits * (ea[0] + eb[0] - low))
        size = -(-total.bit_length() // bits)
        sums = memoryview(total.to_bytes(width * size, _ORDER)).cast(fmt)
        res = [c % p for c in sums[: high - low + 1]]
    # one residue per slot from ``low`` on: keep the nonzero ones
    return tuple(compress(range(low, high + 1), res)), tuple(compress(res, res))


def _decimal_residues(pairs, low: int, slots: int, digits: int, p: int):
    """The decimal route's first ``slots`` slot sums mod p, one byte each
    in a ``bytes``.

    A digit d at position j of a slot adds d * 10^j mod p to the slot's
    residue: one translation per position maps its digits to these
    shares, and the positions are added as big integers with one byte a
    slot.  The caller keeps digits * (p - 1) below 256, so no slot carries
    into the next; a last translation reduces each byte mod p.
    """
    total = Decimal(0)
    for ea, ca, eb, cb in pairs:
        da = _pack_decimal((ea, ca), ea[0], digits)
        db = da if ea is eb and ca is cb else _pack_decimal((eb, cb), eb[0], digits)
        prod = _EXACT.scaleb(_EXACT.multiply(da, db), digits * (ea[0] + eb[0] - low))
        total = _EXACT.add(total, prod)
    # least significant digit first; "f" keeps a positive exponent's zeros
    size = digits * slots
    rev = format(total, "f").encode()[::-1][:size].ljust(size, b"0")
    acc = 0
    for j in range(digits):
        w = pow(10, j, p)
        shares = bytes([d * w % p for d in range(10)])
        table = bytes.maketrans(b"0123456789", shares)
        acc += int.from_bytes(rev[j::digits].translate(table), "little")
    reduce = bytes([v % p for v in range(256)])
    return acc.to_bytes(slots, "little").translate(reduce)


def _reduced(acc: dict[int, int], p: int):
    """The (exps, coeffs) pair of the exponent -> sum map ``acc``: sorted,
    each sum reduced mod p, the zeros dropped."""
    exps, coeffs = [], []
    for k in sorted(acc):
        if c := acc[k] % p:
            exps.append(k)
            coeffs.append(c)
    return tuple(exps), tuple(coeffs)


def _below(exps, coeffs, cut: int | None):
    """(exps, coeffs) cut to the leading terms with exponent below ``cut``:
    every term when it is None.  The one place a precision trims terms."""
    if cut is None or not exps or exps[-1] < cut:
        return exps, coeffs
    n = bisect_left(exps, cut)
    return exps[:n], coeffs[:n]


def _pack(operand, low: int, width: int, fmt: str) -> int:
    """One integer with coefficient c of exponent k at slot k - ``low``,
    from an (exps, coeffs) pair."""
    buf = bytearray(width * (operand[0][-1] - low + 1))
    with memoryview(buf).cast(fmt) as slots:
        for k, c in zip(*operand):
            slots[k - low] = c
    return int.from_bytes(buf, _ORDER)


def _pack_decimal(operand, low: int, digits: int) -> Decimal:
    """One Decimal with coefficient c of exponent k in the ``digits`` digits
    of slot k - ``low``, from an (exps, coeffs) pair."""
    # built least significant digit first, then reversed
    buf = bytearray(b"0") * (digits * (operand[0][-1] - low + 1))
    for k, c in zip(*operand):
        i = (k - low) * digits
        if c < 10:
            buf[i] = 48 + c
        else:
            text = str(c).encode()[::-1]
            buf[i : i + len(text)] = text
    return Decimal(buf[::-1].decode())


def min_value(a: GroupValue, b: GroupValue) -> GroupValue:
    if a is INF:
        return b
    if b is INF:
        return a
    return min(a, b)


def dot(
    xs: Sequence[Series], ys: Sequence[Series], through: GroupValue = INF
) -> Series:
    """sum_j xs[j] * ys[j] for nonempty ``xs``, equal to the left-to-right
    sum of the products, precision included, with exactly the terms of
    exponent <= ``through``.  Where a product term lies past it, the
    precision is the next point of the result's 1/den lattice,
    (floor(through * den) + 1) / den: the full sum truncated there.

    One pass over the common denominator, cut at the least product
    precision, so no product or partial sum is built as a series: where
    the exponents are dense, the pair products are summed as big integers
    or decimals at one base and decoded once (Kronecker substitution);
    elsewhere every pair's terms go into one accumulator (``_convolve``).
    ``*`` of two multi-term series is this with one pair.  Relies on the
    operands' invariants: the loops stop at the first product past the
    cutoff.
    """
    p = xs[0].p
    pairs = []
    prec = INF
    den = 1
    for a, b in zip(xs, ys):
        if a.p != p or b.p != p:
            raise PreconditionError(f"mixed primes {p}, {a.p} and {b.p}")
        prec = min_value(prec, a._mul_precision(b))
        if a.exps and b.exps:
            pairs.append((a, b))
            den = lcm(den, a.den, b.den)
    cutoff = _cutoff(prec, den)
    pairs = [
        (_rescaled(a, den), a.coeffs, _rescaled(b, den), b.coeffs) for a, b in pairs
    ]
    if through is not INF and pairs:
        cut = through.numerator * den // through.denominator + 1
        top = max(ea[-1] + eb[-1] for ea, _, eb, _ in pairs)
        if cut <= top and (cutoff is None or cut < cutoff):
            cutoff, prec = cut, _fraction(cut, den)
    exps, coeffs = _convolve(pairs, cutoff, p)
    return _from_ints(p, den, exps, coeffs, prec)


def val_diff(a: Series, b: Series) -> GroupValue:
    """(a - b).val() without forming a - b, raising where it raises.

    The difference's least term lies at the first index where the two term
    tuples part, over the common denominator: an exponent only one side
    holds, or two unequal coefficients.  It is a term of a - b when it lies
    below the lesser precision; else a - b is zero up to that precision.
    """
    a._require_same_p(b)
    prec = min_value(a.precision, b.precision)
    den, ea, eb = _common(a, b)
    ca, cb = a.coeffs, b.coeffs
    i = next(
        (i for i, (x, y) in enumerate(zip(ea, eb)) if x != y or ca[i] != cb[i]),
        min(len(ea), len(eb)),
    )
    parted = ea[i : i + 1] + eb[i : i + 1]
    cut = _cutoff(prec, den)
    if parted and (cut is None or min(parted) < cut):
        return _fraction(min(parted), den)
    if prec is INF:
        return INF
    raise IndeterminateValuation(f"series is zero up to precision {prec}")


def invert(a: Series, target_precision: GroupValue) -> Series:
    """Multiplicative approximate inverse: v(a*inv - 1) >= target - v(a)."""
    va = a.val()
    if va is INF:
        raise PreconditionError("cannot invert zero")
    p = a.p
    # the leading term's inverse: the whole inverse of an exact monomial
    unit = _from_ints(p, a.den, (-a.exps[0],), (pow(a.coeffs[0], -1, p),), INF)
    if target_precision is INF:
        if a.precision is not INF or len(a.exps) > 1:
            raise InsufficientPrecision("exact inverse needs a monomial")
        return unit
    if a.precision is not INF and a.precision < target_precision:
        raise InsufficientPrecision(
            f"precision {a.precision} below target {target_precision}"
        )
    # normalize to 1 + u with v(u) > 0, then sum the geometric series
    rel = target_precision - va
    b = (a * unit).truncate(rel)
    one = Series.one(p)
    u = one - b
    inv_b = one
    term = one
    if u.exps:
        # k * v(u) < rel  <=>  k * ku < ceil(rel * den) for u's integer ku
        ku = u.exps[0]
        cut = _cutoff(rel, u.den)
        k = 1
        while k * ku < cut:
            term = (term * u).truncate(rel)
            inv_b = inv_b + term
            if not term.exps:
                break
            k += 1
    inv_b = inv_b.truncate(rel)
    return inv_b * unit


def truncate_to_subfield(
    x: Series, pred: SubfieldPredicate, alpha: GroupValue
) -> Series:
    """The truncation of x below alpha, certified to lie in the ground field.

    Returns c with v(x - c) >= alpha when every kept exponent satisfies the
    predicate; raises NotRepresentable otherwise.
    """
    if x.precision is not INF and alpha is INF:
        raise InsufficientPrecision("exact truncation of a truncated series")
    if x.precision is not INF and alpha > x.precision:
        raise InsufficientPrecision(
            f"alpha {alpha} beyond precision {x.precision}"
        )
    den = x.den
    exps, coeffs = _below(x.exps, x.coeffs, _cutoff(alpha, den))
    for k in exps:
        e = _fraction(k, den)
        if not pred(e):
            raise NotRepresentable(
                f"exponent {e} not accepted by predicate {pred.name}"
            )
    return _from_ints(x.p, den, exps, coeffs, INF)


def in_subfield(x: Series, pred: SubfieldPredicate) -> bool:
    return _first_outside((x,), pred) is None


def _first_outside(
    xs: Sequence[Series], pred: SubfieldPredicate
) -> tuple[int, Fraction] | None:
    """(the index of the first series in ``xs`` with an exponent ``pred``
    refuses, its least such exponent), or None.  Each exponent k over a
    denominator den is tested once however many series hold it, as the
    prefixes of one series do."""
    accepted = set()
    for i, x in enumerate(xs):
        den = x.den
        for k in x.exps:
            if (k, den) not in accepted:
                e = _fraction(k, den)
                if not pred(e):
                    return i, e
                accepted.add((k, den))
    return None
