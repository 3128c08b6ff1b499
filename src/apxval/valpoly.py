"""Polynomials with truncated-series coefficients.

Provides evaluation, composition, formal derivatives with exact binomial
coefficients reduced mod p, simultaneous Taylor coefficients as binomial
sums over the powers of the expansion point, f-adic digit expansion, and
the p-adic binomial valuation fact used to bound relative approximation
degrees.

A polynomial is built one way: ``ValPoly(p, coeffs)``, which ``make``
only names, drops trailing exact-zero coefficients, so the last
coefficient is the leading one and no operation special-cases the zero
or a constant polynomial.

A polynomial evaluates one way: ``power_sum`` sums a_j * x^j in one
``hahn.dot`` pass over a dict {k: x^k} of powers of x, so with monomial
coefficients nearly every product is a one-term shift and no partial sum
is built.  ``f(x)`` is ``power_sum`` over a fresh dict; the sampled law
route passes a dict the caller keeps across polynomials.  Powers are built
on demand: x^k only where a_k is not an exact zero, from the Frobenius map
x^k = (x^(k/p))^p where p divides k, which only multiplies exponents by p,
and from the halving split x^k = x^ceil(k/2) * x^floor(k/2) elsewhere, so
X^p - X - 1/t reads x and its Frobenius image alone.  The Taylor tables
build theirs as c^k = c^(k-1) * c, so the two law routes that rest on them
share neither a cache nor an algorithm, and only as far as a returned row
reads them: a term C(j,i) a_j c^(j-i) needs c^(j-i) only when the binomial
survives mod p and a_j is not an exact zero.  A Taylor table may start at
a row ``start`` > 0: the envelope route reads f_1(c)..f_deg(c) and never
builds f(c), which only ``power_sum`` computes.  Horner's scheme is only
the reference in the tests, and gives the same series, precision included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

from .errors import PreconditionError
from .hahn import Series, dot
from .ordval import INF, GroupValue


@dataclass(frozen=True)
class ValPoly:
    """Coefficients c_0..c_n, lowest degree first; the zero polynomial is
    the empty tuple.  The constructor takes any iterable of coefficients
    and drops trailing exact zeros, so c_n is the leading coefficient
    whenever the polynomial is not zero; a truncated zero is kept."""

    p: int
    coeffs: tuple[Series, ...]

    def __post_init__(self):
        cs = tuple(self.coeffs)
        n = len(cs)
        while n and cs[n - 1].is_exact_zero:
            n -= 1
        object.__setattr__(self, "coeffs", cs[:n])

    @staticmethod
    def make(p: int, coeffs) -> "ValPoly":
        return ValPoly(p, coeffs)

    @staticmethod
    def zero(p: int) -> "ValPoly":
        return ValPoly(p, ())

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        if self.is_zero:
            raise PreconditionError("degree of the zero polynomial")
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> Series:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Series.zero(self.p)

    def __add__(self, other: "ValPoly") -> "ValPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return ValPoly(self.p, (self.coeff(i) + other.coeff(i) for i in range(n)))

    def __neg__(self) -> "ValPoly":
        return ValPoly(self.p, (-c for c in self.coeffs))

    def __sub__(self, other: "ValPoly") -> "ValPoly":
        return self + (-other)

    def __mul__(self, other: "ValPoly") -> "ValPoly":
        out = [Series.zero(self.p)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_exact_zero:
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_exact_zero:
                    continue
                out[i + j] = out[i + j] + a * b
        return ValPoly(self.p, out)

    def scale(self, c: Series) -> "ValPoly":
        return ValPoly(self.p, (c * a for a in self.coeffs))

    def __call__(self, x: Series) -> Series:
        """f(x): ``power_sum`` over powers of x built for this call."""
        return power_sum(self, x, {})

    def compose(self, other: "ValPoly") -> "ValPoly":
        acc = ValPoly.zero(self.p)
        for c in reversed(self.coeffs):
            acc = acc * other + ValPoly(self.p, (c,))
        return acc

    def __str__(self) -> str:
        from .parsing import format_poly

        return format_poly(self)


def formal_derivative(f: ValPoly, i: int) -> ValPoly:
    """The i-th Hasse derivative f_i(X) = sum_{j>=i} C(j,i) c_j X^(j-i),
    binomials computed as exact integers then reduced mod p."""
    if i < 0:
        raise PreconditionError("derivative order must be nonnegative")
    return ValPoly(
        f.p,
        (f.coeffs[j].scale(comb(j, i) % f.p) for j in range(i, len(f.coeffs))),
    )


def power_sum(
    f: ValPoly, x: Series, powers: dict[int, Series], through: GroupValue = INF
) -> Series:
    """f(x) as the sum a_0 + sum_{j>=1} a_j x^j over the powers of x, with
    exactly the terms of exponent <= ``through``: where that drops a term,
    the precision is the next point of the sum's exponent lattice
    (``hahn.dot``'s cut).  The powers are always whole, so ``powers``
    holds the same series whatever ``through`` is.

    ``powers`` is a caller-owned dict {k: x^k} of powers of this same x.
    It gains x^k only where a_k is not an exact zero, together with the
    powers the rule needs to reach it: x^k is the Frobenius image of
    x^(k/p) (``Series.frobenius``, no product) when p divides k, and
    x^ceil(k/2) * x^floor(k/2) otherwise, so the result never depends on
    what the dict already held.  The sum is one ``dot`` over the pairs
    with a coefficient that is not an exact zero: an exact zero adds no
    term and no precision bound, while a zero coefficient that is
    truncated still bounds the precision through its product with x^j.
    """
    xs, ys = [], []
    for k, a in enumerate(f.coeffs):
        if not a.is_exact_zero:
            xs.append(a)
            ys.append(_power(x, k, powers) if k else Series.one(f.p))
    return dot(xs, ys, through=through) if xs else Series.zero(f.p)


def _power(x: Series, k: int, powers: dict[int, Series]) -> Series:
    """x^k for k >= 1 by ``power_sum``'s rule, entered in ``powers`` with
    every power the rule reads on the way."""
    out = powers.get(k)
    if out is None:
        if k == 1:
            out = x
        elif k % x.p == 0:
            out = _power(x, k // x.p, powers).frobenius()
        else:
            out = _power(x, k - k // 2, powers) * _power(x, k // 2, powers)
        powers[k] = out
    return out


def taylor_coefficients(
    f: ValPoly, c: Series, powers: list[Series] | None = None, *, start: int = 0
) -> list[Series]:
    """The rows f_i(c) for start <= i <= deg f at once, as the binomial
    sums f_i(c) = sum_{j>=i} C(j,i) a_j c^(j-i) over the powers of c.

    No row below ``start`` is computed, and each returned row is exactly
    the one the default ``start=0`` gives, precision included.  A term is
    skipped only when C(j,i) = 0 mod p or a_j is an exact zero: a zero
    coefficient that is truncated still bounds the precision.
    ``powers`` is a caller-owned list [c, c^2, ...] of powers of this same
    c, extended in place as c^k = c^(k-1) * c only up to the largest j - i
    of a term the returned rows read, so the result never depends on what
    the list already held.
    """
    if start < 0:
        raise PreconditionError("the first Taylor row must be nonnegative")
    coeffs = f.coeffs
    n = len(coeffs)
    if powers is None:
        powers = []
    reach = max(
        (r for r, a in zip(_reach(f.p, n, start), coeffs) if not a.is_exact_zero),
        default=0,
    )
    while len(powers) < reach:
        powers.append(powers[-1] * c if powers else c)
    out: list[Series] = []
    for i, row in enumerate(_binomial_rows(f.p, n)[start:], start):
        acc = coeffs[i]
        for j, b in row:
            a = coeffs[j]
            if a.is_exact_zero:
                continue
            if b != 1:
                a = a.scale(b)
            acc = acc + a * powers[j - i - 1]
        out.append(acc)
    return out


@lru_cache(maxsize=256)
def _binomial_rows(p: int, n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row i lists (j, C(j,i) mod p) for i < j < n, omitting the binomials
    that vanish mod p."""
    return tuple(
        tuple((j, b) for j in range(i + 1, n) if (b := comb(j, i) % p))
        for i in range(n)
    )


@lru_cache(maxsize=256)
def _reach(p: int, n: int, start: int) -> tuple[int, ...]:
    """Entry j < n is the largest j - i over the rows i >= ``start`` that
    read a_j, that is, with C(j,i) != 0 mod p; 0 when no such row reads it."""
    return tuple(
        max((j - i for i in range(start, j) if comb(j, i) % p), default=0)
        for j in range(n)
    )


def taylor_check(f: ValPoly, c: Series, x: Series) -> bool:
    """Whether f(x) equals sum_i f_i(c) (x-c)^i up to propagated precision."""
    lhs = f(x)
    diff = x - c
    rhs = Series.zero(f.p)
    power = Series.one(f.p)
    for fi_c in taylor_coefficients(f, c):
        rhs = rhs + fi_c * power
        power = power * diff
    return not (lhs - rhs).terms


def poly_divmod(g: ValPoly, f: ValPoly) -> tuple[ValPoly, ValPoly]:
    """Exact division with remainder; the leading coefficient of f must be an
    exact monomial so its inverse is representable."""
    if f.is_zero:
        raise PreconditionError("division by the zero polynomial")
    p = g.p
    lead = f.coeffs[-1]
    if lead != lead.prefix(1):
        raise PreconditionError(
            "divisor leading coefficient must be an exact monomial"
        )
    e, c = lead.leading()
    lead_inv = Series.monomial(p, -e, pow(c, -1, p))
    df = f.degree()
    rem = list(g.coeffs)
    quot: dict[int, Series] = {}
    while len(rem) - 1 >= df and rem:
        top = rem[-1]
        if top.is_exact_zero:
            rem.pop()
            continue
        k = len(rem) - 1 - df
        q = top * lead_inv
        quot[k] = quot.get(k, Series.zero(p)) + q
        for j in range(df + 1):
            rem[k + j] = rem[k + j] - q * f.coeffs[j]
        rem.pop()
    qdeg = max(quot) if quot else -1
    qpoly = ValPoly(p, (quot.get(i, Series.zero(p)) for i in range(qdeg + 1)))
    return qpoly, ValPoly(p, rem)


def f_adic_expand(g: ValPoly, f: ValPoly) -> list[ValPoly]:
    """Digits c_0..c_k with g = sum c_i f^i and deg c_i < deg f."""
    if f.is_zero or f.degree() < 1:
        raise PreconditionError("expansion base must have degree >= 1")
    digits: list[ValPoly] = []
    cur = g
    while True:
        if cur.is_zero:
            if not digits:
                digits.append(ValPoly.zero(g.p))
            break
        if cur.degree() < f.degree():
            digits.append(cur)
            break
        q, r = poly_divmod(cur, f)
        digits.append(r)
        cur = q
    return digits


def f_adic_reconstruct(digits: list[ValPoly], f: ValPoly) -> ValPoly:
    acc = ValPoly.zero(f.p)
    for d in reversed(digits):
        acc = acc * f + d
    return acc


def binom_val(p: int, t: int, r: int) -> GroupValue:
    """The p-adic valuation of C(p^t * r, p^t); zero whenever gcd(r,p)=1."""
    if t < 0 or r < 1 or gcd(r, p) != 1:
        raise PreconditionError(f"need t >= 0 and r coprime to p, got t={t} r={r}")
    n = comb(p**t * r, p**t)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return Fraction(v)
