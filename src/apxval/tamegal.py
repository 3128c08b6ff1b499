"""Tame cyclic extensions L = K(s), s^n = t, n | p - 1, over K = F_p((t)).

The Galois action multiplies the coefficient of each monomial by a power
of a primitive n-th root of unity zeta in F_p, determined by the s-part of
the exponent.  Exponents may additionally carry p-power denominators (the
perfect hull is fixed pointwise).  The module provides the character
chi_sigma(d) = residue of sigma(d)/d, the crossed-homomorphism identity,
a constructive valuation-independence witness search that evaluates the
one residue sum its proof reads for each candidate, standard-basis
decomposition, and the trace construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InternalInconsistency, PreconditionError
from .hahn import Series, _from_ints, _prime_to_p, val_diff
from .ordval import INF, GroupValue


@dataclass(frozen=True)
class TameCyclic:
    p: int
    n: int
    zeta: int

    @staticmethod
    def make(p: int, n: int) -> "TameCyclic":
        if n < 1 or (p - 1) % n != 0:
            raise PreconditionError(f"need n >= 1 with n | p - 1, got n={n}, p={p}")
        zeta = _primitive_root_of_unity(p, n)
        return TameCyclic(p, n, zeta)

    def s(self) -> Series:
        """The uniformizer of the ramified step: s = t^(1/n)."""
        return Series.monomial(self.p, Fraction(1, self.n))

    def s_part(self, e: Fraction) -> int:
        """m mod n with t^e = s^m * (fixed perfect-hull monomial)."""
        return self._s_part(e.numerator, e.denominator)

    def _s_part(self, k: int, den: int) -> int:
        """s_part of the exponent k/den, not necessarily in lowest terms."""
        g = gcd(k, den)
        k, den = k // g, den // g
        # den = p^J * rest with gcd(rest, p) = 1
        rest = _prime_to_p(den, self.p)
        pj = den // rest
        if self.n % rest != 0:
            raise PreconditionError(
                f"exponent {Fraction(k, den)} does not lie in the "
                f"degree-{self.n} step"
            )
        # e = m/n + b/p^J  =>  m = e*n*p^J * inverse(p^J) mod n
        num = k * self.n * pj // den
        return (num * pow(pj, -1, self.n)) % self.n

    def element(self, k: int) -> "GaloisElem":
        return GaloisElem(self, k % self.n)

    def elements(self) -> list["GaloisElem"]:
        return [self.element(k) for k in range(self.n)]


def _primitive_root_of_unity(p: int, n: int) -> int:
    """The least residue of exact order n mod p, for n | p - 1.

    w = z^((p - 1)/n) has order dividing n, and exactly n when no w^(n/q),
    q > 1 dividing n, is 1; the residues of order n are then the w^j with
    j prime to n.  z runs from 1, whose w = 1 serves n = 1."""
    divisors = [q for q in range(2, n + 1) if n % q == 0]
    for z in range(1, p):
        w = pow(z, (p - 1) // n, p)
        if all(pow(w, n // q, p) != 1 for q in divisors):
            return min(pow(w, j, p) for j in range(1, n + 1) if gcd(j, n) == 1)
    raise InternalInconsistency(f"no primitive {n}-th root of unity mod {p}")


@dataclass(frozen=True)
class GaloisElem:
    group: TameCyclic
    k: int

    @property
    def is_identity(self) -> bool:
        return self.k == 0

    def __call__(self, a: Series) -> Series:
        G = self.group
        den = a.den
        coeffs = tuple([
            c * pow(G.zeta, self.k * G._s_part(k, den), G.p) % G.p
            for k, c in zip(a.exps, a.coeffs)
        ])
        return _from_ints(a.p, den, a.exps, coeffs, a.precision)

    def __mul__(self, other: "GaloisElem") -> "GaloisElem":
        return GaloisElem(self.group, (self.k + other.k) % self.group.n)


def chi(G: TameCyclic, sigma: GaloisElem, d: Series) -> int:
    """Residue of sigma(d)/d; lies in the group of n-th roots of unity.
    sigma keeps the value and the residue map is multiplicative, so it is
    lc(sigma(d)) / lc(d) mod p.  sigma reads every term of d, so a d
    outside the extension is refused."""
    if d.val() is INF:
        raise PreconditionError("chi of zero")
    return sigma(d).coeffs[0] * pow(d.coeffs[0], -1, G.p) % G.p


def crossed_hom_check(
    G: TameCyclic, sigma: GaloisElem, tau: GaloisElem, d: Series
) -> bool:
    """chi_{sigma tau}(d) = chi_sigma(tau d) * chi_tau(d)."""
    left = chi(G, sigma * tau, d)
    right = (chi(G, sigma, tau(d)) * chi(G, tau, d)) % G.p
    return left == right


def valuation_independence_witness(
    G: TameCyclic, sigmas: list[GaloisElem], ds: list[Series]
) -> Series:
    """An element d with v(sum sigma_i(d) d_i) = min v(sigma_i(d) d_i),
    among the monomials s^m, m = 0..n-1.

    One of them always works.  With sigma_i = s -> zeta^(k_i) s, the k_i
    distinct mod n, the sum for d = s^m has coefficient
    sum_i zeta^(k_i m) res(d_i) at t^(m/n), its least possible exponent.
    If that vanished for every m, the Vandermonde matrix in the distinct
    zeta^(k_i) would send the nonzero vector of residues to 0.  The search
    evaluates just that coefficient, the leading coefficient of
    sigma_i(s^m) times res(d_i) summed mod p, and returns the first s^m
    where it is nonzero.  The coefficient is always determinate: each
    product sigma_i(s^m) d_i is known up to m/n + prec(d_i) > m/n."""
    if len(sigmas) != len(ds) or not sigmas:
        raise PreconditionError("need matching nonempty sigma/d lists")
    if len({s.k for s in sigmas}) != len(sigmas):
        raise PreconditionError("automorphisms must be pairwise distinct")
    if any(d.val() != 0 for d in ds):
        raise PreconditionError("every d_i must have value 0")
    if any(d.p != G.p for d in ds):
        raise PreconditionError(f"mixed primes: some d_i is not over p = {G.p}")
    residues = [d.residue() for d in ds]
    for m in range(G.n):
        cand = Series.monomial(G.p, Fraction(m, G.n))
        if sum(sig(cand).coeffs[0] * r for sig, r in zip(sigmas, residues)) % G.p:
            return cand
    raise InternalInconsistency(
        "witness search exhausted: contradicts valuation independence "
        "of a tame Galois group"
    )


def standard_basis_decompose(G: TameCyclic, a: Series) -> list[Series]:
    """Coefficients c_0..c_{n-1} over the basis {1, s, ..., s^{n-1}}, each
    with perfect-hull (p-power-denominator) exponents."""
    buckets: list[list[tuple[Fraction, int]]] = [[] for _ in range(G.n)]
    for e, c in a.terms:
        m = G.s_part(e)
        buckets[m].append((e - Fraction(m, G.n), c))
    out = []
    for m in range(G.n):
        prec = a.precision
        if prec is not INF:
            prec = prec - Fraction(m, G.n)
        out.append(Series.make(a.p, buckets[m], prec))
    return out


def best_ground_approx(G: TameCyclic, a: Series) -> tuple[Series, GroupValue]:
    """The coset-0 part c_0 and v(a - c_0), the maximum of v(a - c) over
    ground elements c."""
    c0 = standard_basis_decompose(G, a)[0]
    return c0, val_diff(a, c0)


def trace(G: TameCyclic, a: Series) -> Series:
    total = a
    for k in range(1, G.n):
        total = total + G.element(k)(a)
    return total


def trace_generator(G: TameCyclic, x: Series, d: Series) -> Series:
    """Tr(d * x) = sum over the group of rho(d) * rho(x)."""
    return trace(G, d * x)
