"""Curated targets and scenarios used by the test suite, the corpus, and
the demo scripts.

The central fixture is the Artin-Schreier-style anchor: over the perfect
hull L (exponents with p-power denominators), the truncated root
theta = sum_{i=1..8} t^(-1/p^i) of f = X^p - X - 1/t has an immediate
approximation type of distance (<0), relative degree h = p and constant
beta = 0.  The trace scenario extends this by a tame quadratic step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .hahn import Series, dot, lattice_p_power, p_power_denominators
from .ordval import Cut
from .valpoly import ValPoly
from .apprtype import ApproxType
from .tamegal import (
    TameCyclic,
    chi,
    trace_generator,
    valuation_independence_witness,
)

THETA_TERMS = 8


def theta_target(p: int, terms: int = THETA_TERMS, precision=1) -> Series:
    """sum_{i=1..terms} t^(-1/p^i), known up to O(t^precision).

    The precision bound 1 is load-bearing: products of up to p copies keep
    the exponent -1/p^terms determinate, so f(theta) = -t^(-1/p^terms) is
    visible exactly.
    """
    return Series.make(
        p,
        [(Fraction(-1, p**i), 1) for i in range(1, terms + 1)],
        Fraction(precision),
    )


def theta_minpoly(p: int) -> ValPoly:
    """X^p - X - 1/t."""
    coeffs = [Series.zero(p)] * (p + 1)
    coeffs[0] = Series.monomial(p, -1, p - 1)
    coeffs[1] = Series.monomial(p, 0, p - 1)
    coeffs[p] = Series.one(p)
    return ValPoly(p, tuple(coeffs))


def theta_type(
    p: int,
    terms: int = THETA_TERMS,
    precision=1,
    transcendental: bool = False,
) -> ApproxType:
    """The approximation type of the truncated root over the perfect hull."""
    return ApproxType.from_truncations(
        theta_target(p, terms, precision),
        p_power_denominators(p),
        distance_hint=Cut.strictly_below(0),
        transcendental=transcendental,
    )


def theta_f_of_theta_exact(p: int) -> Series:
    """f evaluated at the exact finite sum: the monomial
    -t^(-1/p^THETA_TERMS), which lies in the ground field itself."""
    return Series.monomial(p, Fraction(-1, p**THETA_TERMS), p - 1)


def generic_immediate_type(
    p: int,
    exponents: list[Fraction],
    precision,
    boundary: Fraction,
) -> ApproxType:
    """A transcendental immediate type from a strictly increasing exponent
    list with p-power denominators and declared distance (<boundary)."""
    target = Series.make(p, [(e, 1) for e in exponents], Fraction(precision))
    return ApproxType.from_truncations(
        target,
        p_power_denominators(p),
        distance_hint=Cut.strictly_below(boundary),
        transcendental=True,
    )


@dataclass(frozen=True)
class TraceScenario:
    group: TameCyclic
    x: Series
    x_type: ApproxType
    conjugate_proxies: list[ValPoly]
    approx_coeffs: list[Series]
    witness: Series
    trace: Series
    trace_poly: ValPoly


def trace_pulldown_scenario() -> TraceScenario:
    """The (p=3, n=2) trace construction: x = sum t^(-1/(2*3^i)) sits in the
    coset of s = t^(1/2); its conjugate is -x, the witness search over the
    approximation coefficients (1, -1) yields d = s, and Tr(d*x) = 2*s*x has
    only 3-power denominators, with h(x : Tr(d*x)) = 1."""
    p, n = 3, 2
    G = TameCyclic.make(p, n)
    ground = lattice_p_power(n, p)
    x = Series.make(
        p,
        [(Fraction(-1, n * p**i), 1) for i in range(1, THETA_TERMS + 1)],
        Fraction(1),
    )
    x_type = ApproxType.from_truncations(
        x, ground, distance_hint=Cut.strictly_below(0), transcendental=True
    )
    # a conjugate rho(x) = chi(rho, x) * x is linear in x, so its
    # approximation coefficient is its slope chi(rho, x) itself; x lies in
    # the coset of s^(n-1), where chi(rho, x) = chi(rho, s)^(-1)
    coeffs = [Series.monomial(p, 0, chi(G, rho, x)) for rho in G.elements()]
    proxies = [ValPoly(p, (Series.zero(p), k)) for k in coeffs]
    d = valuation_independence_witness(G, G.elements(), coeffs)
    tr = trace_generator(G, x, d)
    # the trace as a polynomial in x: Tr(d*x) = (sum rho(d)*chi(rho)) * x
    lead = dot([rho(d) for rho in G.elements()], coeffs)
    trace_poly = ValPoly(p, (Series.zero(p), lead))
    return TraceScenario(
        G, x, x_type, proxies, coeffs, d, tr, trace_poly
    )
