#!/usr/bin/env python3
"""Trace pull-down demonstration over the tame cyclic extension with
p = 3, n = 2 (s^2 = t): the target x lives in the nontrivial coset of s,
the witness search over the conjugates' approximation coefficients yields
d = s, and Tr(d*x) lands back in the base field with h(x : Tr(d*x)) = 1."""

from apxval.curated import trace_pulldown_scenario
from apxval.hahn import in_subfield, p_power_denominators
from apxval.parsing import format_poly, format_series
from apxval.reldeg import rel_degree


def main() -> None:
    sc = trace_pulldown_scenario()
    print(f"group      : cyclic of order {sc.group.n} over p = {sc.group.p}, "
          f"s = {format_series(sc.group.s())}")
    print(f"x          : {format_series(sc.x)}")
    print(f"distance   : {sc.x_type.distance()}")
    print("conjugate proxies:")
    for proxy in sc.conjugate_proxies:
        print(f"  {format_poly(proxy)}")
    print("approximation coefficients:",
          [format_series(d) for d in sc.approx_coeffs])
    print(f"witness    : d = {format_series(sc.witness)}")
    print(f"Tr(d*x)    : {format_series(sc.trace)}")
    pulled = in_subfield(sc.trace, p_power_denominators(3))
    print(f"in base    : {pulled} (every exponent denominator a power of 3)")
    rd = rel_degree(sc.x_type, sc.trace_poly)
    print(f"h(x : Tr(d*x)) = {rd.h}")


if __name__ == "__main__":
    main()
