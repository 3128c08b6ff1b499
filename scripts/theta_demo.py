#!/usr/bin/env python3
"""Walk through the truncated-root example: the target
theta = sum_{i=1..8} t^(-1/p^i) over the ground field with p-power
exponent denominators, against f = X^p - X - 1/t.

Prints the approximation type's distance, the relative degree law
(h, beta), the approximation coefficient with its transported distance
cut, and the residue factorization of the reduced difference."""

import argparse

from apxval.curated import theta_minpoly, theta_type
from apxval.ordval import format_value
from apxval.parsing import format_poly, format_series
from apxval.reldeg import (
    approx_coefficient,
    coefficient_dist_law,
    rel_degree,
    tail_factor_shape,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=int, default=3, help="residue prime")
    args = parser.parse_args()
    p = args.p

    A = theta_type(p)
    f = theta_minpoly(p)
    print(f"p = {p}")
    print(f"target   : {format_series(A.target)}")
    print(f"f        : {format_poly(f)}")
    print(f"distance : {A.distance()}")

    rd = rel_degree(A, f)
    print(f"law      : v(f(x) - f(c)) = {format_value(rd.beta)} "
          f"+ {rd.h} * v(x - c)   (h = {rd.h} = p, beta = 0)")
    fx = f(A.target)
    for n in A.tail():
        w = (fx - f(A.approximants[n])).val()
        print(f"  n={n}: v(x - c_n) = {format_value(A.gamma(n))}, "
              f"v(f(x) - f(c_n)) = {format_value(w)}")

    d, _ = approx_coefficient(A, f)
    cut = coefficient_dist_law(A, rd.h, d)
    print(f"coeff    : d = {format_series(d)}, image distance {cut}")

    residues, root = tail_factor_shape(A, f)
    print(f"residue  : coefficients {residues} = (Z - {root})^{rd.h} mod {p}")


if __name__ == "__main__":
    main()
