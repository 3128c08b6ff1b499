"""The curated example corpus as executable regressions.

Every case carries a provenance tag: "anchor" for values pinned from the
worked examples the library is calibrated against, "derived" for values
computed by an independent oracle named in the case, "trivial" for values
immediate from definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Callable

from .ordval import Cut, format_value, scale_cut, shift_cut
from .hahn import Series, in_subfield, invert, p_power_denominators
from .valpoly import binom_val
from .envelope import AffineFamily, eventual_argmin
from .apprtype import ApproxType
from .curated import (
    theta_f_of_theta_exact,
    theta_minpoly,
    theta_type,
    trace_pulldown_scenario,
)
from .tamegal import TameCyclic, crossed_hom_check, valuation_independence_witness
from .reldeg import rel_degree, tail_factor_shape


@dataclass(frozen=True)
class ExampleCase:
    name: str
    provenance: str  # anchor | derived:<oracle> | trivial
    run: Callable[[], tuple[str, str]]  # -> (expected, actual)


def _theta_h_case(p: int) -> ExampleCase:
    def run():
        A = theta_type(p)
        rd = rel_degree(A, theta_minpoly(p))
        return (f"h={p} beta=0", f"h={rd.h} beta={format_value(rd.beta)}")

    return ExampleCase(f"theta-h-equals-p-p{p}", "anchor", run)


def _theta_distance_case(p: int) -> ExampleCase:
    def run():
        return ("(<0)", str(theta_type(p).distance()))

    return ExampleCase(f"theta-distance-p{p}", "anchor", run)


def _theta_dist_law_case(p: int) -> ExampleCase:
    def run():
        A = theta_type(p)
        rd = rel_degree(A, theta_minpoly(p))
        pushed = shift_cut(rd.beta, scale_cut(rd.h, A.distance()))
        return ("(<0)", str(pushed))

    return ExampleCase(f"theta-dist-law-p{p}", "anchor", run)


def _theta_f_in_ground_case(p: int) -> ExampleCase:
    def run():
        fx = theta_f_of_theta_exact(p)
        B = ApproxType.from_truncations(fx, p_power_denominators(p))
        return ("(+inf)", str(B.distance()))

    return ExampleCase(f"theta-f-value-in-ground-p{p}", "anchor", run)


def _binom_case() -> ExampleCase:
    def run():
        bad = [
            (p, t, r)
            for p in (2, 3, 5)
            for t in range(5)
            for r in range(2, 10)
            if gcd(r, p) == 1 and binom_val(p, t, r) != 0
        ]
        return ("violations=[]", f"violations={bad}")

    return ExampleCase("binom-pt-grid", "derived:big-integer binomials", run)


def _envelope_theta_case(p: int) -> ExampleCase:
    def run():
        fam = AffineFamily.make(
            [(1, Fraction(0), 1), (p, Fraction(0), p)],
            Cut.strictly_below(0),
        )
        return (str(p), str(eventual_argmin(fam)))

    return ExampleCase(f"envelope-theta-family-p{p}", "anchor", run)


def _invert_case() -> ExampleCase:
    def run():
        p = 5
        a = Series.make(p, [(0, 1), (1, 1)])
        inv = invert(a, Fraction(4))
        rem = a * inv - Series.one(p)
        ok = (not rem.terms) or rem.terms[0][0] >= 4
        return ("ok=True", f"ok={ok}")

    return ExampleCase("invert-roundtrip", "derived:multiply-back check", run)


def _tame_witness_case() -> ExampleCase:
    def run():
        G = TameCyclic.make(3, 2)
        ds = [Series.one(3), Series.monomial(3, 0, 2)]
        d = valuation_independence_witness(G, G.elements(), ds)
        return ("t^(1/2)", str(d))

    return ExampleCase("tame-witness-basic", "derived:enumeration", run)


def _crossed_hom_case() -> ExampleCase:
    def run():
        ok = True
        for (p, n) in ((3, 2), (5, 4), (7, 3)):
            G = TameCyclic.make(p, n)
            for sig in G.elements():
                for tau in G.elements():
                    for m in range(n):
                        d = Series.monomial(p, Fraction(m, n))
                        ok = ok and crossed_hom_check(G, sig, tau, d)
        return ("ok=True", f"ok={ok}")

    return ExampleCase("crossed-hom-exhaustive", "derived:enumeration", run)


def _factor_shape_case(p: int) -> ExampleCase:
    def run():
        A = theta_type(p)
        f = theta_minpoly(p)
        residues, r = tail_factor_shape(A, f)
        expected = [
            (comb(p, i) * pow(-r, p - i, p)) % p for i in range(p + 1)
        ]
        return (str(expected), str(residues))

    return ExampleCase(
        f"factor-shape-theta-p{p}", "derived:coefficientwise reduction", run
    )


def _trace_case() -> ExampleCase:
    def run():
        sc = trace_pulldown_scenario()
        rd = rel_degree(sc.x_type, sc.trace_poly)
        pulled_down = in_subfield(sc.trace, p_power_denominators(sc.group.p))
        return ("h=1 pulled-down=True", f"h={rd.h} pulled-down={pulled_down}")

    return ExampleCase("trace-pulldown", "derived:full pipeline", run)


def build_corpus() -> list[ExampleCase]:
    cases: list[ExampleCase] = []
    for p in (2, 3, 5):
        cases.append(_theta_h_case(p))
        cases.append(_theta_distance_case(p))
        cases.append(_theta_dist_law_case(p))
        cases.append(_theta_f_in_ground_case(p))
        cases.append(_envelope_theta_case(p))
        cases.append(_factor_shape_case(p))
    cases.append(_binom_case())
    cases.append(_invert_case())
    cases.append(_tame_witness_case())
    cases.append(_crossed_hom_case())
    cases.append(_trace_case())
    return sorted(cases, key=lambda c: c.name)


def run_corpus(name_filter: str = "") -> tuple[list[dict], bool]:
    """Executes matching cases; returns (records, all_passed).  Records are
    sorted by case name so two runs are byte-identical."""
    records = []
    all_ok = True
    for case in build_corpus():
        if name_filter and name_filter not in case.name:
            continue
        try:
            expected, actual = case.run()
            status = "pass" if expected == actual else "fail"
        except Exception as exc:  # surface, never hide
            expected, actual = "", f"error: {type(exc).__name__}: {exc}"
            status = "error"
        if status != "pass":
            all_ok = False
        records.append(
            {
                "case": case.name,
                "status": status,
                "expected": expected,
                "actual": actual,
                "provenance": case.provenance,
            }
        )
    return records, all_ok
