"""Acceptance gate: one test per release criterion, each printing a
per-criterion PASS/FAIL line (written to the real stdout so the lines are
visible inside a captured pytest run).  All comparisons are exact — rational
arithmetic end to end, no tolerances."""

import random
import sys
import time
from fractions import Fraction
from math import comb

import pytest

import _report
from apxval.apprtype import ApproxType, Fixed, NotFixed, pushed_forward
from apxval.curated import (
    generic_immediate_type,
    theta_minpoly,
    theta_type,
    trace_pulldown_scenario,
)
from apxval.envelope import AffineFamily, eventual_argmin, eventual_order
from apxval.errors import (
    IndeterminateValuation,
    InsufficientPrecision,
    MarkerViolation,
    PreconditionError,
    StabilizationError,
)
from apxval.hahn import Series, invert, p_power_denominators
from apxval.ordval import INF, Cut, scale_cut, shift_cut
from apxval.parsing import format_series, parse_series
from apxval.reldeg import (
    approx_coefficient,
    check_multiplicativity,
    coefficient_dist_law,
    combine_same_degree,
    h_upper_bound_from_coeffs,
    reduced_factor_shape,
    rel_degree,
)
from apxval.tamegal import (
    TameCyclic,
    best_ground_approx,
    chi,
    crossed_hom_check,
    valuation_independence_witness,
)
from apxval.valpoly import (
    ValPoly,
    binom_val,
    f_adic_expand,
    f_adic_reconstruct,
    taylor_check,
)

TAME_PAIRS = [(3, 2), (5, 4), (5, 2), (7, 3), (7, 6)]


def _emit(line):
    _report.LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


def criterion(num, label, limit_s, body):
    start = time.perf_counter()
    try:
        detail = body() or ""
    except BaseException:
        _emit(f"CRITERION {num:2d} [{label}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < limit_s
    status = "PASS" if ok else "FAIL (over time budget)"
    extra = f", {detail}" if detail else ""
    _emit(f"CRITERION {num:2d} [{label}]: {status} ({elapsed:.2f}s{extra})")
    assert ok, f"criterion {num} took {elapsed:.2f}s, budget {limit_s}s"


# --- helpers -----------------------------------------------------------


def random_exact_series(rng, p, max_terms=6, max_den=10):
    terms = [
        (
            Fraction(rng.randint(-30, 30), rng.randint(1, max_den)),
            rng.randint(1, p - 1),
        )
        for _ in range(rng.randint(0, max_terms))
    ]
    return Series.make(p, terms)


def random_monomial_coeff(rng, p, zero_ok=True):
    if zero_ok and rng.random() < 0.3:
        return Series.zero(p)
    return Series.monomial(
        p,
        Fraction(rng.randint(-4, 4), p ** rng.randint(0, 2)),
        rng.randint(1, p - 1),
    )


def random_monomial_poly(rng, p, max_deg):
    deg = rng.randint(1, max_deg)
    coeffs = [random_monomial_coeff(rng, p) for _ in range(deg + 1)]
    if coeffs[-1].is_exact_zero:
        coeffs[-1] = Series.one(p)
    return ValPoly.make(p, coeffs)


def is_power_of(h, p):
    while h % p == 0:
        h //= p
    return h == 1


# --- 1: worked-example anchor ------------------------------------------


def test_criterion_1_theta_anchor():
    def body():
        for p in (2, 3, 5):
            A = theta_type(p)
            f = theta_minpoly(p)
            rd = rel_degree(A, f)
            assert rd.h == p
            assert rd.beta == 0
            assert A.distance() == Cut.strictly_below(0)
            image_cut = shift_cut(rd.beta, scale_cut(rd.h, A.distance()))
            assert image_cut == scale_cut(p, A.distance())
            assert image_cut == Cut.strictly_below(0)
            # independent transport of the whole type through f
            B = pushed_forward(A, f, rd.h, rd.beta)
            assert B.distance() == image_cut
        return "p in {2,3,5}"

    criterion(1, "theta anchor h=p, beta=0", 5, body)


# --- 2: exact tail law --------------------------------------------------


def test_criterion_2_tail_law():
    def body():
        checked = 0
        for p in (2, 3, 5):
            A = theta_type(p)
            f = theta_minpoly(p)
            rd = rel_degree(A, f)
            fx = f(A.target)
            for n in range(len(A.approximants)):
                lhs = (fx - f(A.approximants[n])).val()
                assert lhs - (rd.beta + rd.h * A.gamma(n)) == 0
                checked += 1
        return f"{checked} tail points"

    criterion(2, "difference law on the tail", 1, body)


# --- 3: binomial valuation grid ----------------------------------------


def test_criterion_3_binomial_grid():
    def body():
        checked = 0
        for p in (2, 3, 5):
            for t in range(5):
                for r in range(2, 10):
                    if r % p == 0:
                        continue
                    assert binom_val(p, t, r) == 0
                    checked += 1
        return f"{checked} grid points"

    criterion(3, "binomial valuation grid", 5, body)


# --- 4: envelope vs brute-force sampling -------------------------------


def _random_family(rng):
    m = rng.randint(1, 8)
    slopes = rng.sample(range(-30, 31), m)
    items = []
    for i, s in enumerate(slopes):
        if rng.random() < 0.15:
            b = INF
        else:
            b = Fraction(rng.randint(-60, 60), rng.randint(1, 20))
        items.append((i, b, s))
    if all(b is INF for _, b, _ in items):
        items[0] = (items[0][0], Fraction(0), items[0][2])
    if rng.random() < 0.5:
        approach = Cut.plus_infinity()
    else:
        boundary = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        approach = (
            Cut.strictly_below(boundary)
            if rng.random() < 0.7
            else Cut.below_or_equal(boundary)
        )
    return AffineFamily.make(items, approach)


def _sample_points(fam, beta, k=5):
    if fam.approach.is_infinite:
        return [beta + j for j in range(1, k + 1)]
    g0 = fam.approach.boundary
    return [g0 - (g0 - beta) / 2**j for j in range(1, k + 1)]


def _order_at(fam, gamma):
    def key(it):
        if it.intercept is INF:
            return (1, 0)
        return (0, it.intercept + it.slope * gamma)

    return tuple(it.index for it in sorted(fam.items, key=key, reverse=True))


def test_criterion_4_envelope_oracle():
    def body():
        rng = random.Random(40404)
        for _ in range(10_000):
            fam = _random_family(rng)
            order = eventual_order(fam)
            for gamma in _sample_points(fam, order.beta):
                assert _order_at(fam, gamma) == order.permutation
            finite = [it.index for it in fam.items if it.intercept is not INF]
            if finite:
                assert eventual_argmin(fam) == order.permutation[-1]
        return "10000 families x 5 sample points"

    criterion(4, "envelope order vs sampling", 30, body)


# --- 5: h is a power of p; upper bounds --------------------------------


def test_criterion_5_power_of_p():
    def body():
        rng = random.Random(50505)
        types = {
            p: (theta_type(p, precision=12), theta_minpoly(p)) for p in (2, 3)
        }
        # an auxiliary immediate type whose target has value 0, where the
        # coefficient-based upper bound applies directly
        p0 = 3
        exps = [Fraction(0)] + [1 - Fraction(1, p0**i) for i in range(2, 9)]
        A0 = generic_immediate_type(p0, exps, precision=6, boundary=Fraction(1))

        ok = skipped = bound_checked = 0
        for trial in range(1000):
            kind = trial % 5
            if kind < 2:
                p = rng.choice([2, 3])
                A, fmin = types[p]
                g = random_monomial_poly(rng, p, 12)
            elif kind == 2:
                p = rng.choice([2, 3])
                A, fmin = types[p]
                c = Series.monomial(
                    p, Fraction(rng.randint(-3, 3)), rng.randint(1, p - 1)
                )
                pert = (
                    random_monomial_poly(rng, p, p - 1)
                    if rng.random() < 0.7
                    else ValPoly.zero(p)
                )
                g = fmin.scale(c) + pert
                if g.is_zero or g.degree() < 1:
                    skipped += 1
                    continue
            elif kind == 3:
                p = rng.choice([2, 3])
                A, fmin = types[p]
                g = fmin * random_monomial_poly(rng, p, 4)
            else:
                p = p0
                A = A0
                g = random_monomial_poly(rng, p, 12)
            try:
                rd = rel_degree(A, g)
            except (
                MarkerViolation,
                StabilizationError,
                InsufficientPrecision,
                IndeterminateValuation,
                PreconditionError,
            ):
                skipped += 1
                continue
            ok += 1
            assert is_power_of(rd.h, p), (p, rd.h, g)
            if kind == 4:
                try:
                    bound = h_upper_bound_from_coeffs(g)
                except PreconditionError:
                    bound = None
                if bound is not None:
                    bound_checked += 1
                    assert rd.h <= bound
        assert ok >= 700

        # strict bound: zero coefficients at every index divisible by p^e
        p, e = 2, 2
        A = theta_type(p, precision=12)
        coeffs = [Series.zero(p)] * 7
        coeffs[0] = Series.one(p)
        for i in (1, 2, 3, 5, 6):
            coeffs[i] = Series.monomial(p, i + 7)
        rd = rel_degree(A, ValPoly.make(p, coeffs))
        assert rd.h < p**e
        return f"{ok} laws, {skipped} skipped, {bound_checked} bound checks"

    criterion(5, "h always a power of p", 60, body)


# --- 6: multiplicativity under composition -----------------------------


def test_criterion_6_multiplicativity():
    def body():
        verified = skipped = 0
        cases = []
        rng = random.Random(60606)

        def random_linear(p):
            a = Series.monomial(
                p,
                Fraction(rng.randint(-2, 2), p ** rng.randint(0, 1)),
                rng.randint(1, p - 1),
            )
            b = (
                Series.monomial(p, Fraction(rng.randint(-2, 2)))
                if rng.random() < 0.5
                else Series.zero(p)
            )
            return ValPoly.make(p, [b, a])

        for i in range(88):
            cases.append((2, 20))
        for i in range(12):
            cases.append((3, 20))
        for p, prec in cases:
            A = theta_type(p, precision=prec, transcendental=True)
            fmin = theta_minpoly(p)
            pick = rng.random()
            if pick < 0.45:
                f = fmin.compose(random_linear(p))
            else:
                f = random_linear(p)
            if rng.random() < 0.45 and (p == 2 or f.degree() == 1):
                g = fmin.compose(random_linear(p))
            else:
                g = random_linear(p)
            try:
                assert check_multiplicativity(A, f, g)
            except (InsufficientPrecision, MarkerViolation):
                skipped += 1
                continue
            verified += 1
        assert verified >= 90
        return f"{verified} compositions verified, {skipped} skipped"

    criterion(6, "h multiplicative under composition", 60, body)


# --- 7: residue factorization of the reduced difference -----------------


def test_criterion_7_residue_factorization():
    def body():
        for p in (2, 3, 5):
            A = theta_type(p)
            f = theta_minpoly(p)
            n = A.tail()[-1]
            c = A.approximants[n]
            d = Series.monomial(p, -A.gamma(n))
            residues = reduced_factor_shape(A, f, c, d)
            r = (d * (A.target - c)).residue()
            # coefficientwise: equals the expansion of (Z - r)^p
            expected = [
                comb(p, i) * (-r) ** (p - i) % p for i in range(p + 1)
            ]
            assert residues == expected
            # root multiplicity count in the residue polynomial
            coeffs = list(residues)
            mult = 0
            while coeffs and sum(coeffs[i] * pow(r, i, p) for i in range(len(coeffs))) % p == 0:
                # synthetic division by (Z - r)
                out = [0] * (len(coeffs) - 1)
                carry = 0
                for i in reversed(range(1, len(coeffs))):
                    carry = (coeffs[i] + carry * r) % p
                    out[i - 1] = carry
                coeffs = out
                mult += 1
            assert mult == p
            for z in range(p):
                if z == r % p:
                    continue
                assert (
                    sum(residues[i] * pow(z, i, p) for i in range(p + 1)) % p
                    != 0
                )
        return "full multiplicity p at the residue root, p in {2,3,5}"

    criterion(7, "residue factorization witness", 5, body)


# --- 8: approximation coefficients --------------------------------------


def test_criterion_8_approximation_coefficients():
    def body():
        # anchor certificates
        from apxval.valpoly import formal_derivative

        for p in (2, 3, 5):
            A = theta_type(p)
            f = theta_minpoly(p)
            d, rd = approx_coefficient(A, f)
            fh = formal_derivative(f, rd.h)
            for n in A.tail():
                s = fh(A.approximants[n])
                assert s.val() == d.val()
                diff = s - d
                assert diff.is_exact_zero or diff.val() > d.val()
            cut = coefficient_dist_law(A, rd.h, d)
            assert cut == shift_cut(d.val(), scale_cut(rd.h, A.distance()))
            assert cut == scale_cut(p, A.distance())

        # randomized certificates on generic immediate types
        rng = random.Random(80808)
        done = 0
        while done < 50:
            p = rng.choice([2, 3, 5])
            base = Fraction(rng.randint(-3, 3))
            exps = [base - Fraction(1, p**i) for i in range(1, 9)]
            A = generic_immediate_type(p, exps, precision=base + 2, boundary=base)
            a = Series.monomial(
                p,
                Fraction(rng.randint(-3, 3), p ** rng.randint(0, 2)),
                rng.randint(1, p - 1),
            )
            b = random_exact_series(rng, p, max_terms=2, max_den=1)
            f = ValPoly.make(p, [b, a])
            if f.degree() < 1:
                continue
            d, rd = approx_coefficient(A, f)
            assert rd.h == 1
            assert d.val() == a.val()
            diff = a - d
            assert diff.is_exact_zero or diff.val() > d.val()
            assert coefficient_dist_law(A, 1, d) == shift_cut(
                d.val(), A.distance()
            )
            done += 1

        # combining elements of equal degree preserves h ...
        p = 3
        A = theta_type(p)
        f = theta_minpoly(p)
        one = Series.one(p)
        proxies = [f, f + ValPoly(p, (one,))]
        rd = combine_same_degree(A, proxies, [one, one], [one, one])
        assert rd.h == p
        # ... and the coefficient-cancellation case is rejected
        neg = Series.monomial(p, 0, p - 1)
        proxies = [f, f]
        with pytest.raises(PreconditionError, match="cancellation"):
            combine_same_degree(A, proxies, [one, neg], [one, one])
        return "3 anchors + 50 randomized + combination laws"

    criterion(8, "approximation coefficients", 30, body)


# --- 9: tame cyclic extensions ------------------------------------------


def test_criterion_9_tame_module():
    def body():
        # crossed-homomorphism law and kernel injectivity, exhaustive
        for p, n in TAME_PAIRS:
            G = TameCyclic.make(p, n)
            for sig in G.elements():
                for tau in G.elements():
                    for m in range(n):
                        d = Series.monomial(p, Fraction(m, n))
                        assert crossed_hom_check(G, sig, tau, d)
                trivial = all(
                    chi(G, sig, Series.monomial(p, Fraction(m, n))) == 1
                    for m in range(n)
                )
                assert trivial == sig.is_identity

        # witness search: 1000 random instances, re-verified in full
        rng = random.Random(90909)
        for _ in range(1000):
            p, n = rng.choice(TAME_PAIRS)
            G = TameCyclic.make(p, n)
            k = rng.randint(1, n)
            sigmas = [G.element(i) for i in rng.sample(range(n), k)]
            ds = []
            for _ in range(k):
                terms = [(Fraction(0), rng.randint(1, p - 1))]
                for _ in range(rng.randint(0, 3)):
                    terms.append(
                        (Fraction(rng.randint(1, 8), n), rng.randint(1, p - 1))
                    )
                ds.append(Series.make(p, terms))
            d = valuation_independence_witness(G, sigmas, ds)
            parts = [sig(d) * di for sig, di in zip(sigmas, ds)]
            total = parts[0]
            for part in parts[1:]:
                total = total + part
            assert total.val() == min(part.val() for part in parts)

        # best ground approximation achieves the maximum distance
        checked = 0
        while checked < 100:
            p, n = rng.choice(TAME_PAIRS)
            G = TameCyclic.make(p, n)
            terms = []
            for _ in range(rng.randint(1, 8)):
                m = rng.randint(-12, 12)
                den = n * p ** rng.randint(0, 2)
                terms.append((Fraction(m, den), rng.randint(1, p - 1)))
            a = Series.make(p, terms)
            c0, vmax = best_ground_approx(G, a)
            candidates = [Series.zero(p), c0]
            for k in range(1, len(c0.terms)):
                candidates.append(Series(p, c0.terms[:k]))
            for _ in range(10):
                e = Fraction(rng.randint(-10, 10), p ** rng.randint(0, 2))
                candidates.append(
                    c0 + Series.monomial(p, e, rng.randint(1, p - 1))
                )
            for c in candidates:
                assert (a - c).val() <= vmax
            checked += 1
        return "5 groups exhaustive, 1000 witnesses, 100 approximations"

    criterion(9, "tame cyclic extensions", 60, body)


# --- 10: trace pull-down -------------------------------------------------


def test_criterion_10_trace_pulldown():
    def body():
        sc = trace_pulldown_scenario()
        # the witness comes out of the search over the conjugates'
        # approximation coefficients
        assert sc.witness == valuation_independence_witness(
            sc.group, sc.group.elements(), sc.approx_coeffs
        )
        rd = rel_degree(sc.x_type, sc.trace_poly)
        assert rd.h == 1
        # the trace lands in the base: every exponent has a denominator
        # that is a power of p, the index-2 part is gone
        pred = p_power_denominators(3)
        assert sc.trace.terms and all(pred(e) for e, _ in sc.trace.terms)
        return "h(x : Tr(d*x)) = 1"

    criterion(10, "trace pull-down", 10, body)


# --- 11: foundational property suites ------------------------------------


def test_criterion_11_foundations():
    def body():
        rng = random.Random(111111)
        # ultrametric and ring laws
        p = 5
        for _ in range(1000):
            a = random_exact_series(rng, p, max_terms=5)
            b = random_exact_series(rng, p, max_terms=5)
            c = random_exact_series(rng, p, max_terms=5)
            va, vb = a.val(), b.val()
            vs = (a + b).val()
            assert vs >= min(va, vb)
            if va != vb:
                assert vs == min(va, vb)
            if va is not INF and vb is not INF:
                assert (a * b).val() == va + vb
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
        # inversion round-trip
        for _ in range(1000):
            a = random_exact_series(rng, p, max_terms=5)
            if not a.terms:
                continue
            target = a.val() + rng.randint(1, 8)
            rem = a * invert(a, target) - Series.one(p)
            if rem.terms:
                assert rem.terms[0][0] >= target - a.val()
        # Taylor identity and f-adic round-trip
        for _ in range(1000):
            q = rng.choice([2, 3, 5])
            deg = rng.randint(1, 8)
            f = ValPoly.make(
                q,
                [
                    random_exact_series(rng, q, max_terms=3, max_den=6)
                    for _ in range(deg + 1)
                ],
            )
            if f.is_zero:
                continue
            c = random_exact_series(rng, q, max_terms=3, max_den=6)
            x = random_exact_series(rng, q, max_terms=3, max_den=6)
            assert taylor_check(f, c, x)
            base = ValPoly.make(
                q,
                [
                    random_exact_series(rng, q, max_terms=2, max_den=6)
                    for _ in range(rng.randint(1, 4))
                ]
                + [Series.one(q)],
            )
            digits = f_adic_expand(f, base)
            assert f_adic_reconstruct(digits, base) == f
        # parser round-trip
        for _ in range(10_000):
            terms = [
                (
                    Fraction(rng.randint(-20, 20), rng.randint(1, 12)),
                    rng.randint(1, 4),
                )
                for _ in range(rng.randint(0, 8))
            ]
            prec = (
                INF
                if rng.random() < 0.5
                else Fraction(rng.randint(21, 40), rng.randint(1, 4))
            )
            s = Series.make(5, terms, prec)
            assert parse_series(format_series(s), 5) == s
        return "1000x algebra, 1000x invert, 1000x Taylor/f-adic, 10000x parse"

    criterion(11, "foundational properties", 60, body)
