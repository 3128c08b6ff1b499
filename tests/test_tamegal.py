import random
from fractions import Fraction

import pytest
from test_hahn import assert_series_invariants

from apxval.errors import (
    IndeterminateValuation,
    InsufficientPrecision,
    PreconditionError,
)
from apxval.hahn import Series, invert
from apxval.ordval import INF
from apxval.tamegal import (
    GaloisElem,
    TameCyclic,
    best_ground_approx,
    chi,
    crossed_hom_check,
    standard_basis_decompose,
    trace,
    trace_generator,
    valuation_independence_witness,
)

PAIRS = [(3, 2), (5, 4), (5, 2), (7, 3), (7, 6)]


def random_lattice_series(rng, G, max_terms=8, allow_p_denoms=True):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        m = rng.randint(-12, 12)
        den = G.n * (G.p ** rng.randint(0, 2) if allow_p_denoms else 1)
        terms.append((Fraction(m, den), rng.randint(1, G.p - 1)))
    return Series.make(G.p, terms)


def test_construction_checks_divisibility():
    with pytest.raises(PreconditionError):
        TameCyclic.make(5, 3)
    G = TameCyclic.make(7, 3)
    assert pow(G.zeta, 3, 7) == 1
    assert G.zeta != 1


def test_construction_refuses_n_below_1():
    # n = 0 divided by zero; n = -1 divides p - 1 and exhausted the search
    for n in (0, -1, -4):
        with pytest.raises(PreconditionError):
            TameCyclic.make(5, n)


def test_zeta_is_the_least_residue_of_exact_order_n():
    # the plain scan z = 2, 3, ... it replaced, for every prime p < 200
    def scanned(p, n):
        if n == 1:
            return 1
        return next(
            z for z in range(2, p)
            if pow(z, n, p) == 1 and all(pow(z, k, p) != 1 for k in range(1, n))
        )

    primes = [q for q in range(2, 200) if all(q % r for r in range(2, q))]
    for p in primes:
        for n in range(1, p):
            if (p - 1) % n == 0:
                assert TameCyclic.make(p, n).zeta == scanned(p, n), (p, n)


@pytest.mark.parametrize("p,n", PAIRS)
def test_action_is_automorphism(p, n):
    G = TameCyclic.make(p, n)
    rng = random.Random(p * 100 + n)
    gen = G.element(1)
    for _ in range(200):
        a = random_lattice_series(rng, G)
        b = random_lattice_series(rng, G)
        for x in (a, b, a * b, a + b, (a + b).truncate(0)):
            assert_series_invariants(gen(x))
        assert gen(a * b) == gen(a) * gen(b)
        assert gen(a + b) == gen(a) + gen(b)
        assert gen(a).val() == a.val()
    # sigma^n is the identity
    x = random_lattice_series(rng, G)
    y = x
    for _ in range(n):
        y = gen(y)
    assert y == x


def test_action_fixes_ground():
    G = TameCyclic.make(3, 2)
    gen = G.element(1)
    a = Series.make(3, [(1, 1), (Fraction(1, 3), 2), (-2, 1)])
    assert gen(a) == a


def test_chi_examples():
    G = TameCyclic.make(3, 2)
    s = G.s()
    assert chi(G, G.element(0), s) == 1
    assert chi(G, G.element(1), s) == 2  # -1 mod 3
    a = Series.make(3, [(1, 1), (2, 2)])
    assert chi(G, G.element(1), a) == 1  # ground elements in the kernel


@pytest.mark.parametrize("p, n", [(5, 4), (7, 3), (7, 6), (13, 4)])
def test_chi_on_the_coset_of_s_to_the_n_minus_1_inverts_chi_of_s(p, n):
    # the trace pull-down's x = sum t^(-1/(n p^i)) lies in this coset, so
    # a conjugate's slope chi(rho, x) is chi(rho, s)^(-1), which differs
    # from chi(rho, s) once n > 2
    G = TameCyclic.make(p, n)
    ys = [
        Series.monomial(p, Fraction(n - 1, n), 2),
        Series.monomial(p, Fraction(-1, n * p)),
        Series.make(
            p, [(Fraction(-1, n * p**i), 1) for i in range(1, 4)], Fraction(1)
        ),
    ]
    for rho in G.elements():
        inverse = pow(chi(G, rho, G.s()), -1, p)
        assert [chi(G, rho, y) for y in ys] == [inverse] * len(ys)


def _series_chi(G, sigma, d):
    """chi as the residue of the series sigma(d) * d^(-1), the inverse
    known to precision v(d) + 1."""
    vd = d.val()
    if vd is INF:
        raise PreconditionError("chi of zero")
    return (sigma(d) * invert(d, vd + 1)).coeff(0)


def test_chi_refuses_a_d_outside_the_extension():
    # sigma reads every term of d, not only the leading one that the
    # residue needs: t^(1/4) does not lie in the degree-2 step
    G = TameCyclic.make(5, 2)
    d = Series(5, [(Fraction(1, 2), 1), (Fraction(5, 4), 1)])
    with pytest.raises(PreconditionError, match="degree-2 step"):
        chi(G, G.element(1), d)


def test_chi_matches_the_series_quotient_randomized():
    # p = 2, 3, 5 with every n | p - 1; d of one to four terms, exact or
    # truncated close above its last term or farther
    rng = random.Random(4242)
    groups = [
        TameCyclic.make(p, n) for p in (2, 3, 5) for n in (1, 2, 4) if (p - 1) % n == 0
    ]
    answered = 0
    for _ in range(10000):
        G = rng.choice(groups)
        sigma = G.element(rng.randrange(G.n))
        den = G.n * G.p ** rng.randint(0, 2)
        exps = sorted({
            Fraction(rng.randint(-3 * den, 3 * den), den)
            for _ in range(rng.randint(1, 4))
        })
        terms = [(e, rng.randint(1, G.p - 1)) for e in exps]
        if rng.random() < 0.5:
            d = Series(G.p, terms)
        else:
            gap = Fraction(rng.randint(1, 3 * den), den) / rng.choice([1, 4])
            d = Series(G.p, terms, exps[-1] + gap)
        try:
            want = _series_chi(G, sigma, d)
        except InsufficientPrecision:
            continue
        assert chi(G, sigma, d) == want
        answered += 1
    assert answered > 8000


@pytest.mark.parametrize("p,n", PAIRS)
def test_crossed_hom_exhaustive(p, n):
    G = TameCyclic.make(p, n)
    for sig in G.elements():
        for tau in G.elements():
            for m in range(n):
                d = Series.monomial(p, Fraction(m, n))
                assert crossed_hom_check(G, sig, tau, d)


@pytest.mark.parametrize("p,n", PAIRS)
def test_kernel_characterization(p, n):
    G = TameCyclic.make(p, n)
    for sig in G.elements():
        trivial_on_all = all(
            chi(G, sig, Series.monomial(p, Fraction(m, n))) == 1
            for m in range(n)
        )
        assert trivial_on_all == sig.is_identity


def test_witness_single_sigma():
    G = TameCyclic.make(3, 2)
    d = valuation_independence_witness(G, [G.element(0)], [Series.one(3)])
    assert d == Series.one(3)


def test_witness_spec_cases():
    G = TameCyclic.make(3, 2)
    ones = [Series.one(3), Series.one(3)]
    assert valuation_independence_witness(G, G.elements(), ones) == Series.one(3)
    mixed = [Series.one(3), Series.monomial(3, 0, 2)]
    d = valuation_independence_witness(G, G.elements(), mixed)
    assert d == G.s()


def test_witness_randomized_1000():
    rng = random.Random(4242)
    count = 0
    while count < 1000:
        p, n = rng.choice(PAIRS)
        G = TameCyclic.make(p, n)
        k = rng.randint(1, n)
        sigmas = [G.element(i) for i in rng.sample(range(n), k)]
        ds = []
        for _ in range(k):
            terms = [(Fraction(0), rng.randint(1, p - 1))]
            for _ in range(rng.randint(0, 3)):
                terms.append(
                    (
                        Fraction(rng.randint(1, 8), n),
                        rng.randint(1, p - 1),
                    )
                )
            prec = Fraction(rng.randint(1, 9), n) if rng.random() < 0.5 else INF
            ds.append(Series.make(p, terms, prec))
        d = valuation_independence_witness(G, sigmas, ds)
        # re-verify with full series arithmetic: s^m works and no s^j,
        # j < m, does
        m = int(d.val() * n)
        assert d == Series.monomial(p, Fraction(m, n))
        for j in range(m + 1):
            cand = Series.monomial(p, Fraction(j, n))
            terms = [sig(cand) * di for sig, di in zip(sigmas, ds)]
            total = sum(terms[1:], terms[0])
            least = min(t.val() for t in terms)
            if j == m:
                assert total.val() == least
            else:
                try:
                    assert total.val() > least
                except IndeterminateValuation:
                    pass
        count += 1


def test_witness_refuses_mixed_primes():
    G = TameCyclic.make(3, 2)
    with pytest.raises(PreconditionError, match="mixed primes"):
        valuation_independence_witness(
            G, G.elements(), [Series.one(3), Series.one(5)]
        )
    with pytest.raises(PreconditionError, match="mixed primes"):
        valuation_independence_witness(G, [G.element(0)], [Series.one(5)])


def test_witness_refuses_bad_arguments():
    G = TameCyclic.make(3, 2)
    one = Series.one(3)
    with pytest.raises(PreconditionError, match="matching nonempty sigma/d"):
        valuation_independence_witness(G, [], [])
    with pytest.raises(PreconditionError, match="matching nonempty sigma/d"):
        valuation_independence_witness(G, G.elements(), [one])
    with pytest.raises(PreconditionError, match="pairwise distinct"):
        valuation_independence_witness(G, [G.element(1)] * 2, [one, one])
    # a d_i of positive value, and the zero series, whose value is infinite
    for d in (Series.monomial(3, Fraction(1, 2)), Series.zero(3)):
        with pytest.raises(PreconditionError, match="every d_i must have value 0"):
            valuation_independence_witness(G, G.elements(), [one, d])


def test_standard_basis_decompose_example():
    G = TameCyclic.make(3, 2)
    a = G.s() + Series.monomial(3, 1)
    c = standard_basis_decompose(G, a)
    assert c[0] == Series.monomial(3, 1)
    assert c[1] == Series.one(3)
    c0, v = best_ground_approx(G, a)
    assert c0 == Series.monomial(3, 1)
    assert v == Fraction(1, 2)


def test_standard_basis_round_trip_and_min_formula():
    rng = random.Random(55)
    for _ in range(300):
        p, n = rng.choice(PAIRS)
        G = TameCyclic.make(p, n)
        a = random_lattice_series(rng, G)
        cs = standard_basis_decompose(G, a)
        recon = Series.zero(p)
        for m, c in enumerate(cs):
            recon = recon + c * Series.monomial(p, Fraction(m, n))
        assert recon == a
        vals = [
            (c * Series.monomial(p, Fraction(m, n))).val()
            for m, c in enumerate(cs)
            if c.terms
        ]
        assert a.val() == min(vals)


def test_best_approx_beats_truncation_search():
    rng = random.Random(66)
    for _ in range(100):
        p, n = rng.choice(PAIRS)
        G = TameCyclic.make(p, n)
        a = random_lattice_series(rng, G)
        c0, vmax = best_ground_approx(G, a)
        # no ground candidate does better: try truncations of c0 and
        # random perturbations by ground monomials
        candidates = [Series.zero(p), c0]
        for k in range(1, len(c0.terms)):
            candidates.append(Series(p, c0.terms[:k]))
        for _ in range(10):
            e = Fraction(rng.randint(-10, 10), G.p ** rng.randint(0, 2))
            candidates.append(
                c0 + Series.monomial(p, e, rng.randint(1, p - 1))
            )
        for c in candidates:
            assert (a - c).val() <= vmax


def test_trace_stabilizes_ground():
    G = TameCyclic.make(3, 2)
    rng = random.Random(77)
    for _ in range(50):
        a = random_lattice_series(rng, G)
        tr = trace(G, a)
        gen = G.element(1)
        assert gen(tr) == tr


def test_trace_generator_degenerate_cases():
    G1 = TameCyclic.make(3, 1)
    x = Series.make(3, [(1, 2), (2, 1)])
    d = Series.one(3)
    assert trace_generator(G1, x, d) == d * x

    G = TameCyclic.make(3, 2)
    x_ground = Series.make(3, [(1, 1), (-2, 2)])
    tr = trace_generator(G, x_ground, G.s())
    assert tr == x_ground * trace(G, G.s())


def test_indeterminate_witness_sum_fails_the_candidate_cleanly():
    G = TameCyclic.make(3, 2)
    sigmas = [G.element(0), G.element(1)]
    d1 = Series.make(3, [(0, 1)], Fraction(1))  # 1 + O(t)
    ds = [d1, -d1]
    # for d = 1 the sum is O(t): its value is indeterminate, so the
    # candidate fails instead of raising
    assert valuation_independence_witness(G, sigmas, ds) == G.s()
