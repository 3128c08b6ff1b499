"""The four seeded workloads of the benchmark.

Each workload is a closed loop with one caller: ``next_input`` draws the
next input from the seeded stream (untimed), ``run`` is the timed op, and
``check`` verifies the op's outcome by a route independent of the one the
op took (untimed).  ``describe`` renders one exact outcome line for the
run's digest.

The generators of the acceptance gate (criteria 4, 5, 6 and 9) are copied
here rather than imported from the test suite, so that an edit to a test
cannot silently change the benchmark's inputs.  Every workload receives
the library as a namespace ``lib`` of freshly imported modules and calls
it through module attributes, so that a traced run sees every call.

Where an op's cost depends strongly on one input property (the degree of
a criterion-5 polynomial, the size of a series), the schedule of that
property is fixed and the seed draws everything else.  Every run then
measures the same mix of costs, and runs at different seeds agree.
"""

from __future__ import annotations

import hashlib
import random
from collections import defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from numbers import Rational


@dataclass(frozen=True)
class Refused:
    """An op that ended in an expected domain refusal."""

    cls: str


# --- generators copied from the acceptance gate -------------------------


def random_monomial_coeff(lib, rng, p, zero_ok=True):
    Series = lib.hahn.Series
    if zero_ok and rng.random() < 0.3:
        return Series.zero(p)
    return Series.monomial(
        p,
        Fraction(rng.randint(-4, 4), p ** rng.randint(0, 2)),
        rng.randint(1, p - 1),
    )


def random_monomial_poly(lib, rng, p, max_deg):
    deg = rng.randint(1, max_deg)
    coeffs = [random_monomial_coeff(lib, rng, p) for _ in range(deg + 1)]
    if coeffs[-1].is_exact_zero:
        coeffs[-1] = lib.hahn.Series.one(p)
    return lib.valpoly.ValPoly.make(p, coeffs)


def is_power_of(h, p):
    while h % p == 0:
        h //= p
    return h == 1


@dataclass(frozen=True)
class Trial:
    """One rel_degree input of the criterion-5 generator."""

    trial: int
    kind: int
    p: int
    type_key: str
    poly: object


def criterion5_trials(lib, rng):
    """The trial stream of acceptance criterion 5, continued past its 1000
    trials; trials the gate skips before calling rel_degree are dropped."""
    Series, ValPoly = lib.hahn.Series, lib.valpoly.ValPoly
    fmins = {p: lib.curated.theta_minpoly(p) for p in (2, 3)}
    trial = 0
    while True:
        kind = trial % 5
        if kind < 2:
            p = rng.choice([2, 3])
            g = random_monomial_poly(lib, rng, p, 12)
        elif kind == 2:
            p = rng.choice([2, 3])
            c = Series.monomial(
                p, Fraction(rng.randint(-3, 3)), rng.randint(1, p - 1)
            )
            pert = (
                random_monomial_poly(lib, rng, p, p - 1)
                if rng.random() < 0.7
                else ValPoly.zero(p)
            )
            g = fmins[p].scale(c) + pert
            if g.is_zero or g.degree() < 1:
                trial += 1
                continue
        elif kind == 3:
            p = rng.choice([2, 3])
            g = fmins[p] * random_monomial_poly(lib, rng, p, 4)
        else:
            p = 3
            g = random_monomial_poly(lib, rng, p, 12)
        yield Trial(trial, kind, p, "A0" if kind == 4 else f"theta{p}", g)
        trial += 1


def random_family(lib, rng, m=None, slope_range=30):
    """Acceptance criterion 4's affine family (1 to 8 items); with ``m``
    given, a family of m items with slopes in [-slope_range, slope_range]."""
    INF, Cut = lib.ordval.INF, lib.ordval.Cut
    if m is None:
        m = rng.randint(1, 8)
    slopes = rng.sample(range(-slope_range, slope_range + 1), m)
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
    return lib.envelope.AffineFamily.make(items, approach)


def sample_points(fam, beta, k=5):
    if fam.approach.is_infinite:
        return [beta + j for j in range(1, k + 1)]
    g0 = fam.approach.boundary
    return [g0 - (g0 - beta) / 2**j for j in range(1, k + 1)]


def order_at(lib, fam, gamma):
    INF = lib.ordval.INF

    def key(it):
        if it.intercept is INF:
            return (1, 0)
        return (0, it.intercept + it.slope * gamma)

    return tuple(it.index for it in sorted(fam.items, key=key, reverse=True))


def random_linear(lib, rng, p):
    """Criterion 6's random linear change of variable."""
    Series = lib.hahn.Series
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
    return lib.valpoly.ValPoly.make(p, [b, a])


TAME_PAIRS = [(3, 2), (5, 4), (5, 2), (7, 3), (7, 6)]


def random_witness_instance(lib, rng):
    """Criterion 9's valuation-independence instance: (p, n, automorphism
    indices, value-0 elements d_i)."""
    Series = lib.hahn.Series
    p, n = rng.choice(TAME_PAIRS)
    k = rng.randint(1, n)
    ks = rng.sample(range(n), k)
    ds = []
    for _ in range(k):
        terms = [(Fraction(0), rng.randint(1, p - 1))]
        for _ in range(rng.randint(0, 3)):
            terms.append(
                (Fraction(rng.randint(1, 8), n), rng.randint(1, p - 1))
            )
        ds.append(Series.make(p, terms))
    return p, n, ks, ds


def series_key(s):
    return f"{s.terms}@{s.precision}"


# --- reldeg-random ---------------------------------------------------------

# The cost of a criterion-5 op is set mostly by its kind, degree and prime
# (degree 12 costs 100 times degree 1; p = 3 twice p = 2).  Op j has kind
# j % 5 as in the gate; the kinds with a uniform degree walk DEGREE_ORDER
# at offsets 0, 4 and 8, kind 3 walks FACTOR_ORDER, and the prime
# alternates by visit, so every CYCLE consecutive ops hold the same mix and
# the seed draws the rest.
DEGREE_ORDER = (1, 12, 6, 3, 9, 2, 11, 7, 4, 10, 5, 8)
DEGREE_OFFSET = {0: 0, 1: 4, 4: 8}
# kind 3 multiplies the minimal polynomial by a factor of degree 1 to 4;
# six visits per prime fit a cycle, so the middle degrees come twice
FACTOR_ORDER = (1, 3, 4, 2, 3, 2)


class ReldegRandom:
    """One op is one rel_degree call on a criterion-5 input.

    At any seed the inputs are the opening trials of criterion 5's stream
    at that seed, taken in the order of the schedule above.  The three
    types are built once, in set-up.
    """

    name = "reldeg-random"
    refusals = (
        "MarkerViolation",
        "StabilizationError",
        "InsufficientPrecision",
        "IndeterminateValuation",
        "PreconditionError",
    )
    cycle = 60
    predraw = 400

    def __init__(self, lib, seed):
        self.lib = lib
        self.unchecked = 0
        cur = lib.curated
        self.types = {f"theta{p}": cur.theta_type(p, precision=12) for p in (2, 3)}
        p0 = 3
        exps = [Fraction(0)] + [1 - Fraction(1, p0**i) for i in range(2, 9)]
        self.types["A0"] = cur.generic_immediate_type(
            p0, exps, precision=6, boundary=Fraction(1)
        )
        self.stream = criterion5_trials(lib, random.Random(seed))
        self.queues = defaultdict(deque)
        for _ in range(self.predraw):
            self._draw()
        self.ops = 0

    @staticmethod
    def _bucket(kind, degree, p):
        return (kind, None if kind == 2 else degree, p)

    def _draw(self):
        t = next(self.stream)
        self.queues[self._bucket(t.kind, t.poly.degree(), t.p)].append(t)

    def next_input(self):
        j = self.ops
        self.ops += 1
        kind, visit = j % 5, j // 5
        degree = None
        if kind in DEGREE_OFFSET:
            degree = DEGREE_ORDER[(visit + DEGREE_OFFSET[kind]) % 12]
        elif kind == 3:
            degree = (2, 3)[visit % 2] + FACTOR_ORDER[visit // 2 % 6]
        if kind == 4:
            p = 3
        elif kind < 2:
            # kinds 0 and 1 (one generator) take opposite primes, so each
            # cycle of 60 ops holds every degree with each prime once
            p = (2, 3)[(visit // 12 + kind) % 2]
        else:
            p = (2, 3)[visit % 2]
        queue = self.queues[self._bucket(kind, degree, p)]
        while not queue:
            self._draw()
        return queue.popleft()

    def run(self, t):
        rd = self.lib.reldeg.rel_degree(self.types[t.type_key], t.poly)
        return rd.h, rd.beta

    def check(self, t, res):
        if isinstance(res, Refused):
            return res.cls in self.refusals
        lib = self.lib
        h, beta = res
        if not is_power_of(h, t.p):
            return False
        g, A = t.poly, self.types[t.type_key]
        if t.type_key == "A0":
            try:
                bound = lib.reldeg.h_upper_bound_from_coeffs(g)
            except lib.errors.PreconditionError:
                bound = None
            if bound is not None and h > bound:
                return False
        # the law itself at the deepest tail point whose values the precision
        # leaves determinate, evaluated with the reference arithmetic below
        # rather than the library's kernel and Horner scheme
        p, coeffs = t.p, [ref(c) for c in g.coeffs]
        x = ref(A.target)
        fx = ref_eval(p, coeffs, x)
        for n in reversed(A.tail()):
            c = ref(A.approximants[n])
            w = ref_val(ref_add(p, fx, ref_neg(p, ref_eval(p, coeffs, c))))
            gamma = ref_val(ref_add(p, x, ref_neg(p, c)))
            if w is not None and gamma is not None:
                return w == beta + h * gamma
        self.unchecked += 1
        return True

    def describe(self, t, res):
        if isinstance(res, Refused):
            return f"{t.trial} refused {res.cls}"
        return f"{t.trial} h={res[0]} beta={res[1]}"


class Drawn:
    """A workload whose inputs are drawn in order by ``_draw``; set-up draws
    the first ``predraw`` of them."""

    predraw = 0
    # ops whose check found nothing to compare; every check here compares
    unchecked = 0

    def __init__(self, lib, seed):
        self.lib = lib
        self.rng = random.Random(seed)
        self.drawn = 0
        self.pending = deque(self._draw() for _ in range(self.predraw))

    def _draw(self):
        raise NotImplementedError

    def next_input(self):
        if not self.pending:
            self.pending.append(self._draw())
        return self.pending.popleft()


# --- anchor-pipeline ------------------------------------------------------


@dataclass(frozen=True)
class AnchorInput:
    op: str
    p: int
    args: tuple


class AnchorPipeline(Drawn):
    """One op builds a type and runs one anchor computation on it.

    Op j runs, by j % 4: approx_coefficient or reduced_factor_shape on the
    theta anchor, check_multiplicativity on criterion 6's random linear
    changes of variable, or criterion 9's tame witness search, whose type
    is its tame cyclic group.  The anchor's prime and number of theta
    terms, which set its cost, follow a fixed schedule (every pairing once
    per CYCLE ops); the seed draws the precision, the tail point and the
    other ops' inputs.  The anchor types repeat within a run.
    """

    name = "anchor-pipeline"
    # criterion 6 skips compositions refused for these reasons
    refusals = ("InsufficientPrecision", "MarkerViolation")
    cycle = 48
    predraw = 200

    def __init__(self, lib, seed):
        self.fmins = {p: lib.curated.theta_minpoly(p) for p in (2, 3, 5)}
        super().__init__(lib, seed)

    def _draw(self):
        rng, lib = self.rng, self.lib
        j = self.drawn
        self.drawn += 1
        op, visit = ("approx", "shape", "mult", "witness")[j % 4], j // 4
        if op in ("approx", "shape"):
            p = (2, 3, 5)[visit % 3]
            terms = 5 + visit // 3 % 4
            precision = rng.choice([1, 20])
            return AnchorInput(op, p, (terms, precision, rng.randrange(6)))
        if op == "mult":
            # criterion 6 composes at p = 2 in 88 cases of 100; here in 11 of 12
            p = 3 if visit % 12 == 11 else 2
            fmin = self.fmins[p]
            if rng.random() < 0.45:
                f = fmin.compose(random_linear(lib, rng, p))
            else:
                f = random_linear(lib, rng, p)
            if rng.random() < 0.45 and (p == 2 or f.degree() == 1):
                g = fmin.compose(random_linear(lib, rng, p))
            else:
                g = random_linear(lib, rng, p)
            return AnchorInput(op, p, (f, g))
        p, n, ks, ds = random_witness_instance(lib, rng)
        return AnchorInput(op, p, (n, tuple(ks), tuple(ds)))

    def _theta(self, p, terms, precision):
        return self.lib.curated.theta_type(
            p, terms, precision=precision, transcendental=precision != 1
        )

    def run(self, x):
        lib = self.lib
        if x.op == "approx":
            terms, precision, _ = x.args
            A = self._theta(x.p, terms, precision)
            d, rd = lib.reldeg.approx_coefficient(A, self.fmins[x.p])
            return d, rd.h, rd.beta
        if x.op == "shape":
            terms, precision, pick = x.args
            A = self._theta(x.p, terms, precision)
            tail = A.tail()
            n = tail[pick % len(tail)]
            c = A.approximants[n]
            d = lib.hahn.Series.monomial(x.p, -A.gamma(n))
            return tuple(lib.reldeg.reduced_factor_shape(A, self.fmins[x.p], c, d))
        if x.op == "mult":
            f, g = x.args
            A = lib.curated.theta_type(x.p, precision=20, transcendental=True)
            return lib.reldeg.check_multiplicativity(A, f, g)
        n, ks, ds = x.args
        G = lib.tamegal.TameCyclic.make(x.p, n)
        return lib.tamegal.valuation_independence_witness(
            G, [G.element(k) for k in ks], list(ds)
        )

    def check(self, x, res):
        if isinstance(res, Refused):
            return x.op == "mult" and res.cls in self.refusals
        lib = self.lib
        Series = lib.hahn.Series
        if x.op == "approx":
            d, h, beta = res
            # f = X^p - X - 1/t: its p-th Hasse derivative is the constant 1
            return h == x.p and beta == 0 and d == Series.one(x.p)
        if x.op == "shape":
            terms, precision, pick = x.args
            A = self._theta(x.p, terms, precision)
            tail = A.tail()
            n = tail[pick % len(tail)]
            c = A.approximants[n]
            gamma = (A.target - c).val()
            r = (Series.monomial(x.p, -gamma) * (A.target - c)).residue()
            expected = tuple(
                comb(x.p, i) * (-r) ** (x.p - i) % x.p for i in range(x.p + 1)
            )
            return res == expected
        if x.op == "mult":
            return res is True
        n, ks, ds = x.args
        if not res.terms:
            return False
        G = lib.tamegal.TameCyclic.make(x.p, n)
        parts = [G.element(k)(res) * di for k, di in zip(ks, ds)]
        total = parts[0]
        for part in parts[1:]:
            total = total + part
        return total.val() == min(part.val() for part in parts)

    def describe(self, x, res):
        if isinstance(res, Refused):
            return f"{x.op} p={x.p} refused {res.cls}"
        if x.op == "approx":
            return f"{x.op} p={x.p} {x.args} d={series_key(res[0])} h={res[1]} beta={res[2]}"
        if x.op == "witness":
            return f"{x.op} p={x.p} n={x.args[0]} d={series_key(res)}"
        return f"{x.op} p={x.p} {res}"


# --- series-wide ----------------------------------------------------------

# Exponent denominators: integers only, powers of p, or mixed coprime.  The
# class sets the size of the common denominator of a product.  The prime is
# fixed: with p-power denominators it sets that size too.
WIDE_P = 3
DEN_CLASSES = ("int", "ppow", "mixed")


def _dens(cls, p):
    if cls == "int":
        return (1,)
    if cls == "ppow":
        return (p, p * p, p**3)
    return (2, 3, 5)


def random_wide_series(lib, rng, p, n, den_cls, truncated):
    """n terms with strictly increasing exponents, gaps of mean about 1;
    a truncated series is known just past its last term."""
    dens = _dens(den_cls, p)
    e = Fraction(rng.randint(-5, 5))
    terms = []
    for _ in range(n):
        terms.append((e, rng.randint(1, p - 1)))
        den = rng.choice(dens)
        e += Fraction(rng.randint(1, 2 * den), den)
    prec = e if truncated else lib.ordval.INF
    return lib.hahn.Series(p, tuple(terms), prec)


def random_unit_series(lib, rng, p, n, den_cls, truncated, k=4):
    """c * t^v * (1 + u) with n - 1 terms in u, all of value in [s, k*s):
    inverting to relative precision k*s takes k - 1 geometric steps, each
    a product with u."""
    dens = _dens(den_cls, p)
    s = n // (k - 1) + 1
    v = Fraction(rng.randint(-5, 5))
    exps = set()
    while len(exps) < n - 1:
        den = rng.choice(dens)
        exps.add(Fraction(rng.randrange(s * den, k * s * den), den))
    terms = [(v, rng.randint(1, p - 1))]
    terms += [(v + e, rng.randint(1, p - 1)) for e in sorted(exps)]
    target = v + k * s
    prec = target if truncated else lib.ordval.INF
    return lib.hahn.Series(p, tuple(terms), prec), target


# (op, terms of a, terms of b, truncated).  Op j has shape j % 25 and
# denominator class j % 3; 25 and 3 are coprime, so every CYCLE = 75 ops
# cover each pairing once.  The large convolutions are few, so a run holds
# enough ops for its 95th percentile, and yet they take most of the op time.
SHAPES = (
    ("add", 10, 10, False),
    ("mul", 10, 10, False),
    ("invert", 10, 0, False),
    ("add", 100, 100, True),
    ("mul", 30, 30, True),
    ("mul", 100, 10, False),
    ("add", 10, 10, True),
    ("mul", 10, 10, True),
    ("invert", 30, 0, True),
    ("mul", 100, 100, False),
    ("add", 30, 30, False),
    ("invert", 100, 0, False),
    ("add", 1000, 1000, True),
    ("mul", 10, 10, False),
    ("add", 10, 10, False),
    ("mul", 1000, 10, True),
    ("invert", 10, 0, True),
    ("mul", 300, 300, False),
    ("add", 100, 100, False),
    ("mul", 30, 30, False),
    ("mul", 1000, 100, False),
    ("add", 1000, 1000, False),
    ("invert", 100, 0, True),
    ("mul", 1000, 300, True),
    ("mul", 1000, 1000, False),
)


@dataclass(frozen=True)
class WideInput:
    index: int
    op: str
    den_cls: str
    truncated: bool
    a: object
    b: object  # the second operand, or the invert target precision


# --- reference arithmetic ---------------------------------------------------
#
# The checks of reldeg-random and series-wide compute with series of their
# own: (terms, precision) with terms a dict {exponent: coefficient mod p}
# and precision None when exact.  Products multiply every pair of terms over
# one common denominator, with no ordering assumed and no early exit, so
# nothing here shares code with the library's kernel.


def ref(s):
    """A library Series as a reference series."""
    return dict(s.terms), s.precision if isinstance(s.precision, Rational) else None


def ref_product(p, xs, ys, below=None, dense=None):
    """The product of two term dicts; terms at or above ``below`` dropped.

    Where the exponents lie dense on their common denominator, as in the
    long series of series-wide, one big-integer multiplication forms every
    pairwise product (Kronecker substitution); elsewhere the pairs are
    multiplied one by one.  ``dense`` forces one way, for the self-test."""
    if not xs or not ys:
        return {}
    den = lcm(*(e.denominator for e in xs), *(e.denominator for e in ys))
    low_x, low_y = min(xs), min(ys)
    slots = ((max(xs) - low_x + max(ys) - low_y) * den + 1).numerator
    if dense is None:
        dense = slots <= 4 * len(xs) * len(ys)
    acc = {}
    if dense:
        # each operand becomes an integer with its coefficients in slots at
        # its exponent offsets, slots wide enough for any sum of pairwise
        # coefficient products; the product holds each sum in its slot
        width, fmt = next((w, f) for w, f in ((2, "H"), (4, "I"), (8, "Q"))
                          if min(len(xs), len(ys)) * (p - 1) ** 2 < 256**w)

        def encode(terms, low):
            buf = bytearray(width * slots)
            for e, c in terms.items():
                k = int((e - low) * den)
                buf[width * k:width * k + width] = c.to_bytes(width, "little")
            return int.from_bytes(buf, "little")

        prod = encode(xs, low_x) * encode(ys, low_y)
        sums = memoryview(prod.to_bytes(width * slots, "little")).cast(fmt)
        for k, c in enumerate(sums):
            if c:
                acc[k] = c
    else:
        for ea, ca in xs.items():
            ka = int((ea - low_x) * den)
            for eb, cb in ys.items():
                k = ka + int((eb - low_y) * den)
                acc[k] = acc.get(k, 0) + ca * cb
    base = int((low_x + low_y) * den)
    cut = None if below is None else below * den - base
    return {
        Fraction(base + k, den): c % p
        for k, c in acc.items()
        if c % p and (cut is None or k < cut)
    }


def naive_sum(p, xs, ys, below=None):
    acc = dict(xs)
    for e, c in ys.items():
        acc[e] = (acc.get(e, 0) + c) % p
    return {e: c for e, c in acc.items() if c and (below is None or e < below)}


def min_prec(u, v):
    if u is None:
        return v
    return u if v is None else min(u, v)


def ref_val(a):
    """The value of a reference series; None when it is exactly zero or
    zero as far as it is known."""
    terms, _ = a
    return min(terms) if terms else None


def ref_add(p, a, b):
    prec = min_prec(a[1], b[1])
    return naive_sum(p, a[0], b[0], prec), prec


def ref_neg(p, a):
    return {e: -c % p for e, c in a[0].items()}, a[1]


def ref_mul(p, a, b):
    """Known below min(v(a) + prec(b), v(b) + prec(a)); a series with no
    known term counts as of value its precision."""
    (xs, pa), (ys, pb) = a, b
    if (not xs and pa is None) or (not ys and pb is None):
        return {}, None
    va = min(xs) if xs else pa
    vb = min(ys) if ys else pb
    prec = min_prec(None if pb is None else va + pb, None if pa is None else vb + pa)
    return ref_product(p, xs, ys, prec), prec


def ref_eval(p, coeffs, x):
    """sum(c_i * x^i) with each power formed by repeated multiplication."""
    total, power = ({}, None), ({Fraction(0): 1}, None)
    for i, c in enumerate(coeffs):
        if i:
            power = ref_mul(p, power, x)
        total = ref_add(p, total, ref_mul(p, c, power))
    return total


class SeriesWide(Drawn):
    """One op is one Series add, mul or invert on seeded wide series."""

    name = "series-wide"
    refusals = ()
    cycle = 3 * len(SHAPES)
    predraw = 2 * len(SHAPES)

    def _draw(self):
        j = self.drawn
        self.drawn += 1
        op, na, nb, truncated = SHAPES[j % len(SHAPES)]
        den_cls = DEN_CLASSES[j % 3]
        rng, lib = self.rng, self.lib
        p = WIDE_P
        if op == "invert":
            a, target = random_unit_series(lib, rng, p, na, den_cls, truncated)
            return WideInput(j, op, den_cls, truncated, a, target)
        a = random_wide_series(lib, rng, p, na, den_cls, truncated)
        b = random_wide_series(lib, rng, p, nb, den_cls, truncated)
        return WideInput(j, op, den_cls, truncated, a, b)

    def run(self, x):
        if x.op == "add":
            return x.a + x.b
        if x.op == "mul":
            return x.a * x.b
        return self.lib.hahn.invert(x.a, x.b)

    def check(self, x, res):
        got, prec = ref(res)
        if list(got) != sorted(got) or len(got) != len(res.terms):
            return False
        if any(c == 0 or (prec is not None and e >= prec) for e, c in res.terms):
            return False
        p, a = WIDE_P, ref(x.a)
        if x.op == "invert":
            # multiply back: a * inv = 1 + O(t^(target - v(a)))
            return ref_product(p, a[0], got, x.b - min(a[0])) == {Fraction(0): 1}
        b = ref(x.b)
        want = ref_add(p, a, b) if x.op == "add" else ref_mul(p, a, b)
        return (got, prec) == want

    def describe(self, x, res):
        return (
            f"{x.index} {x.op} {x.den_cls} trunc={int(x.truncated)} "
            f"terms={len(res.terms)} prec={res.precision} "
            f"sha={hashlib.sha256(series_key(res).encode()).hexdigest()[:16]}"
        )


# --- envelope-families ------------------------------------------------------

# Every fourth family is large, so the quadratic crossing count shows.
LARGE_FAMILIES = (16, 32, 48)


class EnvelopeFamilies(Drawn):
    """One op is eventual_order plus eventual_argmin on one affine family.

    The series kernel is not involved: every kernel change predicts no
    change here.
    """

    name = "envelope-families"
    refusals = ()
    cycle = 4 * len(LARGE_FAMILIES)
    predraw = 2000

    def _draw(self):
        j = self.drawn
        self.drawn += 1
        if j % 4 == 3:
            m = LARGE_FAMILIES[(j // 4) % len(LARGE_FAMILIES)]
            return random_family(self.lib, self.rng, m, slope_range=4 * m)
        return random_family(self.lib, self.rng)

    def run(self, fam):
        env = self.lib.envelope
        # random_family leaves at least one finite intercept
        return env.eventual_order(fam), env.eventual_argmin(fam)

    def check(self, fam, res):
        order, argmin = res
        for gamma in sample_points(fam, order.beta):
            if order_at(self.lib, fam, gamma) != order.permutation:
                return False
        return argmin == order.permutation[-1]

    def describe(self, fam, res):
        order, argmin = res
        return f"{len(fam.items)} beta={order.beta} perm={order.permutation} argmin={argmin}"


WORKLOADS = {
    w.name: w for w in (ReldegRandom, AnchorPipeline, SeriesWide, EnvelopeFamilies)
}
