"""Relative approximation degree and constant, approximation coefficients,
multiplicativity, linear combinations, and the residue-factorization
witness.

Everything here rests on one law: along the approximant tail,
v(f(x) - f(c_n)) = beta + h * v(x - c_n) for a unique positive integer h
and constant beta.  The module computes (h, beta) two independent ways
(affine-law fit on sampled values, eventual argmin of the Taylor
intercept family) and treats any disagreement as an internal bug.
``rel_degree`` hands the envelope's law to the sampled route only to stop
each power sum at the value it looks for: every term past it is dropped
unsummed.  A miss costs one full sum of that point, and f(x) once, so the
sampled values never depend on the envelope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

from .errors import (
    IndeterminateValuation,
    InsufficientPrecision,
    InternalInconsistency,
    MarkerViolation,
    PreconditionError,
    StabilizationError,
)
from .hahn import Series, _prime_to_p, dot, min_value, val_diff
from .ordval import INF, Cut, GroupValue, scale_cut, shift_cut
from .valpoly import ValPoly, f_adic_expand, power_sum, taylor_coefficients
from .apprtype import ApproxType, Fixed, pushed_forward
from .envelope import AffineFamily, _ordered_argmin, envelope_law, fit_tail_law


@dataclass(frozen=True)
class RelDegree:
    h: int
    beta: GroupValue
    taylor_intercepts: tuple[GroupValue, ...]
    # the intercept family's order threshold: the law holds for gamma past it
    threshold: Fraction
    # the tail points (gamma_n, v(f(x) - f(c_n))) past the threshold that
    # the sampled route checked the law on; none when it found fewer than
    # two, and (h, beta) rests on the envelope alone
    points: tuple[tuple[GroupValue, GroupValue], ...]
    # the envelope route's Taylor rows (f_1(c_n), ..., f_deg(c_n)), one per
    # tail approximant: approx_coefficient reads row h, and
    # tail_factor_shape the last approximant's row
    rows: tuple[tuple[Series, ...], ...] = field(compare=False, repr=False)

    @property
    def sampled_points(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class NotFixedLaw:
    m: int
    h: int
    beta: GroupValue


def _tail_values(
    A: ApproxType, f: ValPoly, above: Optional[GroupValue] = None,
    law: Optional[tuple[int, GroupValue]] = None,
) -> list[tuple[GroupValue, GroupValue]]:
    """The finite, determinate points (gamma_n, v(f(x) - f(c_n))) of the
    tail with gamma_n past ``above``, shallow-first, every value a power
    sum over the type's sampled powers.

    One walk, deepest-first.  f(x) and the deepest point are summed
    through beta + h * gamma_deep for a predicted ``law`` (h, beta), and
    in full without one; each shallower point is summed through the value
    just found one point deeper, as past the law's threshold the values
    strictly increase along the tail.  A cut sum is the full one
    truncated, so a value it shows is the full sum's value, and an
    infinite value is never a cut one.  A miss (a difference that a cut
    sum hides) costs one full sum of that point, and f(x) in full once,
    kept from then on; a point whose full sums hide the difference, or
    whose value is infinite, is skipped.  So a law only says where each
    sum may stop, and the points never depend on it."""
    powers = A._sampled_powers
    tail = [(n, A.gamma(n)) for n in A.tail()]
    if above is not None:
        tail = [(n, g) for n, g in tail if g > above]
    through = law[1] + law[0] * tail[-1][1] if law and tail else INF
    fx_cut = through is not INF
    fx = power_sum(f, A.target, powers[-1], through=through)
    pts = []
    for n, g in reversed(tail):
        c = A.approximants[n]
        try:
            try:
                w = val_diff(fx, power_sum(f, c, powers[n], through=through))
            except IndeterminateValuation:
                if through is INF:
                    raise  # both sums are full: the difference is hidden
                if fx_cut:
                    fx, fx_cut = power_sum(f, A.target, powers[-1]), False
                w = val_diff(fx, power_sum(f, c, powers[n]))
        except IndeterminateValuation:
            continue
        # an infinite gamma_n makes c_n the target itself, so its value is
        # infinite or hidden and the point is dropped with the others
        if w is not INF:
            pts.append((g, w))
            through = w
    return pts[::-1]


def _check_tail_law(points, h: int, beta: GroupValue, message: str):
    """InternalInconsistency unless every (gamma, w) point lies on the
    predicted law w = beta + h * gamma.  Two points of that line go last, so
    fit_tail_law fits exactly it and checks every tail point against it."""
    try:
        fit_tail_law([*points, (0, beta), (1, beta + h)])
    except StabilizationError as exc:
        raise InternalInconsistency(f"{message}: {exc}") from exc


def sampled_law(
    A: ApproxType, f: ValPoly, above: Optional[GroupValue] = None,
    law: Optional[tuple[int, GroupValue]] = None,
) -> tuple[int, GroupValue, tuple[tuple[GroupValue, GroupValue], ...]]:
    """Fit v(f(x) - f(c_n)) = beta + h * gamma_n exactly on the tail:
    (h, beta, the tail points (gamma_n, v(f(x) - f(c_n))) fitted).

    The affine law only holds once gamma_n has passed every crossing of the
    derivative-value family; callers that know that threshold pass it as
    ``above`` so the fit is restricted to the stable region.  A predicted
    ``law`` only lets the sums stop early (``_tail_values``): the points,
    and so the fit, are the same without it, and a miss costs one full
    sum of that point, and f(x) once.
    """
    pts = _tail_values(A, f, above, law)
    if len(pts) < 2:
        raise InsufficientPrecision("too few determinate tail values")
    try:
        h, beta = fit_tail_law(pts)
    except StabilizationError as exc:
        raise InternalInconsistency(f"sampled tail: {exc}") from exc
    return h, beta, tuple(pts)


def rel_degree(A: ApproxType, f: ValPoly) -> RelDegree:
    """h and beta with v(f(x) - f(c)) = beta + h * v(x - c) eventually.

    The envelope of the Taylor intercepts gives (h, beta) and the threshold;
    the sampled route fits the tail points past it and must agree.  The
    sampled route is handed the envelope's law only to stop its sums at
    the values it looks for: its points are the ones it finds without the
    law.  An envelope law too low costs one full sum of the deepest point,
    and f(x) once; a wrong one is still reported as InternalInconsistency."""
    if f.is_zero or f.degree() < 1:
        raise PreconditionError("need a polynomial of degree >= 1")
    if A.is_trivial:
        raise PreconditionError("need an immediate approximation type")
    betas, rows = A.taylor_intercepts(f)
    if betas is None:
        raise MarkerViolation(
            "some derivative value is not fixed at this depth"
        )
    h, beta, threshold = envelope_law(betas, A.distance())
    try:
        h_s, beta_s, points = sampled_law(A, f, above=threshold, law=(h, beta))
    except InsufficientPrecision:
        # nothing to sample; the envelope answers alone
        return RelDegree(h, beta, tuple(betas), threshold, (), rows)
    if (h_s, beta_s) != (h, beta):
        raise InternalInconsistency(
            f"envelope gives (h={h}, beta={beta}) but the sampled tail law "
            f"gives (h={h_s}, beta={beta_s})"
        )
    return RelDegree(h, beta, tuple(betas), threshold, points, rows)


def rel_degree_general(
    A: ApproxType, g: ValPoly, minpoly_f: ValPoly
) -> Fixed | NotFixedLaw:
    """The value law of an arbitrary g via its digit expansion in the
    associated minimal polynomial."""
    if g.is_zero:
        raise PreconditionError("the zero polynomial has no value")
    try:
        fixed, _ = A._fixed(minpoly_f)
    except InsufficientPrecision:
        fixed = None  # some v(f(c_n)) is hidden: the value is not seen fixed
    if fixed is not None:
        raise PreconditionError(
            "the type fixes the value of the claimed minimal polynomial"
        )
    rd = rel_degree(A, minpoly_f)
    digits = f_adic_expand(g, minpoly_f)
    # per digit: the value the type fixes and v(digit(c_n)) for every n
    verdicts = []
    items = []
    for i, digit in enumerate(digits):
        v, values = (INF, None) if digit.is_zero else A._fixed(digit)
        if v is None:
            raise MarkerViolation(f"digit {i} value is not fixed by the type")
        verdicts.append((v, values))
        items.append((i, v if v is INF else v + i * rd.beta, i * rd.h))
    m, order = _ordered_argmin(AffineFamily.make(items, A.distance()))
    if m == 0:
        return Fixed(verdicts[0][0])
    beta = verdicts[m][0] + m * rd.beta
    # the law holds once gamma is past the minimal polynomial's envelope
    # threshold and the digit family's order threshold, from the first
    # approximant at which every digit takes the value the type fixes
    above = max(rd.threshold, order.beta)
    pts = []
    settled = False
    for n in A.tail():
        settled = settled or all(
            values is None or values[n] == v for v, values in verdicts
        )
        if settled and A.gamma(n) > above:
            try:
                pts.append((A.gamma(n), g(A.approximants[n]).val()))
            except IndeterminateValuation:
                continue
    _check_tail_law(
        pts, m * rd.h, beta,
        "digit-expansion law disagrees with direct evaluation",
    )
    return NotFixedLaw(m, rd.h, beta)


def h_upper_bound_from_coeffs(f: ValPoly) -> int:
    """For a target of value 0: the power-of-p part of the index of the
    unique minimum-value coefficient bounds h from above."""
    p = f.p
    best: Optional[tuple[GroupValue, int]] = None
    strict = True
    for i in range(1, f.degree() + 1):
        c = f.coeff(i)
        if c.is_exact_zero:
            continue
        v = c.val()
        if best is None or v < best[0]:
            best = (v, i)
            strict = True
        elif v == best[0]:
            strict = False
    if best is None or not strict:
        raise PreconditionError("no strictly minimal coefficient value")
    i = best[1]
    return i // _prime_to_p(i, p)


def approx_coefficient(A: ApproxType, f: ValPoly) -> tuple[Series, RelDegree]:
    """A ground-field element d with vd = v(f_h(c)) and
    v(f_h(c) - d) > vd along the tail past the law's threshold; certified
    before returning.

    The samples f_h(c_n) are row h of the Taylor tables the envelope route
    built (``RelDegree.rows``), so d is certified against that route; the
    defining identity v(f(x) - f(c_n)) = v(d (x - c_n)^h) is checked on
    the sampled route's points, so the two routes stay independent.  The
    h-th intercept is the window value of v(f_h(c_n)), finite at the last
    tail approximant, so the last sample is never zero."""
    rd = rel_degree(A, f)
    # the law, and so the coefficient, need not hold up to the threshold
    past = [row for n, row in zip(A.tail(), rd.rows) if A.gamma(n) > rd.threshold]
    if not past:
        raise InsufficientPrecision("no tail point past the law's threshold")
    samples = [row[rd.h - 1] for row in past]
    last = samples[-1]
    for k, (e, _) in enumerate(last.terms, 1):
        if not A.ground(e):
            break  # every longer truncation keeps this exponent
        cand = last.prefix(k)
        if _certify_coefficient(samples, cand):
            # the defining identity v(f(x) - f(c_n)) = v(d * (x - c_n)^h),
            # on the tail points past the threshold where the law holds:
            # those rel_degree sampled, unless it found fewer than two
            _check_tail_law(
                rd.points or _tail_values(A, f, above=rd.threshold),
                rd.h, cand.val(),
                "approximation coefficient fails the defining value identity",
            )
            return cand, rd
    raise InsufficientPrecision(
        "no truncation of f_h(c) certifies as an approximation coefficient"
    )


def _certify_coefficient(samples: list[Series], d: Series) -> bool:
    """v(s - d) > v(d) for every sample s, the lesser precision standing in
    for a difference that truncation hides; s - d is never formed."""
    vd = d.val()
    for s in samples:
        try:
            w = val_diff(s, d)
        except IndeterminateValuation:
            w = min_value(s.precision, d.precision)
        if not w > vd:
            return False
    return True


def _value_or_precision(s: Series) -> GroupValue:
    """v(s), or the precision of s when truncation hid every term."""
    try:
        return s.val()
    except IndeterminateValuation:
        return s.precision


def coefficient_dist_law(A: ApproxType, h: int, d: Series) -> Cut:
    """dist(f(x), K) transported: vd + h * dist(x, K)."""
    return shift_cut(d.val(), scale_cut(h, A.distance()))


def check_multiplicativity(A: ApproxType, f: ValPoly, g: ValPoly) -> bool:
    """h(x : g o f) = h(x : f) * h(f(x) : g), both sides independent."""
    rd_f = rel_degree(A, f)
    B = pushed_forward(A, f, rd_f.h, rd_f.beta)
    rd_g = rel_degree(B, g)
    # the composed law holds once gamma is past f's threshold and the image
    # value beta_f + h_f * gamma is past g's threshold on B
    above = max(rd_f.threshold, (rd_g.threshold - rd_f.beta) / rd_f.h)
    h_left, _, _ = sampled_law(A, g.compose(f), above=above)
    return h_left == rd_f.h * rd_g.h


def combine_same_degree(
    A: ApproxType,
    proxies: list[ValPoly],
    ks: list[Series],
    ds: list[Series],
) -> RelDegree:
    """h of sum(k_i * f_i(x)) for elements given by polynomial proxies f_i,
    when the coefficient combination does not cancel: v(sum k_i d_i) must
    equal min v(k_i d_i) and be finite."""
    if not (len(proxies) == len(ks) == len(ds)) or not proxies:
        raise PreconditionError("need matching nonempty proxy/k/d lists")
    hs = {rel_degree(A, prox).h for prox in proxies}
    if len(hs) != 1:
        raise PreconditionError("proxies must share a common h")
    h = hs.pop()
    min_v = min(k.val() + d.val() for k, d in zip(ks, ds))
    # a sum that truncation hides has a precision above min_v: cancelled
    v_total = _value_or_precision(dot(ks, ds))
    if v_total is INF or v_total != min_v:
        raise PreconditionError(
            "coefficient cancellation: v(sum k_i d_i) exceeds min v(k_i d_i)"
        )
    combo = ValPoly.zero(A.target.p)
    for k, prox in zip(ks, proxies):
        combo = combo + prox.scale(k)
    rd = rel_degree(A, combo)
    if rd.h != h:
        raise InternalInconsistency(
            f"combination changed h from {h} to {rd.h}"
        )
    return rd


def reduced_factor_shape(
    A: ApproxType, f: ValPoly, c: Series, d: Series
) -> list[int]:
    """Coefficientwise residue of the rescaled difference polynomial; must
    equal (Z - r)^h where r is the residue of d*(x - c).  The Taylor rows
    at c are built here, over powers of c of their own."""
    rd = rel_degree(A, f)
    return _factor_shape(A, f, rd, taylor_coefficients(f, c, start=1), c, d)[0]


def _factor_shape(
    A: ApproxType, f: ValPoly, rd: RelDegree, table: Sequence[Series],
    c: Series, d: Series,
) -> tuple[list[int], int]:
    """``reduced_factor_shape`` with the root r, for f of law ``rd`` and
    its Taylor rows ``table`` = (f_1(c), ..., f_deg(c)) at c, read by the
    residue map, a ring homomorphism, off values and leading coefficients.
    Row i rescales to a_i = f_i(c) d^(h - i) / f_h(c), of value
    w_i = v(f_i(c)) + (h - i) v(d) - v(f_h(c)): its residue is 0 past 0
    and lc(f_i(c)) lc(d)^(h - i) / lc(f_h(c)) at 0.  The root is
    r = res(d (x - c)) = lc(d) lc(x - c), and the constant term, the
    residue of -sum_i a_i (d (x - c))^i, is -sum_i res(a_i) r^i."""
    h = rd.h
    xc = A.target - c
    e = d.val()
    if e != -xc.val():
        raise PreconditionError("scaling element must have value -v(x - c)")
    p = f.p
    # before the threshold the law need not hold, so a shape that fails
    # there says the type is too shallow, not that the routes disagree
    where = f"at v(x - c) = {-e} with the law's threshold {rd.threshold}"
    shallow = -e <= rd.threshold
    fh_c = table[h - 1]
    if fh_c.is_exact_zero:
        raise (InsufficientPrecision if shallow else PreconditionError)(
            f"h-th derivative vanishes {where}"
        )
    v_h, lc_h = _leading(fh_c, f"truncation hides f_{h}(c)")
    lc_d = d.leading()[1]
    residues = [0]
    for i, f_i in enumerate(table, 1):
        # a hidden f_i(c) is known to be no lower than its precision
        w = (h - i) * e - v_h + _value_or_precision(f_i)
        if w < 0:
            raise PreconditionError(
                f"coefficient {i} is not integral: approximant not deep enough"
            )
        if w > 0:
            residues.append(0)
            continue
        _, lc = _leading(f_i, "precision does not reach exponent 0")
        residues.append(lc * pow(lc_d, h - i, p) * pow(lc_h, -1, p) % p)
    r = lc_d * xc.leading()[1] % p
    residues[0] = -sum(a * pow(r, i, p) for i, a in enumerate(residues)) % p
    expected = _power_of_linear(p, r, h, f.degree())
    if residues != expected:
        raise (InsufficientPrecision if shallow else InternalInconsistency)(
            f"residue polynomial {residues} is not (Z - {r})^{h} {where}"
        )
    return residues, r


def _leading(s: Series, hidden: str) -> tuple[Fraction, int]:
    """The leading term of s; InsufficientPrecision with the message
    ``hidden`` when truncation hides every term."""
    try:
        return s.leading()
    except IndeterminateValuation:
        raise InsufficientPrecision(hidden) from None


def tail_factor_shape(A: ApproxType, f: ValPoly) -> tuple[list[int], int]:
    """``reduced_factor_shape`` at the last tail approximant c, scaled by
    d = t^(-v(x - c)): the residues and the root r of (Z - r)^h, read off
    the Taylor rows ``rel_degree`` built at c."""
    rd = rel_degree(A, f)
    n = A.tail()[-1]
    return _factor_shape(
        A, f, rd, rd.rows[-1], A.approximants[n], Series.monomial(f.p, -A.gamma(n))
    )


def _power_of_linear(p: int, r: int, h: int, degree: int) -> list[int]:
    out = [0] * (degree + 1)
    for i in range(h + 1):
        out[i] = (comb(h, i) * pow(-r, h - i, p)) % p
    return out
