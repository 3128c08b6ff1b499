"""Approximation types: a target element together with a ground field and a
strictly improving approximant sequence.

The distance of the type is a cut; because the supremum of an approximant
value sequence is not determinable from finitely many terms, a constructor
hint can declare the cut, and every computation checks the observed values
against it.  The hint and the transcendental marker are caller assertions;
any observed counterexample raises a MarkerViolation.  A target exponent
outside the ground is one: the distance is then attained at the first such
exponent e, and any hint other than (<= e) is refused.

Whether the type fixes the value of a polynomial g is decided by one
verdict, ``_fixed``: v(g(c_n)) is constant over the last ``window``
approximants (the one window rule, which the Taylor intercepts read too)
and no visible v(g(target)) contradicts it.  ``fixes_value``,
``kaplansky_extend``, ``verify_not_fixed_for_minpoly`` and
``reldeg.rel_degree_general`` all read it, so a value hidden by truncation
is reported the same way everywhere, as InsufficientPrecision.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import (
    IndeterminateValuation,
    InsufficientPrecision,
    InternalInconsistency,
    MarkerViolation,
    PreconditionError,
)
from .hahn import Series, SubfieldPredicate, _first_outside, min_value, val_diff
from .ordval import (
    INF,
    Cut,
    GroupValue,
    compare_value_cut,
    is_finite,
    scale_cut,
    shift_cut,
)
from .valpoly import ValPoly, power_sum, taylor_coefficients
from .envelope import envelope_law, fit_tail_law


@dataclass(frozen=True)
class Fixed:
    value: GroupValue


@dataclass(frozen=True)
class NotFixed:
    h: int
    beta: GroupValue


def default_approximants(
    target: Series, ground: SubfieldPredicate
) -> tuple[Series, ...]:
    """Successive prefix truncations of the target that lie in the ground
    field.  The full prefix is excluded: its distance to the target is
    hidden behind the precision bound."""
    terms = target.terms
    k = 0
    while k < len(terms) and ground(terms[k][0]):
        k += 1
    if k == len(terms) and k > 0:
        k -= 1  # drop the full prefix
    return tuple(target.prefix(i) for i in range(k + 1))


@dataclass(frozen=True)
class ApproxType:
    target: Series
    ground: SubfieldPredicate
    approximants: tuple[Series, ...]
    transcendental: bool = False
    distance_hint: Optional[Cut] = None
    window: int = 4
    tail_depth: int = 6
    # v(target - c_n) for every approximant, computed once at construction
    _gammas: tuple[GroupValue, ...] = field(
        init=False, repr=False, compare=False
    )
    # (<= e) at the first target exponent e outside the ground, None if
    # there is none: no ground element cancels that term, so the distance
    # is attained there
    _attained: Optional[Cut] = field(init=False, repr=False, compare=False)
    # [c_n, c_n^2, ...] per approximant, read only by taylor_intercepts and
    # grown by its tables only as far as the rows they return read
    _powers: tuple[list[Series], ...] = field(
        init=False, repr=False, compare=False
    )
    # the sampled law route's own powers {k: c_n^k}, filled by
    # valpoly.power_sum for the k it reads (the Frobenius map where p
    # divides k, the halving split elsewhere): one dict per approximant,
    # then one for the target; never shared with _powers, so the two law
    # routes stay independent
    _sampled_powers: tuple[dict[int, Series], ...] = field(
        init=False, repr=False, compare=False
    )

    @staticmethod
    def from_truncations(
        target: Series, ground: SubfieldPredicate, **options
    ) -> "ApproxType":
        return ApproxType(
            target, ground, default_approximants(target, ground), **options
        )

    def __post_init__(self):
        if not self.approximants:
            raise PreconditionError("a type needs at least one approximant")
        if self.tail_depth < 1:
            raise PreconditionError("the tail depth must be at least 1")
        # the target goes last, so an exponent it shares with an approximant
        # is tested once, and its own first exponent outside the ground
        # comes back only when every approximant lies in the ground
        outside = _first_outside((*self.approximants, self.target), self.ground)
        gammas = []
        for n, c in enumerate(self.approximants):
            if outside is not None and n == outside[0]:
                raise PreconditionError(
                    "approximant leaves the ground field"
                )
            g = val_diff(self.target, c)
            if gammas and not g > gammas[-1]:
                raise PreconditionError(
                    "approximant values must strictly increase"
                )
            gammas.append(g)
        object.__setattr__(self, "_gammas", tuple(gammas))
        attained = None if outside is None else Cut.below_or_equal(outside[1])
        object.__setattr__(self, "_attained", attained)
        object.__setattr__(
            self, "_powers", tuple([] for _ in self.approximants)
        )
        object.__setattr__(
            self,
            "_sampled_powers",
            tuple({} for _ in range(len(self.approximants) + 1)),
        )

    def gamma(self, n: int) -> GroupValue:
        """v(target - c_n)."""
        return self._gammas[n]

    def gammas(self) -> list[GroupValue]:
        return list(self._gammas)

    @property
    def is_trivial(self) -> bool:
        return any(g is INF for g in self._gammas)

    def distance(self) -> Cut:
        hint = self.distance_hint
        if hint is None:
            if self._attained is not None:
                return self._attained
            if self.target.precision is INF:
                return Cut.plus_infinity()
            # every visible term is admissible: precision-limited
            return Cut.below_or_equal(self.target.precision)
        if self._attained is not None:
            # every approximant value lies in (<= e): no ground element
            # cancels the target's term at e, so this hint is the only one
            if hint != self._attained:
                raise MarkerViolation(
                    f"a target exponent outside the ground attains the "
                    f"distance {self._attained}, which contradicts the "
                    f"declared {hint}"
                )
            return hint
        # the values strictly increase and the lower set of a cut is
        # downward closed, so the last value decides
        if not compare_value_cut(self._gammas[-1], hint).lt:
            g = next(g for g in self._gammas if not compare_value_cut(g, hint).lt)
            raise MarkerViolation(
                f"approximant value {g} contradicts the declared "
                f"distance {hint}"
            )
        return hint

    def tail(self) -> list[int]:
        n = len(self.approximants)
        return list(range(max(0, n - self.tail_depth), n))

    def same_type(self, other_target: Series) -> bool:
        """Equality of approximation types via the distance criterion
        v(target - x') >= dist."""
        if self.is_trivial:
            raise PreconditionError("same_type needs an immediate type")
        diff = other_target - self.target
        d = self.distance()
        try:
            v = diff.val()
        except IndeterminateValuation:
            # zero up to precision: decidable only if the precision bound
            # already clears the distance cut
            if compare_value_cut(diff.precision, d).ge:
                return True
            raise InsufficientPrecision(
                "precision too low to compare against the distance"
            )
        # every value is either >= the cut or < it
        return compare_value_cut(v, d).ge

    # -- fixed-value analysis -------------------------------------------

    def _window_value(self, values: list[GroupValue]) -> Optional[GroupValue]:
        """The value shared by the last ``window`` of ``values``, or None
        when they differ: the type's one window rule."""
        if self.window < 1:
            raise PreconditionError("the window must be at least 1")
        tail = values[-self.window:]
        return tail[-1] if all(v == tail[-1] for v in tail) else None

    def _fixed(self, g: ValPoly) -> tuple[Optional[GroupValue], list]:
        """The type's one fixed-value verdict for g: the value v(g(c_n))
        that the window rule reads off the approximants, unless a visible
        v(g(target)) differs from it, else None.  With it come v(g(c_n))
        for every approximant, then v(g(target)) or None when hidden."""
        if g.is_zero:
            raise PreconditionError("the zero polynomial has no value")
        values = []
        for n, c in enumerate(self.approximants):
            try:
                values.append(g(c).val())
            except IndeterminateValuation:
                raise InsufficientPrecision(
                    f"v(g(c_{n})) is swallowed by the precision bound"
                )
        try:
            vx = g(self.target).val()
        except IndeterminateValuation:
            vx = None
        stab = self._window_value(values)
        # a constant window but a different limit: not yet fixed
        if vx is not None and vx != stab:
            stab = None
        return stab, values + [vx]

    def fixes_value(self, g: ValPoly) -> Fixed | NotFixed:
        stab, values = self._fixed(g)
        return Fixed(stab) if stab is not None else self._law(g, values)

    def _law(self, g: ValPoly, values: list) -> NotFixed:
        """The affine law of v(g(c_n)) on the tail, for a g whose value the
        type does not fix, given the values that ``_fixed`` read."""
        pts = [
            (gam, w)
            for gam, w in zip(self._gammas, values)
            if is_finite(gam) and is_finite(w)
        ][-self.tail_depth:]
        # when every derivative value is fixed, the envelope route gives the
        # threshold past which the law holds: fit only the points past it
        betas, _ = self.taylor_intercepts(g)
        if betas is None:
            h, beta = fit_tail_law(pts)
        else:
            h_env, beta_env, above = envelope_law(betas, self.distance())
            h, beta = fit_tail_law([(gam, w) for gam, w in pts if gam > above])
            if (h_env, beta_env) != (h, beta):
                raise InternalInconsistency(
                    f"sampled law (h={h}, beta={beta}) disagrees with "
                    f"the envelope prediction (h={h_env}, beta={beta_env})"
                )
        return NotFixed(h, beta)

    def taylor_intercepts(
        self, g: ValPoly
    ) -> tuple[Optional[list[GroupValue]], tuple[tuple[Series, ...], ...]]:
        """Stabilized values of the derivative evaluations g_i(c_n) on the
        tail, i = 1..deg g, or None if some of them do not stabilize; with
        them the Taylor rows (g_1(c_n), ..., g_deg(c_n)) they read, one per
        tail approximant."""
        powers = self._powers
        rows = tuple(
            tuple(taylor_coefficients(g, self.approximants[n], powers[n], start=1))
            for n in self.tail()
        )
        betas: list[GroupValue] = []
        for i in range(1, g.degree() + 1):
            try:
                beta = self._window_value([row[i - 1].val() for row in rows])
            except IndeterminateValuation:
                return None, rows
            if beta is None:
                return None, rows
            betas.append(beta)
        return betas, rows

    def kaplansky_extend(self, g: ValPoly) -> GroupValue:
        """The extension of v to g(x) for a transcendental type: the value
        the type fixes for g, which ``fixes_value`` reports too."""
        if not self.transcendental:
            raise PreconditionError(
                "value extension needs the transcendental marker"
            )
        stab, _ = self._fixed(g)
        if stab is None:
            raise MarkerViolation(
                f"value of degree-{g.degree()} polynomial not fixed at "
                f"depth {len(self.approximants)}"
            )
        return stab

    def verify_not_fixed_for_minpoly(self, g: ValPoly) -> bool:
        if self.is_trivial:
            raise PreconditionError("needs an immediate type")
        d = self.distance()
        if not d.is_infinite and d.attained:
            raise PreconditionError(
                "distance is attained: the type is not immediate"
            )
        stab, values = self._fixed(g)
        *approx_vals, vx = values
        if vx is not None and vx is not INF:
            # a truncated target cannot vanish exactly at g; root behavior
            # means v(g(target)) stays strictly above every approximant value
            approx_vals = [v for v in approx_vals if is_finite(v)]
            if approx_vals and vx <= max(approx_vals):
                raise PreconditionError(
                    "target does not behave as a root of the claimed "
                    "minimal polynomial along the approximants"
                )
        if stab is not None:
            return False
        self._law(g, values)  # raises unless the tail follows a law
        return True


def pushed_forward(
    A: ApproxType, f: ValPoly, h: int, beta: GroupValue
) -> ApproxType:
    """The type of f(target) over the same ground, with image approximants
    f(c_n) and the distance transported along the affine law.  The images
    are power sums over A's sampled powers, which ``rel_degree(A, f)``
    has filled."""
    powers = A._sampled_powers
    target = power_sum(f, A.target, powers[-1])
    hint = shift_cut(beta, scale_cut(h, A.distance()))
    # The affine law only holds eventually, so early image approximants may
    # repeat a distance value; keep the longest suffix along which the
    # distance strictly increases (a suffix has the same distance cut).
    images = [power_sum(f, c, ps) for c, ps in zip(A.approximants, powers)]
    start = 0
    prev = None
    for i, c in enumerate(images):
        try:
            g = val_diff(target, c)
        except IndeterminateValuation as exc:
            prec = min_value(target.precision, c.precision)
            raise InsufficientPrecision(
                f"f(c_{i}) agrees with f(x) up to precision {prec}"
            ) from exc
        if prev is not None and not g > prev:
            start = i
        prev = g
    return replace(
        A, target=target, approximants=tuple(images[start:]), distance_hint=hint
    )
