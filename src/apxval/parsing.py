"""Series and polynomial literals.

Grammar (whitespace insignificant):

    series := term ('+' term)* ('+' 'O(' 't^' rational ')')?
    term   := coeff? ('*')? 't^' '(' rational ')'  |  't^' '(' rational ')'
            | coeff
    coeff  := '-'? integer           (reduced mod p)
    rational := '-'? int ('/' int)?

    poly   := pterm ('+' pterm)*
    pterm  := '(' series ')' ('*')? 'X' ('^' deg)?  |  'X' ('^' deg)?
            | '(' series ')'  |  coeff
    deg    := int >= 0

One reader, ``_series``, reads a series both on its own and inside the
parentheses of a polynomial coefficient, on the same scanner, so a
ParseError's position and quoted text always belong to the whole input.

Example: "t^(-1/2) + 2*t^(1/3) + O(t^2)".  The printer round-trips exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import PreconditionError
from .ordval import INF, GroupValue
from .hahn import Series
from .valpoly import ValPoly


class ParseError(PreconditionError):
    """Syntax error with position information."""

    def __init__(self, text: str, pos: int, message: str):
        super().__init__(f"at position {pos}: {message} in {text!r}")
        self.pos = pos


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, tok: str) -> bool:
        self.skip_ws()
        if self.text.startswith(tok, self.pos):
            self.pos += len(tok)
            return True
        return False

    def expect(self, tok: str):
        if not self.eat(tok):
            raise ParseError(self.text, self.pos, f"expected {tok!r}")

    def integer(self) -> int:
        self.skip_ws()
        m = re.match(r"-?\d+", self.text[self.pos :])
        if not m:
            raise ParseError(self.text, self.pos, "expected an integer")
        self.pos += m.end()
        return int(m.group())

    def rational(self) -> Fraction:
        num = self.integer()
        if self.eat("/"):
            den = self.integer()
            if den == 0:
                raise ParseError(self.text, self.pos, "zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse_exponent(sc: _Scanner) -> Fraction:
    sc.expect("t")
    if not sc.eat("^"):
        return Fraction(1)
    if sc.eat("("):
        e = sc.rational()
        sc.expect(")")
        return e
    return Fraction(sc.integer())


def _series(sc: _Scanner, p: int) -> Series:
    """Read a series at the scanner, up to the end of its last term or its
    O-term; the caller checks what follows."""
    terms: list[tuple[Fraction, int]] = []
    precision: GroupValue = INF
    while True:
        if sc.eat("O("):
            precision = _parse_exponent(sc)
            sc.expect(")")
            break
        if sc.peek() == "t":
            terms.append((_parse_exponent(sc), 1))
        else:
            c = sc.integer()
            if sc.eat("*") or sc.peek() == "t":
                terms.append((_parse_exponent(sc), c % p))
            else:
                terms.append((Fraction(0), c % p))
        if not sc.eat("+"):
            break
    return Series.make(p, terms, precision)


def parse_series(text: str, p: int) -> Series:
    sc = _Scanner(text)
    s = _series(sc, p)
    if not sc.at_end():
        if s.precision is INF:
            raise ParseError(text, sc.pos, "expected '+' or end")
        raise ParseError(text, sc.pos, "trailing input after O-term")
    return s


def _format_exponent(e: Fraction) -> str:
    if e.denominator == 1 and e >= 0:
        return f"t^{e.numerator}" if e != 1 else "t"
    return f"t^({e})"


def format_series(s: Series) -> str:
    parts = []
    for e, c in s.terms:
        if e == 0:
            parts.append(str(c))
        elif c == 1:
            parts.append(_format_exponent(e))
        else:
            parts.append(f"{c}*{_format_exponent(e)}")
    if s.precision is not INF:
        parts.append(f"O({_format_exponent(s.precision)})")
    if not parts:
        return "0"
    return " + ".join(parts)


def parse_poly(text: str, p: int):
    sc = _Scanner(text)
    coeffs: dict[int, Series] = {}
    while True:
        coeff = Series.one(p)
        have_coeff = False
        if sc.eat("("):
            coeff = _series(sc, p)
            sc.expect(")")
            have_coeff = True
            sc.eat("*")
        elif sc.peek() == "t":
            coeff = Series.make(p, [(_parse_exponent(sc), 1)])
            have_coeff = True
            sc.eat("*")
        elif sc.peek() not in ("X", ""):
            coeff = Series.make(p, [(0, sc.integer())])
            have_coeff = True
            sc.eat("*")
        if sc.eat("X"):
            deg = 1
            if sc.eat("^"):
                sc.skip_ws()
                at = sc.pos
                deg = sc.integer()
                if deg < 0:
                    raise ParseError(text, at, "negative degree")
        else:
            if not have_coeff:
                raise ParseError(text, sc.pos, "expected a term")
            deg = 0
        coeffs[deg] = coeffs.get(deg, Series.zero(p)) + coeff
        if not sc.eat("+"):
            if not sc.at_end():
                raise ParseError(text, sc.pos, "expected '+' or end")
            break
    top = max(coeffs) if coeffs else 0
    return ValPoly(p, (coeffs.get(i, Series.zero(p)) for i in range(top + 1)))


def format_poly(f) -> str:
    parts = []
    for i in reversed(range(len(f.coeffs))):
        c = f.coeffs[i]
        if c.is_exact_zero:
            continue
        if i == 0:
            parts.append(f"({format_series(c)})")
        else:
            x = "X" if i == 1 else f"X^{i}"
            if c == Series.one(f.p):
                parts.append(x)
            else:
                parts.append(f"({format_series(c)})*{x}")
    if not parts:
        return "(0)"
    return " + ".join(parts)
