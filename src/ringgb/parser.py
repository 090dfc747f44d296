"""Text syntax for polynomials, shared by the CLI and the library.

Grammar (whitespace free between tokens, ``*`` optional):

    poly   := [sign] term (sign term)*
    term   := factor (["*"] factor)*
    factor := INT ["/" INT] | NAME ["^" INT]      (INT: ASCII 0-9 only)

Examples: ``2*x^2*y - 3*y + 1``, ``-1/2*x + y``, ``2x^2y``.
Coefficients must live in the session ring: ``1/2`` is an error over
zz, ``1/0`` is an error everywhere; each literal ``n/d`` becomes a
value through the ring's ``from_fraction``.

One regular-expression pass splits the text into ``(token, column)``
pairs, 1-based, and rejects the first character that is neither
whitespace nor part of a token.  The list ends with the sentinel
``(None, len(text) + 1)``, so the parser always has a token to look at
and an error at the end of the text points one past its last column.
"""

from __future__ import annotations

import re

from .poly import PolyRing, Polynomial
from .rings import RingError

_TOKEN = re.compile(r"([0-9]+|[A-Za-z][A-Za-z0-9_]*|[+\-*/^])|(\S)")


class PolynomialSyntaxError(ValueError):
    """Bad polynomial text; ``position`` is the 1-based column."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position})")
        self.position = position


def _tokenize(text: str):
    """``(token, column)`` pairs with 1-based columns, ending in ``(None, len(text) + 1)``."""
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.lastindex == 2:
            raise PolynomialSyntaxError(f"unexpected character {m.group()!r}", m.start() + 1)
        tokens.append((m.group(), m.start() + 1))
    tokens.append((None, len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens, ring: PolyRing):
        self.tokens = tokens
        self.ring = ring
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def column(self):
        return self.tokens[self.pos][1]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def take_int(self):
        text, col = self.take()
        try:
            return int(text), col
        except ValueError:  # past Python's int-from-str digit limit
            raise PolynomialSyntaxError(f"integer of {len(text)} digits is too long", col) from None

    def parse(self):
        if self.peek() is None:
            raise PolynomialSyntaxError("empty polynomial", 1)
        monomials = []
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
        while True:
            coeff, term = self.parse_term()
            if sign < 0:
                coeff = self.ring.coeff_ring.neg(coeff)
            monomials.append((coeff, term))
            if self.peek() is None:
                return monomials
            sign = -1 if self.take()[0] == "-" else 1

    def parse_term(self):
        ring = self.ring.coeff_ring
        coeff = ring.one()
        exponents = [0] * self.ring.nvars
        factors = 0
        while True:
            tok = self.peek()
            col = self.column()
            if tok is None or tok in ("+", "-"):
                if factors == 0:
                    raise PolynomialSyntaxError("expected a coefficient or variable", col)
                break
            if tok.isdigit():
                coeff = ring.mul(coeff, self.parse_number())
            elif tok[0].isalpha():
                index, exp = self.parse_variable()
                exponents[index] += exp
            else:
                raise PolynomialSyntaxError(f"unexpected {tok!r}", col)
            factors += 1
            if self.peek() == "*":
                star_col = self.column()
                self.take()
                nxt = self.peek()
                if nxt is None or not (nxt.isdigit() or nxt[0].isalpha()):
                    raise PolynomialSyntaxError("expected a factor after '*'", star_col + 1)
        return coeff, tuple(exponents)

    def parse_number(self):
        numerator, col = self.take_int()
        denominator = 1
        if self.peek() == "/":
            self.take()
            if self.peek() is None or not self.peek().isdigit():
                raise PolynomialSyntaxError("expected an integer denominator", self.column())
            denominator = self.take_int()[0]
        try:
            return self.ring.coeff_ring.from_fraction(numerator, denominator)
        except RingError as exc:
            raise PolynomialSyntaxError(str(exc), col) from None

    def parse_variable(self):
        name, col = self.take()
        try:
            index = self.ring.var_index(name)
        except ValueError:
            raise PolynomialSyntaxError(f"unknown variable {name!r}", col) from None
        exp = 1
        if self.peek() == "^":
            self.take()
            if self.peek() is None or not self.peek().isdigit():
                raise PolynomialSyntaxError("expected an integer exponent", self.column())
            exp = self.take_int()[0]
        return index, exp


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse ``text`` into a canonical polynomial of ``ring``.

    Raises ``PolynomialSyntaxError`` (with a 1-based column) for syntax
    problems, unknown variables, and coefficients outside the ring.
    """
    parser = _Parser(_tokenize(text), ring)
    return ring.from_monomials(parser.parse())
