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


def _int(text: str, col: int) -> int:
    try:
        return int(text)
    except ValueError:  # past Python's int-from-str digit limit
        raise PolynomialSyntaxError(f"integer of {len(text)} digits is too long", col) from None


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse ``text`` into a canonical polynomial of ``ring``.

    Raises ``PolynomialSyntaxError`` (with a 1-based column) for syntax
    problems, unknown variables, and coefficients outside the ring.
    """
    tokens = _tokenize(text)
    coeff_ring = ring.coeff_ring
    if tokens[0][0] is None:
        raise PolynomialSyntaxError("empty polynomial", 1)
    i = 0
    monomials = []
    while tokens[i][0] is not None:
        # One term: a sign (optional before the first), then factors up to a sign or the end.
        negative = tokens[i][0] == "-"
        if tokens[i][0] in ("+", "-"):
            i += 1
        tok, col = tokens[i]
        if tok is None or tok in ("+", "-"):
            raise PolynomialSyntaxError("expected a coefficient or variable", col)
        coeff = None
        exponents = [0] * ring.nvars
        while True:
            i += 1
            if tok.isdigit():
                numerator, denominator = _int(tok, col), 1
                if tokens[i][0] == "/":
                    den, den_col = tokens[i + 1]
                    if den is None or not den.isdigit():
                        raise PolynomialSyntaxError("expected an integer denominator", den_col)
                    denominator = _int(den, den_col)
                    i += 2
                try:
                    value = coeff_ring.from_fraction(numerator, denominator)
                except RingError as exc:
                    raise PolynomialSyntaxError(str(exc), col) from None
                coeff = value if coeff is None else coeff_ring.mul(coeff, value)
            elif tok[0].isalpha():
                try:
                    index = ring.var_index(tok)
                except ValueError:
                    raise PolynomialSyntaxError(f"unknown variable {tok!r}", col) from None
                exp = 1
                if tokens[i][0] == "^":
                    exp_text, exp_col = tokens[i + 1]
                    if exp_text is None or not exp_text.isdigit():
                        raise PolynomialSyntaxError("expected an integer exponent", exp_col)
                    exp = _int(exp_text, exp_col)
                    i += 2
                exponents[index] += exp
            else:
                raise PolynomialSyntaxError(f"unexpected {tok!r}", col)
            tok, col = tokens[i]
            if tok == "*":
                i += 1
                tok = tokens[i][0]
                if tok is None or not (tok.isdigit() or tok[0].isalpha()):
                    raise PolynomialSyntaxError("expected a factor after '*'", col + 1)
                col = tokens[i][1]
            elif tok is None or tok in ("+", "-"):
                break
        coeff = coeff_ring.one() if coeff is None else coeff
        monomials.append((coeff_ring.neg(coeff) if negative else coeff, tuple(exponents)))
    return ring.from_monomials(monomials)
