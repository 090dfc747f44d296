"""Polynomial contexts and canonical sparse polynomials.

A ``PolyRing`` fixes the session-wide choices (coefficient ring,
variable list, term order) and builds ``Polynomial`` values that are
canonical by construction: monomials strictly descending in the active
order, no zero coefficients, coefficients in ring-canonical form.  The
zero polynomial has no monomials.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .rings import CoefficientRing, RingError
from .terms import TermOrder, term_mul

MAX_VARIABLES = 16

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class PolyRing:
    """Context for polynomials over one coefficient ring and term order."""

    def __init__(self, coeff_ring: CoefficientRing, variables, order="lex"):
        names = tuple(variables)
        if not names:
            raise ValueError("at least one variable is required")
        if len(names) > MAX_VARIABLES:
            raise ValueError(f"at most {MAX_VARIABLES} variables are supported")
        for name in names:
            if not isinstance(name, str) or not _NAME_RE.match(name):
                raise ValueError(f"bad variable name {name!r}")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        if isinstance(order, str):
            order = TermOrder(order)
        if order.precedence is not None and len(order.precedence) != len(names):
            raise ValueError("order precedence length does not match variable count")
        self.coeff_ring = coeff_ring
        self.variables = names
        self.order = order
        self._index = {name: i for i, name in enumerate(names)}
        self._zero = Polynomial(self, ())

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def var_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.coeff_ring == other.coeff_ring
            and self.variables == other.variables
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.coeff_ring, self.variables, self.order))

    def __repr__(self):
        return (
            f"PolyRing({self.coeff_ring.name}, vars={','.join(self.variables)}, "
            f"order={self.order.kind})"
        )

    # -- construction ------------------------------------------------------

    def zero(self) -> "Polynomial":
        return self._zero

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, value) -> "Polynomial":
        return self.from_monomials([(value, (0,) * self.nvars)])

    def variable(self, name: str) -> "Polynomial":
        term = [0] * self.nvars
        term[self.var_index(name)] = 1
        return self.from_monomials([(1, tuple(term))])

    def gens(self) -> tuple:
        return tuple(self.variable(name) for name in self.variables)

    def monomial(self, coeff, term) -> "Polynomial":
        return self.from_monomials([(coeff, term)])

    def from_monomials(self, monomials) -> "Polynomial":
        """Canonical polynomial from (coefficient, term) pairs in any order.

        Coefficients are coerced into the ring, duplicate terms merged by
        addition, zero coefficients dropped, and monomials sorted
        descending; the construction is idempotent.
        """
        ring = self.coeff_ring
        acc: dict = {}
        for coeff, term in monomials:
            term = self._check_term(term)
            c = ring.element(coeff)
            if term in acc:
                c = ring.add(acc[term], c)
            if ring.is_zero(c):
                acc.pop(term, None)
            else:
                acc[term] = c
        return self._from_dict(acc)

    def parse(self, text: str) -> "Polynomial":
        from .parser import parse_polynomial

        return parse_polynomial(text, self)

    def _check_term(self, term) -> tuple:
        term = tuple(term)
        if len(term) != self.nvars:
            raise ValueError(
                f"term {term} has {len(term)} exponents, expected {self.nvars}"
            )
        if any(not isinstance(e, int) or e < 0 for e in term):
            raise ValueError(f"term {term} must have non-negative integer exponents")
        return term

    def _from_dict(self, mapping: dict) -> "Polynomial":
        # Trusted path: coefficients canonical and nonzero, terms valid.
        if not mapping:
            return self._zero
        key = self.order.sort_key
        monos = sorted(((c, t) for t, c in mapping.items()), key=lambda m: key(m[1]))
        monos.reverse()
        return Polynomial(self, tuple(monos))

    def _from_keyed(self, mapping: dict) -> "Polynomial":
        # Trusted path from a ``heap key -> coefficient`` map, zeros allowed.
        is_zero = self.coeff_ring.is_zero
        term_of = self.order.term_from_heap_key
        monos = tuple(
            (mapping[k], term_of(k)) for k in sorted(mapping) if not is_zero(mapping[k])
        )
        return Polynomial(self, monos) if monos else self._zero

    def _coerce(self, value):
        if isinstance(value, Polynomial):
            if value.ring != self:
                raise ValueError("polynomials belong to different rings")
            return value
        if isinstance(value, (int, Fraction)):
            return self.constant(value)
        return None


class Polynomial:
    """Immutable canonical polynomial bound to its ``PolyRing``.

    ``monomials`` is a tuple of (coefficient, term) pairs, strictly
    descending by term in the ring's order.
    """

    __slots__ = ("ring", "monomials", "_keyed")

    def __init__(self, ring: PolyRing, monomials: tuple):
        self.ring = ring
        self.monomials = monomials

    # -- head decomposition --------------------------------------------------

    @property
    def head_monomial(self) -> tuple:
        return self.monomials[0]

    @property
    def head_coeff(self):
        return self.monomials[0][0]

    @property
    def head_term(self) -> tuple:
        return self.monomials[0][1]

    def keyed_monomials(self) -> tuple:
        """``monomials`` with each term replaced by its order's heap key.

        Computed on first use and kept: a basis element serves as a
        reducer in many normal-form calls.
        """
        try:
            return self._keyed
        except AttributeError:
            key = self.ring.order.heap_key
            self._keyed = tuple((c, key(t)) for c, t in self.monomials)
            return self._keyed

    # -- arithmetic -----------------------------------------------------------

    def __bool__(self):
        return bool(self.monomials)

    def __add__(self, other):
        other = self.ring._coerce(other)
        if other is None:
            return NotImplemented
        ring = self.ring.coeff_ring
        acc = {t: c for c, t in self.monomials}
        for c, t in other.monomials:
            if t in acc:
                s = ring.add(acc[t], c)
                if ring.is_zero(s):
                    del acc[t]
                else:
                    acc[t] = s
            else:
                acc[t] = c
        return self.ring._from_dict(acc)

    __radd__ = __add__

    def __neg__(self):
        ring = self.ring.coeff_ring
        return Polynomial(
            self.ring, tuple((ring.neg(c), t) for c, t in self.monomials)
        )

    def __sub__(self, other):
        other = self.ring._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self.ring._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self.ring._coerce(other)
        if other is None:
            return NotImplemented
        ring = self.ring.coeff_ring
        acc: dict = {}
        for c1, t1 in self.monomials:
            for c2, t2 in other.monomials:
                t = term_mul(t1, t2)
                c = ring.mul(c1, c2)
                if t in acc:
                    c = ring.add(acc[t], c)
                if ring.is_zero(c):
                    acc.pop(t, None)
                else:
                    acc[t] = c
        return self.ring._from_dict(acc)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = self.ring.one()
        for _ in range(n):
            result = result * self
        return result

    def mul_monomial(self, coeff, term) -> "Polynomial":
        """Product with the single monomial coeff*term."""
        ring = self.ring.coeff_ring
        coeff = ring.element(coeff)
        term = self.ring._check_term(term)
        if ring.is_zero(coeff):
            return self.ring.zero()
        acc = {}
        for c, t in self.monomials:
            prod = ring.mul(c, coeff)
            if not ring.is_zero(prod):
                acc[term_mul(t, term)] = prod
        return self.ring._from_dict(acc)

    def scale(self, coeff) -> "Polynomial":
        return self.mul_monomial(coeff, (0,) * self.ring.nvars)

    # -- identity --------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            try:
                other = self.ring.constant(other)
            except RingError:
                return False  # a value outside the ring equals no polynomial
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.monomials == other.monomials

    def __hash__(self):
        return hash((self.ring, self.monomials))

    def __str__(self):
        return format_polynomial(self)

    __repr__ = __str__


def format_polynomial(p: Polynomial) -> str:
    """Render in the canonical text syntax, e.g. ``2*x^2*y - 3*y + 1``.

    Monomials descending, ``^`` for powers, ``*`` between coefficient
    and variables, single spaces around binary +/-; unit coefficients
    are omitted in front of variables.  The same syntax parses back.
    """
    if not p:
        return "0"
    ring = p.ring.coeff_ring
    pieces = []
    for i, (coeff, term) in enumerate(p.monomials):
        negative = ring.is_negative(coeff)
        body = _format_term(p.ring, term)
        magnitude = ring.magnitude(coeff)
        if not body:
            chunk = ring.format(magnitude)
        elif magnitude == ring.one():
            chunk = body
        else:
            chunk = f"{ring.format(magnitude)}*{body}"
        if i == 0:
            pieces.append(f"-{chunk}" if negative else chunk)
        else:
            pieces.append(f" - {chunk}" if negative else f" + {chunk}")
    return "".join(pieces)


def _format_term(ring: PolyRing, term: tuple) -> str:
    parts = []
    for name, exp in zip(ring.variables, term):
        if exp == 1:
            parts.append(name)
        elif exp > 1:
            parts.append(f"{name}^{exp}")
    return "*".join(parts)
