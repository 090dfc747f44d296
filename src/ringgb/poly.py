"""Polynomial contexts and canonical sparse polynomials.

A ``PolyRing`` fixes the session-wide choices (coefficient ring,
variable list, term order) and builds ``Polynomial`` values that are
canonical by construction: monomials strictly descending in the active
order, no zero coefficients, coefficients in ring-canonical form.  The
zero polynomial has no monomials.

A ``Polynomial`` stores one form, its keyed monomials: (coefficient,
heap key) pairs with the keys ascending, each key one int, the
``heap_key`` of the ring's ``terms.PackedOrder``.  Terms are derived
from the keys only where they are read.  The sums of monomial multiples
that build polynomials, ``from_monomials`` and the operators, are
accumulated by ``PolyRing._combine`` in one ``heap key -> coefficient``
dict, which ``PolyRing._from_keyed`` sorts once; a product is checked
once against the bound on degrees.  Pair polynomials and certificates
are summed in the reduction loop's coefficient form instead (see
``pairs`` and ``reduction``).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .rings import CoefficientRing, RingError
from .terms import DEGREE_BOUND, TermOrder, _degree_error, packed_order

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
        elif not isinstance(order, TermOrder):
            raise ValueError(f"bad term order {order!r}; expected 'lex', 'deglex' or a TermOrder")
        self.coeff_ring = coeff_ring
        self.variables = names
        self.order = packed_order(order, len(names))
        self._index = {name: i for i, name in enumerate(names)}

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
        return Polynomial(self, keyed=())

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, value) -> "Polynomial":
        return self.monomial(value, (0,) * self.nvars)

    def variable(self, name: str) -> "Polynomial":
        term = [0] * self.nvars
        term[self.var_index(name)] = 1
        return self.monomial(1, term)

    def gens(self) -> tuple:
        return tuple(self.variable(name) for name in self.variables)

    def monomial(self, coeff, term) -> "Polynomial":
        term = self._check_term(term)
        c = self.coeff_ring.element(coeff)
        if self.coeff_ring.is_zero(c):
            return self.zero()
        return Polynomial(self, keyed=((c, self.order.heap_key(term)),))

    def from_monomials(self, monomials) -> "Polynomial":
        """Canonical polynomial from (coefficient, term) pairs in any order.

        Coefficients are coerced into the ring, duplicate terms merged by
        addition, zero coefficients dropped, and monomials sorted
        descending; the construction is idempotent.
        """
        ring, key, check = self.coeff_ring, self.order.heap_key, self._check_term
        keyed = []
        for coeff, term in monomials:
            term = check(term)
            c = ring.element(coeff)
            if not ring.is_zero(c):
                keyed.append((c, key(term)))
        return self._from_keyed(self._combine([(keyed, None, None)]))

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

    def _combine(self, parts) -> dict:
        """The sum of c*s*m over ``(m, c, ks)`` parts, as ``heap key -> coefficient``.

        After Yan's geobucket accumulator (JSC 25, 1998).  ``m`` is a
        ``keyed_monomials`` tuple, ``ks`` the heap key of the term s, and
        ``c`` None adds m as it is.  No entry is zero: the shipped rings
        have no zero divisors, so only an addition can cancel.
        """
        ring = self.coeff_ring
        add, mul, is_zero = ring.add, ring.mul, ring.is_zero
        acc: dict = {}
        get = acc.get
        for monos, c, ks in parts:
            if c is not None:
                if is_zero(c):
                    continue
                monos = [(mul(cm, c), km + ks) for cm, km in monos]
            for cm, km in monos:
                old = get(km)
                if old is None:
                    acc[km] = cm
                else:
                    x = add(old, cm)
                    if is_zero(x):
                        del acc[km]
                    else:
                        acc[km] = x
        return acc

    def _from_keyed(self, mapping: dict) -> "Polynomial":
        # The one construction from a sum: a trusted ``heap key ->
        # coefficient`` map with no zero entries, as ``_combine`` returns.
        if not mapping:
            return self.zero()
        keys = sorted(mapping)
        return Polynomial(self, keyed=tuple(zip(map(mapping.__getitem__, keys), keys)))

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

    It stores only its keyed monomials (see ``keyed_monomials``), which
    every sum, comparison and reduction reads as they are.
    ``monomials``, ``head_monomial`` and ``head_term`` are derived from
    the keys at each read and never stored.  The keys are passed by
    keyword, ``Polynomial(ring, keyed=...)``, and must already be
    canonical; public code builds values through ``PolyRing``.
    """

    __slots__ = ("ring", "_keyed")

    def __init__(self, ring: PolyRing, *, keyed: tuple):
        self.ring = ring
        self._keyed = keyed

    @property
    def monomials(self) -> tuple:
        """(coefficient, term) pairs, strictly descending by term."""
        term_of = self.ring.order.term_from_heap_key
        return tuple((c, term_of(k)) for c, k in self._keyed)

    def keyed_monomials(self) -> tuple:
        """The stored form: ``monomials`` with each term as its order's heap key.

        Keys ascend as terms descend.  ``PolyRing._combine`` accumulates
        sums in this form and the reduction loop reads it.
        """
        return self._keyed

    # -- head decomposition --------------------------------------------------

    @property
    def head_monomial(self) -> tuple:
        c, k = self._keyed[0]
        return c, self.ring.order.term_from_heap_key(k)

    @property
    def head_coeff(self):
        return self._keyed[0][0]

    @property
    def head_term(self) -> tuple:
        return self.ring.order.term_from_heap_key(self._keyed[0][1])

    # -- arithmetic -----------------------------------------------------------

    def __bool__(self):
        return bool(self._keyed)

    def __add__(self, other):
        other = self.ring._coerce(other)
        if other is None:
            return NotImplemented
        parts = [(self._keyed, None, None), (other._keyed, None, None)]
        return self.ring._from_keyed(self.ring._combine(parts))

    __radd__ = __add__

    def __neg__(self):
        neg = self.ring.coeff_ring.neg
        return Polynomial(self.ring, keyed=tuple((neg(c), k) for c, k in self._keyed))

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
        order = self.ring.order
        order.check(order.key_bound(self._keyed) + order.key_bound(other._keyed))
        parts = [(self._keyed, c, k) for c, k in other._keyed]
        return self.ring._from_keyed(self.ring._combine(parts))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        order = self.ring.order
        if n > 1 and self:
            # Over a domain each variable's largest exponent in p^n, and
            # under deglex its degree, is n times p's: check before any product.
            if order.kind == "deglex":
                largest = sum(self.head_term)
            else:
                largest = max(order.term_from_heap_key(order.key_bound(self._keyed)))
            if largest * n >= DEGREE_BOUND:
                raise _degree_error()
        # Binary powering: the ring is commutative, so the order of the
        # products does not matter.  Squaring stops at n's top bit.
        result, base = self.ring.one(), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def mul_monomial(self, coeff, term) -> "Polynomial":
        """Product with the single monomial coeff*term."""
        ring = self.ring
        coeff = ring.coeff_ring.element(coeff)
        ks = ring.order.heap_key(ring._check_term(term))
        if ks:
            ring.order.check(ring.order.key_bound(self._keyed) + ks)
        return ring._from_keyed(ring._combine([(self._keyed, coeff, ks)]))

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
        return self.ring == other.ring and self._keyed == other._keyed

    def __hash__(self):
        return hash((self.ring, self._keyed))

    def __str__(self):
        return format_polynomial(self)

    __repr__ = __str__


def format_polynomial(p: Polynomial) -> str:
    """Render in the canonical text syntax, e.g. ``2*x^2*y - 3*y + 1``.

    Monomials descending, ``^`` for powers, ``*`` between coefficient
    and variables, single spaces around binary +/-; unit coefficients
    are omitted in front of variables.  Each coefficient prints as its
    ``str``, signed: ``-3/2``.  The same syntax parses back.
    """
    if not p:
        return "0"
    pieces = []
    for coeff, term in p.monomials:
        text = str(coeff)
        negative = text.startswith("-")
        if negative:
            text = text[1:]
        body = _format_term(p.ring, term)
        if not body:
            chunk = text
        elif text == "1":
            chunk = body
        else:
            chunk = f"{text}*{body}"
        if pieces:
            pieces.append(f" - {chunk}" if negative else f" + {chunk}")
        else:
            pieces.append(f"-{chunk}" if negative else chunk)
    return "".join(pieces)


def _format_term(ring: PolyRing, term: tuple) -> str:
    parts = []
    for name, exp in zip(ring.variables, term):
        if exp == 1:
            parts.append(name)
        elif exp > 1:
            parts.append(f"{name}^{exp}")
    return "*".join(parts)
