"""Exponent-vector terms, the total orders that compare them, and packed keys.

A term is a plain tuple of non-negative exponents, one slot per session
variable; the all-zeros tuple is the unit term.  A ``PolyRing`` stores
each term as one int, its key under the ``PackedOrder`` it builds.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from operator import itemgetter, mul
from struct import Struct

_ORDER_KINDS = ("lex", "deglex")

#: Bits per packed key field: a value below ``DEGREE_BOUND`` and a guard bit.
FIELD_BITS = 32
#: Every exponent, and under deglex every total degree, stays below this bound.
DEGREE_BOUND = 1 << FIELD_BITS - 1


def term_mul(s: tuple, t: tuple) -> tuple:
    return tuple(a + b for a, b in zip(s, t))


def term_divides(s: tuple, t: tuple) -> bool:
    return all(a <= b for a, b in zip(s, t))


def term_lcm(s: tuple, t: tuple) -> tuple:
    return tuple(max(a, b) for a, b in zip(s, t))


class TermOrder:
    """Total, multiplicative, well-founded order on terms.

    ``kind`` is "lex" or "deglex".  ``precedence`` optionally permutes
    the variables: a tuple of variable indexes from most to least
    significant (default: declaration order).
    """

    def __init__(self, kind: str = "lex", precedence=None):
        if kind not in _ORDER_KINDS:
            raise ValueError(f"unknown term order {kind!r}; expected lex or deglex")
        if precedence is not None:
            precedence = tuple(precedence)
            if sorted(precedence) != list(range(len(precedence))):
                raise ValueError("precedence must be a permutation of variable indexes")
        self.kind = kind
        self.precedence = precedence

    def sort_key(self, term: tuple):
        if self.precedence is not None:
            term = tuple(term[i] for i in self.precedence)
        if self.kind == "lex":
            return term
        return (sum(term), term)

    def __eq__(self, other):
        return (
            isinstance(other, TermOrder)
            and self.kind == other.kind
            and self.precedence == other.precedence
        )

    def __hash__(self):
        return hash((self.kind, self.precedence))

    def __repr__(self):
        if self.precedence is None:
            return f"TermOrder({self.kind!r})"
        return f"TermOrder({self.kind!r}, precedence={self.precedence})"


def _degree_error() -> ValueError:
    return ValueError(f"exponent or total degree out of range: the bound is 2^{FIELD_BITS - 1} = {DEGREE_BOUND}")


class PackedOrder(TermOrder):
    """``order`` on the terms of ``nvars`` variables, with one int as a term's heap key.

    The key is minus the sort vector packed into ``FIELD_BITS``-bit
    fields, first slot most significant (Bachmann & Schoenemann, ISSAC
    1998).  Each field holds a value below ``DEGREE_BOUND`` under a guard
    bit, so the key of s*t is ks + kt, and a field past the bound sets
    its guard bit in -(ks + kt), which ``check`` tests.
    """

    def __init__(self, order: TermOrder, nvars: int):
        super().__init__(order.kind, order.precedence)
        self.nvars = nvars
        deg = order.kind != "lex"  # the degree field, first
        self._largest = sum if deg else max  # the largest field of a term's key
        self._bytes = FIELD_BITS // 8 * (nvars + deg)
        self._unpack = Struct(">" + "x" * (FIELD_BITS // 8) * deg + "I" * nvars).unpack
        slots = self.precedence or tuple(range(nvars))  # the variables, most significant first
        inverse = sorted(range(nvars), key=slots.__getitem__)
        self._from_slots = None if inverse == list(range(nvars)) else itemgetter(*inverse)
        field = 1 << FIELD_BITS
        # A key is minus the exponents' dot product with these weights:
        # each variable's field, plus the degree field under deglex.
        self._weights = [0] * nvars
        for f, v in enumerate(reversed(slots)):
            self._weights[v] = field**f + deg * field**nvars
        self.guard = sum(DEGREE_BOUND * field**f for f in range(nvars + deg))
        # The product with ``_lift`` sums the exponent fields into the degree field.
        self._exponents = field**nvars - 1 if deg else -1
        self._lift = sum(field**f for f in range(1, nvars + 1)) if deg else 0
        self._degree = (field - 1) * field**nvars

    def __reduce__(self):  # a Struct does not pickle
        return packed_order, (TermOrder(self.kind, self.precedence), self.nvars)

    def heap_key(self, term: tuple) -> int:
        if self._largest(term) >= DEGREE_BOUND:
            raise _degree_error()
        return -sum(map(mul, term, self._weights))

    def term_from_heap_key(self, key: int) -> tuple:
        slots = self._unpack((-key).to_bytes(self._bytes, "big"))
        return self._from_slots(slots) if self._from_slots else slots

    def key_gcd(self, a: int, b: int) -> int:
        """``heap_key`` of the gcd of s and t from the heap keys a and b of s and t.

        The gcd is the fieldwise minimum of the exponent fields, its
        degree (below both degrees) their sum.  Only the exponent fields
        of a and b are read, so either may also be minus packed
        exponents with no degree field, such as an lcm past the bound.
        """
        p, q = -a, -b
        ge = ((p | self.guard) - q) & self.guard  # the guard bits of the fields where p >= q
        low = (p ^ ((p ^ q) & (ge - (ge >> FIELD_BITS - 1)))) & self._exponents
        return -(low | low * self._lift & self._degree)

    def key_lcm(self, a: int, b: int, coprime=False) -> int:
        """``heap_key(term_lcm(s, t))`` from the heap keys a and b of s and t.

        It is s*t/gcd(s, t).  With ``coprime``, coprime s and t give
        a + b unchecked, for a caller that only compares it.
        """
        g = self.key_gcd(a, b)
        key = a + b - g
        if -key & self.guard and (g or not coprime):
            raise _degree_error()
        return key

    def key_bound(self, keyed) -> int:
        """The key of the fieldwise largest exponents over the ``(c, key)`` pairs of ``keyed``.

        ``check(key_bound(keyed) + ks)`` passes exactly when every key in
        keyed plus ks is a term's key, so a sum is checked once.
        """
        top, guard = 0, self.guard
        for _, k in keyed:
            ge = ((top | guard) + k) & guard
            top = -k ^ ((top ^ -k) & (ge - (ge >> FIELD_BITS - 1)))
        return -top

    def tail_bound(self, keyed) -> int:
        """A ``key_bound`` for the multiples of ``keyed``'s tail whose head multiple is a term.

        Under deglex no tail term has a larger degree than the head, so
        the key of the unit term bounds them: s*tail stays below the
        degree of s*head.  Under lex it is the tail's ``key_bound``.
        """
        return self.key_bound(islice(keyed, 1, None)) if self.kind == "lex" else 0

    def check(self, key: int):
        """Raise ``ValueError`` unless ``key``, a sum of keys, is a term's key."""
        if -key & self.guard:
            raise _degree_error()


@lru_cache(maxsize=64)
def packed_order(order: TermOrder, nvars: int) -> PackedOrder:
    """The ``PackedOrder`` of ``order`` over ``nvars`` variables, one shared by every ring that asks."""
    return PackedOrder(order, nvars)
