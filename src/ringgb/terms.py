"""Exponent-vector terms and the total orders that compare them.

A term is a plain tuple of non-negative exponents, one slot per session
variable; the all-zeros tuple is the unit term.
"""

from __future__ import annotations

from operator import neg

_ORDER_KINDS = ("lex", "deglex")


def term_mul(s: tuple, t: tuple) -> tuple:
    return tuple(a + b for a, b in zip(s, t))


def term_div(t: tuple, s: tuple) -> tuple:
    """t / s; raises ValueError when s does not divide t."""
    out = tuple(a - b for a, b in zip(t, s))
    if any(e < 0 for e in out):
        raise ValueError(f"{s} does not divide {t}")
    return out


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

    def heap_key(self, term: tuple) -> tuple:
        """Key under which terms sort ascending in descending term order.

        The key is the negated ``sort_key`` vector, so it is additive:
        the key of s*t is the componentwise sum of the keys of s and t,
        and s divides t exactly when every component of s's key is >=
        the matching component of t's.  The reduction kernel works on
        these keys alone and maps them back with ``term_from_heap_key``.
        """
        if self.precedence is not None:
            term = tuple(map(term.__getitem__, self.precedence))
        if self.kind == "lex":
            return tuple(map(neg, term))
        return (-sum(term), *map(neg, term))

    def term_from_heap_key(self, key: tuple) -> tuple:
        """The term whose ``heap_key`` is ``key``."""
        if self.kind != "lex":
            key = key[1:]
        if self.precedence is None:
            return tuple(map(neg, key))
        term = [0] * len(key)
        for e, i in zip(key, self.precedence):
            term[i] = -e
        return tuple(term)

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
