"""Naive ``term -> coefficient`` polynomial arithmetic, an oracle for the tests.

It shares no code with ``ringgb.poly``: terms stay plain exponent tuples,
products add exponents position by position, and every sum is a dict
update with the coefficient ring's own ``add``/``mul``.  No heap key and
no term order is involved, so a mistake in how ``ringgb`` lays out or
sorts its keys cannot cancel out here.
"""


def as_dict(p) -> dict:
    return {t: c for c, t in p.monomials}


def _put(ring, acc, t, c):
    c = ring.add(acc[t], c) if t in acc else c
    if ring.is_zero(c):
        acc.pop(t, None)
    else:
        acc[t] = c


def add(ring, a: dict, b: dict) -> dict:
    acc = dict(a)
    for t, c in b.items():
        _put(ring, acc, t, c)
    return acc


def neg(ring, a: dict) -> dict:
    return {t: ring.neg(c) for t, c in a.items()}


def mul_monomial(ring, a: dict, coeff, term) -> dict:
    acc = {}
    for t, c in a.items():
        _put(ring, acc, tuple(x + y for x, y in zip(t, term)), ring.mul(c, coeff))
    return acc


def mul(ring, a: dict, b: dict) -> dict:
    acc = {}
    for t, c in b.items():
        acc = add(ring, acc, mul_monomial(ring, a, c, t))
    return acc


def combination(ring, cofactors, polys) -> dict:
    """sum(cofactor * poly) over the two sequences of ``Polynomial``s, as a dict."""
    acc = {}
    for cofactor, p in zip(cofactors, polys):
        acc = add(ring, acc, mul(ring, as_dict(cofactor), as_dict(p)))
    return acc


def term_div(t: tuple, s: tuple) -> tuple:
    """t / s for exponent tuples; raises ValueError when s does not divide t."""
    out = tuple(a - b for a, b in zip(t, s))
    if any(e < 0 for e in out):
        raise ValueError(f"{s} does not divide {t}")
    return out
