"""Strong Groebner bases over ZZ by plain Buchberger, an oracle for the tests.

After Kandri-Rody & Kapur ("Computing a Groebner basis of a polynomial
ideal over a Euclidean domain", JSC 6, 1988) and Lichtblau ("Effective
computation of strong Groebner bases over Euclidean domains", Illinois
J. Math. 56, 2012).  Every pair of basis elements, with head monomials
a*s and b*t and L = lcm(s, t), gives two polynomials:

- the gcd polynomial u*(L/s)*f + v*(L/t)*g, with u*a + v*b = gcd(a, b);
- the syzygy polynomial (l/a)*(L/s)*f - (l/b)*(L/t)*g, l = lcm(a, b).

Each is reduced to normal form and added when nonzero; no criterion
skips a pair.  A monomial c*t is reducible by an element with head
b*s when s divides t and c lies outside the window (-|b|/2, |b|/2];
the step leaves the symmetric remainder of c by b at t.  Reduction
rescans the whole polynomial after every step and takes the largest
reducible monomial and the first element, in basis order, that reduces
it.

It shares no code with ``ringgb``'s reduction, pairs or completion:
polynomials are the ``term -> coefficient`` dicts of ``naive_poly``,
terms are exponent tuples and the order is compared on them directly.
"""

from collections import deque
from math import gcd

from naive_poly import add, mul_monomial, term_div


def order_key(kind):
    """A sort key for exponent tuples under ``kind``, "lex" or "deglex"."""
    return (lambda t: t) if kind == "lex" else (lambda t: (sum(t), t))


def symmetric_remainder(c: int, b: int) -> int:
    """The d = c mod b in (-|b|/2, |b|/2]."""
    m = abs(b)
    d = c % m
    return d - m if 2 * d > m else d


def xgcd(a: int, b: int):
    """(g, u, v) with u*a + v*b = g = gcd(a, b) >= 0."""
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, u, v = xgcd(b, a % b)
    return g, v, u - (a // b) * v


def _head(p: dict, key):
    t = max(p, key=key)
    return t, p[t]


def _divides(s, t) -> bool:
    return all(a <= b for a, b in zip(s, t))


def normal_form(ring, p: dict, basis, key) -> dict:
    """p reduced until no monomial is reducible by an element of ``basis``, a list of dicts."""
    heads = [_head(g, key) for g in basis]
    while True:
        step = None
        for t in sorted(p, key=key, reverse=True):
            c = p[t]
            for (s, b), g in zip(heads, basis):
                if _divides(s, t) and symmetric_remainder(c, b) != c:
                    step = (c - symmetric_remainder(c, b)) // b, term_div(t, s), g
                    break
            if step is not None:
                break
        if step is None:
            return p
        q, shift, g = step
        p = add(ring, p, mul_monomial(ring, g, -q, shift))


def pair_polynomials(ring, f: dict, g: dict, key):
    """The gcd and syzygy polynomials of f and g."""
    (s, a), (t, b) = _head(f, key), _head(g, key)
    lcm_term = tuple(max(x, y) for x, y in zip(s, t))
    fs, gt = term_div(lcm_term, s), term_div(lcm_term, t)
    _, u, v = xgcd(a, b)
    l = abs(a * b) // gcd(a, b)
    return [
        add(ring, mul_monomial(ring, f, u, fs), mul_monomial(ring, g, v, gt)),
        add(ring, mul_monomial(ring, f, l // a, fs), mul_monomial(ring, g, -(l // b), gt)),
    ]


def zz_groebner(generators):
    """The reduced strong Groebner basis of ``generators`` over ZZ, as dicts, by descending head term.

    Heads are positive; no element's head term and head coefficient are
    both divisible by another's, and every tail is in normal form.
    """
    generators = [p for p in generators if p]
    if not generators:
        return []
    ring = generators[0].ring.coeff_ring
    key = order_key(generators[0].ring.order.kind)
    basis = [{t: c for c, t in p.monomials} for p in generators]
    pairs = deque((i, j) for j in range(len(basis)) for i in range(j))
    while pairs:
        i, j = pairs.popleft()
        for h in pair_polynomials(ring, basis[i], basis[j], key):
            r = normal_form(ring, h, basis, key)
            if r:
                basis.append(r)
                pairs.extend((m, len(basis) - 1) for m in range(len(basis) - 1))
    basis = [p if _head(p, key)[1] > 0 else {t: -c for t, c in p.items()} for p in basis]
    # Ascending by head term, then head coefficient: an element divides
    # only elements after it, so each is tested against the kept ones.
    heads = sorted(((_head(p, key), p) for p in basis), key=lambda h: (key(h[0][0]), h[0][1]))
    kept, kept_heads = [], []
    for (t, c), p in heads:
        if not any(_divides(s, t) and c % b == 0 for s, b in kept_heads):
            kept.append(p)
            kept_heads.append((t, c))
    reduced = []
    for p, (t, c) in zip(kept, kept_heads):
        tail = normal_form(ring, {u: d for u, d in p.items() if u != t}, kept, key)
        reduced.append({t: c, **tail})
    return reduced[::-1]
