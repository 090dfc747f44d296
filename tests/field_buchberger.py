"""Classical S-polynomial Buchberger over a field.

Independent oracle for the cross-checks: reduction divides lead
coefficients directly (no ring reduce-step machinery) and completion
uses S-polynomials only, so it shares nothing with the gcd/syzygy
completion path beyond polynomial arithmetic.  Dividing by c multiplies
by ``canonical_unit(c)``, which over a field is 1/c: every nonzero
value has the canonical associate 1.
"""

from collections import deque
from itertools import islice
from operator import le

from ringgb.terms import term_lcm

from naive_poly import term_div


def field_normal_form(p, basis):
    """Reduce the largest reducible monomial by the first basis element whose head divides it, until none is left."""
    ring = p.ring.coeff_ring
    term_of = p.ring.order.term_from_heap_key
    heads = [(b.head_term, b.head_coeff, b) for b in basis]
    q, start = p, 0
    while True:
        # A step at a monomial leaves the ones above it as they were,
        # irreducible, so each scan starts at the last one reduced.
        for index, (c, key) in enumerate(islice(q.keyed_monomials(), start, None), start):
            t = term_of(key)
            target = next((h for h in heads if all(map(le, h[0], t))), None)
            if target is not None:
                break
        else:
            return q
        s, hc, b = target
        q = q + b.mul_monomial(ring.neg(ring.mul(c, ring.canonical_unit(hc))), term_div(t, s))
        start = index


def s_polynomial(f, g):
    ring = f.ring.coeff_ring
    t = term_lcm(f.head_term, g.head_term)
    inv_f = ring.canonical_unit(f.head_coeff)
    inv_g = ring.canonical_unit(g.head_coeff)
    return f.mul_monomial(inv_f, term_div(t, f.head_term)) - g.mul_monomial(
        inv_g, term_div(t, g.head_term)
    )


def field_groebner(generators):
    """Reduced monic Groebner basis, sorted descending by head term."""
    basis = [p for p in generators if p]
    queue = deque(
        (i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))
    )
    while queue:
        i, j = queue.popleft()
        r = field_normal_form(s_polynomial(basis[i], basis[j]), basis)
        if r:
            basis.append(r)
            queue.extend((m, len(basis) - 1) for m in range(len(basis) - 1))
    while True:
        updated = False
        reduced = []
        for i, p in enumerate(basis):
            others = reduced + basis[i + 1 :]
            r = field_normal_form(p, others) if others else p
            if r != p:
                updated = True
            if r:
                reduced.append(r)
        basis = reduced
        if not updated:
            break
    if not basis:
        return []
    ring = basis[0].ring.coeff_ring
    basis = [p.scale(ring.canonical_unit(p.head_coeff)) for p in basis]
    basis.sort(key=lambda p: p.ring.order.sort_key(p.head_term), reverse=True)
    return basis
