"""Critical-pair records and the polynomials built from them.

Two kinds are built for each unordered pair.  Gcd polynomials combine
the pair so the head coefficient ideal at the lcm of the head terms is
generated; syzygy polynomials combine the pair so the lcm term cancels
outright, pushing the head strictly below it.  Over a field the single
syzygy polynomial is the classical S-polynomial up to a unit and the
gcd polynomial is redundant; over the integers both kinds matter.

``pair_records`` enumerates the records of one new basis element and
``combinations_for`` builds the polynomials of one record.  Pairs are
enough because the shipped coefficient rings are principal ideal
domains, where pairwise critical pairs are sufficient.

A pair polynomial is built as the reduction kernel's ``heap key ->
coefficient`` map (see ``reduction``), straight from the cached
``keyed_monomials`` of the two basis elements: the key of a product of
terms is the sum of their keys, so no ``Polynomial`` is built or sorted
for the many pair polynomials that reduce to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .terms import term_div, term_lcm

GCD = "gcd"
SYZYGY = "syzygy"

_KIND_RANK = {GCD: 0, SYZYGY: 1}


@dataclass(frozen=True)
class PairRecord:
    """A pending pair obligation: basis indexes i < j, their head-term lcm, kind."""

    i: int
    j: int
    lcm: tuple
    kind: str


def pair_records(basis, j: int):
    """The gcd and then the syzygy record of each pair (i, j) with i < j."""
    head = basis[j].head_term
    for i in range(j):
        t = term_lcm(basis[i].head_term, head)
        yield PairRecord(i, j, t, GCD)
        yield PairRecord(i, j, t, SYZYGY)


def combinations_for(basis, record: PairRecord):
    """The pair polynomials of ``record`` with their combination data.

    Returns ``(q, ((a1, s1), (a2, s2)))`` pairs with
    ``q = a1*s1*basis[i] + a2*s2*basis[j]`` given as a ``heap key ->
    coefficient`` dict without zero coefficients, so ``not q`` exactly
    when the combination cancels (``PolyRing._from_keyed`` turns it into
    a ``Polynomial``).  For ``GCD`` the rows of the head coefficients'
    ``groebner`` basis give one q per generator g, with head monomial
    g*lcm; for ``SYZYGY`` the rows of their ``syzygies`` give q whose
    coefficient at the lcm is exactly zero.
    """
    p1, p2 = basis[record.i], basis[record.j]
    s1 = term_div(record.lcm, p1.head_term)
    s2 = term_div(record.lcm, p2.head_term)
    ring = p1.ring.coeff_ring
    key_of = p1.ring.order.heap_key
    if record.kind == GCD:
        rows = ring.groebner([p1.head_coeff, p2.head_coeff])[1]
    else:
        rows = ring.syzygies(p1.head_coeff, p2.head_coeff)
    return [
        (_combine(ring, p1, a1, key_of(s1), p2, a2, key_of(s2)), ((a1, s1), (a2, s2)))
        for a1, a2 in rows
    ]


def _combine(ring, p1, a1, k1, p2, a2, k2) -> dict:
    """``a1*s1*p1 + a2*s2*p2`` as a heap-key dict, where k1, k2 are the keys of s1, s2."""
    mul, is_zero = ring.mul, ring.is_zero
    acc = {}
    if not is_zero(a1):
        for c, k in p1.keyed_monomials():
            acc[tuple(map(add, k, k1))] = mul(c, a1)
    if not is_zero(a2):
        for c, k in p2.keyed_monomials():
            ku = tuple(map(add, k, k2))
            x = mul(c, a2)
            old = acc.get(ku)
            if old is not None:
                x = ring.add(old, x)
                if is_zero(x):
                    del acc[ku]
                    continue
            acc[ku] = x
    return acc


def record_sort_key(record: PairRecord, order):
    """Selection policy: ascending lcm, ties by index pair, gcd before syzygy."""
    return (order.sort_key(record.lcm), record.i, record.j, _KIND_RANK[record.kind])
