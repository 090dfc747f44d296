"""Critical-pair records and the polynomials built from them.

Two kinds are built for each unordered pair.  Gcd polynomials combine
the pair so the head coefficient ideal at the lcm of the head terms is
generated; syzygy polynomials combine the pair so the lcm term cancels
outright, pushing the head strictly below it.  Over a field the single
syzygy polynomial is the classical S-polynomial up to a unit and the
gcd polynomial is redundant; over the integers both kinds matter.
``pair_records`` lists both kinds for every ring: ``complete`` drops
the gcd records over a field and applies its pair criteria to the
syzygy records, while ``is_groebner_basis`` checks every record.

``pair_records`` enumerates the records of one new basis element and
``combinations_for`` builds the polynomials of one record.  Pairs are
enough because the shipped coefficient rings are principal ideal
domains, where pairwise critical pairs are sufficient.

A pair polynomial a1*s1*p1 + a2*s2*p2 is accumulated by
``PolyRing._combine`` from the stored ``keyed_monomials`` of the two
basis elements, and left as that ``heap key -> coefficient`` dict: it
is the reduction kernel's input (see ``reduction``), so no
``Polynomial`` is built or sorted for the many pair polynomials that
reduce to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub

from .terms import term_lcm

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

    Returns ``(q, ((a1, k1), (a2, k2)))`` pairs with
    ``q = a1*s1*basis[i] + a2*s2*basis[j]``, where k1 and k2 are the
    heap keys of s1 and s2: the lcm's key minus each head's, as heap
    keys are additive.  q is a ``heap key -> coefficient`` dict without
    zero coefficients, as ``PolyRing._combine`` returns it, so ``not q``
    exactly when the combination cancels.  For ``GCD`` the rows of the
    head coefficients' ``groebner`` basis give one q per generator g,
    with head monomial g*lcm; for ``SYZYGY`` the rows of their
    ``syzygies`` give q whose coefficient at the lcm is exactly zero.
    """
    p1, p2 = basis[record.i], basis[record.j]
    poly_ring = p1.ring
    m1, m2 = p1.keyed_monomials(), p2.keyed_monomials()
    kl = poly_ring.order.heap_key(record.lcm)
    k1 = tuple(map(sub, kl, m1[0][1]))
    k2 = tuple(map(sub, kl, m2[0][1]))
    ring = poly_ring.coeff_ring
    if record.kind == GCD:
        rows = ring.groebner([p1.head_coeff, p2.head_coeff])[1]
    else:
        rows = ring.syzygies(p1.head_coeff, p2.head_coeff)
    return [
        (poly_ring._combine([(m1, a1, k1), (m2, a2, k2)]), ((a1, k1), (a2, k2)))
        for a1, a2 in rows
    ]


def record_sort_key(record: PairRecord, order):
    """Selection policy: ascending lcm, ties by index pair, gcd before syzygy."""
    return (order.sort_key(record.lcm), record.i, record.j, _KIND_RANK[record.kind])
