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
``is_groebner_basis`` checks every record ``pair_records`` lists.

``PairQueue`` is the pair policy of ``complete``: which records are
reduced, and in what order.  It pops records smallest-lcm-first
(``record_sort_key``).  Over ``zz`` it queues and yields every record.
Over a field (``CoefficientRing.is_field``) it queues only the syzygy
records, and Buchberger's two criteria skip the S-polynomials whose
reduction is known to be unnecessary, in the "pairs already treated"
form (Buchberger, 1979; Becker & Weispfenning, *Groebner Bases*, 1993,
chapter 5).  The product criterion skips a pair whose head terms are
coprime.  The chain criterion skips a pair (i, j) when some other
element k has a head dividing lcm(i, j) and neither (i, k) nor (j, k)
is still queued: both were treated, so the S-polynomial of (i, j) has a
representation below its lcm through theirs.  A skipped record counts
as treated.  The criteria read the heads of the completion's
``reduction._Reducers``, and the chain criterion asks its divisor index
which of them divide the lcm.  Over ``zz`` the criteria would need
conditions on the head coefficients.  Each queued record costs one unit
of the completion's ``StepBudget``: an input whose pair polynomials need
no reduction step still grows the queue quadratically in the basis
size, and the limit bounds that growth too.

A pair polynomial a1*s1*p1 + a2*s2*p2 at lcm l is summed from the two
shifted tails that the reduction steps of p1 and p2 at l would subtract,
read from the completion's ``reduction._Reducers``, plus its coefficient
at l when that is nonzero.  It is summed in the reduction loop's
coefficient form and left as a ``heap key -> coefficient`` dict: that
is the kernel's input (see ``reduction``), so no ``Polynomial`` is built
or sorted for the many pair polynomials that reduce to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from operator import add

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


def combinations_for(basis, record: PairRecord, reducers):
    """The pair polynomials of ``record`` with their combination data.

    Returns ``(q, ((a1, k1), (a2, k2)))`` pairs with
    ``q = a1*s1*basis[i] + a2*s2*basis[j]``, where k1 and k2 are the
    heap keys of s1 and s2: the lcm's key minus each head's, as heap
    keys are additive.  ``reducers`` is the ``reduction._Reducers`` of
    ``basis``.  q is a ``heap key -> coefficient`` dict in its ``form``,
    without zero coefficients, so ``not q`` exactly when the combination
    cancels; a1 and a2 are ring elements.  For ``GCD`` the rows of the
    head coefficients' ``groebner`` basis give one q per generator g,
    with head monomial g*lcm; for ``SYZYGY`` the rows of their
    ``syzygies`` give q whose coefficient at the lcm is exactly zero.
    """
    i, j = record.i, record.j
    p1, p2 = basis[i], basis[j]
    kl = p1.ring.order.heap_key(record.lcm)
    ring = p1.ring.coeff_ring
    gcd = record.kind == GCD
    if gcd:
        rows = ring.groebner([p1.head_coeff, p2.head_coeff])[1]
    else:
        rows = ring.syzygies(p1.head_coeff, p2.head_coeff)
    # s1*basis[i] and s2*basis[j] are the steps of i and j at the lcm.
    # Only a gcd record keeps them: over zz its syzygy record comes next
    # and reads them, and over a field no gcd record is queued.
    k1, tail1 = reducers.shifted(i, kl, gcd)
    k2, tail2 = reducers.shifted(j, kl, gcd)
    form = reducers.form
    add, mul, is_zero, enter = form.add, form.mul, form.is_zero, form.enter
    h1, h2 = reducers.keyed[i][0][0], reducers.keyed[j][0][0]
    out = []
    for a1, a2 in rows:
        c1, c2 = (a1, a2) if enter is None else (enter(a1), enter(a2))
        q = {} if is_zero(c1) else {ku: mul(cb, c1) for cb, ku in tail1}
        if not is_zero(c2):
            for cb, ku in tail2:
                x = mul(cb, c2)
                old = q.get(ku)
                if old is not None:
                    x = add(old, x)
                    if is_zero(x):
                        del q[ku]
                        continue
                q[ku] = x
        head = add(mul(h1, c1), mul(h2, c2))
        if not is_zero(head):
            q[kl] = head
        out.append((q, ((a1, k1), (a2, k2))))
    return out


def record_sort_key(record: PairRecord, order):
    """Selection policy: ascending lcm, ties by index pair, gcd before syzygy."""
    return (order.sort_key(record.lcm), record.i, record.j, _KIND_RANK[record.kind])


class PairQueue:
    """The records ``complete`` has still to treat, under the policy above.

    The criteria read ``reducers.heads`` and ``reducers.divisors`` of the
    completion's ``reduction._Reducers``.  ``add(j)`` queues the records
    of the next basis element j, already appended to ``reducers``, with
    every earlier one, charging ``budget`` one unit per queued record.
    Iterating pops the records in ``record_sort_key`` order and yields
    those that no criterion skips; the basis may grow meanwhile.
    ``popped`` counts every popped record, and ``product`` and ``chain``
    the popped records each criterion skipped.
    """

    def __init__(self, basis, reducers, budget):
        self.basis = basis
        self.reducers = reducers
        self.budget = budget
        self.order = reducers.ring.order
        self.field = reducers.ring.coeff_ring.is_field
        self.heap = []
        self.pending = set()  # over a field: the (i, j) of the records still queued
        self.popped = self.product = self.chain = 0

    def add(self, j: int):
        for record in pair_records(self.basis, j):
            if self.field:
                if record.kind == GCD:
                    continue
                self.pending.add((record.i, j))
            self.budget.spend()
            heappush(self.heap, (record_sort_key(record, self.order), record))

    def __iter__(self):
        heap, pending, reducers = self.heap, self.pending, self.reducers
        while heap:
            _, record = heappop(heap)
            self.popped += 1
            if self.field:
                i, j = record.i, record.j
                pending.discard((i, j))
                kl = self.order.heap_key(record.lcm)
                if kl == tuple(map(add, reducers.heads[i][0], reducers.heads[j][0])):
                    self.product += 1  # coprime head terms: the S-polynomial reduces to zero
                    continue
                # A head k dividing the lcm, with (i, k) and (j, k) both treated.
                if any(
                    k != i and k != j
                    and (min(i, k), max(i, k)) not in pending
                    and (min(j, k), max(j, k)) not in pending
                    for k in reducers.divisors(kl)
                ):
                    self.chain += 1
                    continue
            yield record
