"""Critical-pair records and the polynomials built from them.

Two kinds are built for each unordered pair.  Gcd polynomials combine
the pair so the head coefficient ideal at the lcm of the head terms is
generated; syzygy polynomials combine the pair so the lcm term cancels
outright, pushing the head strictly below it.  Over a field the single
syzygy polynomial is the classical S-polynomial up to a unit and the
gcd polynomial is redundant, so no gcd record is made; over the
integers both kinds matter.  Pairs are enough because the shipped
coefficient rings are principal ideal domains.

A record is ``(i, j, kl, kind)``, kl the heap key of the heads' lcm,
one int, which ``PackedOrder.key_lcm`` takes from their keys in the
completion's ``reduction._Reducers``.  ``records_of`` lists one
element's records for ``PairQueue`` and ``is_groebner_basis``, and
``combinations_for`` builds one record's polynomials.  Their
coefficients are the rows that the ring's ``_kernel_form().pair_rows``
gives for the prepared heads: int arithmetic for the shipped rings, the
ring's ``groebner`` and ``syzygies`` for a ring on the default form.

``PairQueue`` is the pair policy of ``complete``: it pops records
smallest-lcm-first and yields every one over ``zz``.  Over a field
(``CoefficientRing.is_field``) Buchberger's two criteria skip the
S-polynomials whose reduction is known to be unnecessary, in the
"pairs already treated" form (Buchberger, 1979; Becker & Weispfenning,
*Groebner Bases*, 1993, chapter 5).  The product criterion skips a
pair whose head terms are coprime: their keys sum to the lcm's.  The
chain criterion skips a pair (i, j) when some other element k has a
head dividing lcm(i, j) and (i, k) and (j, k) have both popped: both
were treated, so the S-polynomial of (i, j) has a representation
below its lcm through theirs.  A skipped record counts as treated.
The chain criterion asks the divisor index of the ``_Reducers`` which
heads divide the lcm.  Over ``zz`` the criteria would need conditions
on the head coefficients.  Each queued record costs one unit of the completion's
``StepBudget``: an input whose pair polynomials need no reduction step
still grows the queue quadratically in the basis size, and the limit
bounds that growth too.

A pair polynomial a1*s1*p1 + a2*s2*p2 at lcm l is summed, in the
loop's coefficient form, from the shifted tails that the reduction
steps of p1 and p2 at l would subtract (read from the ``_Reducers``),
plus its nonzero coefficient at l.  It is left as a ``heap key ->
coefficient`` dict, the kernel's input (see ``reduction``), so no
``Polynomial`` is built for the many that reduce to zero.
"""

from __future__ import annotations

from heapq import heappop, heappush

GCD = "gcd"
SYZYGY = "syzygy"


def records_of(reducers, j: int):
    """The records of the pairs (i, j), i < j, of ``reducers``, i ascending; over a field syzygies only."""
    heads, key_lcm = reducers.heads, reducers.ring.order.key_lcm
    field = reducers.ring.coeff_ring.is_field
    kinds = (SYZYGY,) if field else (GCD, SYZYGY)
    kj = heads[j][0]
    for i in range(j):
        kl = key_lcm(heads[i][0], kj, field)  # over a field, coprime heads' ki + kj unchecked: never built
        for kind in kinds:
            yield i, j, kl, kind


def combinations_for(reducers, record):
    """The pair polynomials of ``record`` with their combination data.

    Returns ``(q, ((a1, k1), (a2, k2)))`` for each row (a1, a2) of
    ``pair_rows``, with ``q = a1*s1*basis[i] + a2*s2*basis[j]`` and k1,
    k2 the heap keys of s1, s2.  q is a ``heap key -> coefficient`` dict
    with no zero coefficient, so ``not q`` exactly when the combination
    cancels; q, a1 and a2 are in ``reducers.form``.  A ``GCD`` q has
    head monomial g*lcm for a generator g of the head coefficients'
    ideal; a ``SYZYGY`` q has no monomial at the lcm.
    """
    i, j, kl, kind = record
    gcd = kind == GCD
    form, heads = reducers.form, reducers.heads
    # s1*basis[i] and s2*basis[j] are the steps of i and j at the lcm.
    # Only a gcd record keeps them: over zz its syzygy record is popped
    # later and reads them, and over a field no gcd record is queued.
    k1, tail1 = reducers.shifted(i, kl, gcd)
    k2, tail2 = reducers.shifted(j, kl, gcd)
    add, mul, is_zero = form.add, form.mul, form.is_zero
    h1, h2 = reducers.lead[i], reducers.lead[j]
    out = []
    for c1, c2 in form.pair_rows(heads[i][1], heads[j][1], gcd):
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
        if gcd:  # g*lcm for a nonzero generator g; a syzygy row cancels the lcm exactly
            q[kl] = add(mul(h1, c1), mul(h2, c2))
        out.append((q, ((c1, k1), (c2, k2))))
    return out


class PairQueue:
    """The records ``complete`` has still to treat, under the policy above.

    ``add(j)`` queues the ``records_of`` element j, already appended to
    ``reducers``, each record as ``(-kl, i, j, kind)`` and charging
    ``budget`` one unit: smallest lcm first, then by index pair, gcd
    before syzygy (``"gcd" < "syzygy"``).  Iterating yields the popped
    records that no criterion skips; the basis may grow meanwhile.
    Over a field, bit k of ``treated[i]`` is set once (i, k) has popped,
    that is, once it is no longer queued.  ``popped`` counts every
    popped record, and ``product`` and ``chain`` those each skipped.
    """

    def __init__(self, reducers, budget):
        self.reducers = reducers
        self.budget = budget
        self.field = reducers.ring.coeff_ring.is_field
        self.heap = []
        self.treated = []
        self.popped = self.product = self.chain = 0

    def add(self, j: int):
        heap, spend = self.heap, self.budget.spend
        for i, _, kl, kind in records_of(self.reducers, j):
            spend()
            heappush(heap, (-kl, i, j, kind))
        self.treated.append(0)

    def __iter__(self):
        heap, treated, reducers = self.heap, self.treated, self.reducers
        heads = reducers.heads
        while heap:
            nkl, i, j, kind = heappop(heap)
            kl = -nkl
            self.popped += 1
            if self.field:
                treated[i] |= 1 << j
                treated[j] |= 1 << i
                if kl == heads[i][0] + heads[j][0]:
                    self.product += 1  # coprime head terms: the S-polynomial reduces to zero
                    continue
                # A head k dividing the lcm, with (i, k) and (j, k) both treated (never k = i or j).
                both = treated[i] & treated[j]
                if any(both >> k & 1 for k in reducers.divisors(kl)):
                    self.chain += 1
                    continue
            yield i, j, kl, kind
