"""Critical-pair completion, interreduction, and ideal membership.

``complete`` drains a queue of pair obligations smallest-lcm-first: for
each pair it builds the gcd and syzygy polynomials, reduces them to
normal form against the current basis, and appends every nonzero
result, enqueueing the new element's pairs immediately.  When the queue
is empty every pair polynomial of the basis reduces to zero, which is
the certificate that the basis is a Groebner basis; because the shipped
rings admit canonical remainders, the result is in fact strong (normal
forms are unique regardless of reduction strategy).

Over a field (``CoefficientRing.is_field``) the gcd polynomial of a pair
is a multiple of one of its elements and the syzygy polynomial is the
classical S-polynomial, so only syzygy records are queued, and
Buchberger's two criteria skip the S-polynomials whose reduction is
known to be unnecessary, in the "pairs already treated" form
(Buchberger, 1979; Becker & Weispfenning, *Groebner Bases*, 1993,
chapter 5).  The product criterion skips a pair whose head terms are
coprime.  The chain criterion skips a pair (i, j) when some other
element k has a head dividing lcm(i, j) and neither (i, k) nor (j, k)
is still queued: both were treated, so the S-polynomial of (i, j) has a
representation below its lcm through theirs.  A skipped record counts
as treated.  Over ``zz`` every gcd and syzygy record is still reduced:
the criteria need conditions on the head coefficients there.

Every basis element carries an exact combination certificate over the
original generators, maintained through both the pair construction and
the reduction cofactors, so ideal preservation is witnessed rather than
assumed.

Most pair polynomials reduce to zero, so the loop builds nothing that
only a nonzero remainder needs.  Pair polynomials come from
``combinations_for`` as the reduction loop's ``heap key ->
coefficient`` accumulators and are reduced from there, under every
strategy.  The loop only lists its steps, with k in its own form; for
a nonzero remainder alone, ``_Reducers.records`` converts each k and
each new certificate entry is one ``PolyRing._combine`` sum over the
pair and the steps, sorted once (``_expand``).  Membership reduces the
query the same way and expands the step records of a zero remainder,
with no cofactor polynomial in between.  The basis is consistent by
construction, so it is not re-checked for each normal form.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import add, ge

from .pairs import GCD, combinations_for, pair_records, record_sort_key
from .poly import Polynomial
from .reduction import StepBudget, _prepare, _Reducers, _normal_form_keyed, normal_form

#: Safety valve only; termination is guaranteed by the ascending chain
#: condition, so desk-scale inputs never come near this.
DEFAULT_STEP_LIMIT = 1_000_000


@dataclass(frozen=True)
class CompletionTrace:
    """Everything a completion run produced.

    ``certificates[m][g]`` is the cofactor of original generator ``g``
    in basis element ``m``: basis[m] = sum(certificates[m][g] * generators[g]).
    ``iterations`` counts pair polynomials examined (normal forms taken),
    ``pairs_processed`` counts queue records drained, skipped ones
    included, and ``pairs_skipped`` is ``(product, chain)``: the records
    skipped by each criterion (always ``(0, 0)`` over a ring that is not
    a field).
    """

    generators: tuple
    basis: tuple
    added: tuple
    certificates: tuple
    iterations: int
    pairs_processed: int
    reduction_steps: int
    pairs_skipped: tuple = (0, 0)


def complete(generators, *, strategy=None, max_steps=DEFAULT_STEP_LIMIT) -> CompletionTrace:
    """Grow ``generators`` into a Groebner basis of the same ideal.

    Zero generators are dropped silently; an all-zero or empty input
    yields an empty basis.  Raises ``StepLimitExceeded`` if the run
    blows the ``max_steps`` reduction budget.
    """
    gens = tuple(generators)
    basis: list[Polynomial] = []
    certs: list[list[Polynomial]] = []
    for gi, g in enumerate(gens):
        if g.ring != gens[0].ring:
            raise ValueError("generators belong to different rings")
        if not g:
            continue
        row = [g.ring.zero()] * len(gens)
        row[gi] = g.ring.one()
        basis.append(g)
        certs.append(row)

    if not basis:
        return CompletionTrace(gens, (), (), (), 0, 0, 0)

    poly_ring = basis[0].ring
    order = poly_ring.order
    neg = poly_ring.coeff_ring.neg
    budget = StepBudget(max_steps)
    reducers = _Reducers(basis, keep_tails=True)
    heads = reducers.heads
    heap: list = []
    # Over a field: the (i, j) of the syzygy records still queued, for
    # the chain criterion; gcd records are never queued.
    field = poly_ring.coeff_ring.is_field
    pending: set = set()

    def enqueue_pairs(j: int):
        for record in pair_records(basis, j):
            if field:
                if record.kind == GCD:
                    continue
                pending.add((record.i, j))
            heapq.heappush(heap, (record_sort_key(record, order), record))

    for j in range(len(basis)):
        enqueue_pairs(j)

    added: list[Polynomial] = []
    iterations = 0
    pairs_processed = 0
    product = chain = 0
    while heap:
        _, record = heapq.heappop(heap)
        pairs_processed += 1
        if field:
            i, j = record.i, record.j
            pending.discard((i, j))
            kl = order.heap_key(record.lcm)
            if kl == tuple(map(add, heads[i][0], heads[j][0])):
                product += 1  # coprime head terms: the S-polynomial reduces to zero
                continue
            # A head k dividing the lcm, with (i, k) and (j, k) both treated.
            if any(
                k != i and k != j
                and (min(i, k), max(i, k)) not in pending
                and (min(j, k), max(j, k)) not in pending
                and all(map(ge, kh, kl))
                for k, (kh, _) in enumerate(heads)
            ):
                chain += 1
                continue
        for q, ((a1, k1), (a2, k2)) in combinations_for(basis, record):
            iterations += 1
            if not q:
                continue
            steps = []
            result = _normal_form_keyed(q, reducers, strategy, budget, steps)
            if not result:
                continue
            # The new element is a1*s1*basis[i] + a2*s2*basis[j] minus k*s*basis[m]
            # for each step (m, k, ks); k1, k2 and every ks are the heap keys
            # of s1, s2 and s.
            parts = [(record.i, a1, k1), (record.j, a2, k2)]
            parts += [(m, neg(k), ks) for m, k, ks in reducers.records(steps)]
            certs.append(_expand(poly_ring, certs, parts, len(gens)))
            basis.append(result)
            reducers.append(result)
            added.append(result)
            enqueue_pairs(len(basis) - 1)

    return CompletionTrace(
        generators=gens,
        basis=tuple(basis),
        added=tuple(added),
        certificates=tuple(tuple(row) for row in certs),
        iterations=iterations,
        pairs_processed=pairs_processed,
        reduction_steps=budget.used,
        pairs_skipped=(product, chain),
    )


def _expand(poly_ring, certs, parts, count) -> tuple:
    """Entries g < count of sum(c*s*certs[m]) over ``(m, c, heap key of s)`` parts."""
    return tuple(
        poly_ring._from_keyed(poly_ring._combine([(certs[m][g].keyed_monomials(), c, ks) for m, c, ks in parts]))
        for g in range(count)
    )


def interreduce(basis) -> list:
    """Canonical form of a Groebner basis.

    Reduces every element to normal form with respect to the others,
    drops the ones that vanish, scales heads canonically (monic over
    fields, positive over the integers), and sorts descending by head
    term.  Idempotent; the result generates the same ideal and is still
    a Groebner basis.
    """
    polys = [p for p in basis if p]
    if not polys:
        return []
    coeff_ring = polys[0].ring.coeff_ring

    def canonize(p):
        return p.scale(coeff_ring.canonical_unit(p.head_coeff))

    # Heads are normalized inside the loop: over zz the remainder window
    # (-|b|/2, |b|/2] is asymmetric, so flipping an element's sign changes
    # which of its coefficients are reducible.  The fixpoint must therefore
    # be taken over canonically signed elements.
    polys = [canonize(p) for p in polys]
    changed = True
    while changed:
        changed = False
        kept: list[Polynomial] = []
        for i, p in enumerate(polys):
            others = kept + polys[i + 1 :]
            r = normal_form(p, others) if others else p
            if r:
                r = canonize(r)
                kept.append(r)
            if r != p:
                changed = True
        polys = kept
    # Ascending head keys are descending head terms.  The elements of a
    # reduced basis share most of their terms, so the result holds one
    # key tuple per distinct term: a caller that keeps many bases keeps
    # a fraction of the keys.
    polys.sort(key=lambda p: p.keyed_monomials()[0][1])
    keys: dict = {}
    share = keys.setdefault
    return [Polynomial(p.ring, keyed=tuple((c, share(k, k)) for c, k in p.keyed_monomials())) for p in polys]


def is_groebner_basis(basis) -> bool:
    """Certificate check: every pairwise gcd and syzygy polynomial reduces to 0."""
    basis = list(basis)
    if not all(basis):
        raise ValueError("critical pairs require nonzero basis entries")
    if not basis:
        return True
    reducers = _Reducers(basis, keep_tails=True)
    for j in range(len(basis)):
        for record in pair_records(basis, j):
            for q, _ in combinations_for(basis, record):
                if q and _normal_form_keyed(q, reducers, None, None, None):
                    return False
    return True


@dataclass(frozen=True)
class MembershipResult:
    """Outcome of an ideal-membership query.

    On membership, ``certificate[g]`` is the cofactor of generator ``g``
    in the query; otherwise ``certificate`` is None and ``remainder``
    is the nonzero normal form.
    """

    is_member: bool
    certificate: tuple | None
    remainder: Polynomial


def ideal_membership(
    p: Polynomial,
    generators,
    *,
    strategy=None,
    max_steps=DEFAULT_STEP_LIMIT,
    trace: CompletionTrace | None = None,
) -> MembershipResult:
    """Decide whether p lies in the ideal of ``generators``.

    Completes the generators first (or reuses a ``trace`` from an
    earlier ``complete`` run over the same generators), then reduces p.
    Raises ``ValueError`` when p is from another ring than the
    generators, or when ``trace`` was completed from other generators:
    its certificates would not be over ``generators``.
    """
    if trace is None:
        trace = complete(generators, strategy=strategy, max_steps=max_steps)
    elif tuple(generators) != trace.generators:
        raise ValueError("the trace was completed from different generators")
    if trace.generators and p.ring != trace.generators[0].ring:
        raise ValueError("query polynomial from a different ring")
    acc, reducers = _prepare(p, trace.basis)
    steps = []
    remainder = _normal_form_keyed(acc, reducers, strategy, None, steps)
    if remainder:
        return MembershipResult(False, None, remainder)
    certificate = _expand(p.ring, trace.certificates, reducers.records(steps), len(trace.generators))
    return MembershipResult(True, certificate, remainder)


def groebner_basis(generators, *, strategy=None, max_steps=DEFAULT_STEP_LIMIT) -> list:
    """Completed and interreduced basis of the ideal of ``generators``."""
    return interreduce(complete(generators, strategy=strategy, max_steps=max_steps).basis)
