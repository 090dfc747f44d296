"""Critical-pair completion, interreduction, and ideal membership.

``complete`` drains a queue of pair obligations smallest-lcm-first: for
each pair it builds the gcd and syzygy polynomials, reduces them to
normal form against the current basis, and appends every nonzero
result, enqueueing the new element's pairs immediately.  When the queue
is empty every pair polynomial of the basis reduces to zero, which is
the certificate that the basis is a Groebner basis; because the shipped
rings admit canonical remainders, the result is in fact strong (normal
forms are unique regardless of reduction strategy).  Which records are
queued, in what order, and which ones Buchberger's criteria skip over a
field is the pair policy of ``pairs.PairQueue``, described in ``pairs``.

Every basis element carries an exact combination certificate over the
original generators, maintained through both the pair construction and
the reduction cofactors, so ideal preservation is witnessed rather than
assumed.  They are the rows of the change-of-basis matrix of the
extended Buchberger algorithm (Becker & Weispfenning, *Groebner Bases*,
1993), each kept as its derivation, the pair's coefficients and the
reduction's step records, and summed from earlier rows on first read.

Most pair polynomials reduce to zero, so the loop builds nothing that
only a nonzero remainder needs.  Pair polynomials come from
``combinations_for`` as the reduction loop's ``heap key ->
coefficient`` accumulators, in its coefficient form, and are reduced
from there, under every strategy.  ``combinations_for`` sums them from
the shifted tails in the completion's one ``reduction._Reducers``, the
memo that its reduction steps read too.  Membership reduces the query
the same way and sums the step records of a zero remainder over the
rows they reach.  The basis is consistent by construction, so it is
not re-checked for each normal form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .pairs import PairQueue, combinations_for, pair_records
from .poly import Polynomial
from .reduction import StepBudget, _fill_rows, _normal_form_keyed, _prepare, _Reducers, normal_form
from .reduction import _row_polynomials, _row_sum, _unit_rows

#: Safety valve only; termination is guaranteed by the ascending chain
#: condition, so desk-scale inputs never come near this.
DEFAULT_STEP_LIMIT = 1_000_000


@dataclass(frozen=True)
class CompletionTrace:
    """Everything a completion run produced.

    ``certificates[m][g]`` is the cofactor of original generator ``g``
    in basis element ``m``: basis[m] = sum(certificates[m][g] * generators[g]).
    They are summed on first read, from ``_rows``: each element's row or,
    until read, its derivation (``reduction._fill_rows``), which takes no
    part in ``==``, ``hash`` or ``repr``.
    ``iterations`` counts pair polynomials examined (normal forms taken),
    ``pairs_processed`` counts queue records drained, skipped ones
    included, and ``pairs_skipped`` is ``(product, chain)``: the records
    skipped by each criterion (always ``(0, 0)`` over a ring that is not
    a field).
    """

    generators: tuple
    basis: tuple
    added: tuple
    iterations: int
    pairs_processed: int
    reduction_steps: int
    pairs_skipped: tuple = (0, 0)
    _rows: list = field(default_factory=list, compare=False, repr=False)

    @cached_property
    def certificates(self) -> tuple:
        if not self.basis:
            return ()
        ring = self.basis[0].ring
        rows = _fill_rows(ring, self._rows, range(len(self.basis)))
        return tuple(_row_polynomials(ring, row, len(self.generators)) for row in rows)


def complete(generators, *, strategy=None, max_steps=DEFAULT_STEP_LIMIT) -> CompletionTrace:
    """Grow ``generators`` into a Groebner basis of the same ideal.

    Zero generators are dropped silently; an all-zero or empty input
    yields an empty basis.  Raises ``StepLimitExceeded`` once the run
    takes more than ``max_steps`` steps, where each reduction step and
    each queued pair counts as one step.
    """
    gens = tuple(generators)
    if any(g.ring != gens[0].ring for g in gens):
        raise ValueError("generators belong to different rings")
    basis: list[Polynomial] = [g for g in gens if g]
    if not basis:
        return CompletionTrace(gens, (), (), 0, 0, 0)

    budget = StepBudget(max_steps)
    reducers = _Reducers(basis, keep_tails=True)
    enter, neg = reducers.form.enter or (lambda c: c), reducers.form.neg
    rows = _unit_rows(reducers.form, basis[0].ring, [gi for gi, g in enumerate(gens) if g])
    start = len(basis)
    queue = PairQueue(basis, reducers, budget)
    for j in range(start):
        queue.add(j)

    iterations = 0
    for record in queue:
        for q, ((a1, k1), (a2, k2)) in combinations_for(basis, record, reducers):
            iterations += 1
            if not q:
                continue
            steps = []
            result = _normal_form_keyed(q, reducers, strategy, budget, steps)
            if not result:
                continue
            # The new element is a1*s1*basis[i] + a2*s2*basis[j] minus k*s*basis[m]
            # for each step (m, k, ks); k1, k2 and every ks are the heap keys
            # of s1, s2 and s.  Its row is summed from these parts when read.
            steps = [(m, neg(k), ks) for m, k, ks in steps]
            rows.append([(record.i, enter(a1), k1), (record.j, enter(a2), k2), *steps])
            basis.append(result)
            reducers.append(result)
            queue.add(len(basis) - 1)

    return CompletionTrace(
        generators=gens,
        basis=tuple(basis),
        added=tuple(basis[start:]),
        iterations=iterations,
        pairs_processed=queue.popped,
        # The queue charged the budget once for each record, and popped them all.
        reduction_steps=budget.used - queue.popped,
        pairs_skipped=(queue.product, queue.chain),
        _rows=rows,
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
            for q, _ in combinations_for(basis, record, reducers):
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
    rows = _fill_rows(p.ring, trace._rows, [m for m, _, _ in steps])
    certificate = _row_polynomials(p.ring, _row_sum(reducers.form, rows, steps), len(trace.generators))
    return MembershipResult(True, certificate, remainder)


def groebner_basis(generators, *, strategy=None, max_steps=DEFAULT_STEP_LIMIT) -> list:
    """Completed and interreduced basis of the ideal of ``generators``."""
    return interreduce(complete(generators, strategy=strategy, max_steps=max_steps).basis)
