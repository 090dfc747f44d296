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

Most pair polynomials reduce to zero, so the loop builds nothing, not
even a ``Polynomial``, that only a nonzero remainder needs.  Each pair
polynomial is the reduction loop's ``heap key -> coefficient``
accumulator, in its coefficient form, which ``combinations_for`` sums
from the shifted tails in the completion's one ``reduction._Reducers``
(its reduction steps read them too).  Membership reduces the query the
same way and sums the step records of a zero remainder over the rows
they name, once every row up to the last one named is summed.  The
basis is consistent by construction, so it is not re-checked for each
normal form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby

from .pairs import PairQueue, combinations_for, records_of
from .poly import Polynomial
from .reduction import StepBudget, _Basis, _fill_rows, _normal_form_keyed, _prepare, _reduce, _Reducers
from .reduction import normal_form  # noqa: F401  (read as completion.normal_form by perfbench)
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
    part in ``==``, ``hash`` or ``repr``.  ``basis`` is a tuple that
    carries the divisor index of every query against it (``reduction._Basis``).
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
        rows = _fill_rows(ring, self._rows, len(self.basis))
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
    neg = reducers.form.neg
    rows = _unit_rows(reducers.form, basis[0].ring, [gi for gi, g in enumerate(gens) if g])
    start = len(basis)
    queue = PairQueue(reducers, budget)
    for j in range(start):
        queue.add(j)

    iterations = 0
    for record in queue:
        for q, ((a1, k1), (a2, k2)) in combinations_for(reducers, record):
            iterations += 1
            if not q:
                continue
            steps = []
            keyed = tuple(_reduce(q, reducers, strategy, budget, steps))
            if not keyed:
                continue
            # The new element is a1*s1*basis[i] + a2*s2*basis[j] minus k*s*basis[m]
            # for each step (m, k, ks); k1, k2 and every ks are the heap keys
            # of s1, s2 and s.  Its row is summed from these parts when read.
            rows.append([(record[0], a1, k1), (record[1], a2, k2), *[(m, neg(k), ks) for m, k, ks in steps]])
            basis.append(Polynomial(reducers.ring, keyed=keyed))
            reducers.append(basis[-1])
            queue.add(len(basis) - 1)

    return CompletionTrace(
        generators=gens,
        basis=_Basis(basis),
        added=tuple(basis[start:]),
        iterations=iterations,
        pairs_processed=queue.popped,
        # The queue charged the budget once for each record, and popped them all.
        reduction_steps=budget.used - queue.popped,
        pairs_skipped=(queue.product, queue.chain),
        _rows=rows,
    )


def interreduce(basis) -> list:
    """The reduced strong basis of the ideal of ``basis``, which must be a Groebner basis.

    Heads are first scaled canonically (zz's remainder window is
    asymmetric).  One pass walks the elements ascending by head term; at
    each term it scans left to right for the element whose head
    coefficient reduces all others there, keeps it unless a kept head
    reduces its head, and reduces its tail once against the kept ones.

    Sound because the basis is strong: each kept term holds an element
    whose head coefficient g generates the term's ideal of head
    coefficients.  g reduces every other coefficient there and only an
    equal one, whose tail has the same normal form, reduces g, so the
    scan ends on g or its equal.  The kept elements are again a strong
    basis, so each tail has one normal form.  Outside the precondition
    the ideal may change: ``[x^2, x^2 + y]`` gives ``[x^2]``.
    """
    polys = [p for p in basis if p]
    if not polys:
        return []
    ring = polys[0].ring
    if any(p.ring != ring for p in polys):
        raise ValueError("basis polynomials belong to different rings")
    reducers = _Reducers((), ring, keep_tails=True)
    form, one, unit = reducers.form, ring.coeff_ring.one(), ring.coeff_ring.canonical_unit
    enter = form.enter
    kept, keys = [], {}
    # Ascending head terms are descending head keys; the sort is stable.
    polys.sort(key=lambda p: p.keyed_monomials()[0][1], reverse=True)
    for kt, group in groupby(polys, lambda p: p.keyed_monomials()[0][1]):
        group = [p if (u := unit(p.head_coeff)) == one else p.scale(u) for p in group]
        coeffs = [enter(p.head_coeff) for p in group]
        best = 0
        for n in range(1, len(group)):
            if form.step(coeffs[best], form.prepare(coeffs[n])) is not None:
                best = n
        if any(form.step(coeffs[best], reducers.heads[i][1]) is not None for i in reducers.divisors(kt)):
            continue
        head, *tail = group[best].keyed_monomials()
        reduced = _reduce({k: enter(c) for c, k in tail}, reducers, None, None, None)
        keyed = (head, *reduced)
        kept.append(Polynomial(ring, keyed=tuple((c, keys.setdefault(k, k)) for c, k in keyed)))
        reducers.append(kept[-1])
    return kept[::-1]


def is_groebner_basis(basis) -> bool:
    """Certificate check: every pair polynomial reduces to 0 (over a field, each pair whose heads are not coprime)."""
    basis = list(basis)
    if not all(basis):
        raise ValueError("critical pairs require nonzero basis entries")
    if not basis:
        return True
    reducers = _Reducers(basis, keep_tails=True)
    heads, field = reducers.heads, reducers.ring.coeff_ring.is_field
    for j in range(len(basis)):
        for record in records_of(reducers, j):
            if field and record[2] == heads[record[0]][0] + heads[j][0]:
                continue
            for q, _ in combinations_for(reducers, record):
                if q and next(_reduce(q, reducers, None, None, None), None) is not None:
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
    earlier ``complete`` run over the same generators), then reduces p
    under a fresh ``StepBudget(max_steps)``, with or without a trace.
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
    remainder = _normal_form_keyed(p.ring, acc, reducers, strategy, StepBudget(max_steps), steps)
    if remainder:
        return MembershipResult(False, None, remainder)
    rows = _fill_rows(p.ring, trace._rows, max((m + 1 for m, _, _ in steps), default=0))
    certificate = _row_polynomials(p.ring, _row_sum(reducers.form, p.ring.order, rows, steps), len(trace.generators))
    return MembershipResult(True, certificate, remainder)


def groebner_basis(generators, *, strategy=None, max_steps=DEFAULT_STEP_LIMIT) -> list:
    """Completed and interreduced basis of the ideal of ``generators``."""
    return interreduce(complete(generators, strategy=strategy, max_steps=max_steps).basis)
