"""Single-step polynomial reduction and normal forms against a basis.

A monomial c*t of p is reducible by a basis element b when the head
term of b divides t and the coefficient ring can split c = k*HC(b) + d
with nonzero quotient k.  The step replaces p by p - k*(t/HT(b))*b,
which rewrites the coefficient at t to d and only otherwise touches
terms below t, so repeated steps terminate for any choice of steps.

One in-place loop serves every strategy, after the mutable accumulators
of Monagan & Pearce ("Sparse polynomial division using a heap", JSC 46,
2011) and Yan ("The geobucket data structure for polynomials", JSC 25,
1998): a ``heap key -> coefficient`` dict of the pending terms and a
heap of their keys (``TermOrder.heap_key``).  The loop pops the largest
pending term; each step subtracts k*s*tail(b) into the dict in place.
Once the popped term has no valid step it is final and is emitted, so
the remainder comes out in descending order without a sort.  For
cofactors each step only appends ``(reducer, k, cofactor heap key)`` to
a list, with k left in the ring's ``_kernel_form`` (int pairs over QQ,
plain ints and operators over GF(p) and ZZ, with heads prepared once),
which the loop computes in; emitted coefficients leave it at once.
Readers sum step records into rows in that form (``_row_sum``), and
coefficients leave it when ``_row_polynomials`` builds polynomials.
Outside this module three callers touch the form: ``combinations_for``
sums pair polynomials in it, ``complete`` stores each added element's
derivation in it, and ``interreduce`` enters its heads and tails.
Other public inputs enter it once, in ``_prepare``.

The default ``FirstReducibleStrategy`` (or None) takes the first reducer
in basis order that hits the popped term.  Any other strategy only
chooses: while the popped term has a valid step, ``strategy.select``
gets every valid step of the pending terms (as ``iter_reduction_steps``
lists them) and may pick one at a lower term.  The terms above are
final and have no step, as a step never touches a term above its own
and reducibility depends only on a monomial's coefficient and term.  So
the candidates are those of a loop that rescans the polynomial after
every step, and the default rule's first one is the default path's step.

Both paths find a term's reducers in one divisor index, ``_Reducers``
(after the divisor lookups of Bachmann & Schoenemann, "Monomial
representations for Groebner bases computations", ISSAC 1998).  It
remembers, per heap key, the dividing heads in basis order and how many
heads it has tested.  ``complete`` keeps one for its whole run and
appends each new element, so a term met again in a later pair
polynomial tests only the heads added since; ``is_groebner_basis``
keeps one for its pair walk, ``interreduce`` one for its pass, and each
public call builds its own.  These three also keep each step's shifted
tail: per reducer and target heap key, the cofactor's heap key and the
reducer's tail with every key already shifted, so that a step met again
(most of a completion's steps are) is one lookup and adds no key tuples.
A pair (i, j) at lcm l reads the same entries, as s1*basis[i] and
s2*basis[j] are the steps of i and j at l.  A public call seldom
repeats a step and builds each shifted tail anew.  Within one
reduction, ``_steps`` also keeps each pending term's candidate steps
until a step changes that term's coefficient.
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush
from itertools import islice
from operator import add as add_int, ge, sub
from typing import NamedTuple

from .poly import Polynomial


class StepLimitExceeded(RuntimeError):
    """The configured reduction-step safety valve was hit."""


class StepBudget:
    """Counts reduction steps and raises past ``limit`` (None = unlimited).

    ``complete`` also spends one step for each pair record it queues.
    """

    def __init__(self, limit=None):
        self.limit = limit
        self.used = 0

    def spend(self):
        self.used += 1
        if self.limit is not None and self.used > self.limit:
            raise StepLimitExceeded(
                f"exceeded the configured limit of {self.limit} reduction steps"
            )


class ReductionStep(NamedTuple):
    """One admissible rewrite: subtract coefficient*cofactor_term*basis[reducer]."""

    reducer: int
    term: tuple
    cofactor_term: tuple
    coefficient: object
    remainder: object


class FirstReducibleStrategy:
    """Largest reducible monomial first, reducers tried in basis order.

    ``select(candidates)`` returns one of the valid steps it is given.
    Reduction calls it only while a step exists and raises ``ValueError``
    if it returns None.  Only this class itself, not a subclass, takes
    the default path, which lists no candidates.
    """

    def select(self, candidates):
        return next(candidates, None)

    def __repr__(self):
        return "FirstReducibleStrategy()"


class SeededRandomStrategy:
    """Uniform seeded choice among all valid steps, one draw per step; for uniqueness testing."""

    def __init__(self, seed):
        self.seed = seed
        self._rng = random.Random(seed)

    def select(self, candidates):
        steps = list(candidates)
        if not steps:
            return None
        return self._rng.choice(steps)

    def __repr__(self):
        return f"SeededRandomStrategy({self.seed})"


def _prepare(p: Polynomial, basis):
    """p as ``_reduce`` takes it, in the loop's form, and the ``_Reducers`` of ``basis``, checked."""
    reducers = _Reducers(basis, p.ring)
    enter = reducers.form.enter
    if enter is None:
        return {k: c for c, k in p.keyed_monomials()}, reducers
    return {k: enter(c) for c, k in p.keyed_monomials()}, reducers


# The memo entry of a term never seen.  Its list is shared, so it is
# only ever concatenated, never appended to.
_NOT_SEEN = (0, [])


class _Reducers:
    """The basis as the reduction loop reads it, plus a memo of each term's divisors.

    ``ring`` is the ``PolyRing`` of the basis, by default the first
    element's; ``append`` rejects a zero element or one from another
    ring.  ``form`` is the ``_KernelForm`` of its coefficients.
    ``keyed[i]`` holds basis element i's keyed monomials in that form,
    and ``heads[i]`` its head as ``(heap key, prepared coefficient)``.
    ``memo`` maps a heap key to
    ``(n, divisors)``: the indexes, in basis order, of the heads among
    the first n that divide it.  The basis only grows, through
    ``append``, so an entry older than the basis is extended by testing
    the new heads alone.

    With ``keep_tails``, ``tails`` maps ``(i, kt)``, a reducer and the
    heap key of a term its head divides, to ``shifted(i, kt)``: the heap
    key ks of the cofactor term and element i's tail multiplied by it,
    ``(ks, [(c, kb + ks), ...])``, coefficients in the loop's form.  A
    step of reducer i at kt and a pair of i at lcm kt read the same
    entry.  Basis elements never change, so an entry never goes stale.
    Otherwise ``tails`` is None and each read builds its entry anew.
    """

    def __init__(self, basis, ring=None, *, keep_tails=False):
        self.ring = basis[0].ring if ring is None else ring
        self.form = self.ring.coeff_ring._kernel_form()
        self.keyed = []
        self.heads = []
        self.memo = {}
        self.tails = {} if keep_tails else None
        for b in basis:
            self.append(b)

    def append(self, b: Polynomial):
        if not b:
            raise ValueError("basis polynomials must be nonzero")
        if b.ring is not self.ring and b.ring != self.ring:
            raise ValueError("basis polynomial from a different ring")
        keyed = b.keyed_monomials()
        enter = self.form.enter
        if enter is not None:
            keyed = tuple((enter(c), k) for c, k in keyed)
        self.keyed.append(keyed)
        self.heads.append((keyed[0][1], self.form.prepare(keyed[0][0])))

    def shifted(self, i, kt, keep=True):
        """``(ks, tail)`` of reducer i at heap key ``kt``, which its head divides.

        ``ks`` is the heap key of the cofactor term s that moves the head
        to ``kt``, and ``tail`` is element i's tail times s.  An entry
        kept in ``tails`` is returned as it is; a new one is stored there
        when ``keep`` is true and the index keeps tails.
        """
        tails = self.tails
        if tails is not None:
            entry = tails.get((i, kt))
            if entry is not None:
                return entry
        ks = tuple(map(sub, kt, self.heads[i][0]))
        entry = ks, [(cb, tuple(map(add_int, kb, ks))) for cb, kb in islice(self.keyed[i], 1, None)]
        if keep and tails is not None:
            tails[i, kt] = entry
        return entry

    def divisors(self, kt):
        """Indexes of the heads that divide heap key ``kt``, in basis order."""
        heads = self.heads
        n = len(heads)
        start, found = self.memo.get(kt, _NOT_SEEN)
        if start < n:
            found = found + [i for i in range(start, n) if all(map(ge, heads[i][0], kt))]
            self.memo[kt] = n, found
        return found


def _steps(acc: dict, reducers: _Reducers, known: dict):
    """Every valid step on ``acc`` (in the loop's form), as ``ReductionStep``s.

    Terms come largest first and reducers in basis order; each step's
    coefficient and remainder are ring elements.  ``known`` maps a heap
    key to ``(coefficient, steps)`` from earlier calls on the same
    reduction: a step rewrites only a few coefficients, and a term whose
    coefficient object is unchanged has the same steps.
    """
    term_of = reducers.ring.order.term_from_heap_key
    step, is_zero, leave = reducers.form.step, reducers.form.is_zero, reducers.form.leave
    heads, divisors = reducers.heads, reducers.divisors
    for kt in sorted(acc):
        c = acc[kt]
        entry = known.get(kt)
        if entry is not None and entry[0] is c:
            yield from entry[1]
            continue
        if is_zero(c):
            continue
        steps = []
        for i in divisors(kt):
            kh, head = heads[i]
            hit = step(c, head)
            if hit is not None:
                if leave is not None:
                    hit = map(leave, hit)
                steps.append(ReductionStep(i, term_of(kt), term_of(tuple(map(sub, kt, kh))), *hit))
        known[kt] = c, steps
        yield from steps


def iter_reduction_steps(p: Polynomial, basis):
    """All valid steps, largest target monomial first, reducers in basis order.

    Raises ``ValueError`` for a zero basis entry or one from another ring.
    """
    return _steps(*_prepare(p, basis), {})


def _reduce(acc: dict, reducers: _Reducers, strategy, budget, steps):
    """Yield the normal form as ``(coefficient, heap key)`` pairs, highest term first.

    ``acc`` holds the polynomial to reduce as ``heap key -> coefficient``
    with coefficients in ``reducers.form`` (zero entries allowed), as
    ``_prepare`` and ``combinations_for`` build it, and is consumed.
    Unless ``steps`` is None, each step appends ``(reducer, k, heap key
    of the cofactor term)`` to it and nothing is summed: a reducer and
    term may recur, and k stays in the form.  Emitted coefficients are
    ring elements.  A step of reducer i at target kt reads its shifted
    tail from ``reducers.tails`` when the index keeps them, and adds it
    there the first time.
    """
    key_of = reducers.ring.order.heap_key
    form = reducers.form
    add, mul, neg, is_zero, step, enter, leave = (
        form.add, form.mul, form.neg, form.is_zero, form.step, form.enter, form.leave
    )
    # Subclasses may override ``select``, so only the class itself runs the default rule.
    default = strategy is None or type(strategy) is FirstReducibleStrategy
    select = None if default else strategy.select
    known = {}  # the candidate steps of pending terms, for ``_steps``
    heads, divisors_of, shifted = reducers.heads, reducers.divisors, reducers.shifted
    # A coefficient that cancels stays in ``acc`` as a zero entry, so
    # that its key is never pushed twice.
    heap = list(acc)
    heapify(heap)
    while heap:
        kt = heappop(heap)
        c = acc.pop(kt)
        if is_zero(c):
            continue
        divisors = divisors_of(kt)
        while divisors:
            for i in divisors:
                hit = step(c, heads[i][1])
                if hit is not None:
                    break
            else:
                break
            if select is None:
                k, c = hit
                target = kt
            else:
                # The chosen step may target a lower pending term: it
                # rewrites that term's coefficient and leaves c as it is.
                acc[kt] = c
                chosen = select(_steps(acc, reducers, known))
                if chosen is None:
                    raise ValueError(f"{strategy!r} selected no step while a step was valid")
                i, k, d = chosen.reducer, chosen.coefficient, chosen.remainder
                if enter is not None:
                    k, d = enter(k), enter(d)
                target = key_of(chosen.term)
                acc[target] = d
                c = acc.pop(kt)
            if budget is not None:
                budget.spend()
            minus_k = neg(k)
            ks, tail = shifted(i, target)
            for cb, ku in tail:
                x = mul(cb, minus_k)
                old = acc.get(ku)
                if old is None:
                    acc[ku] = x
                    heappush(heap, ku)
                else:
                    acc[ku] = add(old, x)
            if steps is not None:
                steps.append((i, k, ks))
            if is_zero(c):
                break
        if not is_zero(c):
            yield (c if leave is None else leave(c)), kt


def _normal_form_keyed(acc: dict, reducers, strategy, budget, steps) -> Polynomial:
    """Normal form of ``acc``, a dict as ``_reduce`` takes, in ``reducers.ring``."""
    return Polynomial(reducers.ring, keyed=tuple(_reduce(acc, reducers, strategy, budget, steps)))


def normal_form(p: Polynomial, basis, strategy=None, budget=None) -> Polynomial:
    """Reduce p to a fixpoint irreducible with respect to ``basis``."""
    return _normal_form_keyed(*_prepare(p, basis), strategy, budget, None)


def normal_form_with_cofactors(p: Polynomial, basis, strategy=None, budget=None):
    """Normal form plus cofactors: p = sum(cofactor[i]*basis[i]) + result.

    There is one cofactor per basis element; reducers that took no step
    get the zero polynomial.  ``_row_sum`` sums the steps over one unit
    row per reducer, adding those at one term and dropping the ones
    that cancel.
    """
    acc, reducers = _prepare(p, basis)
    steps = []
    q = _normal_form_keyed(acc, reducers, strategy, budget, steps)
    count = len(reducers.keyed)
    row = _row_sum(reducers.form, _unit_rows(reducers.form, p.ring, range(count)), steps)
    return q, list(_row_polynomials(p.ring, row, count))


def reduces_to_zero(p: Polynomial, basis) -> bool:
    """Whether p has 0 as a normal form under the default strategy."""
    return next(_reduce(*_prepare(p, basis), None, None, None), None) is None


# Rows.  A row is a tuple of ``(g, keyed)``, one for each g (a generator,
# or a reducer for cofactors) with a nonzero entry, in ascending g;
# ``keyed`` holds the entry's monomials as ``Polynomial`` keeps them,
# with coefficients in the loop's form.


def _unit_rows(form, ring, indexes) -> list:
    """The row of each g in ``indexes`` whose one entry, at g, is 1."""
    ((one, key),) = ring.one().keyed_monomials()
    entry = ((one if form.enter is None else form.enter(one), key),)
    return [((g, entry),) for g in indexes]


def _row_sum(form, rows, parts) -> tuple:
    """The row sum(c*s*rows[m]) over ``(m, c, heap key of s)`` parts, c in ``form``."""
    mul, add, is_zero = form.mul, form.add, form.is_zero
    sums: dict = {}  # per g, heap key -> coefficient
    for m, c, ks in parts:
        for g, keyed in rows[m]:
            acc = sums.setdefault(g, {})
            for cm, km in keyed:
                ku = tuple(map(add_int, km, ks))
                old = acc.get(ku)
                acc[ku] = mul(cm, c) if old is None else add(old, mul(cm, c))
    row = ((g, tuple((acc[k], k) for k in sorted(acc) if not is_zero(acc[k]))) for g, acc in sorted(sums.items()))
    return tuple((g, keyed) for g, keyed in row if keyed)


def _fill_rows(ring, rows, wanted) -> list:
    """``rows`` with every entry that ``wanted`` reaches summed, in ascending index order.

    An entry is a row or, until first read, its derivation: the list of
    parts over earlier entries that ``_row_sum`` sums to it.  A row comes
    out the same on every read, so concurrent readers store equal rows.
    """
    reached, stack = set(), list(wanted)
    while stack:
        m = stack.pop()
        parts = rows[m]
        if m not in reached and type(parts) is list:
            reached.add(m)
            stack += [d for d, _, _ in parts]
    form = ring.coeff_ring._kernel_form()
    for m in sorted(reached):
        parts = rows[m]
        if type(parts) is list:  # else another thread has summed it since
            rows[m] = _row_sum(form, rows, parts)
    return rows


def _row_polynomials(ring, row, count) -> tuple:
    """The ``count`` entries of ``row`` as polynomials over ``ring``, zero where it has none."""
    leave = ring.coeff_ring._kernel_form().leave
    polys = [ring.zero()] * count
    for g, keyed in row:
        polys[g] = Polynomial(ring, keyed=keyed if leave is None else tuple((leave(c), k) for c, k in keyed))
    return tuple(polys)
