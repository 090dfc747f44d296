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
a list, which its readers sum through ``PolyRing._combine``.  The loop
computes in the ring's ``_kernel_form`` (int pairs over QQ, plain ints
and operators over GF(p) and ZZ, with heads prepared once); emitted
coefficients leave it at once, and each k only when a reader takes the
records from ``_Reducers.records``, so no module but this one knows
the form.

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
keeps one for its pair walk, and each public call builds its own.
These two long-lived indexes also keep each step's shifted tail: per
reducer and cofactor heap key, the reducer's tail with every key
already shifted, so that a step met again (most of a completion's
steps are) adds no key tuples.  A public call seldom repeats a step and
builds each shifted tail anew.  Within one reduction, ``_steps`` also
keeps each pending term's candidate steps until a step changes that
term's coefficient.
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
    """p as ``_reduce`` takes it and the ``_Reducers`` of ``basis``, read once and checked."""
    return {k: c for c, k in p.keyed_monomials()}, _Reducers(basis, p.ring)


# The memo entry of a term never seen.  Its list is shared, so it is
# only ever concatenated, never appended to.
_NOT_SEEN = (0, [])


class _Reducers:
    """The basis as the reduction loop reads it, plus a memo of each term's divisors.

    ``ring`` is the ``PolyRing`` of the basis, by default the first
    element's; ``append`` rejects a zero element or one from another
    ring.  ``form`` is the ``_KernelForm`` of its coefficients, and
    ``records`` converts the loop's step records out of it.
    ``keyed[i]`` holds basis element i's keyed monomials in that form,
    and ``heads[i]`` its head as ``(heap key, prepared coefficient)``.
    ``memo`` maps a heap key to
    ``(n, divisors)``: the indexes, in basis order, of the heads among
    the first n that divide it.  The basis only grows, through
    ``append``, so an entry older than the basis is extended by testing
    the new heads alone.

    With ``keep_tails``, ``tails`` maps ``(i, ks)``, a reducer and the
    heap key of a cofactor term, to element i's tail multiplied by that
    term: ``[(c, kb + ks), ...]``, coefficients in the loop's form.
    Basis elements never change, so an entry never goes stale.
    Otherwise ``tails`` is None and each step builds its shifted tail anew.
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

    def entered(self, acc: dict) -> dict:
        """``acc``, a ``heap key -> ring element`` dict, converted in place to the loop's form."""
        enter = self.form.enter
        if enter is not None:
            for kt, c in acc.items():
                acc[kt] = enter(c)
        return acc

    def records(self, steps: list) -> list:
        """``_reduce``'s step records ``(reducer, k, cofactor heap key)``, each k a ring element."""
        leave = self.form.leave
        return steps if leave is None else [(i, leave(k), ks) for i, k, ks in steps]

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
    acc, reducers = _prepare(p, basis)
    return _steps(reducers.entered(acc), reducers, {})


def _reduce(acc: dict, reducers: _Reducers, strategy, budget, steps):
    """Yield the normal form as ``(coefficient, heap key)`` pairs, highest term first.

    ``acc`` holds the polynomial to reduce as ``heap key -> coefficient``
    (zero entries allowed) and is consumed.  Unless ``steps`` is None,
    each step appends ``(reducer, k, heap key of the cofactor term)`` to
    it and nothing is summed: a reducer and term may recur, and k stays
    in ``reducers.form``.  The loop computes in that form; emitted
    coefficients are ring elements.  A step reads its shifted tail from
    ``reducers.tails`` when the index keeps them, and adds it there the
    first time.
    """
    key_of = reducers.ring.order.heap_key
    form = reducers.form
    add, mul, neg, is_zero, step, enter, leave = (
        form.add, form.mul, form.neg, form.is_zero, form.step, form.enter, form.leave
    )
    reducers.entered(acc)
    # Subclasses may override ``select``, so only the class itself runs the default rule.
    default = strategy is None or type(strategy) is FirstReducibleStrategy
    select = None if default else strategy.select
    known = {}  # the candidate steps of pending terms, for ``_steps``
    keyed, heads, divisors_of, tails = reducers.keyed, reducers.heads, reducers.divisors, reducers.tails
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
                ks = tuple(map(sub, kt, heads[i][0]))
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
                acc[key_of(chosen.term)] = d
                ks = key_of(chosen.cofactor_term)
                c = acc.pop(kt)
            if budget is not None:
                budget.spend()
            minus_k = neg(k)
            tail = None if tails is None else tails.get((i, ks))
            if tail is None:
                tail = [(cb, tuple(map(add_int, kb, ks))) for cb, kb in islice(keyed[i], 1, None)]
                if tails is not None:
                    tails[i, ks] = tail
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
    get the zero polynomial.  ``PolyRing._combine`` sums each reducer's
    steps, adding those at one term and dropping the ones that cancel.
    """
    acc, reducers = _prepare(p, basis)
    steps = []
    q = _normal_form_keyed(acc, reducers, strategy, budget, steps)
    parts = [[] for _ in reducers.keyed]  # per reducer, each step's monomial k*s as it is
    for i, k, ks in reducers.records(steps):
        parts[i].append((((k, ks),), None, None))
    return q, [p.ring._from_keyed(p.ring._combine(cofactor)) for cofactor in parts]


def reduces_to_zero(p: Polynomial, basis) -> bool:
    """Whether p has 0 as a normal form under the default strategy."""
    return next(_reduce(*_prepare(p, basis), None, None, None), None) is None
