"""Single-step polynomial reduction and normal forms against a basis.

A monomial c*t of p is reducible by a basis element b when the head
term of b divides t and the coefficient ring can split c = k*HC(b) + d
with nonzero quotient k.  The step replaces p by p - k*(t/HT(b))*b,
which rewrites the coefficient at t to d and only otherwise touches
terms below t, so repeated steps terminate for any choice of steps.

A strategy picks one step among all valid ones, and the generic loop
asks it again after every step: ``strategy.select(iter_reduction_steps(q,
basis))`` on a freshly rebuilt q.  The default ``FirstReducibleStrategy``
instead runs an in-place kernel, after the mutable accumulators of
Monagan & Pearce ("Sparse polynomial division using a heap", JSC 46,
2011) and Yan ("The geobucket data structure for polynomials", JSC 25,
1998).  It keeps a ``heap key -> coefficient`` dict of the pending terms
and a heap of their keys (``TermOrder.heap_key``), pops the largest
pending term, and applies the first reducer in basis order whose head
divides it and whose ``reduce_step`` hits, again and again until none
does.  Each step subtracts k*s*tail(b) into the dict in place; what is
left of the term is final and is emitted, so the remainder comes out
in descending order without a sort.

The kernel takes the same steps, in the same order, as the generic loop
under ``FirstReducibleStrategy``.  That loop rescans q from its head,
but a step never touches a term above its own, and whether a monomial is
reducible depends on nothing but its coefficient and term: the terms
above the current one are therefore still irreducible, and its first
valid step is the kernel's next step.  Step counts, remainders and
cofactors are identical.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from itertools import islice
from operator import add as add_int, ge, sub
from typing import NamedTuple

from .poly import Polynomial
from .terms import term_div, term_divides


class StepLimitExceeded(RuntimeError):
    """The configured reduction-step safety valve was hit."""


class StepBudget:
    """Counts reduction steps and raises past ``limit`` (None = unlimited)."""

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
    """Largest reducible monomial first, reducers tried in basis order."""

    def select(self, candidates):
        return next(candidates, None)

    def __repr__(self):
        return "FirstReducibleStrategy()"


class SeededRandomStrategy:
    """Uniform seeded choice among all valid steps; for uniqueness testing."""

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


def _check_inputs(p: Polynomial, basis):
    ring = p.ring
    for b in basis:
        if not b:
            raise ValueError("basis polynomials must be nonzero")
        if b.ring is not ring and b.ring != ring:
            raise ValueError("basis polynomial from a different ring")


def iter_reduction_steps(p: Polynomial, basis):
    """All valid steps, largest target monomial first, reducers in basis order."""
    ring = p.ring.coeff_ring
    heads = [b.head_monomial for b in basis]
    for c, t in p.monomials:
        for idx, (head_c, head_t) in enumerate(heads):
            if term_divides(head_t, t):
                hit = ring.reduce_step(c, head_c)
                if hit is not None:
                    yield ReductionStep(idx, t, term_div(t, head_t), hit[0], hit[1])


def _reduce(p: Polynomial, basis, budget, collected):
    """Yield the monomials of p's default-strategy normal form, highest first.

    Each step's coefficient k is added into ``collected[reducer]`` (a
    dict keyed by cofactor term) unless ``collected`` is None.
    """
    poly_ring = p.ring
    ring = poly_ring.coeff_ring
    order = poly_ring.order
    key_of = order.heap_key
    term_of = order.term_from_heap_key
    add, mul, neg, is_zero = ring.add, ring.mul, ring.neg, ring.is_zero
    reduce_step = ring.reduce_step
    keyed = [b.keyed_monomials() for b in basis]
    heads = [(kb[0][1], kb[0][0]) for kb in keyed]
    # Pending terms by heap key; a coefficient that cancels stays as a
    # zero entry so that the key is never pushed twice.
    acc = {key_of(t): c for c, t in p.monomials}
    heap = list(acc)  # p is descending, so its keys are ascending: a heap
    while heap:
        kt = heappop(heap)
        c = acc.pop(kt)
        if is_zero(c):
            continue
        divisors = [i for i, (kh, _) in enumerate(heads) if all(map(ge, kh, kt))]
        while divisors:
            for i in divisors:
                hit = reduce_step(c, heads[i][1])
                if hit is not None:
                    break
            else:
                break
            if budget is not None:
                budget.spend()
            k, c = hit
            ks = tuple(map(sub, kt, heads[i][0]))
            minus_k = neg(k)
            for cb, kb in islice(keyed[i], 1, None):
                ku = tuple(map(add_int, kb, ks))
                x = mul(cb, minus_k)
                old = acc.get(ku)
                if old is None:
                    acc[ku] = x
                    heappush(heap, ku)
                else:
                    acc[ku] = add(old, x)
            if collected is not None:
                cofactor = collected[i]
                s = term_of(ks)
                old = cofactor.get(s)
                cofactor[s] = k if old is None else add(old, k)
            if is_zero(c):
                break
        if not is_zero(c):
            yield c, term_of(kt)


def _normal_form(p: Polynomial, basis, strategy, budget, collected) -> Polynomial:
    """The normal form of p, adding each step into ``collected`` as ``_reduce`` does."""
    _check_inputs(p, basis)
    # Subclasses may override ``select``, so only the class itself runs the kernel.
    if strategy is None or type(strategy) is FirstReducibleStrategy:
        return Polynomial(p.ring, tuple(_reduce(p, basis, budget, collected)))
    add = p.ring.coeff_ring.add
    q = p
    while True:
        step = strategy.select(iter_reduction_steps(q, basis))
        if step is None:
            return q
        if budget is not None:
            budget.spend()
        q = q - basis[step.reducer].mul_monomial(step.coefficient, step.cofactor_term)
        if collected is not None:
            cofactor = collected[step.reducer]
            old = cofactor.get(step.cofactor_term)
            k = step.coefficient
            cofactor[step.cofactor_term] = k if old is None else add(old, k)


def normal_form(p: Polynomial, basis, strategy=None, budget=None) -> Polynomial:
    """Reduce p to a fixpoint irreducible with respect to ``basis``."""
    return _normal_form(p, basis, strategy, budget, None)


def normal_form_with_cofactors(p: Polynomial, basis, strategy=None, budget=None):
    """Normal form plus cofactors: p = sum(cofactor[i]*basis[i]) + result."""
    collected = [dict() for _ in basis]
    q = _normal_form(p, basis, strategy, budget, collected)
    is_zero = p.ring.coeff_ring.is_zero
    cofactors = [
        p.ring._from_dict({t: c for t, c in acc.items() if not is_zero(c)})
        for acc in collected
    ]
    return q, cofactors


def reduces_to_zero(p: Polynomial, basis) -> bool:
    """Whether p has 0 as a normal form under the default strategy."""
    _check_inputs(p, basis)
    return next(_reduce(p, basis, None, None), None) is None
