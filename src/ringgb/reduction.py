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
heap of their keys, one int per term (``terms.PackedOrder``), so a
shifted tail term is one addition.  It pops the largest pending term,
subtracts each step's k*s*tail(b) into the dict, and emits the term once
it has no valid step, so the remainder comes out sorted.  It computes in
the ring's ``_kernel_form`` (int pairs over QQ, plain ints over GF(p)
and ZZ, heads prepared once).  On plain ints (the form's ``ints``) the
default path subtracts inline and, over GF(p), takes a term mod p only
when it pops it, as Monagan & Pearce delay it; over ZZ (``ints`` 0) it
also takes the division step inline, the symmetric remainder against a
head prepared as ``(b, |b|)``.  On QQ's pairs (the
form's ``ratios``) it subtracts inline too, with one gcd per tail term:
a pending sum stays over the lcm of its denominators, its numerator not
cancelled, until the pop brings it to lowest terms with one more gcd
(Knuth, TAOCP vol. 2, 4.5.1).  Every value that leaves the loop is
canonical.  For cofactors each step only appends ``(reducer, k,
cofactor heap key)`` to a list, k in that form, which ``_row_sum`` sums
into rows, over QQ inline with each entry settled once at the end.
Outside this module ``combinations_for``, ``complete`` and
``interreduce`` compute in the form too; other inputs enter it in
``_prepare``.

The default ``FirstReducibleStrategy`` (or None) takes the first reducer
in basis order that hits the popped term.  Its scan of the dividing
heads resumes after each hit, and after a hit one more round scans them
all.  On the shipped rings a head that missed a coefficient misses every
later remainder too (a field's is 0; ZZ's stays in each window (-|b|/2,
|b|/2] the dividend was in), so that round finds nothing and the steps
are those of a restarted scan; on a ring whose step can turn a miss into
a hit, it takes that step.  Any other strategy only chooses: while the
popped term has a valid step, ``strategy.select`` gets every valid step
of the pending terms (as ``iter_reduction_steps`` lists them) and may
pick one at a lower term.  The terms above are final, as a step never
touches a term above its own and reducibility depends only on a
monomial's coefficient and term.  So the candidates are those of a loop
that rescans the polynomial after every step, and the default rule's
first one is the default path's step.

Both paths find a term's reducers in one divisor index, ``_Reducers``
(after the divisor lookups of Bachmann & Schoenemann, "Monomial
representations for Groebner bases computations", ISSAC 1998).  For each
variable it keeps the heads' distinct nonzero exponents, sorted,
each with a bitmask of the heads whose exponent is larger; a head divides
a term unless its bit is in a mask the term's exponents bisect to, so no
head is tested on its own.  It also remembers each answer, in basis
order, until the next append empties that memo.  ``complete`` keeps one
index for its whole run and appends each new element;
``is_groebner_basis`` keeps one for its pair walk and ``interreduce`` one
for its pass.  These three memoize per heap key, so a term met again
between two appends is one dict read, and keep each step's shifted
tail in a memo per reducer, keyed by the target term's heap key, so
that a repeated step (most of a completion's steps are) is one read of
reducer i's dict, with no ``(i, key)`` tuple built and hashed; a pair
(i, j) at lcm l reads the same entries, as
s1*basis[i] and s2*basis[j] are the steps of i and j at l.  The index
of a public call keeps no tails, which would stay in memory as long
as its basis does, though queries repeat steps too.
Every head divides L, the lcm of the heads, so a head divides t exactly
when it divides gcd(t, L): that index memoizes under the key of the gcd
alone (one ``key_gcd`` on packed keys), which many terms share.  The
``basis`` of a ``CompletionTrace`` is a ``_Basis``, a tuple that carries
such an index, built at the first reduction against it: every later
query reuses it and its memo, so a warm query bisects almost nothing.
Any other basis gets an index of its own for each call.  Within one
reduction, ``_steps`` keeps each pending term's candidate steps until a
step changes its coefficient.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from heapq import heapify, heappop, heappush
from math import gcd, inf
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
    the default path, which lists no candidates and resumes its scan of
    the heads after each hit (see the module docstring).
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


class _Basis(tuple):
    """A completed basis: the tuple of its polynomials, carrying one divisor index.

    ``_prepare`` attaches its ``_Reducers`` as ``_index`` at the first
    reduction against it, only once built: threads that race there may
    each build one, and every reader sees a whole index.  Equality, hash
    and repr are the tuple's.  Pickling and copying keep the polynomials
    only, since the index holds the kernel form's functions.
    """

    _index = None

    def __reduce__(self):
        return _Basis, (tuple(self),)


def _prepare(p: Polynomial, basis):
    """p as ``_reduce`` takes it, in the loop's form, and the ``_Reducers`` of ``basis``, checked."""
    if type(basis) is _Basis:
        reducers = basis._index
        if reducers is None:
            reducers = basis._index = _Reducers(basis)
        if p.ring is not reducers.ring and p.ring != reducers.ring:
            raise ValueError("basis polynomial from a different ring")
    else:
        reducers = _Reducers(basis, p.ring)
    enter = reducers.form.enter
    if enter is None:
        return {k: c for c, k in p.keyed_monomials()}, reducers
    return {k: enter(c) for c, k in p.keyed_monomials()}, reducers


class _Reducers:
    """The basis as the reduction loop reads it, plus a memo of each term's divisors.

    ``ring`` is the ``PolyRing`` of the basis, by default the first
    element's; ``append`` rejects a zero element or one from another
    ring.  ``form`` is the ``_KernelForm`` of its coefficients.
    ``lead[i]`` holds basis element i's head coefficient and ``tail[i]``
    its keyed monomials below the head, both in that form, and
    ``heads[i]`` its head as ``(heap key, prepared coefficient)``.
    ``memo`` maps a heap key to the indexes, in basis order, of the
    heads that divide it.  ``append`` empties it in place, as readers
    may hold the dict itself.  A list is stored only once complete, so
    threads that share the index read whole answers.

    Head i divides a term exactly when each of i's exponents is <= the
    term's.  Per variable s, ``values[s]`` holds the heads' distinct
    nonzero exponents, negated, ascending and ``below[s][k]`` the mask,
    bit i for head i, of those < ``values[s][k]``, plus a last mask of
    those < 0: at most one of each per head, whatever the exponents'
    size.  ``lcm`` is the ``key_bound`` of the heads, L: every head's
    exponents are at most L's, so a head divides t exactly when it
    divides gcd(t, L).  Without ``keep_tails`` the memo is keyed by the
    key of that gcd alone, which many terms share, so it holds at most
    one entry per divisor of L that a lookup met, and a key is unpacked
    for the masks only when its gcd is new.  Under deglex L's degree
    field is the largest head degree, not L's degree, which may pass the
    bound; ``key_gcd`` does not read it.  An index that keeps tails is
    keyed by the term's own key: it lives across many reductions, its
    memo catches the repeats, and most of the terms it misses divide L
    (1,501 of 1,927 misses on a pass of the ``structured`` benchmark,
    where the gcd key found 167), so there the gcd costs more than it
    saves.

    ``bounds[i]`` is the ``tail_bound`` of element i, which ``shift``
    checks each shifted tail against once.  With ``keep_tails``,
    ``tails`` holds one dict per element, which ``append`` adds empty:
    ``tails[i]`` maps kt to ``shift(i, kt)``.  A step of reducer i at kt
    and a pair of i at lcm kt read the same entry, which never goes
    stale as basis elements never change.  Otherwise ``tails`` is None
    and each read builds its entry anew.
    """

    def __init__(self, basis, ring=None, *, keep_tails=False):
        self.ring = basis[0].ring if ring is None else ring
        self.form = self.ring.coeff_ring._kernel_form()
        self.lead, self.tail, self.heads, self.bounds, self.memo = [], [], [], [], {}
        self.tails = [] if keep_tails else None
        self.lcm = 0
        self.values = [[] for _ in range(self.ring.nvars)]
        self.below = [[0] for _ in self.values]
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
        bit = 1 << len(self.heads)
        self.memo.clear()
        if self.tails is not None:
            self.tails.append({})
        self.lead.append(keyed[0][0])
        self.tail.append(keyed[1:])
        self.heads.append((keyed[0][1], self.form.prepare(keyed[0][0])))
        self.bounds.append(self.ring.order.tail_bound(keyed))
        self.lcm = self.ring.order.key_bound(((None, self.lcm), keyed[0]))
        for e, values, below in zip(self.ring.order.term_from_heap_key(keyed[0][1]), self.values, self.below):
            if e:
                v = -e
                k = bisect_left(values, v)
                if k == len(values) or values[k] != v:
                    values.insert(k, v)
                    below.insert(k, below[k])
                for j in range(k + 1, len(below)):
                    below[j] |= bit

    def shift(self, i, kt, keep=True):
        """A new ``(ks, [(c, kb + ks), ...])``: ks the key of s with s*HT(i) at ``kt``, i's tail times s.

        It is stored in ``tails[i]`` when ``keep`` and the index keeps tails.
        It raises ``ValueError`` when a term of it would pass the bound.
        """
        ks = kt - self.heads[i][0]
        self.ring.order.check(self.bounds[i] + ks)
        entry = ks, [(cb, kb + ks) for cb, kb in self.tail[i]]
        if keep and self.tails is not None:
            self.tails[i][kt] = entry
        return entry

    def shifted(self, i, kt, keep=True):
        """``shift(i, kt, keep)``, unless ``tails`` holds its entry already."""
        entry = None if self.tails is None else self.tails[i].get(kt)
        return entry or self.shift(i, kt, keep)

    def divisors(self, kt):
        """Indexes of the heads dividing heap key ``kt``, in basis order."""
        kg = kt if self.tails is not None else self.ring.order.key_gcd(kt, self.lcm)
        found = self.memo.get(kg)
        if found is None:
            fails = 0  # the heads with a larger exponent
            for e, values, below in zip(self.ring.order.term_from_heap_key(kg), self.values, self.below):
                fails |= below[bisect_left(values, -e)]
            mask = (1 << len(self.heads)) - 1 ^ fails
            found = []
            while mask:
                low = mask & -mask
                found.append(low.bit_length() - 1)
                mask ^= low
            self.memo[kg] = found
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
                steps.append(ReductionStep(i, term_of(kt), term_of(kt - kh), *hit))
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
    ring elements.  Steps read and add shifted tails in ``reducers.tails``
    when it keeps them.  Over ZZ (the form's ``ints`` 0) the default path
    steps inline, as ``_zz_step`` does, and ``step`` is not called.
    ``budget`` is charged when the loop ends, and at once at the step
    past its limit, which raises ``StepLimitExceeded``.
    """
    enter, leave, add, mul, neg, is_zero, _, step, _, ints, ratios = reducers.form
    # Subclasses may override ``select``, so only the class itself runs the default rule.
    default = strategy is None or type(strategy) is FirstReducibleStrategy
    select = None if default else strategy.select
    if not default:  # the other paths read pending values, so these stay canonical
        ints = ratios = None
    zz = ints == 0  # ZZ's step inline, on heads prepared as (b, |b|), as ``_zz_step`` takes it
    known = {}  # the candidate steps of pending terms, for ``_steps``
    heads, memo, tails = reducers.heads, reducers.memo, reducers.tails
    divisors_of, shift, get = reducers.divisors, reducers.shift, acc.get
    # The memo's key of a term, as ``divisors`` reads it.
    key_gcd, lcm = (None, 0) if tails is not None else (reducers.ring.order.key_gcd, reducers.lcm)
    used, limit = (0, inf) if budget is None else (budget.used, budget.limit)
    limit = inf if limit is None else limit
    # A coefficient that cancels stays in ``acc`` as a zero entry, so
    # that its key is never pushed twice.
    heap = list(acc)
    heapify(heap)
    while heap:
        kt = heappop(heap)
        c = acc.pop(kt)
        if ints:
            c %= ints
        elif ratios:
            n, d = c
            g = gcd(n, d)  # d for n = 0, which gives (0, 1)
            if g != 1:
                c = n // g, d // g
        if is_zero(c):
            continue
        divisors = memo.get(kt if key_gcd is None else key_gcd(kt, lcm))
        if divisors is None:
            divisors = divisors_of(kt)
        # Resume after each hit, and scan once more after a round with a hit.
        # Each scan keeps its own no-step branch: a shared "no step" flag
        # cost GF(p) and QQ about 1% of their ``structured`` time.
        scan, again = iter(divisors), False
        while True:
            if zz:
                for i in scan:
                    b, m = heads[i][1]
                    d = c % m
                    if 2 * d > m:
                        d -= m
                    if d != c:
                        k, c = (c - d) // b, d
                        break
                else:
                    if again:
                        scan, again = iter(divisors), False
                        continue
                    yield (c if leave is None else leave(c)), kt
                    break
            else:
                for i in scan:
                    hit = step(c, heads[i][1])
                    if hit is not None:
                        break
                else:
                    if again:
                        scan, again = iter(divisors), False
                        continue
                    yield (c if leave is None else leave(c)), kt
                    break
            if zz:  # the scan has taken the step
                target = kt
            elif select is None:
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
                target = reducers.ring.order.heap_key(chosen.term)
                acc[target] = d
                c = acc.pop(kt)
            used += 1
            if used > limit:
                budget.used = used - 1
                budget.spend()  # raises StepLimitExceeded
            kept = None if tails is None else tails[i].get(target)
            ks, tail = kept or shift(i, target)
            if ints is not None:
                for cb, ku in tail:
                    old = get(ku)
                    if old is None:
                        acc[ku] = -cb * k
                        heappush(heap, ku)
                    else:
                        acc[ku] = old - cb * k
            elif ratios:
                # old - k*cb over the lcm of the denominators, not cancelled.
                kn, kd = k
                for (n, d), ku in tail:
                    old = get(ku)
                    d *= kd
                    if old is None:
                        acc[ku] = -n * kn, d
                        heappush(heap, ku)
                    else:
                        a, b = old
                        g = gcd(b, d)
                        b //= g
                        acc[ku] = a * (d // g) - n * kn * b, b * d
            else:
                minus_k = neg(k)
                for cb, ku in tail:
                    x = mul(cb, minus_k)
                    old = get(ku)
                    if old is None:
                        acc[ku] = x
                        heappush(heap, ku)
                    else:
                        acc[ku] = add(old, x)
            if steps is not None:
                steps.append((i, k, ks))
            if is_zero(c):
                break
            again = True
    if budget is not None:
        budget.used = used


def _normal_form_keyed(ring, acc: dict, reducers, strategy, budget, steps) -> Polynomial:
    """Normal form of ``acc``, a dict as ``_reduce`` takes, in ``ring``."""
    return Polynomial(ring, keyed=tuple(_reduce(acc, reducers, strategy, budget, steps)))


def normal_form(p: Polynomial, basis, strategy=None, budget=None) -> Polynomial:
    """Reduce p to a fixpoint irreducible with respect to ``basis``."""
    return _normal_form_keyed(p.ring, *_prepare(p, basis), strategy, budget, None)


def normal_form_with_cofactors(p: Polynomial, basis, strategy=None, budget=None):
    """Normal form plus cofactors: p = sum(cofactor[i]*basis[i]) + result.

    There is one cofactor per basis element; reducers that took no step
    get the zero polynomial.  ``_row_sum`` sums the steps over one unit
    row per reducer, adding those at one term and dropping the ones
    that cancel.
    """
    acc, reducers = _prepare(p, basis)
    steps = []
    q = _normal_form_keyed(p.ring, acc, reducers, strategy, budget, steps)
    count = len(reducers.heads)
    row = _row_sum(reducers.form, p.ring.order, _unit_rows(reducers.form, p.ring, range(count)), steps)
    return q, list(_row_polynomials(p.ring, row, count))


def reduces_to_zero(p: Polynomial, basis) -> bool:
    """Whether p has 0 as a normal form under the default strategy."""
    return next(_reduce(*_prepare(p, basis), None, None, None), None) is None


# Rows.  A row is a tuple of ``(g, keyed, bound)``, one for each g (a
# generator, or a reducer for cofactors) with a nonzero entry, in
# ascending g; ``keyed`` holds the entry's monomials as ``Polynomial``
# keeps them, with coefficients in the loop's form, and ``bound`` is
# their ``key_bound``, so each part of a sum is checked once.


def _unit_rows(form, ring, indexes) -> list:
    """The row of each g in ``indexes`` whose one entry, at g, is 1."""
    ((one, key),) = ring.one().keyed_monomials()
    entry = ((one if form.enter is None else form.enter(one), key),)
    return [((g, entry, key),) for g in indexes]


def _row_sum(form, order, rows, parts) -> tuple:
    """The row sum(c*s*rows[m]) over ``(m, c, heap key of s)`` parts, c in ``form``.

    Over a form with ``ratios`` the sums are taken inline and each entry
    is brought to lowest terms once, at the end: ``_fill_rows`` stores
    the row and later sums read it.
    """
    mul, add, is_zero, ratios = form.mul, form.add, form.is_zero, form.ratios
    sums: dict = {}  # per g, heap key -> coefficient
    for m, c, ks in parts:
        for g, keyed, bound in rows[m]:
            order.check(bound + ks)
            acc = sums.setdefault(g, {})
            get = acc.get
            if ratios:
                cn, cd = c
                for (n, d), km in keyed:
                    ku = km + ks
                    old = get(ku)
                    d *= cd
                    if old is None:
                        acc[ku] = n * cn, d
                    else:
                        a, b = old
                        h = gcd(b, d)
                        b //= h
                        acc[ku] = a * (d // h) + n * cn * b, b * d
            else:
                for cm, km in keyed:
                    ku = km + ks
                    old = get(ku)
                    acc[ku] = mul(cm, c) if old is None else add(old, mul(cm, c))
    if ratios:
        for acc in sums.values():
            for ku, (n, d) in acc.items():
                h = gcd(n, d)
                acc[ku] = n // h, d // h
    row = ((g, tuple((acc[k], k) for k in sorted(acc) if not is_zero(acc[k]))) for g, acc in sorted(sums.items()))
    return tuple((g, keyed, order.key_bound(keyed)) for g, keyed in row if keyed)


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
            rows[m] = _row_sum(form, ring.order, rows, parts)
    return rows


def _row_polynomials(ring, row, count) -> tuple:
    """The ``count`` entries of ``row`` as polynomials over ``ring``, zero where it has none."""
    leave = ring.coeff_ring._kernel_form().leave
    polys = [ring.zero()] * count
    for g, keyed, _ in row:
        polys[g] = Polynomial(ring, keyed=keyed if leave is None else tuple((leave(c), k) for c, k in keyed))
    return tuple(polys)
