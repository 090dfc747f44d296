import random
import tracemalloc
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import add, le

import pytest

from ringgb.completion import complete, is_groebner_basis
from ringgb.pairs import GCD, SYZYGY, PairQueue, combinations_for, records_of
from ringgb.poly import PolyRing
from ringgb.reduction import StepBudget, StepLimitExceeded, _normal_form_keyed, _Reducers
from ringgb.rings import Integers, PrimeField, Rationals
from ringgb.terms import term_lcm

from field_buchberger import s_polynomial

QQ_XY = PolyRing(Rationals(), ["x", "y"])
ZZ_XY = PolyRing(Integers(), ["x", "y"])
GF5_XY = PolyRing(PrimeField(5), ["x", "y"])
# Heap keys of deglex carry the negated degree in front; the variable
# list orders the exponents.
COMBINATION_RINGS = (
    QQ_XY,
    ZZ_XY,
    GF5_XY,
    PolyRing(Integers(), ["x", "y"], "deglex"),
    PolyRing(PrimeField(5), ["y", "x"], "deglex"),
    PolyRing(Rationals(), ["y", "x"], "lex"),
)


@dataclass(frozen=True)
class PairRecord:
    """A pending pair obligation: basis indexes i < j, their head-term lcm, kind.

    The reference for the queue's records, on terms rather than heap keys.
    """

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


def record_sort_key(record: PairRecord, order):
    """Selection policy: ascending lcm, ties by index pair, gcd before syzygy."""
    return (order.sort_key(record.lcm), record.i, record.j, {GCD: 0, SYZYGY: 1}[record.kind])


def queued(record: PairRecord, order):
    """``record`` as ``records_of`` and ``PairQueue`` give it: ``(i, j, heap key of the lcm, kind)``."""
    return (record.i, record.j, order.heap_key(record.lcm), record.kind)


def random_sparse(rng, ring):
    """A nonzero polynomial of up to three terms, exponents at most 2, coefficients in [-2, 2]."""
    while True:
        p = ring.from_monomials(
            (rng.randint(-2, 2), tuple(rng.randint(0, 2) for _ in range(ring.nvars))) for _ in range(3)
        )
        if p:
            return p


def random_nonzero(rng, ring, max_exp=2, bound=4):
    while True:
        p = ring.from_monomials(
            (rng.randint(-bound, bound), (rng.randint(0, max_exp), rng.randint(0, max_exp)))
            for _ in range(4)
        )
        if p:
            return p


def combinations(p1, p2, kind):
    """combinations_for on the (0, 1) record of ``kind`` of the basis [p1, p2]."""
    basis = [p1, p2]
    (record,) = [r for r in pair_records(basis, 1) if r.kind == kind]
    return pair_polynomials(basis, record, _Reducers(basis))


def pair_polynomials(basis, record, reducers):
    """combinations_for on ``record``, each q turned into a ``Polynomial``.

    Each heap-key accumulator, and each row coefficient, is in the
    ring's kernel form.  The accumulator is checked to hold no zero
    coefficient and then converted through the public constructor; the
    row coefficients leave the form as ring elements.
    """
    R = basis[0].ring
    form = R.coeff_ring._kernel_form()
    leave = form.leave or (lambda c: c)
    out = []
    for acc, ((a1, k1), (a2, k2)) in combinations_for(reducers, queued(record, R.order)):
        assert not any(form.is_zero(c) for c in acc.values())
        q = R.from_monomials((leave(c), R.order.term_from_heap_key(k)) for k, c in acc.items())
        out.append((q, ((leave(a1), k1), (leave(a2), k2))))
    return out


def gcd_polynomials(p1, p2):
    return [q for q, _ in combinations(p1, p2, GCD)]


def syzygy_polynomials(p1, p2):
    return [q for q, _ in combinations(p1, p2, SYZYGY)]


def all_records(basis):
    """Every record of ``basis`` in queue order, as ``complete`` pops them."""
    records = [r for j in range(len(basis)) for r in pair_records(basis, j)]
    return sorted(records, key=lambda r: record_sort_key(r, basis[0].ring.order))


def test_gcd_polynomial_int_monomials():
    x, y = ZZ_XY.gens()
    assert gcd_polynomials(2 * x, 3 * y) == [x * y]


def test_gcd_polynomial_int_common_term():
    x, _ = ZZ_XY.gens()
    assert gcd_polynomials(4 * x, 6 * x) == [2 * x]


def test_gcd_polynomial_field_head():
    x, y = QQ_XY.gens()
    (q,) = gcd_polynomials(x**2 - y, x * y - 1)
    assert q.head_term == (2, 1)
    assert q.head_coeff == 1


def test_syzygy_polynomial_field_example():
    x, y = QQ_XY.gens()
    assert syzygy_polynomials(x**2 - y, x * y - 1) == [x - y**2]


def test_syzygy_polynomial_int_monomials_cancel():
    x, y = ZZ_XY.gens()
    (q,) = syzygy_polynomials(2 * x, 3 * y)
    assert not q


def test_syzygy_polynomial_int_constants_survive():
    x, _ = ZZ_XY.gens()
    assert syzygy_polynomials(2 * x + 1, 3 * x + 1) == [ZZ_XY.one()]


def shared_memo_combinations(rng, ring):
    """Every record of a random 3-4 element basis, in queue order, through one memo-keeping index.

    Pair polynomials then read the shifted tails that earlier records
    stored, as in ``complete``.
    """
    basis = [random_nonzero(rng, ring) for _ in range(rng.randint(3, 4))]
    reducers = _Reducers(basis, keep_tails=True)
    return [
        (basis[r.i], basis[r.j], combo)
        for r in all_records(basis)
        for combo in pair_polynomials(basis, r, reducers)
    ]


@pytest.mark.parametrize("ring", COMBINATION_RINGS)
def test_pair_polynomials_are_exact_combinations(ring):
    rng, memo_rng = random.Random(41), random.Random(46)
    for _ in range(80):
        p1, p2 = random_nonzero(rng, ring), random_nonzero(rng, ring)
        for combos in (
            [(p1, p2, combo) for combo in combinations(p1, p2, GCD)],
            [(p1, p2, combo) for combo in combinations(p1, p2, SYZYGY)],
            shared_memo_combinations(memo_rng, ring),
        ):
            for p, r, (q, ((a1, k1), (a2, k2))) in combos:
                s1, s2 = map(ring.order.term_from_heap_key, (k1, k2))
                # a deglex key's degree slot is dropped by term_from_heap_key
                assert (k1, k2) == (ring.order.heap_key(s1), ring.order.heap_key(s2))
                lhs = ring.monomial(a1, s1) * p + ring.monomial(a2, s2) * r
                assert lhs == q


class RecordingTails(dict):
    """Reducer i's tail memo, recording each read ``(i, kt, entry)`` in ``reads``, entry None on a miss."""

    def __init__(self, i, tails, reads):
        super().__init__(tails)
        self.i, self.reads = i, reads

    def get(self, kt, default=None):
        entry = super().get(kt, default)
        self.reads.append((self.i, kt, entry))
        return entry


def recording_tails(reducers):
    """Make each reducer's memo in ``reducers.tails`` record its reads, which both pair polynomials and steps make; return them."""
    reads = []
    reducers.tails = [RecordingTails(i, tails, reads) for i, tails in enumerate(reducers.tails)]
    return reads


def stored_tails(reducers):
    """The per-reducer tail memos of ``reducers`` as one ``{(i, kt): entry}`` dict."""
    return {(i, kt): entry for i, tails in enumerate(reducers.tails) for kt, entry in tails.items()}


def test_syzygy_record_and_later_steps_read_the_tails_its_gcd_record_stored():
    x, y = ZZ_XY.gens()
    basis = [2 * x**2 + y + 1, 3 * x * y - x]
    reducers = _Reducers(basis, keep_tails=True)
    assert reducers.tails == [{}, {}]  # one memo per reducer, keyed by the target term
    calls = recording_tails(reducers)
    gcd, syzygy = (queued(r, ZZ_XY.order) for r in pair_records(basis, 1))
    kl = gcd[2]
    combinations_for(reducers, gcd)
    stored = stored_tails(reducers)
    assert set(stored) == {(0, kl), (1, kl)}
    del calls[:]
    combinations_for(reducers, syzygy)
    assert [(i, kt) for i, kt, _ in calls] == [(0, kl), (1, kl)]
    assert all(entry is stored[i, kt] for i, kt, entry in calls)
    assert stored_tails(reducers) == stored
    # The default rule's first step at the lcm is reducer 0's, and it reads
    # the same entry.
    del calls[:]
    steps = []
    _normal_form_keyed(ZZ_XY, {kl: 2}, reducers, None, None, steps)
    assert steps[0] == (0, 1, stored[0, kl][0])
    assert calls[0][:2] == (0, kl) and calls[0][2] is stored[0, kl]
    assert reducers.tails[0][kl] is stored[0, kl]


def test_syzygy_record_over_a_field_stores_no_tail():
    x, y = GF5_XY.gens()
    basis = [x**2 - y, x * y - 1, y**3 - 1]
    reducers = _Reducers(basis, keep_tails=True)
    _normal_form_keyed(GF5_XY, {GF5_XY.order.heap_key((3, 1)): 1}, reducers, None, None, None)
    before = stored_tails(reducers)
    assert before
    for record in all_records(basis):
        if record.kind == SYZYGY:
            combinations_for(reducers, queued(record, GF5_XY.order))
    assert stored_tails(reducers) == before
    assert all(reducers.tails[i][kt] is entry for (i, kt), entry in before.items())


@pytest.mark.parametrize("ring", [QQ_XY, ZZ_XY, GF5_XY])
def test_syzygy_polynomials_cancel_the_lcm_term(ring):
    rng = random.Random(42)
    for _ in range(150):
        p1, p2 = random_nonzero(rng, ring), random_nonzero(rng, ring)
        t = term_lcm(p1.head_term, p2.head_term)
        for q in syzygy_polynomials(p1, p2):
            assert t not in [term for _, term in q.monomials]
            if q:
                assert ring.order.sort_key(q.head_term) < ring.order.sort_key(t)


@pytest.mark.parametrize("ring", [QQ_XY, ZZ_XY, GF5_XY])
def test_gcd_polynomials_have_generator_heads(ring):
    rng = random.Random(43)
    for _ in range(150):
        p1, p2 = random_nonzero(rng, ring), random_nonzero(rng, ring)
        t = term_lcm(p1.head_term, p2.head_term)
        generators, _ = ring.coeff_ring.groebner([p1.head_coeff, p2.head_coeff])
        qs = gcd_polynomials(p1, p2)
        assert len(qs) == len(generators)
        for g, q in zip(generators, qs):
            assert q.head_term == t
            assert q.head_coeff == g


@pytest.mark.parametrize("ring", [QQ_XY, GF5_XY])
def test_field_syzygy_polynomial_is_s_polynomial_up_to_unit(ring):
    rng = random.Random(44)
    coeff_ring = ring.coeff_ring
    for _ in range(150):
        p1, p2 = random_nonzero(rng, ring), random_nonzero(rng, ring)
        (q,) = syzygy_polynomials(p1, p2)
        s = s_polynomial(p1, p2)
        if not q or not s:
            assert not q and not s
            continue
        monic_q = q.scale(coeff_ring.canonical_unit(q.head_coeff))
        monic_s = s.scale(coeff_ring.canonical_unit(s.head_coeff))
        assert monic_q == monic_s


def test_critical_pairs_combinatorics():
    x, y = ZZ_XY.gens()
    basis = [2 * x, 3 * y, x * y]
    assert [(r.i, r.j, r.kind) for r in pair_records(basis, 2)] == [
        (0, 2, GCD),
        (0, 2, SYZYGY),
        (1, 2, GCD),
        (1, 2, SYZYGY),
    ]
    records = all_records(basis)
    assert len(records) == 6
    assert sum(1 for r in records if r.kind == GCD) == 3
    assert sum(1 for r in records if r.kind == SYZYGY) == 3
    assert list(pair_records([x], 0)) == []
    # ``records_of`` lists the same records on heap keys, and over a field
    # the syzygy records alone.
    for ring in (ZZ_XY, GF5_XY, PolyRing(Rationals(), ["y", "x"], "deglex")):
        mirrored = [ring.from_monomials(p.monomials) for p in basis]
        reducers = _Reducers(mirrored)
        want = [queued(r, ring.order) for r in pair_records(mirrored, 2)]
        if ring.coeff_ring.is_field:
            want = [r for r in want if r[3] == SYZYGY]
        assert list(records_of(reducers, 2)) == want
        assert list(records_of(reducers, 0)) == []


def test_critical_pairs_policy_order():
    x, y = ZZ_XY.gens()
    basis = [2 * x, 3 * y, x * y]
    records = all_records(basis)
    order = ZZ_XY.order
    keys = [order.sort_key(r.lcm) for r in records]
    assert keys == sorted(keys)
    # all three pairs share the lcm x*y here; index pairs break the tie
    assert [(r.i, r.j, r.kind) for r in records] == [
        (0, 1, GCD),
        (0, 1, SYZYGY),
        (0, 2, GCD),
        (0, 2, SYZYGY),
        (1, 2, GCD),
        (1, 2, SYZYGY),
    ]
    assert all(r.lcm == term_lcm(basis[r.i].head_term, basis[r.j].head_term) for r in records)
    # distinct lcms sort ascending: lcm(x^2,x)=x^2, lcm(x^2,y)=x^2*y, lcm(x,y)=x*y
    x2basis = [x * x, x, y]
    ordered = [(r.i, r.j) for r in all_records(x2basis) if r.kind == GCD]
    assert ordered == [(1, 2), (0, 1), (0, 2)]


def test_critical_pairs_reject_zero_entries():
    x, _ = ZZ_XY.gens()
    with pytest.raises(ValueError):
        is_groebner_basis([x, ZZ_XY.zero()])


def test_pair_record_is_hashable():
    assert PairRecord(0, 1, (1, 1), GCD) == PairRecord(0, 1, (1, 1), GCD)
    assert len({PairRecord(0, 1, (1, 1), GCD), PairRecord(0, 1, (1, 1), SYZYGY)}) == 2


def drain(basis, budget):
    """The records a ``PairQueue`` of ``basis`` yields, and the queue."""
    queue = PairQueue(_Reducers(basis), budget)
    for j in range(len(basis)):
        queue.add(j)
    return list(queue), queue


def test_queue_over_the_integers_yields_every_record_in_order():
    rng = random.Random(45)
    for _ in range(20):
        basis = [random_nonzero(rng, ZZ_XY) for _ in range(5)]
        budget = StepBudget()
        yielded, queue = drain(basis, budget)
        assert yielded == [queued(r, ZZ_XY.order) for r in all_records(basis)]
        assert queue.popped == budget.used == len(yielded) == 20
        assert (queue.product, queue.chain) == (0, 0)
    # While the basis grows, the records of each new element join the ones
    # still queued, and each pops as (i, j, heap key of the lcm, kind) in
    # the reference's order: lex, deglex and lex with y first.
    rings = (ZZ_XY, PolyRing(Integers(), ["x", "y", "z"], "deglex"), PolyRing(Integers(), ["y", "x"], "lex"))
    for ring in rings:
        for _ in range(10):
            polys = [random_sparse(rng, ring) for _ in range(8)]
            basis, reducers, budget = polys[:4], _Reducers(polys[:4]), StepBudget()
            got = drain_growing(PairQueue(reducers, budget), basis, polys[4:], reducers)
            reference_basis = polys[:4]
            assert got == drain_growing(ScanningQueue(reference_basis), reference_basis, polys[4:])
            assert budget.used == got[1][0] == len(got[0]) == 2 * 28


@pytest.mark.parametrize("ring", [QQ_XY, GF5_XY])
def test_queue_over_a_field_skips_gcd_records_and_counts_every_pop(ring):
    x, y = ring.gens()
    basis = [x**2 - y, x * y - 1, y**3 - 1, x - y**2, y**2]
    budget = StepBudget()
    yielded, queue = drain(basis, budget)
    syzygies = [queued(r, ring.order) for r in all_records(basis) if r.kind == SYZYGY]
    # Only the syzygy records are queued and charged, and they are
    # yielded in queue order with the skipped ones left out.
    assert budget.used == len(syzygies) == 10
    assert yielded == [r for r in syzygies if r in yielded]
    assert queue.popped == len(yielded) + queue.product + queue.chain == 10
    assert queue.product > 0 and queue.chain > 0


@pytest.mark.parametrize("ring, queued", [(ZZ_XY, 12), (GF5_XY, 6)])
def test_queue_charges_each_queued_record(ring, queued):
    x, y = ring.gens()
    basis = [x**2 - y, x * y - 1, y**3 - 1, x - y**2]
    budget = StepBudget(queued)
    drain(basis, budget)
    assert budget.used == queued
    budget = StepBudget(queued - 1)
    with pytest.raises(StepLimitExceeded):
        drain(basis, budget)
    assert budget.used == queued


class ScanningQueue:
    """The pair policy as a reference: ``pair_records`` popped in ``record_sort_key`` order.

    Same interface as ``PairQueue``, on head terms rather than heap keys
    and with no divisor index; it yields each record as ``queued`` gives
    it.  Over ``zz`` it yields every record.  Over a field it queues the
    syzygy records alone, and each popped record tests every head
    against its lcm for the criteria.
    """

    def __init__(self, basis):
        self.basis = basis
        self.field = basis[0].ring.coeff_ring.is_field
        self.heads = []
        self.heap = []
        self.pending = set()
        self.popped = self.product = self.chain = 0

    def add(self, j):
        self.heads.append(self.basis[j].head_term)
        order = self.basis[0].ring.order
        for record in pair_records(self.basis, j):
            if record.kind == SYZYGY or not self.field:
                self.pending.add((record.i, j))
                heappush(self.heap, (record_sort_key(record, order), record))

    def __iter__(self):
        heads, pending, order = self.heads, self.pending, self.basis[0].ring.order
        while self.heap:
            _, record = heappop(self.heap)
            self.popped += 1
            if not self.field:
                yield queued(record, order)
                continue
            i, j = record.i, record.j
            pending.discard((i, j))
            if record.lcm == tuple(map(add, heads[i], heads[j])):
                self.product += 1
                continue
            if any(
                k not in (i, j)
                and (min(i, k), max(i, k)) not in pending
                and (min(j, k), max(j, k)) not in pending
                and all(map(le, head, record.lcm))
                for k, head in enumerate(heads)
            ):
                self.chain += 1
                continue
            yield queued(record, order)


def drain_growing(queue, basis, extra, reducers=None):
    """Drain ``queue``, appending the next of ``extra`` after every second yielded record.

    Each new element goes to ``basis``, then to ``reducers`` (when
    given) and then to the queue, between pops, as in ``complete``.
    """
    for j in range(len(basis)):
        queue.add(j)
    extra = list(extra)
    yielded = []
    for record in queue:
        yielded.append(record)
        if extra and len(yielded) % 2 == 0:
            basis.append(extra.pop(0))
            if reducers is not None:
                reducers.append(basis[-1])
            queue.add(len(basis) - 1)
    return yielded, (queue.popped, queue.product, queue.chain)


@pytest.mark.parametrize(
    "coeff_ring, variables, gens, size, rounds",
    [
        pytest.param(PrimeField(5), "xyz", 4, 8, 40, id="coeff_ring0"),
        pytest.param(Rationals(), "xyz", 4, 8, 40, id="coeff_ring1"),
        # Each ``treated`` bitset spans three 30-bit int digits, and some
        # chain skips rest on a head past the 60th alone.
        pytest.param(PrimeField(5), "xyzw", 60, 90, 3, id="past_60_elements"),
    ],
)
def test_queue_criteria_match_a_scan_of_every_head_on_a_growing_basis(coeff_ring, variables, gens, size, rounds):
    # The queue asks the divisor index for the heads dividing each popped
    # lcm, and later appends must extend the entries those lookups made.
    ring = PolyRing(coeff_ring, list(variables), "deglex")
    rng = random.Random(47)
    totals = [0, 0, 0]
    largest = 0
    for _ in range(rounds):
        polys = [random_sparse(rng, ring) for _ in range(size)]
        start, extra = polys[:gens], polys[gens:]
        basis = list(start)
        reducers = _Reducers(basis)
        got = drain_growing(PairQueue(reducers, StepBudget()), basis, extra, reducers)
        reference_basis = list(start)
        want = drain_growing(ScanningQueue(reference_basis), reference_basis, extra)
        assert got == want
        totals = [t + n for t, n in zip(totals, got[1])]
        largest = max(largest, len(basis))
    popped, product, chain = totals
    assert product > 0 and chain > 0 and popped > product + chain
    assert largest == size


def test_queue_memory_per_charged_step():
    # No pair polynomial of this ideal takes a reduction step, so the queued
    # records alone reach the limit, at about 300 elements, and the peak is
    # what the queue keeps per record: one heap tuple (about 120 bytes a
    # step), with no room for a second copy of each pair.
    x, y = QQ_XY.gens()
    tracemalloc.start()
    try:
        with pytest.raises(StepLimitExceeded) as raised:
            complete([x**100000 * y - 1, y**100000 * x - 1], max_steps=50_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(raised.value) == "exceeded the configured limit of 50000 reduction steps"
    assert peak <= 200 * 50_000
