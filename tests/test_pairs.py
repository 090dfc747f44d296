import random

import pytest

from ringgb.completion import is_groebner_basis
from ringgb.pairs import GCD, SYZYGY, PairQueue, PairRecord, combinations_for, pair_records, record_sort_key
from ringgb.poly import PolyRing
from ringgb.reduction import StepBudget, StepLimitExceeded
from ringgb.rings import Integers, PrimeField, Rationals
from ringgb.terms import TermOrder, term_lcm

from field_buchberger import s_polynomial

QQ_XY = PolyRing(Rationals(), ["x", "y"])
ZZ_XY = PolyRing(Integers(), ["x", "y"])
GF5_XY = PolyRing(PrimeField(5), ["x", "y"])
# Heap keys of deglex carry the negated degree in front; a precedence
# permutes the exponents.
COMBINATION_RINGS = (
    QQ_XY,
    ZZ_XY,
    GF5_XY,
    PolyRing(Integers(), ["x", "y"], "deglex"),
    PolyRing(PrimeField(5), ["x", "y"], TermOrder("deglex", precedence=(1, 0))),
    PolyRing(Rationals(), ["x", "y"], TermOrder("lex", precedence=(1, 0))),
)


def random_nonzero(rng, ring, max_exp=2, bound=4):
    while True:
        p = ring.from_monomials(
            (rng.randint(-bound, bound), (rng.randint(0, max_exp), rng.randint(0, max_exp)))
            for _ in range(4)
        )
        if p:
            return p


def combinations(p1, p2, kind):
    """combinations_for on the (0, 1) record of ``kind`` of the basis [p1, p2].

    Each heap-key accumulator is turned into a ``Polynomial`` through the
    public constructor, after checking that it holds no zero coefficient.
    """
    basis = [p1, p2]
    (record,) = [r for r in pair_records(basis, 1) if r.kind == kind]
    R = p1.ring
    out = []
    for acc, combo in combinations_for(basis, record):
        assert not any(R.coeff_ring.is_zero(c) for c in acc.values())
        q = R.from_monomials((c, R.order.term_from_heap_key(k)) for k, c in acc.items())
        out.append((q, combo))
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


@pytest.mark.parametrize("ring", COMBINATION_RINGS)
def test_pair_polynomials_are_exact_combinations(ring):
    rng = random.Random(41)
    for _ in range(80):
        p1, p2 = random_nonzero(rng, ring), random_nonzero(rng, ring)
        for combos in (combinations(p1, p2, GCD), combinations(p1, p2, SYZYGY)):
            for q, ((a1, k1), (a2, k2)) in combos:
                s1, s2 = map(ring.order.term_from_heap_key, (k1, k2))
                # a deglex key's degree slot is dropped by term_from_heap_key
                assert (k1, k2) == (ring.order.heap_key(s1), ring.order.heap_key(s2))
                lhs = ring.monomial(a1, s1) * p1 + ring.monomial(a2, s2) * p2
                assert lhs == q


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
    queue = PairQueue(basis, budget)
    for j in range(len(basis)):
        queue.add(j)
    return list(queue), queue


def test_queue_over_the_integers_yields_every_record_in_order():
    rng = random.Random(45)
    for _ in range(20):
        basis = [random_nonzero(rng, ZZ_XY) for _ in range(5)]
        budget = StepBudget()
        yielded, queue = drain(basis, budget)
        assert yielded == all_records(basis)
        assert queue.popped == budget.used == len(yielded) == 20
        assert (queue.product, queue.chain) == (0, 0)


@pytest.mark.parametrize("ring", [QQ_XY, GF5_XY])
def test_queue_over_a_field_skips_gcd_records_and_counts_every_pop(ring):
    x, y = ring.gens()
    basis = [x**2 - y, x * y - 1, y**3 - 1, x - y**2, y**2]
    budget = StepBudget()
    yielded, queue = drain(basis, budget)
    syzygies = [r for r in all_records(basis) if r.kind == SYZYGY]
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
