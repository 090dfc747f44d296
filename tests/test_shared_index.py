"""A completed basis carries one divisor index, which every query against it reuses.

``complete`` returns its basis as ``reduction._Basis``: a tuple whose
``_Reducers`` keeps no tails, is built at the first reduction against
it and then serves every public entry point.  Any other basis gets an
index of its own for each call.  Every check below asks the same
question of ``trace.basis`` and of ``list(trace.basis)`` and requires
the same answer, down to the step counts.
"""

import copy
import dataclasses
import os
import pickle
import random
import sys
import threading

import pytest

from ringgb import (
    Integers,
    PolyRing,
    PrimeField,
    Rationals,
    SeededRandomStrategy,
    StepBudget,
    StepLimitExceeded,
    complete,
    ideal_membership,
    iter_reduction_steps,
    normal_form,
    normal_form_with_cofactors,
    reduces_to_zero,
)
from ringgb.reduction import _Basis, _Reducers

from corpus import corpus, random_poly
from families import cyclic, katsura

#: The ideals of the benchmark's ``query`` workload.
QUERY_IDEALS = (
    ("cyclic4-gf32003", lambda: PrimeField(32003), cyclic),
    ("cyclic4-qq", Rationals, cyclic),
    ("cyclic4-zz", Integers, cyclic),
    ("katsura4-gf32003", lambda: PrimeField(32003), katsura),
    ("katsura4-qq", Rationals, katsura),
)


def query_ideal(make_coeffs, family):
    R = PolyRing(make_coeffs(), ["a", "b", "c", "d"], "deglex")
    gens = family(R)
    return R, gens, complete(gens)


def random_query(rng, R, nterms, degree):
    monomials = []
    for _ in range(nterms):
        exps = [0] * R.nvars
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(R.nvars)] += 1
        monomials.append((rng.randint(-9, 9), tuple(exps)))
    return R.from_monomials(monomials)


def random_member(rng, R, gens, degree):
    return sum((g * random_query(rng, R, 2, degree) for g in gens), R.zero())


def answers(p, gens, trace, basis, seed):
    """What each public entry point answers for p against ``basis``, steps counted.

    ``basis`` is ``trace.basis`` or a plain copy of it; membership asks a
    trace whose basis is ``basis``.
    """
    if basis is not trace.basis:
        trace = dataclasses.replace(trace, basis=basis)

    def strategy():
        return None if seed is None else SeededRandomStrategy(seed)

    out = []
    for reduce in (normal_form, normal_form_with_cofactors):
        budget = StepBudget()
        out += [reduce(p, basis, strategy(), budget), budget.used]
    out += [reduces_to_zero(p, basis), list(iter_reduction_steps(p, basis))]
    out.append(ideal_membership(p, gens, strategy=strategy(), trace=trace))
    # A limit below the step count raises at the same step.
    steps = out[1]
    for limit in {0, steps // 2, steps - 1} & set(range(steps)):
        budget = StepBudget(limit)
        with pytest.raises(StepLimitExceeded):
            normal_form_with_cofactors(p, basis, strategy(), budget)
        out.append(budget.used)
        with pytest.raises(StepLimitExceeded):
            ideal_membership(p, gens, strategy=strategy(), max_steps=limit, trace=trace)
    return out


def test_a_completed_basis_is_a_tuple_that_carries_one_index():
    R, gens, trace = query_ideal(Rationals, cyclic)
    basis = trace.basis
    plain = tuple(basis)
    assert type(basis) is _Basis and type(plain) is tuple
    assert basis == plain and plain == basis and hash(basis) == hash(plain) and repr(basis) == repr(plain)
    assert basis._index is None  # built at the first reduction, not by ``complete``
    p = random_query(random.Random(1), R, 20, 8)
    normal_form(p, list(basis))
    assert basis._index is None
    normal_form(p, basis)
    index = basis._index
    assert type(index) is _Reducers and index.tails is None and len(index.heads) == len(basis)
    for ask in (
        lambda: normal_form(p, basis),
        lambda: normal_form_with_cofactors(p, basis),
        lambda: reduces_to_zero(p, basis),
        lambda: list(iter_reduction_steps(p, basis)),
        lambda: ideal_membership(p, gens, trace=trace),
    ):
        ask()
        assert basis._index is index
    # Its memo holds the keys of divisors of the heads' lcm only.
    assert index.memo and all(R.order.key_gcd(k, index.lcm) == k for k in index.memo)
    # Slices and sums are plain tuples.
    assert type(basis[1:]) is tuple and type(basis + ()) is tuple


def test_queries_against_the_shared_index_answer_as_a_plain_list_does():
    # Queries of all ideals interleave, so each basis's memo is warm from
    # earlier queries by the time most of them run.
    rng = random.Random(20261020)
    asks = []
    for index, entry in enumerate(corpus()):
        for k in range(2):
            seed = index if k and index % 3 == 0 else None
            asks.append((entry.generators, entry.trace, random_poly(rng, entry.poly_ring), seed))
    for name, make_coeffs, family in QUERY_IDEALS:
        R, gens, trace = query_ideal(make_coeffs, family)
        for k in range(6):
            p = random_query(rng, R, 20, 6) if k % 2 else random_member(rng, R, gens, 3)
            asks.append((gens, trace, p, None))
    rng.shuffle(asks)
    members = []
    for gens, trace, p, seed in asks + asks:
        shared = answers(p, gens, trace, trace.basis, seed)
        assert shared == answers(p, gens, trace, list(trace.basis), seed)
        members.append(shared[6].is_member)
    assert any(members) and not all(members)


def test_a_query_from_an_equal_ring_object_is_answered():
    R, gens, trace = query_ideal(Rationals, katsura)
    twin = PolyRing(Rationals(), ["a", "b", "c", "d"], "deglex")
    assert twin == R and twin is not R
    rng = random.Random(3)
    for p in (random_query(rng, R, 20, 8), random_member(rng, R, gens, 4)):
        q = twin.from_monomials(p.monomials)
        for basis in (trace.basis, list(trace.basis)):
            remainder = normal_form(q, basis)
            assert remainder == normal_form(p, list(trace.basis)) and remainder.ring is twin
            assert normal_form_with_cofactors(q, basis) == normal_form_with_cofactors(p, list(trace.basis))
            assert reduces_to_zero(q, basis) == reduces_to_zero(p, basis)
            assert list(iter_reduction_steps(q, basis)) == list(iter_reduction_steps(p, basis))
        assert ideal_membership(q, gens, trace=trace) == ideal_membership(p, gens, trace=trace)


def test_a_query_from_another_ring_is_rejected():
    R, gens, trace = query_ideal(Rationals, cyclic)
    other = PolyRing(PrimeField(32003), ["a", "b", "c", "d"], "deglex")
    p = random_query(random.Random(4), other, 10, 4)
    normal_form(R.gens()[0], trace.basis)  # the index is built
    for basis in (trace.basis, list(trace.basis)):
        for ask in (normal_form, normal_form_with_cofactors, reduces_to_zero, iter_reduction_steps):
            with pytest.raises(ValueError, match="basis polynomial from a different ring"):
                ask(p, basis)
    with pytest.raises(ValueError, match="query polynomial from a different ring"):
        ideal_membership(p, gens, trace=trace)


@pytest.mark.parametrize("make_coeffs", [Rationals, lambda: PrimeField(32003)], ids=["qq", "gf32003"])
def test_a_queried_trace_pickles_and_copies_without_its_index(make_coeffs):
    R, gens, trace = query_ideal(make_coeffs, katsura)
    rng = random.Random(5)
    member, other = random_member(rng, R, gens, 4), random_query(rng, R, 20, 8)
    expected = [ideal_membership(p, gens, trace=trace) for p in (member, other)]
    assert expected[0].is_member and not expected[1].is_member
    assert trace.basis._index is not None
    for twin in (pickle.loads(pickle.dumps(trace)), copy.deepcopy(trace)):
        assert twin == trace and type(twin.basis) is _Basis and twin.basis._index is None
        assert [ideal_membership(p, twin.generators, trace=twin) for p in (member, other)] == expected
        assert twin.certificates == trace.certificates
    for twin in (copy.copy(trace.basis), copy.deepcopy(trace.basis)):
        assert twin == trace.basis and type(twin) is _Basis and twin._index is None


def test_threads_sharing_one_fresh_index_answer_as_a_lone_reader():
    """More threads than cores build and read one trace's index at once, under a short switch interval.

    They ask the same queries in the same order, so that they meet each
    memo key at about the same time: a memo list stored before it is
    complete fails this within a few rounds.
    """
    R = PolyRing(Rationals(), ["a", "b", "c", "d"], "deglex")
    gens = cyclic(R)
    rng = random.Random(6)
    queries = [random_query(rng, R, 20, 7) for _ in range(4)] + [random_member(rng, R, gens, 3) for _ in range(4)]
    reference = complete(gens)
    expected = [(normal_form(p, list(reference.basis)), ideal_membership(p, gens, trace=reference)) for p in queries]
    assert any(member.is_member for _, member in expected)
    count = (os.cpu_count() or 1) + 2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            shared, results, start = complete(gens), [], threading.Barrier(count)

            def read():
                start.wait(timeout=60)
                got = [(normal_form(p, shared.basis), ideal_membership(p, gens, trace=shared)) for p in queries]
                results.append(got)

            threads = [threading.Thread(target=read) for _ in range(count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            assert len(results) == count and all(result == expected for result in results)
            index = shared.basis._index
            assert len(index.heads) == len(shared.basis)
            assert all(R.order.key_gcd(k, index.lcm) == k for k in index.memo)
    finally:
        sys.setswitchinterval(interval)
