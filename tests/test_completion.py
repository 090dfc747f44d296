import random

import pytest

from ringgb.completion import (
    complete,
    groebner_basis,
    ideal_membership,
    interreduce,
    is_groebner_basis,
)
from ringgb.poly import PolyRing
from ringgb.reduction import SeededRandomStrategy, StepLimitExceeded, reduces_to_zero
from ringgb.rings import Integers, PrimeField, Rationals
from ringgb.terms import TermOrder

import naive_poly as naive
from corpus import corpus
from families import katsura

QQ_XY = PolyRing(Rationals(), ["x", "y"])
ZZ_XY = PolyRing(Integers(), ["x", "y"])
GF5_XY = PolyRing(PrimeField(5), ["x", "y"])
YX = TermOrder("deglex", precedence=(1, 0))
# Certificates are sums of heap-keyed multiples, whose key layout depends on the order.
CERTIFICATE_RINGS = (
    QQ_XY,
    ZZ_XY,
    GF5_XY,
    PolyRing(Rationals(), ["x", "y"], "deglex"),
    PolyRing(Integers(), ["x", "y"], "deglex"),
    PolyRing(PrimeField(5), ["x", "y"], YX),
    PolyRing(Integers(), ["x", "y"], YX),
)


def random_poly(rng, ring, max_exp=2, bound=3):
    return ring.from_monomials(
        (rng.randint(-bound, bound), (rng.randint(0, max_exp), rng.randint(0, max_exp)))
        for _ in range(4)
    )


def random_generators(rng, ring):
    gens = []
    while not gens:
        gens = [p for p in (random_poly(rng, ring) for _ in range(rng.randint(1, 3))) if p]
    return gens


def expand_certificate(trace, index):
    """sum(certificate[g] * generator[g]) by the naive reference, as a dict."""
    ring = trace.basis[index].ring.coeff_ring
    return naive.combination(ring, trace.certificates[index], trace.generators)


def test_complete_field_textbook_ideal():
    x, y = QQ_XY.gens()
    trace = complete([x**2 - y, x * y - 1])
    assert x - y**2 in trace.basis
    assert y**3 - 1 in trace.basis
    for gen in trace.generators:
        assert reduces_to_zero(gen, trace.basis)
    assert interreduce(trace.basis) == [x - y**2, y**3 - 1]


def test_complete_int_monomials_needs_gcd_polynomial():
    x, y = ZZ_XY.gens()
    trace = complete([2 * x, 3 * y])
    assert set(trace.basis) == {2 * x, 3 * y, x * y}
    assert trace.added == (x * y,)


def test_complete_int_common_factor():
    x, _ = ZZ_XY.gens()
    trace = complete([4 * x, 6 * x])
    assert set(trace.basis) == {4 * x, 6 * x, 2 * x}
    assert interreduce(trace.basis) == [2 * x]


def test_complete_singleton_and_degenerate_inputs():
    x, y = QQ_XY.gens()
    p = x**2 - y
    trace = complete([p])
    assert trace.basis == (p,)
    assert trace.pairs_processed == 0
    assert complete([QQ_XY.zero()]).basis == ()
    assert complete([]).basis == ()


def test_complete_rejects_mixed_rings():
    with pytest.raises(ValueError):
        complete([QQ_XY.one(), ZZ_XY.one()])


def test_completion_certificates_expand_exactly():
    rng = random.Random(51)
    for ring in CERTIFICATE_RINGS:
        for _ in range(10):
            trace = complete(random_generators(rng, ring))
            for index in range(len(trace.basis)):
                assert expand_certificate(trace, index) == naive.as_dict(trace.basis[index])


def test_generators_reduce_to_zero_by_final_basis():
    rng = random.Random(52)
    for ring in (QQ_XY, ZZ_XY, GF5_XY):
        for _ in range(10):
            gens = random_generators(rng, ring)
            trace = complete(gens)
            for gen in gens:
                assert reduces_to_zero(gen, trace.basis)


def test_completion_is_idempotent():
    rng = random.Random(53)
    for ring in (QQ_XY, ZZ_XY, GF5_XY):
        for _ in range(5):
            trace = complete(random_generators(rng, ring))
            again = complete(trace.basis)
            assert again.added == ()
            assert again.basis == trace.basis


def test_step_ceiling_is_a_distinct_failure():
    x, y = QQ_XY.gens()
    with pytest.raises(StepLimitExceeded):
        complete([x**2 - y, x * y - 1], max_steps=1)


def test_step_ceiling_counts_queued_pairs():
    # No pair polynomial of this ideal needs a reduction step, yet the
    # queue grows with every added binomial.
    x, y = QQ_XY.gens()
    with pytest.raises(StepLimitExceeded):
        complete([x**100_000 * y - 1, y**100_000 * x - 1], max_steps=1000)


def test_interreduce_examples():
    x, y = QQ_XY.gens()
    assert interreduce([x**2 - y, x * y - 1, x - y**2, y**3 - 1]) == [
        x - y**2,
        y**3 - 1,
    ]
    assert interreduce([2 * x]) == [x]
    zx, _ = ZZ_XY.gens()
    assert interreduce([-2 * zx]) == [2 * zx]
    assert interreduce([]) == []
    assert interreduce([QQ_XY.zero()]) == []
    assert interreduce([x, x]) == [x]


def test_interreduce_stores_each_term_key_once():
    ring = PolyRing(Rationals(), [f"u{i}" for i in range(5)], "deglex")
    reduced = interreduce(complete(katsura(ring)).basis)
    keys = [k for p in reduced for _, k in p.keyed_monomials()]
    assert (len(keys), len(set(keys))) == (216, 32)
    # One tuple object per distinct term, shared across the elements.
    assert len({id(k) for k in keys}) == 32


def test_interreduce_is_idempotent_and_certified():
    rng = random.Random(54)
    for ring in (QQ_XY, ZZ_XY, GF5_XY):
        for _ in range(8):
            reduced = interreduce(complete(random_generators(rng, ring)).basis)
            assert interreduce(reduced) == reduced
            assert is_groebner_basis(reduced)
            one = ring.coeff_ring.one()
            for p in reduced:
                # canonical heads: monic over fields, positive over zz
                assert ring.coeff_ring.canonical_unit(p.head_coeff) == one


def test_is_groebner_basis_examples():
    x, y = QQ_XY.gens()
    assert is_groebner_basis([x - y**2, y**3 - 1])
    assert not is_groebner_basis([x**2 - y, x * y - 1])
    assert is_groebner_basis([x**2 - y])
    assert is_groebner_basis([])


def test_is_groebner_basis_rejects_mixed_rings():
    x = QQ_XY.gens()[0]
    zx = ZZ_XY.gens()[0]
    with pytest.raises(ValueError, match="different ring"):
        is_groebner_basis([x, zx])


def test_membership_examples():
    x = PolyRing(Rationals(), ["x"]).gens()[0]
    result = ideal_membership(x**3 - 1, [x - 1])
    assert result.is_member
    assert not result.remainder

    zx, zy = ZZ_XY.gens()
    result = ideal_membership(zx + zy, [2 * zx, 3 * zy])
    assert not result.is_member
    assert result.certificate is None
    assert result.remainder == zx + zy

    result = ideal_membership(6 * zx * zy, [2 * zx, 3 * zy])
    assert result.is_member


def test_membership_certificates_expand_to_the_query():
    rng = random.Random(55)
    for ring in CERTIFICATE_RINGS:
        cr = ring.coeff_ring
        for _ in range(10):
            gens = random_generators(rng, ring)
            trace = complete(gens)
            # build a guaranteed member out of random cofactors
            expected = naive.combination(cr, [random_poly(rng, ring) for _ in gens], gens)
            member = ring.from_monomials((c, t) for t, c in expected.items())
            result = ideal_membership(member, gens, trace=trace)
            assert result.is_member
            assert naive.combination(cr, result.certificate, gens) == expected


def test_membership_rejects_a_trace_of_other_generators():
    zx, zy = ZZ_XY.gens()
    trace = complete([2 * zx, 3 * zy])
    # x is in <x>, but not in the ideal the trace was completed from.
    with pytest.raises(ValueError, match="different generators"):
        ideal_membership(zx, [zx], trace=trace)
    # A third generator would have no entry in the trace's certificates.
    with pytest.raises(ValueError, match="different generators"):
        ideal_membership(6 * zx * zy, [2 * zx, 3 * zy, zx + zy], trace=trace)
    assert ideal_membership(6 * zx * zy, (2 * zx, 3 * zy), trace=trace).is_member


def test_membership_rejects_a_query_from_another_ring():
    x = QQ_XY.gens()[0]
    zx = ZZ_XY.gens()[0]
    for generators in ([ZZ_XY.zero()], [zx]):
        with pytest.raises(ValueError, match="different ring"):
            ideal_membership(x, generators)


def test_zz_corpus_completion_totals():
    zz = [entry.trace for entry in corpus() if entry.ring_name == "zz"]
    assert sum(t.iterations for t in zz) == 23_246
    assert sum(len(t.added) for t in zz) == 943
    assert sum(t.reduction_steps for t in zz) == 174_847


@pytest.mark.parametrize(
    "ring_name, totals", [("gf(5)", (303, 210, 579)), ("qq", (272, 187, 671))], ids=["gf(5)", "qq"]
)
def test_field_corpus_completion_totals(ring_name, totals):
    traces = [entry.trace for entry in corpus() if entry.ring_name == ring_name]
    iterations = sum(t.iterations for t in traces)
    added = sum(len(t.added) for t in traces)
    steps = sum(t.reduction_steps for t in traces)
    assert (iterations, added, steps) == totals


def test_membership_of_empty_ideal():
    x, _ = QQ_XY.gens()
    result = ideal_membership(x, [])
    assert not result.is_member and result.remainder == x
    result = ideal_membership(QQ_XY.zero(), [QQ_XY.zero()])
    assert result.is_member
    assert result.certificate == (QQ_XY.zero(),)


def test_groebner_basis_convenience_matches_pipeline():
    x, y = QQ_XY.gens()
    gens = [x**2 - y, x * y - 1]
    assert groebner_basis(gens) == interreduce(complete(gens).basis)


def test_seeded_strategy_completion_still_certifies():
    rng = random.Random(56)
    for ring in (QQ_XY, ZZ_XY, GF5_XY):
        gens = random_generators(rng, ring)
        trace = complete(gens, strategy=SeededRandomStrategy(3))
        assert is_groebner_basis(trace.basis)
        assert interreduce(trace.basis) == interreduce(complete(gens).basis)


def test_deglex_session_certifies_too():
    ring = PolyRing(Rationals(), ["x", "y"], "deglex")
    x, y = ring.gens()
    trace = complete([x**2 - y, x * y - 1])
    assert is_groebner_basis(trace.basis)
    for gen in trace.generators:
        assert reduces_to_zero(gen, trace.basis)
