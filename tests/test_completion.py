import random
import sys
import threading

import pytest

from ringgb import cli, completion, reduction
from ringgb.completion import (
    complete,
    groebner_basis,
    ideal_membership,
    interreduce,
    is_groebner_basis,
)
from ringgb.poly import PolyRing
from ringgb.reduction import SeededRandomStrategy, StepLimitExceeded, normal_form, reduces_to_zero
from ringgb.rings import Integers, PrimeField, Rationals

import naive_poly as naive
from corpus import corpus
from families import cyclic, katsura
from test_kernel_forms import ContractGF7, DefaultFormZZ

QQ_XY = PolyRing(Rationals(), ["x", "y"])
ZZ_XY = PolyRing(Integers(), ["x", "y"])
GF5_XY = PolyRing(PrimeField(5), ["x", "y"])
# Certificates are sums of heap-keyed multiples, whose key layout depends on the order.
CERTIFICATE_RINGS = (
    QQ_XY,
    ZZ_XY,
    GF5_XY,
    PolyRing(Rationals(), ["x", "y"], "deglex"),
    PolyRing(Integers(), ["x", "y"], "deglex"),
    PolyRing(PrimeField(5), ["y", "x"], "deglex"),
    PolyRing(Integers(), ["y", "x"], "deglex"),
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
    for empty in (complete([QQ_XY.zero()]), complete([]), complete([ZZ_XY.zero(), ZZ_XY.zero()])):
        assert empty.basis == ()
        assert empty.certificates == ()


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


def test_completion_sums_no_certificate_row_until_one_is_read(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a certificate row was summed")

    R = PolyRing(Rationals(), ["u0", "u1", "u2", "u3"], "deglex")
    gens = katsura(R)
    entry = next(e for e in corpus() if e.ring_name == "zz" and e.trace.added)
    argv = ["gb", "--ring", "zz", "--order", entry.poly_ring.order.kind, "--vars", "x,y"]
    with monkeypatch.context() as patch:
        patch.setattr(reduction, "_row_sum", refuse)
        patch.setattr(completion, "_row_sum", refuse)
        basis = groebner_basis(gens)
        trace = complete(gens)
        assert cli.main(argv + [str(g) for g in entry.generators]) == 0
    assert capsys.readouterr().out == "".join(f"{p}\n" for p in groebner_basis(entry.generators))
    assert basis == interreduce(trace.basis) and trace.added
    for index in range(len(trace.basis)):
        assert expand_certificate(trace, index) == naive.as_dict(trace.basis[index])


@pytest.mark.parametrize(
    "coeff_ring",
    [Rationals(), Integers(), PrimeField(5), DefaultFormZZ(), ContractGF7()],
    ids=lambda ring: ring.name,
)
def test_membership_does_not_depend_on_when_certificates_are_read(coeff_ring):
    rng = random.Random(56)
    for index in range(12):
        ring = PolyRing(coeff_ring, ["x", "y"], "lex" if index % 2 else "deglex")
        gens = random_generators(rng, ring)
        expected = naive.combination(coeff_ring, [random_poly(rng, ring) for _ in gens], gens)
        member = ring.from_monomials((c, t) for t, c in expected.items())
        fresh, read = complete(gens), complete(gens)
        assert read.certificates is read.certificates  # summed on the first read only
        first = ideal_membership(member, gens, trace=fresh)
        assert first == ideal_membership(member, gens, trace=read)
        assert first.is_member
        assert naive.combination(coeff_ring, first.certificate, gens) == expected
        assert fresh.certificates == read.certificates
        assert ideal_membership(member, gens, trace=fresh) == first
        # Certificates are derived data: they take no part in ==, hash or repr.
        assert fresh == read and hash(fresh) == hash(read) and "_rows" not in repr(fresh)


def test_threads_reading_one_fresh_trace_agree():
    """Threads that fill one trace's certificate rows at once all read the rows of a lone reader."""
    R = PolyRing(Rationals(), ["u0", "u1", "u2", "u3"], "deglex")
    gens = katsura(R)
    u = R.gens()
    members = [g * u[i] ** 2 - gens[0] * u[3 - i] for i, g in enumerate(gens)]
    reference = complete(gens)
    expected = [ideal_membership(m, gens, trace=reference) for m in members], reference.certificates
    count = 6
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(8):
            shared, results, start = complete(gens), [], threading.Barrier(count)

            def read(offset):
                start.wait(timeout=60)
                answers = {m: ideal_membership(m, gens, trace=shared) for m in members[offset:] + members[:offset]}
                results.append(([answers[m] for m in members], shared.certificates))

            threads = [threading.Thread(target=read, args=(n % len(members),)) for n in range(count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert len(results) == count and all(result == expected for result in results)
    finally:
        sys.setswitchinterval(interval)


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


@pytest.mark.parametrize(
    "coeff_ring, family, prefix",
    [(Integers(), katsura, "u"), (PrimeField(32003), cyclic, "x")],
    ids=["katsura4-zz", "cyclic4-gf32003"],
)
def test_step_limit_admits_exactly_the_steps_a_completion_takes(coeff_ring, family, prefix, monkeypatch):
    gens = family(PolyRing(coeff_ring, [f"{prefix}{i}" for i in range(4)], "deglex"))
    trace = complete(gens)
    # Each reduction step and each queued pair counts; every queued pair is popped.
    total = trace.reduction_steps + trace.pairs_processed
    budgets = []

    class RecordedBudget(reduction.StepBudget):
        def __init__(self, limit=None):
            super().__init__(limit)
            budgets.append(self)

    monkeypatch.setattr(completion, "StepBudget", RecordedBudget)
    assert complete(gens, max_steps=total) == trace
    assert (budgets[-1].limit, budgets[-1].used) == (total, total)
    with pytest.raises(StepLimitExceeded) as raised:
        complete(gens, max_steps=total - 1)
    assert str(raised.value) == f"exceeded the configured limit of {total - 1} reduction steps"
    assert (budgets[-1].limit, budgets[-1].used) == (total - 1, total)


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
    assert interreduce([6 * zx, 4 * zx, 2 * zx]) == [2 * zx]
    with pytest.raises(ValueError):
        interreduce([x, zx])


def fixed_point_interreduce(basis):
    """Reference interreduction: reduce each element by all the others, round after round, until none changes.

    Heads are made canonical (monic over fields, positive over zz) before
    and after each reduction, as the zz remainder window is asymmetric;
    the result is sorted descending by head term.
    """
    polys = [p for p in basis if p]
    if not polys:
        return []
    coeff_ring = polys[0].ring.coeff_ring

    def canonize(p):
        return p.scale(coeff_ring.canonical_unit(p.head_coeff))

    polys = [canonize(p) for p in polys]
    changed = True
    while changed:
        changed = False
        kept = []
        for i, p in enumerate(polys):
            others = kept + polys[i + 1 :]
            r = normal_form(p, others) if others else p
            if r:
                r = canonize(r)
                kept.append(r)
            if r != p:
                changed = True
        polys = kept
    return sorted(polys, key=lambda p: p.keyed_monomials()[0][1])


def test_interreduce_matches_the_fixed_point_loop_in_any_order():
    # katsura-4 over zz, whose remainder window is asymmetric, and
    # cyclic-5 over qq; and over zz a basis whose heads 6*x, 4*x, 2*x
    # share one term, in descending and ascending coefficient: 6 reduces
    # 4, and neither reduces 2.
    bases = [list(entry.trace.basis) for entry in corpus()]
    for coeff_ring, family, n in ((Integers(), katsura, 4), (Rationals(), cyclic, 5)):
        bases.append(list(complete(family(PolyRing(coeff_ring, [f"u{i}" for i in range(n)], "deglex"))).basis))
    x, _ = ZZ_XY.gens()
    bases += [list(complete([6 * x, 4 * x]).basis), [2 * x, 4 * x, 6 * x]]
    assert bases[-2] == [6 * x, 4 * x, 2 * x]
    rng = random.Random(57)
    for basis in bases:
        want = fixed_point_interreduce(basis)
        assert interreduce(basis) == want
        rng.shuffle(basis)
        assert interreduce(basis) == want


def test_interreduce_stores_each_term_key_once():
    ring = PolyRing(Rationals(), [f"u{i}" for i in range(5)], "deglex")
    reduced = interreduce(complete(katsura(ring)).basis)
    keys = [k for p in reduced for _, k in p.keyed_monomials()]
    assert (len(keys), len(set(keys))) == (216, 32)
    # One packed-int key object per distinct term, shared across the elements.
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
