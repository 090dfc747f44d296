"""Buchberger's pair criteria change the work of a completion over a field, never its answers.

Over ``gf(p)`` and ``qq``, ``complete`` queues no gcd records and skips
syzygy records by the product and the chain criterion.  On the field
ideals of the acceptance corpus and on cyclic and katsura ideals, the
completed basis still passes ``is_groebner_basis`` (which checks every
gcd and syzygy pair, with no criterion), every certificate expands
exactly under the naive arithmetic of ``naive_poly``, and the
interreduced basis equals that of the classical Buchberger oracle,
which applies no criterion either.  Over ``zz`` nothing is skipped.
"""

import pytest

from ringgb import PolyRing, PrimeField, Rationals, complete, interreduce, is_groebner_basis

import naive_poly as naive
from corpus import corpus
from families import cyclic, katsura
from field_buchberger import field_groebner

QQ = Rationals()
GF = PrimeField(32003)


def deglex_ideal(family, coeff_ring, n):
    return family(PolyRing(coeff_ring, [f"x{i}" for i in range(n)], "deglex"))


def assert_same_answers(trace):
    assert is_groebner_basis(trace.basis)
    coeff_ring = trace.generators[0].ring.coeff_ring
    for element, row in zip(trace.basis, trace.certificates):
        assert naive.combination(coeff_ring, row, trace.generators) == naive.as_dict(element)
    assert interreduce(trace.basis) == field_groebner(trace.generators)


def assert_work_adds_up(trace):
    # Over a field each record is a syzygy record with one pair
    # polynomial, unless a criterion skips it.
    product, chain = trace.pairs_skipped
    assert trace.iterations == trace.pairs_processed - product - chain


def test_field_corpus_answers_are_unchanged():
    entries = [e for e in corpus() if e.ring_name != "zz"]
    assert len(entries) == 200
    for entry in entries:
        assert_same_answers(entry.trace)
        assert_work_adds_up(entry.trace)


@pytest.mark.parametrize(
    "family, coeff_ring, n",
    [
        (cyclic, QQ, 4),
        (cyclic, GF, 4),
        (katsura, QQ, 4),
        (katsura, GF, 4),
        (katsura, QQ, 5),
        (cyclic, GF, 5),
    ],
    ids=lambda v: v.__name__ if callable(v) else str(v),
)
def test_classical_ideals_answers_are_unchanged(family, coeff_ring, n):
    trace = complete(deglex_ideal(family, coeff_ring, n))
    assert trace.pairs_skipped[1] > 0
    assert_work_adds_up(trace)
    assert_same_answers(trace)


def test_cyclic5_work_over_a_prime_field():
    trace = complete(deglex_ideal(cyclic, GF, 5))
    assert (trace.iterations, len(trace.added), trace.reduction_steps) == (144, 53, 2_102)
    assert trace.pairs_skipped == (199, 1_310)
    assert trace.pairs_processed == 1_653


def test_integers_skip_nothing():
    traces = [e.trace for e in corpus() if e.ring_name == "zz"]
    assert all(t.pairs_skipped == (0, 0) for t in traces)
