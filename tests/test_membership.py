"""Membership certificates come straight from the reduction's step records.

``ideal_membership`` reduces the query once and, for a zero remainder,
expands the step records through the completion's certificates.  The
reference is the longer route: sum the steps into one cofactor per
basis element with ``normal_form_with_cofactors``, then combine those
cofactors with the certificate rows.  Both must agree exactly, under
the default strategy and under seeded ones.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ringgb import (
    PolyRing,
    SeededRandomStrategy,
    StepBudget,
    StepLimitExceeded,
    complete,
    ideal_membership,
    normal_form,
    normal_form_with_cofactors,
    parse_polynomial,
    ring_from_string,
)

import naive_poly as naive
from corpus import corpus, random_poly


def sum_of_products(ring, left, right):
    total = ring.zero()
    for a, b in zip(left, right):
        total = total + a * b
    return total


@pytest.mark.parametrize("seeded", [False, True], ids=["default", "seeded"])
def test_membership_agrees_with_summed_cofactors_on_the_corpus(seeded):
    rng = random.Random(20261018)
    members = non_members = 0
    for index, entry in enumerate(corpus()):
        ring, trace = entry.poly_ring, entry.trace

        def strategy():
            # A fresh strategy per call, so both routes draw the same steps.
            return SeededRandomStrategy(index) if seeded else None

        member = sum_of_products(ring, [random_poly(rng, ring) for _ in entry.generators], entry.generators)
        for p in (member, random_poly(rng, ring)):
            result = ideal_membership(p, entry.generators, strategy=strategy(), trace=trace)
            if result.is_member:
                members += 1
                remainder, cofactors = normal_form_with_cofactors(p, trace.basis, strategy())
                assert not remainder and not result.remainder
                for g in range(len(entry.generators)):
                    column = [row[g] for row in trace.certificates]
                    assert result.certificate[g] == sum_of_products(ring, cofactors, column)
            else:
                non_members += 1
                assert result.certificate is None
                assert result.remainder == normal_form(p, trace.basis, strategy())
    assert members >= len(corpus()) and non_members > 0


IDEALS = {
    "cyclic-3": ("x + y + z", "x*y + y*z + z*x", "x*y*z - 1"),
    "katsura-3": ("x + 2*y + 2*z - 1", "x^2 + 2*y^2 + 2*z^2 - x", "2*x*y + 2*y*z - y"),
}
_completed = {}


def completed(ring_name, family):
    """(generators, trace) of one fixed ideal, completed once per session."""
    key = ring_name, family
    if key not in _completed:
        ring = PolyRing(ring_from_string(ring_name), ["x", "y", "z"], "deglex")
        gens = [parse_polynomial(text, ring) for text in IDEALS[family]]
        _completed[key] = gens, complete(gens)
    return _completed[key]


big = st.integers(-(2**90), 2**90)
COEFFICIENTS = {
    "zz": big,
    "gf(32003)": big,
    "qq": big | st.builds(Fraction, big, st.integers(1, 2**90)),
}


@pytest.mark.parametrize("ring_name", sorted(COEFFICIENTS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_membership_certificates_expand_to_the_query(ring_name, data):
    family = data.draw(st.sampled_from(sorted(IDEALS)))
    gens, trace = completed(ring_name, family)
    ring = gens[0].ring
    monomial = st.tuples(COEFFICIENTS[ring_name], st.tuples(*[st.integers(0, 2)] * 3))
    cofactors = [ring.from_monomials(data.draw(st.lists(monomial, max_size=3))) for _ in gens]
    query = naive.combination(ring.coeff_ring, cofactors, gens)
    p = ring.from_monomials((c, t) for t, c in query.items())
    result = ideal_membership(p, gens, trace=trace)
    assert result.is_member
    assert naive.combination(ring.coeff_ring, result.certificate, gens) == query


@pytest.mark.parametrize("ring_name", ["qq", "gf(32003)", "zz"])
@pytest.mark.parametrize("with_trace", [False, True], ids=["completed", "traced"])
def test_membership_reduces_the_query_within_max_steps(ring_name, with_trace):
    ring = PolyRing(ring_from_string(ring_name), ["x", "y"])
    x, y = ring.gens()
    gens = [x - y]
    trace = complete(gens) if with_trace else None
    # x^20 - y^20 takes 20 steps; x^20000000 would take 20,000,000.
    budget = StepBudget()
    assert not normal_form(x**20 - y**20, gens, budget=budget)
    assert budget.used == 20
    assert ideal_membership(x**20 - y**20, gens, max_steps=20, trace=trace).is_member
    with pytest.raises(StepLimitExceeded, match="limit of 19 reduction steps"):
        ideal_membership(x**20 - y**20, gens, max_steps=19, trace=trace)
    with pytest.raises(StepLimitExceeded, match="limit of 1000 reduction steps"):
        ideal_membership(x**20_000_000, gens, max_steps=1000, trace=trace)
