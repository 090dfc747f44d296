"""Property test: the reduction loop takes the reference loop's steps.

Random small polynomials and bases over gf(7), qq and zz are reduced
under a seeded random strategy and under a subclass of the default
rule, by the library and by ``rescan_reduction``; remainders, cofactors
and step counts must agree.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ringgb import Integers, PolyRing, PrimeField, Rationals  # noqa: E402
from ringgb.reduction import (  # noqa: E402
    FirstReducibleStrategy,
    SeededRandomStrategy,
    StepBudget,
    normal_form_with_cofactors,
)

import rescan_reduction  # noqa: E402

RINGS = [
    PolyRing(PrimeField(7), ["x", "y"], "lex"),
    PolyRing(Rationals(), ["x", "y"], "deglex"),
    PolyRing(Integers(), ["x", "y"], "lex"),
    PolyRing(Integers(), ["x", "y", "z"], "deglex"),
]


class FirstReducibleSubclass(FirstReducibleStrategy):
    """The default rule, asked through ``select``."""


@st.composite
def polynomials(draw, R):
    exponent = st.integers(0, 3)
    coefficient = st.integers(-9, 9)
    if isinstance(R.coeff_ring, Rationals):
        coefficient = st.builds(Fraction, coefficient, st.integers(1, 4))
    monomial = st.tuples(coefficient, st.tuples(*[exponent] * R.nvars))
    return R.from_monomials(draw(st.lists(monomial, max_size=6)))


@st.composite
def problems(draw):
    R = draw(st.sampled_from(RINGS))
    basis = draw(st.lists(polynomials(R).filter(bool), min_size=1, max_size=3))
    return draw(polynomials(R)), basis


@settings(max_examples=300, deadline=None)
@given(problems(), st.integers(0, 2**32), st.booleans())
def test_library_matches_the_rescan_reference(problem, seed, seeded):
    p, basis = problem

    def strategy():
        return SeededRandomStrategy(seed) if seeded else FirstReducibleSubclass()

    budget, reference_budget = StepBudget(), StepBudget()
    remainder, cofactors = normal_form_with_cofactors(p, basis, strategy(), budget)
    reference = rescan_reduction.normal_form_with_cofactors(
        p, basis, strategy(), reference_budget
    )
    assert (remainder, cofactors) == reference
    assert budget.used == reference_budget.used
