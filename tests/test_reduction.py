import random

import pytest

import ringgb
from ringgb.poly import PolyRing
from ringgb.reduction import (
    FirstReducibleStrategy,
    SeededRandomStrategy,
    StepBudget,
    StepLimitExceeded,
    iter_reduction_steps,
    normal_form,
    normal_form_with_cofactors,
    reduces_to_zero,
)
from ringgb.rings import Integers, PrimeField, Rationals
from ringgb.completion import complete

import naive_poly as naive
import rescan_reduction as rescan

QQ_X = PolyRing(Rationals(), ["x"])
QQ_XY = PolyRing(Rationals(), ["x", "y"])
ZZ_XY = PolyRing(Integers(), ["x", "y"])
GF5_XY = PolyRing(PrimeField(5), ["x", "y"])


def random_poly(rng, ring, max_terms=5, max_exp=3, bound=4):
    return ring.from_monomials(
        (rng.randint(-bound, bound), (rng.randint(0, max_exp), rng.randint(0, max_exp)))
        for _ in range(rng.randint(0, max_terms))
    )


def random_basis(rng, ring, max_size=3):
    basis = []
    while len(basis) < rng.randint(1, max_size):
        p = random_poly(rng, ring)
        if p:
            basis.append(p)
    return basis


def first_step(p, basis):
    """The default strategy's step, or None when p is in normal form."""
    return next(iter_reduction_steps(p, basis), None)


def apply_step(p, step, basis):
    """p after ``step``, as the rescan reference loop applies it."""
    return p - basis[step.reducer].mul_monomial(step.coefficient, step.cofactor_term)


def test_find_reduction_head_example():
    x = QQ_X.gens()[0]
    step = first_step(x**2, [x - 1])
    assert step.reducer == 0
    assert step.term == (2,)
    assert step.cofactor_term == (1,)
    assert step.coefficient == 1
    assert step.remainder == 0


def test_find_reduction_respects_coefficient_domain():
    x, y = ZZ_XY.gens()
    # coefficient 1 is not reducible by 2 under symmetric remainders
    assert first_step(x * y, [2 * x]) is None


def test_find_reduction_zero_polynomial():
    assert first_step(QQ_X.zero(), [QQ_X.gens()[0]]) is None


def test_apply_step_examples():
    x = QQ_X.gens()[0]
    p = x**2
    step = first_step(p, [x - 1])
    assert apply_step(p, step, [x - 1]) == x

    zx = ZZ_XY.gens()[0]
    p = 7 * zx
    step = first_step(p, [3 * zx])
    assert step.coefficient == 2
    assert apply_step(p, step, [3 * zx]) == zx

    p = 4 * zx
    step = first_step(p, [2 * zx])
    assert not apply_step(p, step, [2 * zx])


def test_normal_form_examples():
    x = QQ_X.gens()[0]
    assert normal_form(x**2, [x - 1]) == QQ_X.one()

    x, y = QQ_XY.gens()
    basis = [x - y**2, y**3 - 1]
    assert not normal_form(x - y**2, basis)

    zx, zy = ZZ_XY.gens()
    p = zx * zy + zy
    assert normal_form(p, [2 * zx, 3 * zy]) == p


def test_reduces_to_zero_examples():
    x = QQ_X.gens()[0]
    assert reduces_to_zero((x - 1) * (x + 1), [x - 1])
    assert not reduces_to_zero(x, [x - 1])  # normal form is 1
    assert reduces_to_zero(QQ_X.zero(), [])


def test_normal_form_is_irreducible_and_sound():
    rng = random.Random(31)
    for ring in (QQ_XY, ZZ_XY, GF5_XY):
        for _ in range(100):
            p = random_poly(rng, ring)
            basis = random_basis(rng, ring)
            result, cofactors = normal_form_with_cofactors(p, basis)
            assert first_step(result, basis) is None
            recombined = result
            for cof, b in zip(cofactors, basis):
                recombined = recombined + cof * b
            assert recombined == p


@pytest.mark.parametrize("strategy", [None, SeededRandomStrategy(8)], ids=["kernel", "generic"])
def test_cofactors_cover_every_basis_element(strategy):
    zx, zy = ZZ_XY.gens()
    # Only 2*x reduces anything: y + 5 and x^3 take no step.
    basis = [zy + 5, 2 * zx, zx**3]
    result, cofactors = normal_form_with_cofactors(4 * zx**2 + 3 * zx, basis, strategy)
    assert result == zx
    assert cofactors == [ZZ_XY.zero(), 2 * zx + 1, ZZ_XY.zero()]
    result, cofactors = normal_form_with_cofactors(ZZ_XY.one(), basis, strategy)
    assert result == ZZ_XY.one()
    assert cofactors == [ZZ_XY.zero()] * 3


def test_steps_are_sound_one_by_one():
    rng = random.Random(32)
    for _ in range(100):
        ring = rng.choice([QQ_XY, ZZ_XY, GF5_XY])
        p = random_poly(rng, ring)
        basis = random_basis(rng, ring)
        step = first_step(p, basis)
        if step is None:
            continue
        q = apply_step(p, step, basis)
        difference = p - q
        b = basis[step.reducer]
        assert difference == b.mul_monomial(step.coefficient, step.cofactor_term)
        assert dict((t, c) for c, t in q.monomials).get(step.term, 0) == step.remainder


def test_termination_budget_never_trips_at_desk_scale():
    rng = random.Random(33)
    for _ in range(150):
        ring = rng.choice([QQ_XY, ZZ_XY, GF5_XY])
        budget = StepBudget(10_000)
        normal_form(random_poly(rng, ring), random_basis(rng, ring), budget=budget)
        assert budget.used <= 10_000


def test_step_budget_trips_as_distinct_failure():
    x = QQ_X.gens()[0]
    with pytest.raises(StepLimitExceeded):
        normal_form(x**5, [x - 1], budget=StepBudget(2))


def test_rejects_zero_or_foreign_basis_entries():
    x = QQ_X.gens()[0]
    with pytest.raises(ValueError, match="nonzero"):
        normal_form(x, [QQ_X.zero()])
    with pytest.raises(ValueError, match="different ring"):
        normal_form(x, [ZZ_XY.gens()[0]])


def test_iter_reduction_steps_rejects_zero_or_foreign_basis_entries():
    # Checked at the call, as normal_form checks them, not at the first step.
    x = QQ_X.gens()[0]
    with pytest.raises(ValueError, match="nonzero"):
        iter_reduction_steps(x, [QQ_X.zero()])
    with pytest.raises(ValueError, match="different ring"):
        iter_reduction_steps(ZZ_XY.gens()[0], [QQ_XY.gens()[0]])


def test_iter_reduction_steps_is_exported():
    assert ringgb.iter_reduction_steps is ringgb.reduction.iter_reduction_steps


def test_basis_may_be_a_one_shot_iterable():
    # The entry points read the basis once, so an iterator works as a list does.
    x = QQ_X.gens()[0]
    assert normal_form(x, iter([x - 1])) == 1
    assert reduces_to_zero(x - 1, iter([x - 1]))
    q, cofactors = normal_form_with_cofactors(x, iter([x - 1]))
    assert q == 1 and cofactors == [QQ_X.one()]
    steps = list(iter_reduction_steps(x, iter([x - 1])))
    assert [(s.reducer, s.term, s.cofactor_term) for s in steps] == [(0, (1,), (0,))]


def test_randomized_strategy_takes_valid_steps():
    rng = random.Random(34)
    for seed in range(20):
        ring = rng.choice([QQ_XY, ZZ_XY, GF5_XY])
        p = random_poly(rng, ring)
        basis = random_basis(rng, ring)
        strategy = SeededRandomStrategy(seed)
        step = strategy.select(iter_reduction_steps(p, basis))
        if step is not None:
            assert step in list(iter_reduction_steps(p, basis))
        result, cofactors = normal_form_with_cofactors(p, basis, strategy)
        assert first_step(result, basis) is None
        recombined = result
        for cof, b in zip(cofactors, basis):
            recombined = recombined + cof * b
        assert recombined == p


class StopsAtTheHead:
    """Takes steps at the head term only and selects None below it."""

    def __init__(self):
        self.selects = 0

    def select(self, candidates):
        self.selects += 1
        step = next(candidates)
        return step if step.term == (2, 0) else None


def test_strategy_selecting_no_step_is_an_error():
    x, _ = QQ_XY.gens()
    strategy = StopsAtTheHead()
    # x^2 + x reduces at x^2 by x - 1, then at x: a None there used to
    # end reduction early with the reducible "normal form" 2*x.
    with pytest.raises(ValueError, match="selected no step"):
        normal_form(x**2 + x, [x - 1], strategy)
    assert strategy.selects == 2
    # select is not called on an irreducible polynomial.
    assert normal_form(QQ_XY.one(), [x - 1], strategy) == QQ_XY.one()
    assert strategy.selects == 2


def test_default_strategy_takes_first_candidate():
    zx, zy = ZZ_XY.gens()
    p = 4 * zx * zy + 6 * zy
    basis = [2 * zx, 3 * zy]
    step = FirstReducibleStrategy().select(iter_reduction_steps(p, basis))
    assert (step.reducer, step.term) == (0, (1, 1))


def test_normal_forms_unique_on_strong_bases():
    # 200 random probes, default plus 20 seeded strategies, per ring
    rng = random.Random(35)
    ideals = {
        QQ_XY: None,
        GF5_XY: None,
        ZZ_XY: None,
    }
    for ring in ideals:
        x, y = ring.gens()
        ideals[ring] = complete([x**2 - y, x * y - 1]).basis
    for ring, basis in ideals.items():
        for _ in range(200):
            probe = random_poly(rng, ring)
            reference = normal_form(probe, basis)
            for seed in range(20):
                assert normal_form(probe, basis, SeededRandomStrategy(seed)) == reference


class LowestTermStrategy:
    """Takes the last candidate: the lowest term's last reducer."""

    def select(self, candidates):
        steps = list(candidates)
        return steps[-1] if steps else None


@pytest.mark.parametrize("coeff_ring", [Rationals(), Integers(), PrimeField(5)], ids=repr)
def test_repeated_steps_at_one_cofactor_term_add_or_cancel(coeff_ring):
    ring = PolyRing(coeff_ring, ["x"])
    (x,) = ring.gens()
    basis = [x - 1]
    # At x, then x^2, then x again: both unit-term steps have k = 1 for
    # x^2 + x, and k = -1 then 1 for x^2 - x.
    for p, remainder, cofactor in ((x**2 - x, 0, x), (x**2 + x, 2, x + 2)):
        got = normal_form_with_cofactors(p, basis, LowestTermStrategy())
        assert got == (ring.constant(remainder), [cofactor])
        assert got == rescan.normal_form_with_cofactors(p, basis, LowestTermStrategy())


@pytest.mark.parametrize("coeff_ring", [Rationals(), Integers(), PrimeField(5)], ids=repr)
def test_certificates_expand_exactly_under_repeated_steps(coeff_ring):
    ring = PolyRing(coeff_ring, ["x", "y"])
    x, y = ring.gens()
    # One pair polynomial here reduces to a nonzero remainder through two
    # steps by the same reducer at the same cofactor term.
    trace = complete([x**2 + x * y + y, x * y - x - 1], strategy=LowestTermStrategy())
    assert trace.added
    for element, row in zip(trace.basis, trace.certificates):
        assert naive.combination(coeff_ring, row, trace.generators) == naive.as_dict(element)
