"""The one reduction loop takes exactly the steps of the rescan loop.

``reduction._reduce`` pops the highest pending term and rewrites the
polynomial in place, under every strategy.  The default strategy takes
the first valid step of the popped term itself; any other strategy,
a subclass of ``FirstReducibleStrategy`` included, chooses among all
valid steps of the pending terms.  ``rescan_reduction`` is the
reference: it rebuilds the polynomial and rescans it from the head
after every step.  Every check below runs the library and the
reference under the same strategies and requires identical results and
identical step counts.
"""

import random
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from ringgb import Integers, PolyRing, PrimeField, Rationals, complete
from ringgb.pairs import combinations_for, records_of
from ringgb.reduction import (
    FirstReducibleStrategy,
    SeededRandomStrategy,
    StepBudget,
    StepLimitExceeded,
    _Reducers,
    normal_form,
    normal_form_with_cofactors,
    reduces_to_zero,
)
from ringgb.terms import DEGREE_BOUND, term_divides

import rescan_reduction
from corpus import corpus
from families import cyclic, katsura


class RescanFirstReducible(FirstReducibleStrategy):
    """The default selection rule, asked through ``select`` at every step."""

    def __init__(self):
        self.selects = 0

    def select(self, candidates):
        self.selects += 1
        return super().select(candidates)


def random_probe(rng, R, nterms, degree):
    monomials = []
    for _ in range(nterms):
        exps = [0] * R.nvars
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(R.nvars)] += 1
        monomials.append((rng.randint(-9, 9), tuple(exps)))
    return R.from_monomials(monomials)


def strategies(seed=None):
    """Makers of fresh strategies: the default path, the default rule asked
    through ``select``, and, given a seed, a seeded random choice."""
    makers = (lambda: None, RescanFirstReducible)
    return makers if seed is None else makers + (partial(SeededRandomStrategy, seed),)


def assert_same_reduction(p, basis, seed=None):
    rescan = RescanFirstReducible()
    reference = RescanFirstReducible()
    kernel_budget, rescan_budget, reference_budget = StepBudget(), StepBudget(), StepBudget()
    remainder = normal_form(p, basis, budget=kernel_budget)
    assert remainder == normal_form(p, basis, rescan, budget=rescan_budget)
    assert remainder == rescan_reduction.normal_form(p, basis, reference, reference_budget)
    assert kernel_budget.used == rescan_budget.used == reference_budget.used
    assert rescan.selects == rescan_budget.used  # the strategy chose every step
    assert reference.selects == reference_budget.used + 1  # the reference loop ran

    kernel_budget, rescan_budget = StepBudget(), StepBudget()
    kernel = normal_form_with_cofactors(p, basis, budget=kernel_budget)
    generic = normal_form_with_cofactors(p, basis, rescan, budget=rescan_budget)
    assert kernel[0] == generic[0] == remainder
    assert kernel[1] == generic[1]
    assert kernel_budget.used == rescan_budget.used
    for make in strategies(seed):
        budget, reference_budget = StepBudget(), StepBudget()
        assert normal_form_with_cofactors(p, basis, make(), budget) == (
            rescan_reduction.normal_form_with_cofactors(p, basis, make(), reference_budget)
        )
        assert budget.used == reference_budget.used
    assert reduces_to_zero(p, basis) == (not remainder)
    return kernel_budget.used


def test_kernel_matches_rescan_on_corpus_bases():
    rng = random.Random(2718)
    steps = 0
    for index, entry in enumerate(corpus()):
        if not entry.trace.basis:
            continue
        for k in range(4):
            probe = random_probe(rng, entry.poly_ring, rng.randint(1, 12), 5)
            # The rescan reference is slow under a seeded strategy: one probe in eight.
            seed = None if k or index % 2 else index // 2 % 10
            steps += assert_same_reduction(probe, entry.trace.basis, seed)
    assert steps > 1000


def test_divisor_memo_holds_the_current_basis_answer_and_append_empties_it():
    R = PolyRing(Rationals(), ["x", "y"], "deglex")
    x, y = R.gens()
    key = R.order.heap_key
    reducers = _Reducers([x**2 * y, y**2 - x])
    kept = _Reducers([x**2 * y, y**2 - x], keep_tails=True)
    # The heads' lcm is x^2*y^2, the gcd of x^3*y^2 and of x^2*y^3 with
    # it: the first lookup stores its list under the gcd's key alone, and
    # the second finds it there.  An index that keeps tails keys each
    # term by its own key.
    kt, ku, kg = key((3, 2)), key((2, 3)), key((2, 2))
    assert reducers.divisors(kt) == kept.divisors(kt) == [0, 1]
    assert reducers.memo == {kg: [0, 1]}
    assert kept.memo == {kt: [0, 1]}
    assert reducers.divisors(ku) is reducers.memo[kg]
    assert set(reducers.memo) == {kg}
    # The first new head does not divide x^3*y^2; the second does and
    # sorts below both older heads.  The lcm is now x^2*y^3.
    reducers.append(x * y**3 + 1)
    assert reducers.memo == {}
    reducers.append(x + y)
    assert reducers.memo == {}
    assert reducers.divisors(kt) == [0, 1, 3]
    assert reducers.memo == {kg: [0, 1, 3]}
    assert reducers.divisors(key((1, 0))) == [3]
    assert reducers.divisors(key((0, 0))) == []


# Exponents small enough to divide one another, as large as the CI's
# runaway binomials, and next to the bound.
exponents = (
    st.integers(0, 3)
    | st.sampled_from((99_999, 100_000))
    | st.integers(0, 10**5)
    | st.integers(DEGREE_BOUND - 4, DEGREE_BOUND - 1)
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda nvars: st.tuples(
            st.just(nvars),
            st.sampled_from(("lex", "deglex")),
            st.lists(st.tuples(st.booleans(), st.tuples(*[exponents] * nvars), st.integers(0, 40)), max_size=30),
        )
    )
)
# Under deglex the lcm of the two heads has a degree past the bound.
@example((2, "deglex", [
    (False, (1, 1), 0),
    (True, (DEGREE_BOUND - 1, 0), 0),
    (True, (0, DEGREE_BOUND - 1), 0),
    (False, (DEGREE_BOUND - 2, 1), 0),
    (False, (0, DEGREE_BOUND - 1), 0),
]))
@example((2, "lex", [
    (True, (DEGREE_BOUND - 1, 2), 0),
    (True, (1, DEGREE_BOUND - 1), 0),
    (False, (DEGREE_BOUND - 1, DEGREE_BOUND - 1), 0),
]))
def test_divisor_index_finds_the_heads_a_test_of_every_head_finds(run):
    # Appends interleave with lookups, from an empty index on; a lookup may
    # target a multiple of a head, and every term is looked up again at
    # the end, so terms are looked up again after the appends that emptied
    # the memo.  A public call's index holds each answer under the key of
    # the term's gcd with the heads' lcm alone; an index that keeps tails
    # holds it under the term's own key.  Terms past the bound are
    # skipped.
    nvars, kind, ops = run
    R = PolyRing(Rationals(), [f"x{i}" for i in range(nvars)], kind)
    reducers, kept, heads, seen = _Reducers((), R), _Reducers((), R, keep_tails=True), [], []

    def check(t):
        kt = R.order.heap_key(t)
        expected = [i for i, h in enumerate(heads) if term_divides(h, t)]
        assert reducers.divisors(kt) == kept.divisors(kt) == expected
        lcm = [max((h[v] for h in heads), default=0) for v in range(nvars)]
        kg = R.order.heap_key(tuple(map(min, t, lcm)))
        assert reducers.memo[kg] == kept.memo[kt] == expected
        assert (kt in reducers.memo) == (kt == kg)

    for is_head, t, pick in ops:
        if heads and not is_head and pick % 2:
            t = tuple(a + b % 4 for a, b in zip(heads[pick % len(heads)], t))
        try:
            R.order.heap_key(t)
        except ValueError:  # an exponent or, under deglex, the degree past the bound
            continue
        if is_head:
            reducers.append(R.monomial(1, t))
            kept.append(R.monomial(1, t))
            assert reducers.memo == kept.memo == {}
            heads.append(t)
            continue
        seen.append(t)
        check(t)
    for t in seen:
        check(t)


def test_divisor_index_does_not_grow_with_exponent_size():
    # Heads shaped like the CI's runaway binomials and their multiples: the
    # index holds the same number of thresholds per exponent slot, at most
    # one per head, whether the exponents are 10 or 100000.
    def index(order, e):
        R = PolyRing(Rationals(), ["x", "y"], order)
        x, y = R.gens()
        gens = [x**e * y - 1, y**e * x - 1]
        return _Reducers(gens + [g * x**i * y**j for g in gens for i in range(4) for j in range(4)])

    for order in ("lex", "deglex"):
        sizes = []
        for e in (10, 100_000):
            reducers = index(order, e)
            n = len(reducers.heads)
            assert len(reducers.values) == len(reducers.below) == 2  # no degree slot
            for values, below in zip(reducers.values, reducers.below):
                assert len(values) <= n
                assert len(below) == len(values) + 1
                assert all(0 <= mask < 1 << n for mask in below)
            sizes.append([len(values) for values in reducers.values])
        assert sizes[0] == sizes[1]


def _completed(R, family):
    return complete(family(R)).basis


def _abc(family):
    """``family`` in the variables a, b, c, in that order whatever the ring's order of them."""
    return lambda R: family(R, [R.variable(v) for v in "abc"])


# The deglex-precedence rings rank c above a above b.
IDEALS = [
    ("katsura4-zz", lambda: PolyRing(Integers(), ["a", "b", "c", "d"], "deglex"), katsura),
    ("cyclic4-qq", lambda: PolyRing(Rationals(), ["a", "b", "c", "d"], "deglex"), cyclic),
    (
        "katsura3-gf-deglex-precedence",
        lambda: PolyRing(PrimeField(32003), ["c", "a", "b"], "deglex"),
        _abc(katsura),
    ),
    (
        "cyclic3-zz-deglex-precedence",
        lambda: PolyRing(Integers(), ["c", "a", "b"], "deglex"),
        _abc(cyclic),
    ),
    ("katsura3-zz-lex", lambda: PolyRing(Integers(), ["a", "b", "c"], "lex"), katsura),
    ("cyclic3-qq-lex", lambda: PolyRing(Rationals(), ["a", "b", "c"], "lex"), cyclic),
]


@pytest.mark.parametrize("name, make_ring, family", IDEALS, ids=[i[0] for i in IDEALS])
def test_kernel_matches_rescan_on_structured_bases(name, make_ring, family):
    R = make_ring()
    basis = _completed(R, family)
    rng = random.Random(name)
    steps = 0
    for _ in range(15):
        probe = random_probe(rng, R, rng.randint(5, 25), 7)
        steps += assert_same_reduction(probe, basis)
    assert steps > 100


@pytest.mark.parametrize("name, make_ring, family", IDEALS, ids=[i[0] for i in IDEALS])
def test_completion_matches_rescan(name, make_ring, family):
    gens = family(make_ring())
    kernel = complete(gens)
    generic = complete(gens, strategy=RescanFirstReducible())
    assert kernel.iterations == generic.iterations
    assert kernel.reduction_steps == generic.reduction_steps
    assert kernel.basis == generic.basis
    assert kernel.certificates == generic.certificates


def test_completion_matches_rescan_on_zz_corpus_sample():
    # ``complete`` builds pair polynomials as heap-key accumulators and
    # reduces them from there, under either strategy.  Some of these
    # accumulators cancel to nothing and are skipped before any reduction.
    cancelled = 0
    for entry in [e for e in corpus() if e.ring_name == "zz"][::4]:
        kernel = complete(entry.generators)
        generic = complete(entry.generators, strategy=RescanFirstReducible())
        assert kernel.iterations == generic.iterations
        assert kernel.pairs_processed == generic.pairs_processed
        assert kernel.reduction_steps == generic.reduction_steps
        assert kernel.basis == generic.basis
        assert kernel.added == generic.added
        assert kernel.certificates == generic.certificates
        # Completion takes every pair of its final basis, so these are the
        # accumulators that cancelled during the run.
        basis = kernel.basis
        reducers = _Reducers(basis)
        cancelled += sum(
            not q
            for j in range(len(basis))
            for record in records_of(reducers, j)
            for q, _ in combinations_for(reducers, record)
        )
    assert cancelled > 0


def test_step_limit_fires_at_the_same_step():
    R = PolyRing(Integers(), ["a", "b", "c", "d"], "deglex")
    basis = _completed(R, katsura)
    probe = random_probe(random.Random(5), R, 20, 6)
    total = assert_same_reduction(probe, basis)
    assert total > 10
    for limit in range(total):
        for strategy in (None, RescanFirstReducible()):
            budget = StepBudget(limit)
            with pytest.raises(StepLimitExceeded):
                normal_form_with_cofactors(probe, basis, strategy, budget)
            assert budget.used == limit + 1
    for strategy in (None, RescanFirstReducible()):
        budget = StepBudget(total)
        normal_form(probe, basis, strategy, budget)
        assert budget.used == total


# Seeded strategies can take far more steps than the default rule, so
# they run on the smaller ideals only.
@pytest.mark.parametrize("name, make_ring, family", IDEALS[2:4], ids=[i[0] for i in IDEALS[2:4]])
def test_step_limit_fires_at_the_same_step_as_the_reference(name, make_ring, family):
    R = make_ring()
    basis = _completed(R, family)
    probe = random_probe(random.Random(5), R, 12, 5)
    runs = (normal_form_with_cofactors, rescan_reduction.normal_form_with_cofactors)
    for make in strategies(1) + strategies(2)[2:]:
        budget = StepBudget()
        normal_form(probe, basis, make(), budget)
        total = budget.used
        assert total > 10
        for limit in range(total):
            for run in runs:
                budget = StepBudget(limit)
                with pytest.raises(StepLimitExceeded):
                    run(probe, basis, make(), budget)
                assert budget.used == limit + 1
        for run in runs:
            budget = StepBudget(total)
            run(probe, basis, make(), budget)
            assert budget.used == total
