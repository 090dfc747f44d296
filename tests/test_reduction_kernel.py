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
from hypothesis import given, settings, strategies as st

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
from ringgb.terms import TermOrder, term_divides

import rescan_reduction
from corpus import corpus


class RescanFirstReducible(FirstReducibleStrategy):
    """The default selection rule, asked through ``select`` at every step."""

    def __init__(self):
        self.selects = 0

    def select(self, candidates):
        self.selects += 1
        return super().select(candidates)


def katsura(R):
    xs = R.gens()
    n = len(xs)

    def u(i):
        i = abs(i)
        return xs[i] if i < n else R.zero()

    gens = [sum((u(i) for i in range(-n + 1, n)), R.zero()) - 1]
    for m in range(n - 1):
        gens.append(sum((u(l) * u(m - l) for l in range(-n + 1, n)), R.zero()) - u(m))
    return gens


def cyclic(R):
    xs = R.gens()
    n = len(xs)
    gens = []
    for d in range(1, n):
        total = R.zero()
        for i in range(n):
            t = R.one()
            for j in range(d):
                t = t * xs[(i + j) % n]
            total = total + t
        gens.append(total)
    product = R.one()
    for x in xs:
        product = product * x
    gens.append(product - 1)
    return gens


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
    kt = key((2, 2))
    assert reducers.divisors(kt) == [0, 1]
    assert reducers.memo[kt] == [0, 1]
    # The first new head does not divide x^2*y^2; the second does and
    # sorts below both older heads.
    reducers.append(x * y**3 + 1)
    assert reducers.memo == {}
    reducers.append(x + y)
    assert reducers.memo == {}
    assert reducers.divisors(kt) == [0, 1, 3]
    assert reducers.memo[kt] == [0, 1, 3]
    assert reducers.divisors(key((1, 0))) == [3]
    assert reducers.divisors(key((0, 0))) == []


# Exponents small enough to divide one another, and as large as the CI's
# runaway binomials.
exponents = st.integers(0, 3) | st.sampled_from((99_999, 100_000)) | st.integers(0, 10**5)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda nvars: st.tuples(
            st.just(nvars),
            st.sampled_from(("lex", "deglex")),
            st.none() | st.permutations(range(nvars)),
            st.lists(st.tuples(st.booleans(), st.tuples(*[exponents] * nvars), st.integers(0, 40)), max_size=30),
        )
    )
)
def test_divisor_index_finds_the_heads_a_test_of_every_head_finds(run):
    # Appends interleave with lookups; a lookup may target a multiple of a
    # head, and every term is looked up again at the end, so terms are
    # looked up again after the appends that emptied the memo.
    nvars, kind, precedence, ops = run
    order = TermOrder(kind, precedence)
    R = PolyRing(Rationals(), [f"x{i}" for i in range(nvars)], order)
    reducers, heads, seen = _Reducers((), R), [], []

    def check(t):
        kt = R.order.heap_key(t)
        expected = [i for i, h in enumerate(heads) if term_divides(h, t)]
        assert reducers.divisors(kt) == expected
        assert reducers.memo[kt] == expected

    for is_head, t, pick in ops:
        if is_head:
            reducers.append(R.monomial(1, t))
            assert reducers.memo == {}
            heads.append(t)
            continue
        if heads and pick % 2:
            t = tuple(a + b % 4 for a, b in zip(heads[pick % len(heads)], t))
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


IDEALS = [
    ("katsura4-zz", lambda: PolyRing(Integers(), ["a", "b", "c", "d"], "deglex"), katsura),
    ("cyclic4-qq", lambda: PolyRing(Rationals(), ["a", "b", "c", "d"], "deglex"), cyclic),
    (
        "katsura3-gf-deglex-precedence",
        lambda: PolyRing(PrimeField(32003), ["a", "b", "c"], TermOrder("deglex", precedence=(2, 0, 1))),
        katsura,
    ),
    (
        "cyclic3-zz-deglex-precedence",
        lambda: PolyRing(Integers(), ["a", "b", "c"], TermOrder("deglex", precedence=(2, 0, 1))),
        cyclic,
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
