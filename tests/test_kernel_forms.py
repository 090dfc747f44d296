"""The reduction loop's coefficient forms (``CoefficientRing._kernel_form``).

QQ reduces in ``(numerator, denominator)`` int pairs: every operation
must agree exactly with ``Fraction`` and stay in lowest terms, also on
large, negative and cancelling values, and every pair that leaves the
reduction loop or a row sum must be in lowest terms.  GF(p) prepares
each head as its inverse, and ZZ as ``(b, |b|)``, whose step must give
the ring's ``(k, d)`` exactly.  Every form's ``pair_rows`` must give the ring's
own ``groebner`` and ``syzygies`` rows exactly.  A ring written against
the contract alone keeps the default form and completes exactly as the
shipped ring it mirrors, GF(7) or ZZ, does.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from ringgb import (
    CoefficientRing,
    FirstReducibleStrategy,
    Integers,
    PolyRing,
    PrimeField,
    Rationals,
    RingError,
    StepBudget,
    complete,
    groebner_basis,
    interreduce,
    normal_form_with_cofactors,
)
from ringgb.reduction import _prepare, _reduce, _row_sum, _unit_rows

from corpus import corpus, nonzero_poly
from families import katsura

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

QQ = Rationals()
FORM = QQ._kernel_form()

small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
large = st.builds(Fraction, st.integers(-(2**90), 2**90), st.integers(1, 2**90))
values = small | large
pairs = (
    st.tuples(values, values)
    | values.map(lambda x: (x, -x))  # cancels to zero
    | st.tuples(values, small).map(lambda p: (p[0], p[1] - p[0]))  # cancels to a small sum
)


def canonical(x):
    """x is an int pair in lowest terms with a positive denominator."""
    n, d = x
    return type(n) is int and type(d) is int and d > 0 and gcd(n, d) == 1


def agrees(x, value):
    """The pair x is canonical and leaves as ``value``, and ``value`` enters as x."""
    return canonical(x) and FORM.leave(x) == value and FORM.enter(value) == x


@settings(max_examples=400, deadline=None)
@given(pairs)
def test_qq_pairs_agree_with_fraction(pair):
    a, b = pair
    x, y = FORM.enter(a), FORM.enter(b)
    assert agrees(x, a) and agrees(y, b)
    assert agrees(FORM.add(x, y), a + b)
    assert agrees(FORM.mul(x, y), a * b)
    assert agrees(FORM.neg(x), -a)
    assert FORM.is_zero(x) == (a == 0)
    assert FORM.is_zero(FORM.add(x, y)) == (a + b == 0)
    if b:
        k, d = QQ.reduce_step(a, b) or (None, None)
        hit = FORM.step(x, FORM.prepare(y))
        if k is None:
            assert hit is None
        else:
            assert agrees(hit[0], k) and agrees(hit[1], d)


@settings(max_examples=200, deadline=None)
@given(values)
def test_qq_pairs_leave_and_reenter_unchanged(a):
    x = FORM.enter(a)
    assert type(FORM.leave(x)) is Fraction
    assert FORM.enter(FORM.leave(x)) == x
    assert FORM.leave(FORM.enter(FORM.leave(x))) == a


def test_prime_field_prepares_heads_as_inverses():
    form = PrimeField(32003)._kernel_form()
    assert form.enter is None and form.leave is None
    for b in (1, 2, 16001, 32002):
        inverse = form.prepare(b)
        assert b * inverse % 32003 == 1
        for c in (1, 5, 32002):
            assert form.step(c, inverse) == PrimeField(32003).reduce_step(c, b)
        assert form.step(0, inverse) is None


ZZ = Integers()
ZZ_FORM = ZZ._kernel_form()

integers = st.integers(-9, 9) | st.integers(-(2**90), 2**90)
divisors = integers.filter(bool) | st.sampled_from([1, -1])
# c = q*b + |b|/2 or q*b - |b|/2 for even b, the two sides of the window's edge
ties = st.tuples(divisors.map(lambda b: 2 * b), st.integers(-3, 3) | integers, st.sampled_from([1, -1])).map(
    lambda t: (t[1] * t[0] + t[2] * abs(t[0]) // 2, t[0])
)


@settings(max_examples=600, deadline=None)
@given(st.tuples(integers, divisors) | ties)
@example((3, 6))  # the tie keeps +|b|/2: no step
@example((-3, -6))
@example((-3, 6))
@example((5, 1))
@example((-5, -1))
@example((2**90, -7))
def test_zz_step_is_the_rings_reduce_step(pair):
    c, b = pair
    assert ZZ_FORM.enter is None and ZZ_FORM.leave is None
    assert ZZ_FORM.prepare(b) == (b, abs(b))
    assert ZZ_FORM.step(c, ZZ_FORM.prepare(b)) == ZZ.reduce_step(c, b)


class DefaultFormZZ(Integers):
    """ZZ that reduces through the default form, on the ring's own methods."""

    name = "default-form-zz"

    def _kernel_form(self):
        return CoefficientRing._kernel_form(self)


def trace_fields(trace):
    return (
        [p.monomials for p in trace.basis],
        [p.monomials for p in trace.added],
        [[c.monomials for c in row] for row in trace.certificates],
        trace.iterations,
        trace.pairs_processed,
        trace.reduction_steps,
    )


class ContractZZ(CoefficientRing):
    """ZZ written against the ring contract alone, with no ``Integers`` method underneath."""

    name = "contract-zz"

    def element(self, value):
        if isinstance(value, Fraction):
            return self.from_fraction(value.numerator, value.denominator)
        if isinstance(value, int):
            return int(value)
        raise RingError(f"cannot interpret {value!r} in {self.name}")

    def from_fraction(self, numerator, denominator):
        if denominator == 0 or numerator % denominator:
            raise RingError(f"non-integer coefficient {numerator}/{denominator} in {self.name}")
        return numerator // denominator

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def reduce_step(self, c, b):
        # The symmetric remainder d of c by b lies in (-|b|/2, |b|/2].
        d = c % abs(b)
        if 2 * d > abs(b):
            d -= abs(b)
        return None if d == c else ((c - d) // b, d)

    def groebner(self, values):
        vals = self._check_nonzero_list(values)
        g, row = vals[0], [1] + [0] * (len(vals) - 1)
        for index in range(1, len(vals)):
            # Extended Euclid, keeping r = u*g + w*vals[index] and s = x*g + y*vals[index].
            (r, u, w), (s, x, y) = (g, 1, 0), (vals[index], 0, 1)
            while s:
                q = r // s
                (r, u, w), (s, x, y) = (s, x, y), (r - q * s, u - q * x, w - q * y)
            unit = -1 if r < 0 else 1
            g, row = unit * r, [unit * u * entry for entry in row]
            row[index] = unit * w
        unit = -1 if g < 0 else 1
        return [unit * g], [[unit * entry for entry in row]]

    def syzygies(self, a, b):
        a, b = self._check_nonzero_list([a, b])
        common = abs(a * b) // gcd(a, b)
        return [(common // a, -(common // b))]

    def canonical_unit(self, c):
        return -1 if c < 0 else 1


def assert_completes_as_zz(mirror_ring):
    """Over the zz corpus and katsura-4, ``mirror_ring`` completes and interreduces as ``Integers`` does."""
    ideals = [entry.generators for entry in corpus() if entry.ring_name == "zz"]
    ideals.append(katsura(PolyRing(ZZ, ["u0", "u1", "u2", "u3"], "deglex")))
    for gens in ideals:
        R = gens[0].ring
        mirror = PolyRing(mirror_ring, R.variables, R.order)
        ours, theirs = complete(gens), complete([mirror.from_monomials(g.monomials) for g in gens])
        assert trace_fields(theirs) == trace_fields(ours)
        assert [p.monomials for p in interreduce(theirs.basis)] == [p.monomials for p in interreduce(ours.basis)]


def test_zz_form_completes_as_the_default_form():
    assert_completes_as_zz(DefaultFormZZ())


def test_a_zz_ring_without_the_hook_completes_as_integers():
    assert ContractZZ._kernel_form is CoefficientRing._kernel_form
    assert_completes_as_zz(ContractZZ())


class ContractGF7(CoefficientRing):
    """GF(7) written against the ring contract alone; ``_kernel_form`` is not overridden."""

    name = "contract-gf(7)"
    is_field = True

    def element(self, value):
        if isinstance(value, Fraction):
            return self.from_fraction(value.numerator, value.denominator)
        if isinstance(value, int):
            return value % 7
        raise RingError(f"cannot interpret {value!r} in {self.name}")

    def from_fraction(self, numerator, denominator):
        if denominator % 7 == 0:
            raise RingError(f"division by zero in {self.name}")
        return numerator * pow(denominator, -1, 7) % 7

    def add(self, a, b):
        return (a + b) % 7

    def mul(self, a, b):
        return a * b % 7

    def neg(self, a):
        return -a % 7

    def reduce_step(self, c, b):
        return None if c == 0 else (c * pow(b, -1, 7) % 7, 0)

    def groebner(self, values):
        vals = self._check_nonzero_list(values)
        row = [0] * len(vals)
        row[0] = pow(vals[0], -1, 7)
        return [1], [row]

    def syzygies(self, a, b):
        a, b = self._check_nonzero_list([a, b])
        return [(pow(a, -1, 7), -pow(b, -1, 7) % 7)]

    def canonical_unit(self, c):
        return pow(c, -1, 7)


def test_a_ring_without_the_hook_completes_as_the_shipped_field():
    assert ContractGF7._kernel_form is CoefficientRing._kernel_form
    rng = random.Random(7)
    for index in range(24):
        order = "lex" if index % 2 == 0 else "deglex"
        theirs = PolyRing(ContractGF7(), ["x", "y"], order)
        ours = PolyRing(PrimeField(7), ["x", "y"], order)
        gens = [nonzero_poly(rng, ours) for _ in range(rng.randint(1, 3))]
        mirrored = [theirs.from_monomials(g.monomials) for g in gens]
        expected, trace = groebner_basis(gens), complete(gens)
        got, their_trace = groebner_basis(mirrored), complete(mirrored)
        assert [p.monomials for p in got] == [p.monomials for p in expected]
        assert [str(p) for p in got] == [str(p) for p in expected]  # the default ``format`` prints
        assert (their_trace.iterations, their_trace.reduction_steps) == (trace.iterations, trace.reduction_steps)


def assert_pair_rows_are_the_contract(ring, a, b):
    """The form's ``pair_rows`` on the prepared heads a and b, after ``leave``, are the ring's own rows."""
    form = ring._kernel_form()
    enter, leave = form.enter or (lambda c: c), form.leave or (lambda c: c)
    pa, pb = form.prepare(enter(a)), form.prepare(enter(b))
    for groebner, want in ((True, ring.groebner([a, b])[1]), (False, ring.syzygies(a, b))):
        got = [tuple(map(leave, row)) for row in form.pair_rows(pa, pb, groebner)]
        want = [tuple(row) for row in want]
        assert got == want
        assert [tuple(map(type, row)) for row in got] == [tuple(map(type, row)) for row in want]


nonzero = st.integers(-9, 9).filter(bool) | st.integers(-(2**256), 2**256).filter(bool)
zz_heads = (
    st.tuples(nonzero, nonzero)
    | st.tuples(nonzero, nonzero).map(lambda p: (p[0], p[0] * p[1]))  # a divides b
    | st.tuples(nonzero, nonzero).map(lambda p: (p[0] * p[1], p[1]))  # b divides a
    | nonzero.map(lambda a: (a, a))
    | nonzero.map(lambda a: (a, -a))
    | st.tuples(nonzero, nonzero).map(lambda p: (p[0], p[0] * p[1] + 1)).filter(lambda p: p[1])  # coprime
)


@settings(max_examples=400, deadline=None)
@given(zz_heads)
@example((6, 4))
@example((-6, 4))
@example((1, -1))
@example((2**256, 3**100))
def test_zz_pair_rows_are_the_rings_groebner_and_syzygies(heads):
    for ring in (ZZ, DefaultFormZZ()):
        assert_pair_rows_are_the_contract(ring, *heads)
    assert ContractZZ().groebner(list(heads)) == ZZ.groebner(list(heads))
    assert ContractZZ().syzygies(*heads) == ZZ.syzygies(*heads)


nonzero_fractions = values.filter(bool)


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(nonzero_fractions, nonzero_fractions),
    st.tuples(st.integers(1, 32002), st.integers(1, 32002)),
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
)
def test_field_pair_rows_are_the_rings_groebner_and_syzygies(qq_heads, gf_heads, gf7_heads):
    assert_pair_rows_are_the_contract(QQ, *qq_heads)
    assert_pair_rows_are_the_contract(PrimeField(32003), *gf_heads)
    assert_pair_rows_are_the_contract(ContractGF7(), *gf7_heads)
    assert ContractGF7().groebner(list(gf7_heads)) == PrimeField(7).groebner(list(gf7_heads))
    assert ContractGF7().syzygies(*gf7_heads) == PrimeField(7).syzygies(*gf7_heads)


# The inline forms: GF(p) sums its products unreduced and takes them
# mod p as the loop pops each term, ZZ sums plain ints, and QQ sums its
# pairs over the lcm of the denominators and brings them to lowest terms
# as the loop pops each term, all inline on the default strategy's path.
# Two oracles take the call path: the same ring on the default form, and
# a subclass of the default strategy.
INT_RINGS = (
    PrimeField(2),
    PrimeField(5),
    PrimeField(32003),
    PrimeField(2305843009213693951),  # 2^61 - 1
    PrimeField(1208925819614629174706111),  # 2^80 - 65, below the Miller-Rabin bound
    ZZ,
)
INLINE_RINGS = INT_RINGS + (QQ,)


class DefaultFormGF(PrimeField):
    """GF(p) that reduces through the default form, on the ring's own methods."""

    def _kernel_form(self):
        return CoefficientRing._kernel_form(self)


class DefaultFormQQ(Rationals):
    """QQ that reduces through the default form, on ``Fraction`` and the ring's own methods."""

    def _kernel_form(self):
        return CoefficientRing._kernel_form(self)


class CalledFirstReducible(FirstReducibleStrategy):
    """The default rule as a subclass, which lists the candidate steps."""


def default_form_mirror(ring):
    if isinstance(ring, Rationals):
        return DefaultFormQQ()
    return DefaultFormZZ() if isinstance(ring, Integers) else DefaultFormGF(ring.p)


def test_the_int_forms_name_their_modulus():
    assert [ring._kernel_form().ints for ring in INT_RINGS] == [2, 5, 32003, 2**61 - 1, 2**80 - 65, 0]
    for ring in (QQ, DefaultFormGF(5), DefaultFormZZ(), ContractGF7(), ContractZZ()):
        assert ring._kernel_form().ints is None
    assert [ring for ring in (*INT_RINGS, QQ, DefaultFormQQ(), ContractGF7()) if ring._kernel_form().ratios] == [QQ]


def rows_are_canonical(rows):
    """Every coefficient of the rows, tuples of ``(g, keyed, bound)``, is a pair in lowest terms."""
    return all(canonical(c) for row in rows for _, keyed, _ in row for c, _ in keyed)


def qq_reduction_is_canonical(p, basis):
    """Over QQ: the pairs the loop emits, its step records and the cofactor row are in lowest terms.

    ``leave`` would bring an emitted pair to lowest terms, so the loop
    runs on the form without it and emits the pairs themselves.
    """
    acc, reducers = _prepare(p, basis)
    reducers.form = reducers.form._replace(leave=None)
    steps = []
    emitted = [c for c, _ in _reduce(acc, reducers, None, None, steps)]
    row = _row_sum(FORM, p.ring.order, _unit_rows(FORM, p.ring, range(len(basis))), steps)
    return all(map(canonical, emitted)) and all(canonical(k) for _, k, _ in steps) and rows_are_canonical([row])


exponents = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
coefficients = st.integers(-9, 9) | st.integers(-(2**100), 2**100)
monomial_lists = st.lists(st.tuples(coefficients, exponents), min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(INLINE_RINGS),
    st.sampled_from(["lex", "deglex"]),
    monomial_lists,
    st.lists(monomial_lists, min_size=1, max_size=3),
)
# ZZ's inline step at the window's edge: +|b|/2 stays and -|b|/2 steps to
# +|b|/2 under an even, negative head; heads of 1 and -1; a coefficient
# past 2^64.
@example(ZZ, "deglex", [(3, (1, 1, 0)), (-3, (1, 0, 0))], [[(-6, (1, 0, 0)), (1, (0, 0, 0))]])
@example(ZZ, "lex", [(-3, (1, 1, 0)), (3, (1, 0, 0))], [[(-6, (1, 0, 0)), (5, (0, 0, 1))]])
@example(ZZ, "deglex", [(7, (1, 1, 0)), (-4, (2, 0, 0))], [[(1, (0, 1, 0)), (2, (0, 0, 1))], [(-1, (1, 0, 0)), (5, (0, 0, 0))]])
@example(ZZ, "lex", [(2**64 + 5, (2, 0, 0)), (-(2**65), (1, 0, 0))], [[(3, (1, 0, 0)), (-1, (0, 0, 1))]])
def test_the_inline_path_reduces_as_the_call_path(ring, order, query, basis):
    runs = []
    for coeff_ring, strategy in ((ring, None), (default_form_mirror(ring), None), (ring, CalledFirstReducible())):
        R = PolyRing(coeff_ring, ["x", "y", "z"], order)
        gens = [g for g in (R.from_monomials(b) for b in basis) if g]
        assume(gens)
        budget = StepBudget()
        q, cofactors = normal_form_with_cofactors(R.from_monomials(query), gens, strategy, budget)
        runs.append((q.monomials, [c.monomials for c in cofactors], budget.used))
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]
    if ring is QQ:
        assert qq_reduction_is_canonical(R.from_monomials(query), gens)


@pytest.mark.parametrize("ring", INLINE_RINGS, ids=str)
def test_the_inline_path_completes_katsura4_as_the_call_path(ring):
    gens = katsura(PolyRing(ring, ["u0", "u1", "u2", "u3"], "deglex"))
    mirror = PolyRing(default_form_mirror(ring), ["u0", "u1", "u2", "u3"], "deglex")
    trace = complete(gens)
    ours = trace_fields(trace)
    assert trace_fields(complete([mirror.from_monomials(g.monomials) for g in gens])) == ours
    assert trace_fields(complete(gens, strategy=CalledFirstReducible())) == ours
    if ring is QQ:
        assert rows_are_canonical(trace._rows)  # summed by ``certificates`` in ``trace_fields``
        member = sum((g * g for g in gens), gens[0].ring.zero())
        assert qq_reduction_is_canonical(member, trace.basis)
