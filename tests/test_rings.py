import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ringgb.rings import (
    Integers,
    PrimeField,
    Rationals,
    RingError,
    _is_prime,
    _xgcd,
    ring_from_string,
)

import axiom_checks

ZZ = Integers()
QQ = Rationals()
GF5 = PrimeField(5)


def symmetric_division(c, b):
    """Exhaustive oracle: the unique (k, d) with c = k*b + d, -|b| < 2d <= |b|."""
    found = None
    for k in range(-30, 31):
        d = c - k * b
        if -abs(b) < 2 * d <= abs(b):
            assert found is None, "remainder window admitted two representatives"
            found = (k, d)
    assert found is not None
    return found


def test_int_reduce_step_examples():
    assert ZZ.reduce_step(7, 3) == (2, 1)
    assert ZZ.reduce_step(4, 2) == (2, 0)
    assert ZZ.reduce_step(1, 2) is None
    # boundary tie keeps the positive representative
    assert ZZ.reduce_step(2, 4) is None
    assert ZZ.reduce_step(-2, 4) == (-1, 2)


def test_rationals_reduce_step_examples():
    assert QQ.reduce_step(Fraction(2, 3), 5) == (Fraction(2, 15), 0)
    assert QQ.reduce_step(0, 5) is None


def test_prime_field_reduce_step():
    assert GF5.reduce_step(4, 2) == (2, 0)
    assert GF5.reduce_step(0, 3) is None
    ring = PrimeField(7)
    for c in range(1, 7):
        for b in range(1, 7):
            k, d = ring.reduce_step(c, b)
            assert d == 0
            assert k * b % 7 == c


def test_int_reduce_step_matches_exhaustive_division():
    for b in range(-25, 26):
        if b == 0:
            continue
        for c in range(-25, 26):
            k, d = symmetric_division(c, b)
            expected = None if k == 0 else (k, d)
            assert ZZ.reduce_step(c, b) == expected


@pytest.mark.parametrize("ring", [ZZ, QQ, GF5])
def test_reduce_step_rejects_zero_divisor(ring):
    with pytest.raises(RingError):
        ring.reduce_step(ring.one(), ring.zero())


def test_ring_axioms_small_ranges():
    # acceptance re-runs these at the full pinned ranges
    axiom_checks.run_all_int(12)
    axiom_checks.run_all_field(5)


huge = st.integers(-(2**256), 2**256)
LARGE_VALUES = {
    "zz": (ZZ, huge),
    "qq": (QQ, st.builds(Fraction, huge, huge.filter(bool))),
    "gf(2^61-1)": (PrimeField(2**61 - 1), huge),
}


def check_axioms(add, mul, neg, is_zero, zero, one, a, b, c):
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, zero) == a and mul(a, one) == a
    assert is_zero(add(a, neg(a))) and neg(neg(a)) == a
    assert is_zero(neg(zero))


@pytest.mark.parametrize("name", sorted(LARGE_VALUES))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_ring_axioms_on_large_values(name, data):
    """The axioms hold for operands up to about 2^256, in the ring and in its reduction-loop form."""
    ring, values = LARGE_VALUES[name]
    a, b, c = (ring.element(data.draw(values)) for _ in range(3))
    check_axioms(ring.add, ring.mul, ring.neg, ring.is_zero, ring.zero(), ring.one(), a, b, c)
    form = ring._kernel_form()
    enter, leave = form.enter, form.leave
    x, y, z = enter(a), enter(b), enter(c)
    check_axioms(form.add, form.mul, form.neg, form.is_zero, enter(ring.zero()), enter(ring.one()), x, y, z)
    assert leave(form.add(x, y)) == ring.add(a, b)
    assert leave(form.mul(x, y)) == ring.mul(a, b)
    assert leave(form.neg(x)) == ring.neg(a)


def test_xgcd_identity():
    rng = random.Random(1)
    for _ in range(500):
        a, b = rng.randint(-99, 99), rng.randint(-99, 99)
        g, u, v = _xgcd(a, b)
        assert g == u * a + v * b
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_int_groebner_examples():
    assert ZZ.groebner([4, 6]) == ([2], [[-1, 1]])
    assert ZZ.groebner([6]) == ([6], [[1]])
    assert ZZ.groebner([-6]) == ([6], [[-1]])


def test_field_groebner_examples():
    assert GF5.groebner([2]) == ([1], [[3]])
    gb, to_gb = QQ.groebner([Fraction(2, 3)])
    assert gb == [1]
    assert to_gb == [[Fraction(3, 2)]]


@pytest.mark.parametrize("ring", [ZZ, QQ, GF5])
def test_groebner_representation_identities(ring):
    rng = random.Random(9)
    for _ in range(200):
        size = rng.randint(1, 4)
        values = []
        while len(values) < size:
            v = ring.element(rng.randint(-20, 20))
            if not ring.is_zero(v):
                values.append(v)
        gb, to_gb = ring.groebner(values)
        for g, row in zip(gb, to_gb):
            acc = ring.zero()
            for coeff, v in zip(row, values):
                acc = ring.add(acc, ring.mul(coeff, v))
            assert acc == g
        for v in values:  # every input lies in the ideal of the basis
            steps = [(ring.reduce_step(v, g), g) for g in gb]
            assert any(step and step[1] == ring.zero() and ring.mul(step[0], g) == v for step, g in steps)


def test_int_groebner_gcd_is_positive_and_divides():
    rng = random.Random(10)
    for _ in range(200):
        values = [v for v in (rng.randint(-30, 30) for _ in range(3)) if v] or [4]
        (g,), _ = ZZ.groebner(values)
        assert g > 0
        assert all(v % g == 0 for v in values)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF5])
def test_groebner_rejects_bad_input(ring):
    with pytest.raises(RingError):
        ring.groebner([])
    with pytest.raises(RingError):
        ring.groebner([ring.one(), ring.zero()])


def test_syzygy_examples():
    assert ZZ.syzygies(2, 3) == [(3, -2)]
    assert QQ.syzygies(1, 1) == [(1, -1)]
    assert GF5.syzygies(2, 3) == [(3, 3)]  # (3, -2) in canonical residues


@pytest.mark.parametrize("ring", [ZZ, QQ, GF5])
def test_syzygy_dots_to_zero(ring):
    rng = random.Random(11)
    for _ in range(300):
        coeffs = []
        while len(coeffs) < 2:
            v = ring.element(rng.randint(-15, 15))
            if not ring.is_zero(v):
                coeffs.append(v)
        for vec in ring.syzygies(*coeffs):
            dot = ring.add(ring.mul(vec[0], coeffs[0]), ring.mul(vec[1], coeffs[1]))
            assert ring.is_zero(dot)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF5])
def test_syzygy_rejects_bad_input(ring):
    with pytest.raises(RingError):
        ring.syzygies(ring.one(), ring.zero())
    with pytest.raises(RingError):
        ring.syzygies(ring.zero(), ring.one())


def test_int_syzygy_generates_all_small_solutions():
    # every |a_i| <= 20 solution is an integer multiple of the generator
    for c1 in axiom_checks.nonzero_range(8):
        for c2 in axiom_checks.nonzero_range(8):
            ((g1, g2),) = ZZ.syzygies(c1, c2)
            for a1 in range(-20, 21):
                for a2 in range(-20, 21):
                    if a1 * c1 + a2 * c2 != 0:
                        continue
                    assert a1 % g1 == 0
                    assert (a1 // g1) * g2 == a2


def test_gf5_syzygy_generates_exhaustively():
    for c1 in range(1, 5):
        for c2 in range(1, 5):
            ((g1, g2),) = GF5.syzygies(c1, c2)
            for a1 in range(5):
                for a2 in range(5):
                    if (a1 * c1 + a2 * c2) % 5 != 0:
                        continue
                    # scalar multiples of the generator cover the solutions
                    assert any(
                        (m * g1 % 5, m * g2 % 5) == (a1, a2) for m in range(5)
                    )


def test_canonical_unit():
    assert ZZ.canonical_unit(-5) == -1
    assert ZZ.canonical_unit(5) == 1
    assert QQ.canonical_unit(Fraction(-2, 3)) == Fraction(-3, 2)
    assert GF5.canonical_unit(2) == 3
    with pytest.raises(RingError):
        ZZ.canonical_unit(0)


def test_element_canonicalization():
    assert GF5.element(7) == 2
    assert GF5.element(-1) == 4
    assert ZZ.element(Fraction(4, 2)) == 2
    with pytest.raises(RingError):
        QQ.element("2/4")  # text enters through the parser alone
    with pytest.raises(RingError):
        ZZ.element(Fraction(1, 2))
    with pytest.raises(RingError):
        GF5.element(1.5)
    with pytest.raises(RingError):
        QQ.element("abc")
    with pytest.raises(RingError):
        QQ.element("1/0")


def test_from_fraction():
    assert ZZ.from_fraction(4, 2) == 2
    assert GF5.from_fraction(1, 2) == 3
    with pytest.raises(RingError, match="non-integer"):
        ZZ.from_fraction(1, 2)
    with pytest.raises(RingError, match="division by zero"):
        QQ.from_fraction(1, 0)
    with pytest.raises(RingError, match="division by zero"):
        GF5.from_fraction(1, 5)


def test_ring_descriptors():
    assert PrimeField(5) == GF5
    assert PrimeField(7) != GF5
    assert Integers() == ZZ and Integers() != QQ
    assert hash(PrimeField(5)) == hash(GF5)


def test_prime_field_requires_prime():
    # 561 is a Carmichael number, 3215031751 a strong pseudoprime to the
    # bases 2, 3, 5 and 7, and the last one to every prime base up to 37.
    for bad in (0, 1, 4, 9, 100, -7, 561, 3215031751, 318665857834031151167461):
        with pytest.raises(RingError):
            PrimeField(bad)
    PrimeField(2)
    PrimeField(97)


def test_prime_field_builds_fast_on_a_61_bit_prime():
    start = time.perf_counter()
    field = PrimeField(2**61 - 1)
    assert time.perf_counter() - start < 1.0
    assert field.mul(2**60, 2) == 1


def test_primality_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

    assert [n for n in range(3000) if _is_prime(n)] == [n for n in range(3000) if trial(n)]
    rng = random.Random(10)
    for _ in range(300):
        n = rng.randrange(10**6, 10**8)
        assert _is_prime(n) == trial(n)


def test_modulus_past_the_primality_bound_is_rejected():
    with pytest.raises(RingError, match="too large"):
        PrimeField(2**89 - 1)


def test_ring_from_string():
    assert ring_from_string("gf(7)") == PrimeField(7)
    assert ring_from_string(" GF(5) ") == GF5
    assert ring_from_string("qq") == QQ
    assert ring_from_string("zz") == ZZ
    for bad in ("gf(4)", "zq", "gf(x)", "q", ""):
        with pytest.raises(RingError):
            ring_from_string(bad)
