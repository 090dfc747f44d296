import gc
import pickle
import random
import weakref
from fractions import Fraction

import pytest

import naive_poly as naive
from ringgb.poly import Polynomial, PolyRing, format_polynomial
from ringgb.rings import Integers, PrimeField, Rationals
from ringgb.terms import TermOrder


QQ_XY = PolyRing(Rationals(), ["x", "y"])
ZZ_XY = PolyRing(Integers(), ["x", "y"])
GF5_XY = PolyRing(PrimeField(5), ["x", "y"])

XYZ = ["x", "y", "z"]
# Heap keys are laid out by the order: negated exponents for lex, the
# negated degree in front for deglex, in the order the variables are listed.
RINGS = (
    QQ_XY,
    ZZ_XY,
    GF5_XY,
    PolyRing(Rationals(), XYZ),
    PolyRing(Integers(), XYZ, "deglex"),
    PolyRing(PrimeField(5), XYZ, "deglex"),
    PolyRing(Rationals(), ["z", "x", "y"], "deglex"),
    PolyRing(Integers(), ["y", "z", "x"], "deglex"),
    PolyRing(PrimeField(5), ["z", "y", "x"], "lex"),
)


def random_term(rng, ring, max_exp=3):
    return tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))


def random_poly(rng, ring, max_terms=6, max_exp=3, bound=5):
    monos = [
        (rng.randint(-bound, bound), random_term(rng, ring, max_exp))
        for _ in range(rng.randint(0, max_terms))
    ]
    return ring.from_monomials(monos)


def assert_canonical(p):
    ring = p.ring
    terms = [t for _, t in p.monomials]
    assert len(set(terms)) == len(terms)
    assert all(not ring.coeff_ring.is_zero(c) for c, _ in p.monomials)
    keys = [ring.order.sort_key(t) for t in terms]
    assert keys == sorted(keys, reverse=True)


def test_normalize_merges_duplicates():
    p = QQ_XY.from_monomials([(1, (1, 0)), (2, (1, 0))])
    assert p.monomials == ((Fraction(3), (1, 0)),)


def test_normalize_cancels_to_zero():
    p = QQ_XY.from_monomials([(1, (1, 0)), (-1, (1, 0))])
    assert not p
    assert p == QQ_XY.zero()


def test_normalize_sorts_descending():
    p = QQ_XY.from_monomials([(2, (0, 1)), (1, (2, 0))])
    assert p.monomials == ((Fraction(1), (2, 0)), (Fraction(2), (0, 1)))


def test_normalize_is_idempotent_under_shuffles():
    rng = random.Random(20)
    for _ in range(300):
        ring = rng.choice(RINGS)
        p = random_poly(rng, ring)
        monos = list(p.monomials)
        rng.shuffle(monos)
        # split a random monomial in two to exercise merging as well
        if monos:
            c, t = monos[0]
            one = ring.coeff_ring.one()
            monos[0] = (ring.coeff_ring.add(c, ring.coeff_ring.neg(one)), t)
            monos.append((one, t))
        assert ring.from_monomials(monos) == p


def test_polynomial_invariants_hold():
    rng = random.Random(21)
    for _ in range(300):
        ring = rng.choice(RINGS)
        p, q = random_poly(rng, ring), random_poly(rng, ring)
        for r in (p, q, p + q, p - q, p * q, p.mul_monomial(3, random_term(rng, ring)), -p):
            assert_canonical(r)


def test_arithmetic_matches_naive_reference():
    rng = random.Random(23)
    for _ in range(300):
        ring = rng.choice(RINGS)
        cr = ring.coeff_ring
        p, q = random_poly(rng, ring), random_poly(rng, ring)
        a, b = naive.as_dict(p), naive.as_dict(q)
        c, t = cr.element(rng.randint(-5, 5)), random_term(rng, ring)
        assert naive.as_dict(p + q) == naive.add(cr, a, b)
        assert naive.as_dict(p - q) == naive.add(cr, a, naive.neg(cr, b))
        assert naive.as_dict(-p) == naive.neg(cr, a)
        assert naive.as_dict(p * q) == naive.mul(cr, a, b)
        assert naive.as_dict(p.mul_monomial(c, t)) == naive.mul_monomial(cr, a, c, t)
        assert naive.as_dict(p.scale(c)) == naive.mul_monomial(cr, a, c, (0,) * ring.nvars)
        # a chain of sums, each built from the one before
        assert naive.as_dict((p + q) * q - p) == naive.add(
            cr, naive.mul(cr, naive.add(cr, a, b), b), naive.neg(cr, a)
        )


def test_built_from_terms_or_from_keys_is_the_same_polynomial():
    rng = random.Random(24)
    for _ in range(100):
        ring = rng.choice(RINGS)
        a, b = random_poly(rng, ring), random_poly(rng, ring)
        p = a + b  # built from heap keys
        q = ring.from_monomials((a + b).monomials)  # built from terms
        assert bool(p) == bool(q)
        assert p == q and hash(p) == hash(q)
        assert p.keyed_monomials() == q.keyed_monomials()
        assert str(p) == str(q)
        # reading the terms of a keyed sum leaves it usable in further sums
        r = a * b
        expected = naive.add(ring.coeff_ring, naive.as_dict(r), naive.as_dict(p))
        assert naive.as_dict(r + p) == expected


def test_polynomial_takes_its_keys_by_keyword_only():
    x, y = QQ_XY.gens()
    p = x**2 - y
    with pytest.raises(TypeError):
        Polynomial(QQ_XY, p.monomials)
    assert Polynomial(QQ_XY, keyed=p.keyed_monomials()) == p


def test_addition_example():
    x, y = QQ_XY.gens()
    assert (x + 1) + (x - 1) == 2 * x
    p = x**2 - y
    assert p + QQ_XY.zero() == p


def test_monomial_multiplication_example():
    x, y = ZZ_XY.gens()
    assert (2 * x + 1).mul_monomial(3, (0, 1)) == 6 * x * y + 3 * y


def test_product_and_power():
    x, y = QQ_XY.gens()
    assert (x - 1) * (x + 1) == x**2 - 1
    assert (x + y) ** 2 == x**2 + 2 * x * y + y**2
    assert (x + y) ** 0 == QQ_XY.one()
    with pytest.raises(ValueError):
        (x + y) ** -1


@pytest.mark.parametrize("R", RINGS, ids=repr)
def test_power_equals_repeated_products(R):
    x, y = R.gens()[:2]
    for p in (x, 2 * x - y + 1, x * y**2 - 3 * x + 2, R.zero(), R.constant(3)):
        product = R.one()
        for n in range(9):
            assert p**n == product
            product = product * p


def test_large_powers_take_squarings_not_products():
    x, y = QQ_XY.gens()
    # 2^31 is the bound: a power past it raises before any product, even
    # one whose squarings below the top bit would grow without end.
    for p, n in ((x, 2**31), (x * y**5, 2**30), (x + y, 2**31), (3 * x * y**5 - 1, 2**30)):
        with pytest.raises(ValueError, match="out of range"):
            p**n
    assert x ** (2**31 - 1) == QQ_XY.monomial(1, (2**31 - 1, 0))
    assert x**200000 == QQ_XY.monomial(1, (200000, 0))
    assert (x * y) ** 200000 == QQ_XY.monomial(1, (200000, 200000))
    # Under deglex the bound is also on the degree.
    u, v = PolyRing(Rationals(), ["u", "v"], "deglex").gens()
    with pytest.raises(ValueError, match="out of range"):
        (u * v) ** (2**30)
    with pytest.raises(ValueError, match="out of range"):
        (u * v + 1) ** (2**30)
    assert (u * v) ** (2**30 - 1) == (u * v) ** (2**30 - 2) * u * v


def test_multiplication_matches_repeated_addition():
    rng = random.Random(22)
    for _ in range(150):
        ring = rng.choice(RINGS)
        p, q = random_poly(rng, ring), random_poly(rng, ring)
        assert p * q == q * p
        expanded = ring.zero()
        for c, t in q.monomials:
            expanded = expanded + p.mul_monomial(c, t)
        assert p * q == expanded


def test_head_decomposition():
    x, y = QQ_XY.gens()
    p = 2 * x**2 * y - 3 * y + 1
    assert p.head_coeff == 2
    assert p.head_term == (2, 1)
    assert p.head_monomial == (Fraction(2), (2, 1))
    assert p - QQ_XY.monomial(*p.head_monomial) == -3 * y + 1


def test_scale_and_neg():
    x, y = ZZ_XY.gens()
    p = 2 * x - y
    assert p.scale(-1) == -p
    assert p.scale(3) == 6 * x - 3 * y
    assert p.scale(0) == ZZ_XY.zero()


def test_gf_coefficients_are_canonical():
    p = GF5_XY.from_monomials([(7, (1, 0)), (-1, (0, 1))])
    assert p.monomials == ((2, (1, 0)), (4, (0, 1)))
    assert not GF5_XY.from_monomials([(5, (1, 0))])


def test_formatting():
    x, y = QQ_XY.gens()
    assert str(2 * x**2 * y - 3 * y + 1) == "2*x^2*y - 3*y + 1"
    assert str(x - y**2) == "x - y^2"
    assert str(y**3 - 1) == "y^3 - 1"
    assert format_polynomial(Fraction(-1, 2) * x + y) == "-1/2*x + y"
    assert format_polynomial(x - Fraction(1, 2) * y) == "x - 1/2*y"
    assert str(QQ_XY.zero()) == "0"
    assert str(QQ_XY.one()) == "1"
    assert str(-x) == "-x"
    zx, zy = ZZ_XY.gens()
    assert str(zx * zy) == "x*y"
    gx, gy = GF5_XY.gens()
    assert str(gx - gy) == "x + 4*y"  # canonical residues, never a minus sign


def test_deglex_context_sorts_by_degree_first():
    ring = PolyRing(Rationals(), ["x", "y"], TermOrder("deglex"))
    x, y = ring.gens()
    p = x**2 + y**3
    assert p.head_term == (0, 3)
    assert sum(p.head_term) == 3


def test_values_outside_the_ring_compare_unequal():
    zx, _ = ZZ_XY.gens()
    assert zx != Fraction(1, 2)
    assert not zx == Fraction(1, 2)
    assert ZZ_XY.constant(2) == Fraction(4, 2)
    gx, _ = GF5_XY.gens()
    assert gx != Fraction(1, 5)
    assert GF5_XY.one() != Fraction(1, 5)
    assert GF5_XY.constant(3) == Fraction(1, 2)  # 2 * 3 = 1 in gf(5)


def test_ring_equality_across_instances():
    other = PolyRing(Rationals(), ["x", "y"])
    assert other == QQ_XY
    assert other.one() == QQ_XY.one()
    assert PolyRing(Rationals(), ["x", "y"], "deglex") != QQ_XY
    assert PolyRing(Integers(), ["x", "y"]) != QQ_XY
    with pytest.raises(ValueError):
        QQ_XY.gens()[0] + PolyRing(Integers(), ["x", "y"]).gens()[0]


def test_polynomials_pickle_with_their_packed_order():
    # A ring's packed order holds a Struct, which does not pickle; it
    # pickles as its order and variable count, and the copy shares the
    # order object that every ring of that order and size uses.
    rng = random.Random(58)
    for ring in RINGS:
        p = random_poly(rng, ring)
        q = pickle.loads(pickle.dumps(p))
        assert q == p and q.keyed_monomials() == p.keyed_monomials()
        assert q.ring.order is ring.order


def test_construction_validation():
    with pytest.raises(ValueError):
        PolyRing(Rationals(), [])
    with pytest.raises(ValueError):
        PolyRing(Rationals(), ["x"] * 2)
    with pytest.raises(ValueError):
        PolyRing(Rationals(), ["2bad"])
    with pytest.raises(ValueError):
        PolyRing(Rationals(), [f"v{i}" for i in range(17)])
    for order in (5, None):
        with pytest.raises(ValueError, match="'lex', 'deglex' or a TermOrder"):
            PolyRing(Rationals(), ["x"], order)
    with pytest.raises(ValueError):
        QQ_XY.from_monomials([(1, (1, 0, 0))])
    with pytest.raises(ValueError):
        QQ_XY.from_monomials([(1, (-1, 0))])
    with pytest.raises(ValueError):
        QQ_XY.variable("z")


def test_variable_and_constant_helpers():
    assert QQ_XY.variable("y").monomials == ((Fraction(1), (0, 1)),)
    assert QQ_XY.constant(Fraction(2, 4)).monomials == ((Fraction(1, 2), (0, 0)),)
    assert len(QQ_XY.gens()) == 2
    x, y = QQ_XY.gens()
    assert 1 - x == QQ_XY.from_monomials([(-1, (1, 0)), (1, (0, 0))]) == -(x - 1)
    assert QQ_XY.parse("1/2*y - x^2") == QQ_XY.constant(Fraction(1, 2)) * y - x**2
    assert repr(QQ_XY) == "PolyRing(qq, vars=x,y, order=lex)"
    assert repr(PolyRing(PrimeField(5), ["u0", "u1"], "deglex")) == "PolyRing(gf(5), vars=u0,u1, order=deglex)"


def test_a_dropped_ring_is_freed_without_the_cyclic_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        ring = PolyRing(PrimeField(5), ["x", "y"], "deglex")
        x, y = ring.gens()
        assert not ((x * y - 1) * ring.zero())
        ref = weakref.ref(ring)
        del ring, x, y
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
