import random

import pytest

from ringgb import PolyRing, Rationals
from ringgb.reduction import _Reducers, _row_sum
from ringgb.terms import DEGREE_BOUND, TermOrder, term_divides, term_lcm, term_mul

from naive_poly import term_div


def random_term(rng, nvars=3, max_exp=4):
    return tuple(rng.randint(0, max_exp) for _ in range(nvars))


def test_divides_examples():
    assert term_divides((1, 1), (2, 1))       # x*y | x^2*y
    assert not term_divides((2, 0), (1, 1))   # x^2 does not divide x*y
    assert term_divides((0, 0), (3, 7))       # unit term divides anything
    assert term_divides((2, 1), (2, 1))


def test_lcm_examples():
    assert term_lcm((2, 1, 0), (1, 0, 1)) == (2, 1, 1)
    t = (1, 2, 3)
    assert term_lcm(t, t) == t
    assert term_lcm((3, 0), (0, 2)) == (3, 2)


def test_lcm_is_least():
    rng = random.Random(3)
    for _ in range(300):
        s, t = random_term(rng), random_term(rng)
        l = term_lcm(s, t)
        assert term_divides(s, l) and term_divides(t, l)
        common = term_mul(l, random_term(rng))
        assert term_divides(l, common)


def test_mul_div_roundtrip():
    rng = random.Random(4)
    for _ in range(200):
        s, t = random_term(rng), random_term(rng)
        assert term_div(term_mul(s, t), t) == s
    with pytest.raises(ValueError):
        term_div((1, 0), (0, 1))


def compare(order, t1, t2):
    """-1, 0, or 1 as t1 is below, equal to, or above t2."""
    k1, k2 = order.sort_key(t1), order.sort_key(t2)
    return (k1 > k2) - (k1 < k2)


def test_lex_order_examples():
    lex = TermOrder("lex")
    assert compare(lex, (2, 1), (1, 2)) == 1    # x^2*y > x*y^2 with x first
    assert compare(lex, (1, 2), (2, 1)) == -1
    assert compare(lex, (1, 2), (1, 2)) == 0


def test_deglex_order_examples():
    deglex = TermOrder("deglex")
    assert compare(deglex, (0, 3), (2, 0)) == 1  # y^3 > x^2: degree decides
    assert compare(deglex, (2, 0), (1, 1)) == 1  # same degree, lex breaks tie
    assert compare(deglex, (1, 1), (1, 1)) == 0


@pytest.mark.parametrize("order", [TermOrder("lex"), TermOrder("deglex")])
def test_order_is_multiplicative(order):
    rng = random.Random(5)
    for _ in range(1000):
        s, t1, t2 = random_term(rng), random_term(rng), random_term(rng)
        assert compare(order, t1, t2) == compare(order, term_mul(s, t1), term_mul(s, t2))


@pytest.mark.parametrize("order", [TermOrder("lex"), TermOrder("deglex")])
def test_order_is_total(order):
    rng = random.Random(6)
    for _ in range(500):
        t1, t2 = random_term(rng), random_term(rng)
        c = compare(order, t1, t2)
        assert c == -compare(order, t2, t1)
        assert (c == 0) == (t1 == t2)


def test_order_validation():
    with pytest.raises(ValueError):
        TermOrder("grevlex")


HEAP_KEY_ORDERS = [TermOrder("lex"), TermOrder("deglex")]


@pytest.mark.parametrize("order", HEAP_KEY_ORDERS, ids=repr)
def test_heap_key_sorts_descending(order):
    packed = PolyRing(Rationals(), ["x", "y", "z"], order).order
    rng = random.Random(8)
    for _ in range(50):
        terms = list({random_term(rng) for _ in range(rng.randint(1, 30))})
        assert sorted(terms, key=packed.heap_key) == sorted(
            terms, key=order.sort_key, reverse=True
        )


@pytest.mark.parametrize("order", HEAP_KEY_ORDERS, ids=repr)
def test_heap_key_is_additive_and_invertible(order):
    # A ring's order packs each key into one int.  s divides t exactly
    # when t's exponents minus s's, ks - kt, are below zero in no field:
    # then adding them to the guard bits borrows none of them away.
    packed = PolyRing(Rationals(), ["x", "y", "z"], order).order
    guard = packed.guard
    rng = random.Random(9)
    for _ in range(300):
        s, t = random_term(rng), random_term(rng)
        ks, kt = packed.heap_key(s), packed.heap_key(t)
        assert packed.term_from_heap_key(ks) == s
        assert packed.heap_key(term_mul(s, t)) == ks + kt
        assert term_divides(s, t) == ((guard - kt + ks) & guard == guard)


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

# Four exponents below DEGREE_BOUND // 4 keep every total degree below the bound.
exponents = st.integers(0, 6) | st.integers(0, DEGREE_BOUND // 4 - 1)
term_pairs = st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.tuples(*[exponents] * n), st.tuples(*[exponents] * n))
)


@settings(max_examples=300, deadline=None)
@given(term_pairs, st.sampled_from(["lex", "deglex"]))
def test_lcm_on_heap_keys_is_the_heap_key_of_the_lcm(pair, kind):
    # Pairs queue and combine on heap keys alone: the lcm taken on the
    # keys must be the key of the term lcm, for each order.
    s, t = pair
    order = PolyRing(Rationals(), [f"x{i}" for i in range(len(s))], kind).order
    ks, kt = order.heap_key(s), order.heap_key(t)
    assert order.key_lcm(ks, kt) == order.heap_key(term_lcm(s, t))
    assert order.key_lcm(ks, ks) == ks
    assert order.key_lcm(ks, kt) == order.key_lcm(kt, ks)


small = st.integers(0, 3)
bounded = small | st.integers(0, DEGREE_BOUND - 1)


@st.composite
def packed_cases(draw):
    """An order on 1-16 variables and two terms, the second often a multiple of the first."""
    nvars = draw(st.integers(1, 16))
    order = TermOrder(draw(st.sampled_from(["lex", "deglex"])))
    s = draw(st.tuples(*[bounded] * nvars))
    t = draw(st.tuples(*[bounded] * nvars) | st.tuples(*[small] * nvars).map(lambda d: term_mul(s, d)))
    return nvars, order, s, t


@settings(max_examples=400, deadline=None)
@given(packed_cases())
# Valid terms whose lcm passes the degree bound, and a lex tail that passes
# the exponent bound where its head does not.
@example((2, TermOrder("deglex"), (DEGREE_BOUND - 1, 0), (0, DEGREE_BOUND - 1)))
@example((2, TermOrder("lex"), (1, DEGREE_BOUND // 2 - 1), (0, DEGREE_BOUND // 2 + 2)))
def test_packed_keys_agree_with_the_tuple_helpers(case):
    # Every term whose key fields stay below the bound has a packed key,
    # and the kernel's operations on keys match the tuple helpers; past
    # the bound each of them raises instead of forming a key.
    nvars, order, s, t = case
    ring = PolyRing(Rationals(), [f"x{i}" for i in range(nvars)], order)
    packed = ring.order

    def key(term):
        if (sum(term) if order.kind == "deglex" else max(term)) >= DEGREE_BOUND:
            with pytest.raises(ValueError, match=r"2\^31 = 2147483648"):
                packed.heap_key(term)
            return None
        k = packed.heap_key(term)
        assert packed.term_from_heap_key(k) == term
        return k

    ks, kt = key(s), key(t)
    if ks is None or kt is None:
        return
    assert (ks < kt) == (order.sort_key(s) > order.sort_key(t))
    assert (ks == kt) == (s == t)
    product, lcm = key(term_mul(s, t)), key(term_lcm(s, t))
    # Each place that sums keys checks the sum: products of polynomials,
    # monomial multiples and certificate rows.
    x, y = ring.monomial(1, s), ring.monomial(1, t)
    form = ring.coeff_ring._kernel_form()
    one = form.enter(1)
    for form_sum in (
        lambda: packed.check(ks + kt),
        lambda: x * y,
        lambda: x.mul_monomial(1, t),
        lambda: _row_sum(form, packed, [((0, ((one, ks),), ks),)], [(0, one, kt)]),
    ):
        if product is None:
            with pytest.raises(ValueError, match="out of range"):
                form_sum()
        else:
            form_sum()
    if product is not None:
        assert ks + kt == product
        assert (x * y).keyed_monomials() == ((1, product),)
    if lcm is None:
        with pytest.raises(ValueError, match="out of range"):
            packed.key_lcm(ks, kt)
    else:
        assert packed.key_lcm(ks, kt) == packed.key_lcm(kt, ks) == lcm
    # The gcd of two terms is a term, and the bound of a set of keys holds
    # their largest exponents; the gcd reads only the bound's exponents.
    gcd = key(tuple(map(min, s, t)))
    assert packed.key_gcd(ks, kt) == packed.key_gcd(kt, ks) == gcd
    bound = packed.key_bound([(1, ks), (1, kt)])
    assert packed.term_from_heap_key(bound) == term_lcm(s, t)
    assert packed.key_gcd(ks, bound) == ks and packed.key_gcd(bound, kt) == kt
    # A shifted tail is checked once, against its polynomial's tail bound:
    # when s times the head is a term, the check passes exactly when s
    # times the tail is one too.
    if s != t and key(term_mul(max(s, t, key=order.sort_key), s)) is not None:
        p = ring.from_monomials([(1, s), (1, t)])
        fits = key(term_mul(min(s, t, key=order.sort_key), s)) is not None
        try:
            packed.check(packed.tail_bound(p.keyed_monomials()) + ks)
        except ValueError:
            assert not fits
        else:
            assert fits
    heads = (s, t)
    reducers = _Reducers([ring.monomial(1, h) for h in heads])
    for term, k in ((s, ks), (t, kt)):
        assert reducers.divisors(k) == [i for i, h in enumerate(heads) if term_divides(h, term)]
