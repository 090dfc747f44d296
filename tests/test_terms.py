import random

import pytest

from ringgb.terms import (
    TermOrder,
    min_terms,
    term_degree,
    term_div,
    term_divides,
    term_lcm,
    term_mul,
    unit_term,
)


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


def test_degree_and_unit():
    assert term_degree((2, 1, 0)) == 3
    assert unit_term(3) == (0, 0, 0)
    assert term_degree(unit_term(5)) == 0


def test_lex_order_examples():
    lex = TermOrder("lex")
    assert lex.compare((2, 1), (1, 2)) == 1    # x^2*y > x*y^2 with x first
    assert lex.compare((1, 2), (2, 1)) == -1
    assert lex.compare((1, 2), (1, 2)) == 0


def test_deglex_order_examples():
    deglex = TermOrder("deglex")
    assert deglex.compare((0, 3), (2, 0)) == 1  # y^3 > x^2: degree decides
    assert deglex.compare((2, 0), (1, 1)) == 1  # same degree, lex breaks tie
    assert deglex.compare((1, 1), (1, 1)) == 0


def test_precedence_permutation():
    y_first = TermOrder("lex", precedence=(1, 0))
    assert y_first.compare((1, 0), (0, 1)) == -1  # y outranks x now
    assert TermOrder("lex").compare((1, 0), (0, 1)) == 1


@pytest.mark.parametrize(
    "order",
    [TermOrder("lex"), TermOrder("deglex"), TermOrder("deglex", precedence=(2, 0, 1))],
)
def test_order_is_multiplicative(order):
    rng = random.Random(5)
    for _ in range(1000):
        s, t1, t2 = random_term(rng), random_term(rng), random_term(rng)
        assert order.compare(t1, t2) == order.compare(term_mul(s, t1), term_mul(s, t2))


@pytest.mark.parametrize("order", [TermOrder("lex"), TermOrder("deglex")])
def test_order_is_total(order):
    rng = random.Random(6)
    for _ in range(500):
        t1, t2 = random_term(rng), random_term(rng)
        c = order.compare(t1, t2)
        assert c == -order.compare(t2, t1)
        assert (c == 0) == (t1 == t2)


def test_order_validation():
    with pytest.raises(ValueError):
        TermOrder("grevlex")
    with pytest.raises(ValueError):
        TermOrder("lex", precedence=(0, 0))
    with pytest.raises(ValueError):
        TermOrder("lex", precedence=(1, 2))


def test_min_terms_examples():
    assert min_terms([(2, 0), (2, 1), (3, 0)]) == [(2, 0)]
    assert min_terms([(1, 0), (0, 1)]) == [(0, 1), (1, 0)]
    assert min_terms([]) == []
    assert min_terms([(1, 1), (1, 1)]) == [(1, 1)]


def test_min_terms_antichain_and_coverage():
    rng = random.Random(7)
    for _ in range(200):
        terms = [random_term(rng, nvars=2) for _ in range(rng.randint(0, 12))]
        kept = min_terms(terms)
        for a in kept:
            for b in kept:
                assert a == b or not term_divides(a, b)
        for t in terms:
            assert any(term_divides(k, t) for k in kept)
        assert set(kept) <= set(terms)


HEAP_KEY_ORDERS = [
    TermOrder("lex"),
    TermOrder("deglex"),
    TermOrder("lex", precedence=(1, 2, 0)),
    TermOrder("deglex", precedence=(2, 0, 1)),
]


@pytest.mark.parametrize("order", HEAP_KEY_ORDERS, ids=repr)
def test_heap_key_sorts_descending(order):
    rng = random.Random(8)
    for _ in range(50):
        terms = list({random_term(rng) for _ in range(rng.randint(1, 30))})
        assert sorted(terms, key=order.heap_key) == sorted(
            terms, key=order.sort_key, reverse=True
        )


@pytest.mark.parametrize("order", HEAP_KEY_ORDERS, ids=repr)
def test_heap_key_is_additive_and_invertible(order):
    rng = random.Random(9)
    for _ in range(300):
        s, t = random_term(rng), random_term(rng)
        ks, kt = order.heap_key(s), order.heap_key(t)
        assert order.term_from_heap_key(ks) == s
        assert order.heap_key(term_mul(s, t)) == tuple(a + b for a, b in zip(ks, kt))
        assert term_divides(s, t) == all(a >= b for a, b in zip(ks, kt))
