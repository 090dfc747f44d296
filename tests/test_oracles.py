"""Bases checked against oracles that share no completion code with them.

The zz bases of the acceptance corpus are checked against the qq bases
of the same generators and against the strong bases of ``zz_buchberger``,
as are cyclic-3, cyclic-4 and katsura-3 over zz.  Random field ideals in
3 variables, cyclic-4 and katsura-4, cyclic-5 over gf(32003) and
katsura-5 over qq are checked against sympy's ``groebner`` when sympy
is installed.
"""

import random
from fractions import Fraction

import pytest

from ringgb import Integers, PolyRing, PrimeField, Rationals, groebner_basis, interreduce

from corpus import corpus
from families import cyclic, katsura
from naive_poly import as_dict
from zz_buchberger import zz_groebner


def over(ring, polys):
    """``polys`` with their monomials taken into ``ring``."""
    return [ring.from_monomials(p.monomials) for p in polys]


def test_zz_bases_extend_to_the_qq_bases():
    # A strong zz basis of I is a Groebner basis of I over qq: its head
    # terms generate the head terms of every rational combination.
    entries = [e for e in corpus() if e.ring_name == "zz"]
    assert len(entries) == 100
    for entry in entries:
        zz_ring = entry.poly_ring
        qq_ring = PolyRing(Rationals(), zz_ring.variables, zz_ring.order)
        zz_basis = interreduce(entry.trace.basis)
        expected = groebner_basis(over(qq_ring, entry.generators))
        assert interreduce(over(qq_ring, zz_basis)) == expected


def test_zz_corpus_bases_match_the_strong_basis_oracle():
    entries = [e for e in corpus() if e.ring_name == "zz"]
    assert len(entries) == 100
    for entry in entries:
        expected = zz_groebner(entry.generators)
        assert [as_dict(p) for p in groebner_basis(entry.generators)] == expected, [str(g) for g in entry.generators]


# katsura-4 over zz (deglex) matches too, but the oracle takes 8-21 s on it.
@pytest.mark.parametrize("order", ["lex", "deglex"])
@pytest.mark.parametrize("family,n", [(cyclic, 3), (cyclic, 4), (katsura, 3)], ids=["cyclic3", "cyclic4", "katsura3"])
def test_zz_family_bases_match_the_strong_basis_oracle(family, n, order):
    ring = PolyRing(Integers(), [f"x{i}" for i in range(n)], order)
    gens = family(ring)
    assert [as_dict(p) for p in groebner_basis(gens)] == zz_groebner(gens)


def random_ideal(rng, ring):
    """2-3 generators of 2-4 terms, total degree <= 3, coefficients in [-5, 5]."""
    terms = [(a, b, c) for a in range(4) for b in range(4) for c in range(4) if a + b + c <= 3]
    gens = []
    while len(gens) < rng.randint(2, 3):
        p = ring.from_monomials(
            (rng.randint(-5, 5), rng.choice(terms)) for _ in range(rng.randint(2, 4))
        )
        if p:
            gens.append(p)
    return gens


SESSIONS = [
    (ring, order)
    for ring in (Rationals(), PrimeField(32003))
    for order in ("lex", "deglex")
]


def sympy_basis(sympy, ring, gens):
    """sympy's reduced basis of ``gens``, as polynomials of ``ring`` sorted like ``interreduce``."""
    symbols = sympy.symbols(ring.variables)
    options = {"order": "lex" if ring.order.kind == "lex" else "grlex"}
    if isinstance(ring.coeff_ring, PrimeField):
        options["modulus"] = ring.coeff_ring.p
    else:
        options["domain"] = sympy.QQ  # the default, ZZ, gives primitive, not monic, bases
    exprs = [
        sum(
            sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
            * sympy.Mul(*(s**e for s, e in zip(symbols, t)))
            for c, t in g.monomials
        )
        for g in gens
    ]
    theirs = [
        ring.from_monomials(
            (Fraction(int(c.p), int(c.q)), t)
            for t, c in sympy.Poly(e, *symbols).terms()
        )
        for e in sympy.groebner(exprs, *symbols, **options).exprs
    ]
    theirs.sort(key=lambda p: ring.order.sort_key(p.head_term), reverse=True)
    return theirs


@pytest.mark.parametrize("coeff_ring,order", SESSIONS, ids=lambda v: str(v))
def test_field_bases_match_sympy(coeff_ring, order):
    sympy = pytest.importorskip("sympy")
    ring = PolyRing(coeff_ring, ["x", "y", "z"], order)
    rng = random.Random(f"{coeff_ring}/{order}")
    for _ in range(5):
        gens = random_ideal(rng, ring)
        assert groebner_basis(gens) == sympy_basis(sympy, ring, gens), [str(g) for g in gens]


@pytest.mark.parametrize("coeff_ring", [Rationals(), PrimeField(32003)], ids=str)
@pytest.mark.parametrize("family", [cyclic, katsura], ids=["cyclic4", "katsura4"])
def test_four_variable_deglex_bases_match_sympy(family, coeff_ring):
    sympy = pytest.importorskip("sympy")
    ring = PolyRing(coeff_ring, ["a", "b", "c", "d"], "deglex")
    gens = family(ring)
    assert groebner_basis(gens) == sympy_basis(sympy, ring, gens)


def test_cyclic5_deglex_basis_over_gf32003_matches_sympy():
    sympy = pytest.importorskip("sympy")
    ring = PolyRing(PrimeField(32003), [f"x{i}" for i in range(5)], "deglex")
    gens = cyclic(ring)
    assert groebner_basis(gens) == sympy_basis(sympy, ring, gens)


def test_katsura5_deglex_basis_over_qq_matches_sympy():
    # Its coefficients grow to 30-digit numerators and denominators,
    # which the reduction loop sums unreduced until it pops each term.
    sympy = pytest.importorskip("sympy")
    ring = PolyRing(Rationals(), [f"u{i}" for i in range(5)], "deglex")
    gens = katsura(ring)
    assert groebner_basis(gens) == sympy_basis(sympy, ring, gens)
