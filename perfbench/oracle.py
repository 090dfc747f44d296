"""Output checks: reference hashes, certificate expansion, independent oracles.

``hash_check`` and friends run after the timed region of every run.
The oracle functions below them are used by ``make_references.py`` to
cross-check each output before its hash is stored, and by
``selftest.py``; they never run inside a timed region.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"


def load_references():
    with open(REFERENCES, encoding="utf-8") as handle:
        return json.load(handle)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def basis_text(basis) -> str:
    """The bytes ``ringgb gb`` prints for a basis: one polynomial per line."""
    return "".join(f"{p}\n" for p in basis)


def hash_check(output: str, expected) -> bool:
    return expected is not None and digest(output) == expected


def basis_hash_check(basis, expected) -> bool:
    return hash_check(basis_text(basis), expected)


def member_check(query_text, ring, generators):
    """Check for a membership answer: YES, then cofactors that expand exactly.

    Certificates are not unique, so no reference hash is involved: the
    answer is right when sum(cofactor[g] * generator[g]) equals the query.
    """

    def check(output: str, expected) -> bool:
        lines = output.splitlines()
        if len(lines) != 1 + len(generators) or lines[0] != "YES":
            return False
        total = ring.zero()
        for text, g in zip(lines[1:], generators):
            total = total + ring.parse(text) * g
        return total == ring.parse(query_text)

    return check


# -- independent oracles (reference generation and self-tests only) -----------


def _sympy_session(R, order):
    """(sympy, symbols, options) for a field session, or None without sympy."""
    try:
        import sympy
    except ImportError:
        return None
    options = {"order": "lex" if order == "lex" else "grlex"}
    if hasattr(R.coeff_ring, "p"):
        options["modulus"] = R.coeff_ring.p
    else:
        options["domain"] = sympy.QQ  # the default, ZZ, gives primitive not monic polynomials
    return sympy, sympy.symbols(R.variables), options


def sympy_basis(generators, order):
    """Reduced basis from sympy over gf(p) or qq, or None if sympy is absent."""
    R = generators[0].ring
    session = _sympy_session(R, order)
    if session is None:
        return None
    sympy, symbols, options = session
    exprs = [_to_sympy(g, symbols) for g in generators]
    basis = sympy.groebner(exprs, *symbols, **options)
    return [_from_sympy(sympy.Poly(e, *symbols), R) for e in basis.exprs]


def sympy_remainder(p, basis, order):
    """Remainder of p modulo a reduced field basis, from sympy, or None."""
    session = _sympy_session(p.ring, order)
    if session is None:
        return None
    sympy, symbols, options = session
    _, remainder = sympy.reduced(
        _to_sympy(p, symbols), [_to_sympy(b, symbols) for b in basis], *symbols, **options
    )
    return _from_sympy(sympy.Poly(remainder, *symbols), p.ring)


def _to_sympy(p, symbols):
    import sympy

    total = sympy.Integer(0)
    for c, t in p.monomials:
        c = Fraction(c)
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(symbols, t):
            term *= s**e
        total += term
    return total


def _from_sympy(poly, R):
    return R.from_monomials(
        (Fraction(int(c.p), int(c.q)) if hasattr(c, "q") else int(c), exps)
        for exps, c in poly.terms()
    )


def check_zz_basis(generators, reduced, completion):
    """Problems with a zz reduced basis, as a list of strings (empty when fine).

    The basis must be a strong Groebner basis, every generator must reduce
    to zero by it, every completion certificate must expand exactly to its
    basis element, and every reduced element must reduce to zero by the
    certified basis, so both ideals are equal.
    """
    problems = []
    if not completion.is_groebner_basis(reduced):
        problems.append("not a Groebner basis")
    if any(completion.normal_form(g, reduced) for g in generators):
        problems.append("a generator does not reduce to zero")
    trace = completion.complete(generators)
    for element, row in zip(trace.basis, trace.certificates):
        total = element.ring.zero()
        for cofactor, g in zip(row, trace.generators):
            total = total + cofactor * g
        if total != element:
            problems.append("a certificate does not expand to its element")
            break
    if any(completion.normal_form(b, list(trace.basis)) for b in reduced):
        problems.append("a reduced element is outside the ideal")
    if completion.interreduce(reduced) != list(reduced):
        problems.append("basis is not interreduced")
    return problems
