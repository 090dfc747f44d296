"""Exact coefficient rings pluggable into the polynomial layer.

Three rings ship: prime fields GF(p), the rationals, and the integers.
Each exposes the same small contract, which is what completion calls:
exact arithmetic on canonical values, a single-step
division-with-remainder reduction, a gcd-style generator basis of the
ideal some values generate with the rows that express it in them, and
the generator of the solutions of ``a1*c1 + a2*c2 = 0``.  The
completion machinery is generic over this contract, so further rings
can be added without touching it.

Values are plain Python objects (ints for GF(p) and ZZ, ``Fraction``
for QQ) kept in a form unique per ring value; arithmetic never rounds.
Ring objects are stateless and hashable, safe to share across threads.

Text enters a ring only through ``from_fraction``, to which the parser
hands each literal ``n/d``; a value prints as its ``str``.
``element`` coerces ring values, ``int`` and ``Fraction`` and parses
no text.

``reduce_step`` runs once per candidate reducer, so it takes ring
elements (values as ``element`` returns them) and does not coerce its
arguments.

The reduction loop and the pair construction reach a ring through one
hook, ``_kernel_form``, which returns a ``_KernelForm``: the
coefficient representation they compute in, with its arithmetic, a
division step against a head prepared once per basis element, and the
coefficient rows of a critical pair.  The default is the ring's own
values and methods, the rows from ``groebner`` and ``syzygies`` (which
coerce), so a further ring needs nothing more than the contract above.
The shipped rings call none of these methods there.  GF(p) and ZZ
compute on their own ints, so their forms' ``enter`` and ``leave`` are
the identity.  GF(p) prepares each head as its inverse, which also
gives the pair rows.  ZZ prepares it as ``(b, |b|)`` and takes pair
rows from ``_xgcd`` and ``_zz_syzygy``, the lcm quotients that
``syzygies`` returns too.  Both set the form's ``ints``: the loop then
adds and multiplies inline, over GF(p) unreduced until it pops a term,
and over ZZ takes the division step inline too.  ZZ's symmetric
remainder is stated in ``_zz_step``, which ``reduce_step`` calls, and
in that inline copy, which a test pins to it.  QQ
reduces in ``(numerator, denominator)`` int pairs, which cost a
fraction of ``Fraction`` arithmetic, and sets the form's ``ratios``:
the loop sums them inline, not in lowest terms until it pops a term.
Every value outside the loop stays as ``element`` returns it.
"""

from __future__ import annotations

import operator
import re
from math import gcd
from fractions import Fraction
from typing import Callable, NamedTuple


class RingError(ValueError):
    """An operation fell outside a ring's supported domain."""


#: The first thirteen primes.  Miller-Rabin with these bases is exact for
#: every n below ``_MILLER_RABIN_BOUND``, the least strong pseudoprime to
#: all of them (Sorenson & Webster, "Strong pseudoprimes to twelve prime
#: bases", Math. Comp. 86, 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ``RingError`` past its proven range."""
    if n >= _MILLER_RABIN_BOUND:
        raise RingError(
            f"modulus {n} is too large; primality is decided only below "
            f"{_MILLER_RABIN_BOUND}"
        )
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with g = u*a + v*b and g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


class _KernelForm(NamedTuple):
    """The coefficients of the reduction loop: a representation and its operations.

    ``enter`` maps a ring element into the loop's representation and
    ``leave`` maps it back; both are the identity ``_same`` when the loop
    computes on the ring elements themselves, as on GF(p), on ZZ and in
    the default form.  ``add``, ``mul``, ``neg`` and ``is_zero``
    act on the representation as the ring's methods do on elements.
    ``prepare`` runs once per basis element on its entered head
    coefficient b, and ``step(c, prepare(b))`` is ``reduce_step(c, b)``
    in the representation.  ``pair_rows(prepare(a), prepare(b),
    groebner)`` is the list of rows ``(a1, a2)`` of ``groebner([a,
    b])[1]`` when ``groebner`` is true and of ``syzygies(a, b)``
    otherwise, in the representation: a critical pair's coefficients.
    ``ints`` is None, or the values are ints whose arithmetic is the int
    operators' modulo ``ints`` (0 for none), so the default reduction path
    sums them inline and takes a term ``% ints`` only when it pops it.
    A form with ``ints == 0`` is ZZ's: the loop assumes that it prepares a
    head b as ``(b, |b|)`` and that its step is the symmetric remainder,
    and takes that step inline on its default path, a copy of
    ``_zz_step``, which ``reduce_step`` calls.
    ``test_the_inline_path_reduces_as_the_call_path`` pins the two
    copies together.
    ``ratios`` is true when the values are rationals as ``(n, d)`` int
    pairs with d > 0, canonical in lowest terms: the default reduction
    path then sums them inline over the lcm of the denominators, leaves
    each sum uncancelled and brings a term to lowest terms only when it
    pops it, and ``_row_sum`` sums rows so and settles each entry once.
    """

    enter: Callable
    leave: Callable
    add: Callable
    mul: Callable
    neg: Callable
    is_zero: Callable
    prepare: Callable
    step: Callable
    pair_rows: Callable
    ints: int | None = None
    ratios: bool = False


def _same(value):
    return value


class CoefficientRing:
    """Contract shared by the shipped coefficient rings.

    The binary arithmetic methods and ``reduce_step`` assume canonical
    inputs and return canonical outputs; ``element`` (ring values,
    ``int``, ``Fraction``) and ``from_fraction`` (the parser's literals,
    the one way text enters a ring) are the entry points that
    canonicalize foreign values.  ``groebner`` and ``syzygies`` accept
    anything ``element`` accepts.  ``_kernel_form`` is the one hook of
    the reduction loop and the pair construction; its default runs them
    on these methods, so a ring overrides it only for speed.  A new ring
    writes ``element``, ``from_fraction``, ``add``, ``mul``, ``neg``,
    ``reduce_step``, ``groebner``, ``syzygies`` and ``canonical_unit``;
    every other method has a default.  A field also sets ``is_field``.
    The ring must be a principal ideal domain: completion forms pair
    polynomials only, and over other rings its result need not be a
    Groebner basis.  Nothing checks this.
    """

    name = "?"
    #: Whether every nonzero value is a unit.  Completion then applies
    #: Buchberger's pair criteria, which hold over fields only.
    is_field = False

    def _key(self):
        return (type(self).__name__,)

    def __eq__(self, other):
        return isinstance(other, CoefficientRing) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return self.name

    # -- canonicalization ------------------------------------------------

    def element(self, value):
        """Coerce ``value`` into canonical form, or raise ``RingError``."""
        raise NotImplementedError

    def from_fraction(self, numerator: int, denominator: int):
        """Canonical value of numerator/denominator, or raise ``RingError``."""
        raise NotImplementedError

    # -- arithmetic --------------------------------------------------------

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return a == 0

    # -- the reduction / basis contract -------------------------------------

    def reduce_step(self, c, b):
        """One division step of ``c`` by nonzero ``b``.

        ``c`` and ``b`` must be ring elements, as ``element`` returns
        them: the step is tried for every candidate reducer of every
        term, so it does not coerce.  Returns ``(k, d)`` with
        ``c = k*b + d``, ``k`` nonzero and ``d`` strictly below ``c`` in
        the ring's well-founded order, or ``None`` when ``c`` is already
        in normal form with respect to ``b``.
        """
        raise NotImplementedError

    def groebner(self, values):
        """Canonical generator basis of the ideal the values generate.

        Returns ``(basis, to_basis)`` where ``to_basis[i]`` expresses
        ``basis[i]`` as a combination of the inputs.
        """
        raise NotImplementedError

    def syzygies(self, a, b):
        """Generators ``(a1, a2)`` of the solutions of ``a1*a + a2*b = 0``.

        Raises ``RingError`` when ``a`` or ``b`` is zero.
        """
        raise NotImplementedError

    def _kernel_form(self) -> _KernelForm:
        """The reduction loop's ``_KernelForm``: by default the ring's own values and methods."""
        return _KernelForm(
            _same, _same, self.add, self.mul, self.neg, self.is_zero, _same, self.reduce_step,
            lambda a, b, groebner: self.groebner([a, b])[1] if groebner else self.syzygies(a, b),
        )

    def canonical_unit(self, c):
        """Unit u such that u*c is the canonical associate of nonzero c."""
        raise NotImplementedError

    def _check_nonzero_list(self, values):
        vals = [self.element(v) for v in values]
        if not vals:
            raise RingError("empty generating list")
        if any(self.is_zero(v) for v in vals):
            raise RingError("zero generator is not allowed")
        return vals


class _FieldMixin:
    """Shared behaviour of GF(p) and QQ: division is always exact.

    Each field class sets ``_ZERO``, its zero as ``element(0)`` gives it,
    which every division step returns as its remainder.
    """

    is_field = True

    def reduce_step(self, c, b):
        if self.is_zero(b):
            raise RingError("reduction by zero")
        if self.is_zero(c):
            return None
        return self._div(c, b), self._ZERO

    def groebner(self, values):
        vals = self._check_nonzero_list(values)
        row = [self.zero()] * len(vals)
        row[0] = self._div(self.one(), vals[0])
        return [self.one()], [row]

    def syzygies(self, a, b):
        a, b = self._check_nonzero_list([a, b])
        return [(self._div(self.one(), a), self.neg(self._div(self.one(), b)))]

    def canonical_unit(self, c):
        if self.is_zero(c):
            raise RingError("zero has no canonical unit")
        return self._div(self.one(), c)


class PrimeField(_FieldMixin, CoefficientRing):
    """GF(p): residues 0..p-1 under arithmetic modulo a prime p."""

    _ZERO = 0

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise RingError(f"modulus must be a prime integer, got {p!r}")
        self.p = p
        self.name = f"gf({p})"

    def _key(self):
        return ("gf", self.p)

    def element(self, value):
        if isinstance(value, Fraction):
            return self.from_fraction(value.numerator, value.denominator)
        if isinstance(value, int):
            return value % self.p
        raise RingError(f"cannot interpret {value!r} in {self.name}")

    def from_fraction(self, numerator, denominator):
        if denominator % self.p == 0:
            raise RingError(f"division by zero in {self.name}")
        return numerator * pow(denominator, -1, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def _div(self, a, b):
        return a * pow(b, -1, self.p) % self.p

    def _kernel_form(self):
        # Over a field the first dividing head always hits, so each head
        # is prepared as its inverse and a step is one product.  The pair
        # rows are then (1/a, 0) and (1/a, -1/b).
        p = self.p

        def step(c, inverse):
            return (c * inverse % p, 0) if c else None

        def rows(a, b, groebner):
            return [(a, 0 if groebner else p - b)]

        return _KernelForm(
            _same, _same, self.add, self.mul, self.neg, operator.not_, lambda b: pow(b, -1, p), step, rows, ints=p
        )


class Rationals(_FieldMixin, CoefficientRing):
    """QQ: exact fractions in lowest terms with positive denominator."""

    name = "qq"
    _ZERO = Fraction(0)

    def element(self, value):
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise RingError(f"cannot interpret {value!r} in qq")

    def from_fraction(self, numerator, denominator):
        if denominator == 0:
            raise RingError("division by zero in qq")
        return Fraction(numerator, denominator)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def _div(self, a, b):
        return a / b

    def _kernel_form(self):
        return _QQ_FORM


# QQ in the reduction loop: (n, d) int pairs with gcd(n, d) = 1 and
# d > 0, so zero is (0, 1).  Sums and products cancel common factors
# as Fraction does (Knuth, TAOCP vol. 2, 4.5.1).  Only the default
# reduction path and ``_row_sum`` hold pending sums that are not yet in
# lowest terms (the form's ``ratios``); no such pair leaves them.


def _qq_add(x, y):
    a, b = x
    c, d = y
    g = gcd(b, d)
    if g == 1:
        return a * d + b * c, b * d
    s = d // g
    n = a * s + c * (b // g)
    g = gcd(n, g)
    return n // g, b // g * s


def _qq_mul(x, y):
    a, b = x
    c, d = y
    g = gcd(a, d)
    h = gcd(c, b)
    return (a // g) * (c // h), (b // h) * (d // g)


def _qq_step(c, inverse):
    return (_qq_mul(c, inverse), (0, 1)) if c[0] else None


def _qq_inverse(x):
    n, d = x
    return (d, n) if n > 0 else (-d, -n)


_QQ_FORM = _KernelForm(
    enter=lambda f: (f.numerator, f.denominator),
    leave=lambda x: Fraction(*x),
    add=_qq_add,
    mul=_qq_mul,
    neg=lambda x: (-x[0], x[1]),
    is_zero=lambda x: not x[0],
    prepare=_qq_inverse,
    step=_qq_step,
    pair_rows=lambda a, b, groebner: [(a, (0, 1) if groebner else (-b[0], b[1]))],  # as over GF(p)
    ratios=True,
)


class Integers(CoefficientRing):
    """ZZ with symmetric-remainder division.

    A step of c by b leaves the remainder in the half-open window
    (-|b|/2, |b|/2]; the tie at |b|/2 keeps the positive representative.
    Remainders are canonical, which is what makes normal forms over ZZ
    unique and the computed bases strong.  The reduction loop computes on
    the ints themselves, with inline operators on its default path, and
    its ``_kernel_form`` prepares each head once as ``(b, |b|)``.
    """

    name = "zz"

    def element(self, value):
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise RingError(f"non-integer coefficient {value} in zz")
            return value.numerator
        raise RingError(f"cannot interpret {value!r} in zz")

    def from_fraction(self, numerator, denominator):
        if denominator == 0:
            raise RingError("division by zero in zz")
        if numerator % denominator != 0:
            raise RingError(
                f"non-integer coefficient {numerator}/{denominator} in zz"
            )
        return numerator // denominator

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def reduce_step(self, c, b):
        if b == 0:
            raise RingError("reduction by zero")
        return _zz_step(c, (b, abs(b)))

    def groebner(self, values):
        vals = self._check_nonzero_list(values)
        g = vals[0]
        row = [1] + [0] * (len(vals) - 1)
        for idx in range(1, len(vals)):
            g, u, v = _xgcd(g, vals[idx])
            row = [u * entry for entry in row]
            row[idx] = v
        if g < 0:
            g, row = -g, [-entry for entry in row]
        return [g], [row]

    def syzygies(self, a, b):
        return [_zz_syzygy(*self._check_nonzero_list([a, b]))]

    def canonical_unit(self, c):
        if c == 0:
            raise RingError("zero has no canonical unit")
        return -1 if c < 0 else 1

    def _kernel_form(self):
        return _ZZ_FORM


def _zz_step(c, head):
    # The step of ``reduce_step``, against a head prepared as (b, |b|):
    # the symmetric remainder d of c, and no step (k = 0) exactly when d
    # equals c.  ``reduction._reduce``'s default path takes it inline.
    b, m = head
    d = c % m
    if 2 * d > m:
        d -= m
    if d == c:
        return None
    return (c - d) // b, d


def _zz_syzygy(a, b):
    # The lcm quotients (l/a, -l/b), l = lcm(a, b): the one syzygy of nonzero a and b.
    common = abs(a * b) // gcd(a, b)
    return common // a, -(common // b)


def _zz_rows(a, b, groebner):
    # Heads prepared as (b, |b|); the rows of ``groebner`` and ``syzygies``.
    a, b = a[0], b[0]
    return [_xgcd(a, b)[1:] if groebner else _zz_syzygy(a, b)]


_ZZ_FORM = _KernelForm(
    enter=_same,
    leave=_same,
    add=operator.add,
    mul=operator.mul,
    neg=operator.neg,
    is_zero=operator.not_,
    prepare=lambda b: (b, abs(b)),
    step=_zz_step,
    pair_rows=_zz_rows,
    ints=0,
)


def ring_from_string(text: str) -> CoefficientRing:
    """Ring named by a CLI selector: "gf(p)", "qq", or "zz"."""
    s = text.strip().lower()
    if s == "qq":
        return Rationals()
    if s == "zz":
        return Integers()
    m = re.fullmatch(r"gf\((\d+)\)", s)
    if m:
        return PrimeField(int(m.group(1)))
    raise RingError(f"unknown ring {text!r}; expected gf(p), qq, or zz")
