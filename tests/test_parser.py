import random
import string
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ringgb.parser import PolynomialSyntaxError, _tokenize, parse_polynomial
from ringgb.poly import PolyRing, format_polynomial
from ringgb.rings import Integers, PrimeField, Rationals

QQ_XY = PolyRing(Rationals(), ["x", "y"])
ZZ_XY = PolyRing(Integers(), ["x", "y"])
GF5_XY = PolyRing(PrimeField(5), ["x", "y"])


def test_parse_basic_example():
    p = parse_polynomial("2*x^2*y - 3*y + 1", ZZ_XY)
    assert p.monomials == ((2, (2, 1)), (-3, (0, 1)), (1, (0, 0)))
    assert p.head_term == (2, 1)


def test_parse_cancellation_prints_zero():
    p = parse_polynomial("x - x", QQ_XY)
    assert not p
    assert format_polynomial(p) == "0"


def test_parse_rational_coefficients():
    p = parse_polynomial("-1/2*x + y", QQ_XY)
    assert p.monomials == ((Fraction(-1, 2), (1, 0)), (1, (0, 1)))


def test_a_terms_literals_multiply_wherever_they_stand():
    p = parse_polynomial("2*x*3/4*y 5 - 3 4", QQ_XY)
    assert p.monomials == ((Fraction(15, 2), (1, 1)), (-12, (0, 0)))
    assert parse_polynomial("3*x*4", GF5_XY) == 2 * GF5_XY.variable("x")


def test_parse_optional_star_and_whitespace():
    assert parse_polynomial("2x^2y", ZZ_XY) == parse_polynomial("2*x^2*y", ZZ_XY)
    assert parse_polynomial("  2 x ", ZZ_XY) == parse_polynomial("2*x", ZZ_XY)
    assert parse_polynomial("x x", ZZ_XY) == parse_polynomial("x^2", ZZ_XY)


def test_parse_leading_sign_and_constants():
    assert parse_polynomial("-x", ZZ_XY) == -ZZ_XY.variable("x")
    assert parse_polynomial("+5", ZZ_XY) == ZZ_XY.constant(5)
    assert parse_polynomial("0", ZZ_XY) == ZZ_XY.zero()


def test_parse_exact_integer_fraction_over_zz():
    assert parse_polynomial("4/2*x", ZZ_XY) == 2 * ZZ_XY.variable("x")


def test_parse_gf_coefficients():
    p = parse_polynomial("7*x - y", GF5_XY)
    assert p.monomials == ((2, (1, 0)), (4, (0, 1)))
    assert parse_polynomial("1/2*x", GF5_XY) == 3 * GF5_XY.variable("x")


# (text, ring, message, column): one line per error path of the parser,
# each literal checked by the ring's from_fraction on its own.
ERRORS = [
    ("", QQ_XY, "empty polynomial", 1),
    ("   ", QQ_XY, "empty polynomial", 1),
    ("x +", QQ_XY, "expected a coefficient or variable", 4),
    ("+", QQ_XY, "expected a coefficient or variable", 2),
    ("x - -1", QQ_XY, "expected a coefficient or variable", 5),
    ("^2", QQ_XY, "unexpected '^'", 1),
    ("* x", QQ_XY, "unexpected '*'", 1),
    ("x^2^3", QQ_XY, "unexpected '^'", 4),
    ("x/2", QQ_XY, "unexpected '/'", 2),
    ("x^", QQ_XY, "expected an integer exponent", 3),
    ("x ^ y", QQ_XY, "expected an integer exponent", 5),
    ("2**x", QQ_XY, "expected a factor after '*'", 3),
    ("x*", QQ_XY, "expected a factor after '*'", 3),
    ("2/", QQ_XY, "expected an integer denominator", 3),
    ("1/x", QQ_XY, "expected an integer denominator", 3),
    ("1/0*x", QQ_XY, "division by zero in qq", 1),
    ("2 + @", QQ_XY, "unexpected character '@'", 5),
    ("x + @", QQ_XY, "unexpected character '@'", 5),
    ("2*x+z", QQ_XY, "unknown variable 'z'", 5),
    ("1/2*x", ZZ_XY, "non-integer coefficient 1/2 in zz", 1),
    ("x + 3/2*y", ZZ_XY, "non-integer coefficient 3/2 in zz", 5),
    ("1/2*2*x", ZZ_XY, "non-integer coefficient 1/2 in zz", 1),
    ("1/5", GF5_XY, "division by zero in gf(5)", 1),
    ("x*10/5", GF5_XY, "division by zero in gf(5)", 3),
    ("x - " + "7" * 5000, QQ_XY, "integer of 5000 digits is too long", 5),
]


def assert_error(text, ring, message, column):
    with pytest.raises(PolynomialSyntaxError) as info:
        parse_polynomial(text, ring)
    assert (str(info.value), info.value.position) == (f"{message} (column {column})", column), text


@pytest.mark.parametrize(
    "text",
    ["", "   ", "x +", "^2", "* x", "x ^ y", "2**x", "x/2", "x - -1", "2 + @", "1/x"],
)
def test_parse_syntax_errors(text):
    (case,) = [case for case in ERRORS if case[:2] == (text, QQ_XY)]
    assert_error(*case)


def test_every_error_has_its_message_and_column():
    for case in ERRORS:
        assert_error(*case)


@pytest.mark.parametrize(
    "text, column",
    [("1" * 5000, 1), ("x + 2/" + "3" * 5000, 7), ("x^" + "9" * 5000, 3), ("y*x^" + "1" * 5000, 5)],
    ids=["coefficient", "denominator", "exponent", "later-exponent"],
)
def test_integer_past_the_digit_limit_is_a_syntax_error(text, column):
    with pytest.raises(PolynomialSyntaxError, match="5000 digits") as info:
        parse_polynomial(text, QQ_XY)
    assert info.value.position == column


@pytest.mark.parametrize(
    "text, column",
    [("\u0663*x - 6", 1), ("x - \uff16", 5), ("x^\u0663 - 1", 3), ("1/\u0663*x", 3)],
    ids=["arabic-indic-coefficient", "fullwidth-coefficient", "exponent", "denominator"],
)
def test_only_ascii_digits_are_integers(text, column):
    with pytest.raises(PolynomialSyntaxError, match="unexpected character") as info:
        parse_polynomial(text, QQ_XY)
    assert info.value.position == column


def random_poly(rng, ring, bound=6):
    return ring.from_monomials(
        (rng.randint(-bound, bound), (rng.randint(0, 3), rng.randint(0, 3)))
        for _ in range(rng.randint(0, 5))
    )


@pytest.mark.parametrize("ring", [QQ_XY, ZZ_XY, GF5_XY])
def test_format_parse_roundtrip(ring):
    rng = random.Random(61)
    for _ in range(200):
        p = random_poly(rng, ring)
        assert parse_polynomial(format_polynomial(p), ring) == p


def test_roundtrip_with_fractions():
    rng = random.Random(62)
    for _ in range(100):
        p = QQ_XY.from_monomials(
            (Fraction(rng.randint(-9, 9), rng.randint(1, 9)), (rng.randint(0, 3), rng.randint(0, 3)))
            for _ in range(rng.randint(0, 4))
        )
        assert parse_polynomial(format_polynomial(p), QQ_XY) == p


BIG = 2**90
SPECIAL = [0, 1, -1, 2, -2, BIG, -BIG, BIG + 1, -BIG - 1]
integers = st.sampled_from(SPECIAL) | st.integers(-(10**6), 10**6) | st.integers(-(2**100), 2**100)
fractions = st.builds(Fraction, integers, st.sampled_from([1, 2, 3, 7, BIG]) | st.integers(1, 10**6))
ROUND_TRIP_RINGS = {
    "gf(5)": (PrimeField(5), integers),
    "gf(32003)": (PrimeField(32003), integers),
    "qq": (Rationals(), integers | fractions),
    "zz": (Integers(), integers),
}


@pytest.mark.parametrize("order", ["lex", "deglex"])
@pytest.mark.parametrize("name", list(ROUND_TRIP_RINGS))
def test_format_parse_roundtrip_property(name, order):
    coeff_ring, coefficients = ROUND_TRIP_RINGS[name]
    ring = PolyRing(coeff_ring, ["x", "y1", "z_2"], order)
    terms = st.tuples(*[st.integers(0, 4) | st.sampled_from([0, 1, 12])] * 3)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(coefficients, terms), max_size=6))
    def roundtrip(monomials):
        p = ring.from_monomials(monomials)
        assert parse_polynomial(format_polynomial(p), ring) == p

    roundtrip()


TOKEN_START = string.ascii_letters + string.digits + "+-*/^"


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="0123456789xyzAB_+-*/^ \t\n\u00a0@.\u00e9", max_size=30))
def test_tokens_sit_at_their_columns_or_the_first_stray_character_is_reported(text):
    try:
        tokens = _tokenize(text)
    except PolynomialSyntaxError as exc:
        col = exc.position
        stray = text[col - 1]
        assert not stray.isspace() and stray not in TOKEN_START
        assert str(exc) == f"unexpected character {stray!r} (column {col})"
        clean = _tokenize(text[: col - 1])[:-1]  # the text before it tokenizes
        assert "".join(tok for tok, _ in clean) == "".join(text[: col - 1].split())
        return
    assert tokens[-1] == (None, len(text) + 1)
    for tok, col in tokens[:-1]:
        assert text[col - 1 : col - 1 + len(tok)] == tok
    assert "".join(tok for tok, _ in tokens[:-1]) == "".join(text.split())
