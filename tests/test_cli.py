import io
import subprocess
import sys

import pytest

from ringgb.cli import build_arg_parser, run
from ringgb.completion import DEFAULT_STEP_LIMIT
from ringgb.reduction import StepLimitExceeded

GOLDEN_FIELD = "x - y^2\ny^3 - 1\n"
GOLDEN_INT = "x*y\n2*x\n3*y\n"


def invoke(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "ringgb", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_gb_field_golden():
    result = invoke("gb", "--ring", "qq", "--order", "lex", "--vars", "x,y",
                    "x^2 - y", "x*y - 1")
    assert result.returncode == 0
    assert result.stdout == GOLDEN_FIELD
    assert result.stderr == ""


def test_gb_int_golden():
    result = invoke("gb", "--ring", "zz", "--vars", "x,y", "2*x", "3*y")
    assert result.returncode == 0
    assert result.stdout == GOLDEN_INT


def test_gb_is_deterministic_across_flag_order():
    a = invoke("gb", "--ring", "qq", "--order", "lex", "--vars", "x,y",
               "x^2 - y", "x*y - 1")
    b = invoke("gb", "--vars", "x,y", "--order", "lex", "--ring", "qq",
               "x^2 - y", "x*y - 1")
    assert a.stdout == b.stdout == GOLDEN_FIELD


def test_gb_empty_ideal():
    result = invoke("gb", "--ring", "qq", "--vars", "x,y")
    assert result.returncode == 0
    assert result.stdout == ""


def test_nf_command():
    result = invoke("nf", "--ring", "qq", "--vars", "x,y",
                    "x^3", "x^2 - y", "x*y - 1")
    assert result.returncode == 0
    assert result.stdout == "1\n"


def test_member_no_with_normal_form():
    result = invoke("member", "--ring", "zz", "--vars", "x,y",
                    "x + y", "2*x", "3*y")
    assert result.returncode == 1
    assert result.stdout == "NO\nx + y\n"


def test_member_yes_with_certificate():
    result = invoke("member", "--ring", "zz", "--vars", "x,y",
                    "6*x*y", "2*x", "3*y")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "YES"
    assert len(lines) == 3  # one cofactor per generator
    assert lines == ["YES", "3*y", "0"]


def test_gb_prime_field_session():
    result = invoke("gb", "--ring", "gf(5)", "--vars", "x,y", "2*x^2 - y", "x*y - 3")
    assert result.returncode == 0
    assert result.stdout == "x + 4*y^2\ny^3 + 2\n"
    nf = invoke("nf", "--ring", "gf(5)", "--vars", "x,y", "x^2", "2*x^2 - y")
    assert nf.stdout == "3*y\n"


def test_input_file_with_comments(tmp_path):
    ideal = tmp_path / "ideal.txt"
    ideal.write_text("# the textbook pair\nx^2 - y\n\nx*y - 1\n", encoding="utf-8")
    result = invoke("gb", "--ring", "qq", "--vars", "x,y", "--input", str(ideal))
    assert result.returncode == 0
    assert result.stdout == GOLDEN_FIELD


@pytest.mark.parametrize(
    "content", ["x^2 - y\nx*y - 1\n", "# the textbook pair\nx^2 - y\nx*y - 1\n"], ids=["polynomial", "comment"]
)
def test_input_file_with_a_byte_order_mark(tmp_path, content):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(content.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + content.encode("utf-8"))
    args = ("gb", "--ring", "qq", "--vars", "x,y", "--input")
    expected = subprocess.run([sys.executable, "-m", "ringgb", *args, str(plain)], capture_output=True)
    got = subprocess.run([sys.executable, "-m", "ringgb", *args, str(marked)], capture_output=True)
    assert (got.returncode, got.stdout, got.stderr) == (expected.returncode, expected.stdout, expected.stderr)
    assert expected.stdout == GOLDEN_FIELD.encode()


def test_input_file_combines_with_positional_args(tmp_path):
    ideal = tmp_path / "ideal.txt"
    ideal.write_text("2*x\n", encoding="utf-8")
    result = invoke("gb", "--ring", "zz", "--vars", "x,y", "--input", str(ideal), "3*y")
    assert result.stdout == GOLDEN_INT


def test_trace_goes_to_stderr_only():
    plain = invoke("gb", "--ring", "zz", "--vars", "x,y", "2*x", "3*y")
    traced = invoke("gb", "--ring", "zz", "--vars", "x,y", "--trace", "2*x", "3*y")
    assert traced.stdout == plain.stdout
    assert "pairs processed:" in traced.stderr
    assert "polynomials added: 1" in traced.stderr


def test_trace_reports_skipped_pairs_on_stderr_only():
    args = ("gb", "--ring", "qq", "--vars", "x,y", "x^2 - y", "x*y - 1")
    plain = invoke(*args)
    traced = invoke(*args[:5], "--trace", *args[5:])
    assert traced.stdout == plain.stdout == GOLDEN_FIELD
    assert traced.stderr.splitlines() == [
        "pairs processed: 6",
        "pairs skipped: product 2, chain 0",
        "pair polynomials examined: 4",
        "polynomials added: 2",
        "reduction steps: 2",
        "basis size: 4",
    ]
    over_zz = invoke("gb", "--ring", "zz", "--vars", "x,y", "--trace", "2*x", "3*y")
    assert "pairs skipped: product 0, chain 0\n" in over_zz.stderr


def test_seed_does_not_change_the_reduced_basis():
    baseline = invoke("gb", "--ring", "zz", "--vars", "x,y", "2*x", "3*y")
    seeded = invoke("gb", "--ring", "zz", "--vars", "x,y", "--seed", "7", "2*x", "3*y")
    assert seeded.stdout == baseline.stdout


@pytest.mark.parametrize(
    "args",
    [
        ("gb", "--ring", "gf(4)", "--vars", "x", "x"),
        ("gb", "--ring", "nope", "--vars", "x", "x"),
        ("gb", "--ring", "zz", "--vars", "x", "1/2*x"),
        ("gb", "--ring", "qq", "--vars", "x", "x + z"),
        ("gb", "--ring", "qq", "--vars", "x,x", "x"),
        ("gb", "--ring", "qq", "--vars", "x", "--input", "/nonexistent/file", "x"),
        ("nf", "--ring", "qq", "--vars", "x", "x +", "x"),
    ],
)
def test_input_errors_exit_2(args):
    result = invoke(*args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "error:" in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        # An input exponent at or above the bound.
        ("nf", "--ring", "qq", "--vars", "x,y", "x^99999999999999999999*y", "y^2 - 1"),
        # Valid inputs whose normal form would hold y^3000000000.
        ("nf", "--ring", "qq", "--vars", "x,y", "x^3", "x - y^1000000000"),
    ],
    ids=["input", "overflow"],
)
def test_exponents_past_the_bound_exit_2(args):
    result = invoke(*args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: exponent or total degree out of range: the bound is 2^31 = 2147483648\n"


def test_non_ascii_digit_exits_2():
    result = invoke("gb", "--ring", "qq", "--vars", "x", "\u0663*x - \uff16")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "unexpected character '\u0663' (column 1)" in result.stderr


KATSURA4 = (
    "u0 + 2*u1 + 2*u2 + 2*u3 - 1",
    "u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 - u0",
    "2*u0*u1 + 2*u1*u2 + 2*u2*u3 - u1",
    "2*u0*u2 + u1^2 + 2*u1*u3 - u2",
)


def test_max_steps_bounds_the_completion():
    args = ("gb", "--ring", "zz", "--order", "deglex", "--vars", "u0,u1,u2,u3")
    result = invoke(*args, "--max-steps", "10", *KATSURA4)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: exceeded the configured limit of 10 reduction steps\n"


CYCLIC5 = (
    "x0 + x1 + x2 + x3 + x4",
    "x0*x1 + x0*x4 + x1*x2 + x2*x3 + x3*x4",
    "x0*x1*x2 + x0*x1*x4 + x0*x3*x4 + x1*x2*x3 + x2*x3*x4",
    "x0*x1*x2*x3 + x0*x1*x2*x4 + x0*x1*x3*x4 + x0*x2*x3*x4 + x1*x2*x3*x4",
    "x0*x1*x2*x3*x4 - 1",
)


@pytest.mark.parametrize("command", ["nf", "member"])
def test_a_malformed_query_is_rejected_before_the_completion(command):
    # cyclic-5 over zz would run into the step limit; the query is
    # parsed with the generators, so its fault is the one reported.
    args = (command, "--ring", "zz", "--order", "deglex", "--vars", "x0,x1,x2,x3,x4", "--max-steps", "20000")
    result = invoke(*args, "x0^", *CYCLIC5, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (2, "", "error: expected an integer exponent (column 4)\n")


def test_max_steps_bounds_a_completion_that_takes_no_steps():
    # Each pair polynomial here is an irreducible binomial, so it joins the
    # basis without a reduction step; the queued pairs use up the limit.
    args = ("gb", "--ring", "qq", "--vars", "x,y", "--max-steps", "1000")
    result = invoke(*args, "x^100000*y - 1", "y^100000*x - 1", timeout=60)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: exceeded the configured limit of 1000 reduction steps\n"


@pytest.mark.parametrize(
    "command, ring", [("nf", "qq"), ("member", "gf(32003)"), ("member", "zz")]
)
def test_max_steps_bounds_the_query_reduction(command, ring):
    # The completed basis is x - y itself; the query then needs 20,000,000
    # steps, each of which trades one x for one y.
    args = (command, "--ring", ring, "--vars", "x,y", "--max-steps", "1000")
    result = invoke(*args, "x^20000000", "x - y", timeout=60)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: exceeded the configured limit of 1000 reduction steps\n"


@pytest.mark.parametrize("command, answer", [("nf", "0\n"), ("member", "YES\n")])
def test_max_steps_admits_a_query_of_exactly_that_many_steps(command, answer):
    # x^20 - y^20 reduces to 0 in 20 steps against the basis x - y, whose
    # completion takes none.
    argv = [command, "--ring", "qq", "--vars", "x,y", "--max-steps", "20", "x^20 - y^20", "x - y"]
    code, out, err = run_in_process(argv)
    assert (code, out[: len(answer)], err) == (0, answer, "")
    argv[6] = "19"
    with pytest.raises(StepLimitExceeded, match="limit of 19 reduction steps"):
        run_in_process(argv)


@pytest.mark.parametrize("value", ["0", "-5", "ten"])
def test_max_steps_must_be_positive(value):
    result = invoke("gb", "--ring", "zz", "--vars", "x,y", "--max-steps", value, "2*x", "3*y")
    assert result.returncode == 2
    assert result.stdout == ""
    assert f"--max-steps: expected a positive integer, got '{value}'" in result.stderr


def test_max_steps_default_and_a_limit_that_is_not_reached():
    argv = ["gb", "--ring", "qq", "--vars", "x,y", "x^2 - y", "x*y - 1"]
    assert build_arg_parser().parse_args(argv).max_steps == DEFAULT_STEP_LIMIT
    assert run_in_process([*argv[:5], "--max-steps", "100", *argv[5:]]) == (0, GOLDEN_FIELD, "")


def test_61_bit_prime_field_runs():
    result = invoke("gb", "--ring", "gf(2305843009213693951)", "--vars", "x,y",
                    "x^2 - y", "x*y - 1")
    assert result.returncode == 0
    minus_one = 2**61 - 2
    assert result.stdout == f"x + {minus_one}*y^2\ny^3 + {minus_one}\n"


def test_modulus_past_the_primality_bound_exits_2():
    result = invoke("gb", "--ring", f"gf({2**89 - 1})", "--vars", "x", "x")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "too large" in result.stderr


def test_missing_subcommand_exits_2():
    result = invoke()
    assert result.returncode == 2


def run_in_process(argv):
    """(exit code, stdout, stderr) of ``run`` on the parsed ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    code = run(build_arg_parser().parse_args(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_run_in_process():
    argv = ["gb", "--ring", "qq", "--vars", "x,y", "x^2 - y", "x*y - 1"]
    assert run_in_process(argv) == (0, GOLDEN_FIELD, "")


def test_config_from_args_collects_sources(tmp_path):
    ideal = tmp_path / "gens.txt"
    ideal.write_text("x\n# skip\n\ny\n", encoding="utf-8")
    argv = ["member", "--ring", "zz", "--vars", "x,y", "--input", str(ideal),
            "--seed", "3", "x + y", "x*y"]
    # generators x, y from the file, then x*y; the query is x + y
    assert run_in_process(argv) == (0, "YES\n1\n1\n0\n", "")


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no integer printing limit"
)
@pytest.mark.parametrize("command", ["gb", "member"])
def test_oversized_output_coefficient_leaves_stdout_empty(command):
    # z - x*y reduces to z - a*b, whose coefficient has 6000 digits; the
    # seeded member run answers YES with a certificate holding one too
    a, b = "7" * 3000, "3" * 3000
    query = ["--seed", "1", f"x*z - x^2*y + x^2 - {a}*x"] if command == "member" else []
    result = invoke(command, "--ring", "qq", "--vars", "x,y,z", *query,
                    f"x - {a}", f"y - {b}", "z - x*y")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "exceeds the 4300-digit printing limit" in result.stderr


@pytest.mark.parametrize("ring", ["qq", "zz"])
def test_coprime_heads_past_the_bound(ring):
    # The lcm x^2000000000*y^2000000000 has degree 4000000000, past the
    # bound.  Over a field the product criterion skips the pair without
    # building a term there; over zz the pair's gcd polynomial holds it.
    result = invoke("gb", "--ring", ring, "--order", "deglex", "--vars", "x,y", "x^2000000000", "y^2000000000")
    if ring == "qq":
        assert (result.returncode, result.stdout, result.stderr) == (0, "x^2000000000\ny^2000000000\n", "")
    else:
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: exponent or total degree out of range: the bound is 2^31 = 2147483648\n"
