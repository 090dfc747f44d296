"""Command-line front end.

Three subcommands over a session fixed by --ring/--order/--vars:

    gb      print the interreduced Groebner basis, one polynomial per line
    nf      print the normal form of a query against the completed ideal
    member  print YES plus a combination certificate, or NO plus the
            normal form; exit 1 on NO

Output is deterministic: identical inputs produce byte-identical bytes.
Input problems exit 2 with a message on standard error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .completion import DEFAULT_STEP_LIMIT, complete, ideal_membership, interreduce
from .parser import PolynomialSyntaxError, parse_polynomial
from .poly import PolyRing, format_polynomial
from .reduction import SeededRandomStrategy, StepLimitExceeded, normal_form
from .rings import RingError, ring_from_string
from .terms import TermOrder


class InputError(Exception):
    """User-input problem that maps to exit code 2."""


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringgb",
        description="Groebner bases over gf(p), qq, and zz.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--ring", required=True, help="gf(p), qq, or zz")
        p.add_argument("--order", choices=["lex", "deglex"], default="lex")
        p.add_argument("--vars", required=True, help="comma-separated variable names, highest first")
        p.add_argument("--input", help="file with one polynomial per line (# comments, blank lines ignored)")
        p.add_argument("--seed", type=int, help="use a seeded randomized reduction strategy")
        p.add_argument("--trace", action="store_true", help="print completion statistics to stderr")
        p.add_argument(
            "--max-steps",
            type=_positive_int,
            default=DEFAULT_STEP_LIMIT,
            help=f"reduction-step limit of the completion (default {DEFAULT_STEP_LIMIT})",
        )

    gb = sub.add_parser("gb", help="compute the interreduced Groebner basis")
    common(gb)
    gb.add_argument("polynomials", nargs="*", help="ideal generators")

    nf = sub.add_parser("nf", help="normal form of a query modulo the ideal")
    common(nf)
    nf.add_argument("query", help="polynomial to reduce")
    nf.add_argument("polynomials", nargs="*", help="ideal generators")

    member = sub.add_parser("member", help="ideal membership with certificate")
    common(member)
    member.add_argument("query", help="polynomial to test")
    member.add_argument("polynomials", nargs="*", help="ideal generators")

    return parser


def read_polynomial_file(path: str) -> list:
    try:
        with open(path, encoding="utf-8-sig") as handle:  # drops a byte-order mark
            lines = handle.readlines()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    out = []
    for line in lines:
        text = line.strip()
        if text and not text.startswith("#"):
            out.append(text)
    return out


def _emit_trace(trace, stream):
    print(f"pairs processed: {trace.pairs_processed}", file=stream)
    print("pairs skipped: product {}, chain {}".format(*trace.pairs_skipped), file=stream)
    print(f"pair polynomials examined: {trace.iterations}", file=stream)
    print(f"polynomials added: {len(trace.added)}", file=stream)
    print(f"reduction steps: {trace.reduction_steps}", file=stream)
    print(f"basis size: {len(trace.basis)}", file=stream)


def _format_all(polys) -> list:
    try:
        return [format_polynomial(p) for p in polys]
    except ValueError:  # int-to-str conversion past Python's digit limit
        raise InputError(
            f"a result coefficient exceeds the {sys.get_int_max_str_digits()}-digit "
            "printing limit"
        ) from None


def run(args: argparse.Namespace, out=None, err=None) -> int:
    """Execute one parsed command; returns the process exit code.

    Every output line is built before any is written, so a failure
    leaves ``out`` empty.
    """
    out = out or sys.stdout
    err = err or sys.stderr
    ring = ring_from_string(args.ring)
    variables = tuple(name.strip() for name in args.vars.split(","))
    texts = read_polynomial_file(args.input) if args.input else []
    poly_ring = PolyRing(ring, variables, TermOrder(args.order))
    generators = [parse_polynomial(text, poly_ring) for text in texts + args.polynomials]
    strategy = SeededRandomStrategy(args.seed) if args.seed is not None else None

    trace = complete(generators, strategy=strategy, max_steps=args.max_steps)
    if args.trace:
        _emit_trace(trace, err)

    code = 0
    if args.command == "gb":
        lines = _format_all(interreduce(trace.basis))
    elif args.command == "nf":
        query = parse_polynomial(args.query, poly_ring)
        lines = _format_all([normal_form(query, trace.basis, strategy)])
    else:
        query = parse_polynomial(args.query, poly_ring)
        outcome = ideal_membership(query, generators, strategy=strategy, trace=trace)
        if outcome.is_member:
            lines = ["YES", *_format_all(outcome.certificate)]
        else:
            lines, code = ["NO", *_format_all([outcome.remainder])], 1
    out.write("".join(line + "\n" for line in lines))
    return code


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    # Built once per process: building costs more than many small runs.
    return build_arg_parser()


def main(argv=None) -> int:
    args = _arg_parser().parse_args(argv)
    try:
        return run(args)
    except (InputError, RingError, PolynomialSyntaxError, StepLimitExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
