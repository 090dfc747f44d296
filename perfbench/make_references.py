"""Regenerate ``references.json``: one SHA-256 per benchmark item.

    python3 perfbench/make_references.py

Computes every pinned output with ringgb, cross-checks it before storing
its hash, and stops with exit 1 if any check fails:

* gf(p) and qq bases against the classical S-polynomial Buchberger of
  ``tests/field_buchberger.py`` and against sympy's ``groebner`` (when
  sympy is installed);
* zz bases with ``oracle.check_zz_basis`` (strong basis, generators reduce
  to zero, certificates expand exactly, both ideals equal);
* normal forms of the query pool against ``field_normal_form`` and
  sympy's ``reduced`` over fields, and over zz by irreducibility plus a
  certificate that expands exactly to query minus normal form.

Outputs are taken with the identity presentation; the benchmark checks
that every seeded presentation gives the same bytes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracle  # noqa: E402
import workloads  # noqa: E402
from field_buchberger import field_groebner, field_normal_form  # noqa: E402


def field_problems(gens, reduced, order):
    problems = []
    if field_groebner(gens) != list(reduced):
        problems.append("differs from field_buchberger")
    theirs = oracle.sympy_basis(gens, order)
    if theirs is not None and set(theirs) != set(reduced):
        problems.append("differs from sympy")
    return problems


def basis_problems(gens, reduced, order, completion):
    if isinstance(gens[0].ring.coeff_ring, sys.modules["ringgb.rings"].Integers):
        return oracle.check_zz_basis(gens, reduced, completion)
    return field_problems(gens, reduced, order)


def main() -> int:
    ringgb = workloads.import_ringgb()
    import ringgb.cli as cli
    import ringgb.completion as completion

    refs = {}
    failures = []

    def record(key, text, problems):
        refs[key] = oracle.digest(text)
        failures.extend(f"{key}: {p}" for p in problems)

    start = time.perf_counter()
    for index, (ring_name, order, R, gens) in enumerate(workloads.corpus_pool(ringgb)):
        out = workloads.run_cli(cli, workloads.corpus_argv(ring_name, order, gens, ringgb))
        reduced = [R.parse(line) for line in out.splitlines()]
        record(f"corpus/{index}", out, basis_problems(gens, reduced, order, completion))
    print(f"corpus: 300 items checked, {time.perf_counter() - start:.1f} s", flush=True)

    for name, ring_name, family, n in workloads.STRUCTURED:
        start = time.perf_counter()
        _, gens = family(ringgb, ringgb.ring_from_string(ring_name), n)
        reduced = completion.interreduce(completion.complete(gens).basis)
        record(
            f"structured/{name}",
            oracle.basis_text(reduced),
            basis_problems(gens, reduced, "deglex", completion),
        )
        print(f"structured/{name}: checked, {time.perf_counter() - start:.1f} s", flush=True)

    start = time.perf_counter()
    ideals = workloads.query_ideals(ringgb)
    pool = [entry for entry in workloads.query_pool(ringgb, ideals) if "/nf/" in entry[0]]
    for name, (label, R, gens) in ideals.items():
        trace = completion.complete(gens)
        reduced = completion.interreduce(trace.basis)
        failures.extend(f"query/{name}: {p}" for p in basis_problems(gens, reduced, "deglex", completion))
        for key, _, q in [entry for entry in pool if entry[1] == name]:
            r = completion.normal_form(q, trace.basis)
            problems = []
            if label == "zz":
                if completion.normal_form(r, trace.basis) != r:
                    problems.append("normal form is reducible")
                member = completion.ideal_membership(q - r, gens, trace=trace)
                total = R.zero()
                for c, g in zip(member.certificate or (), gens):
                    total = total + c * g
                if not member.is_member or total != q - r:
                    problems.append("query minus normal form has no exact certificate")
            else:
                if field_normal_form(q, reduced) != r:
                    problems.append("differs from field_normal_form")
                theirs = oracle.sympy_remainder(q, reduced, "deglex")
                if theirs is not None and theirs != r:
                    problems.append("differs from sympy")
            record(key, str(r), problems)
    print(f"query: {len(pool)} normal forms checked, {time.perf_counter() - start:.1f} s")

    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    if failures:
        return 1
    with open(oracle.REFERENCES, "w", encoding="utf-8") as handle:
        json.dump(refs, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(refs)} reference hashes to {oracle.REFERENCES.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
