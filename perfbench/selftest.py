"""Self-tests of the benchmark itself (about a minute).

    python3 perfbench/selftest.py

1. A corrupted reference hash shows up as failed items.
2. The corpus pool is the acceptance corpus of ``tests/corpus.py``
   (seed 20260809), with its known zz completion counts.
3. Two seeds give different ``structured`` inputs but identical reduced
   bases, equal to the pinned references.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class CheckFailed(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def test_corrupted_reference_fails():
    items = workloads.setup_corpus(seed=3)[:20]
    references = oracle.load_references()
    _, outputs = run.run_pass(items, run.Speedometer())
    _, failed, _ = run.verify(items, [outputs], references)
    expect(failed == 0, f"{failed} items failed against the true references")
    corrupted = dict(references)
    corrupted[items[0].key] = "0" * 64
    attempted, failed, _ = run.verify(items, [outputs], corrupted)
    expect(failed == 1, f"corrupted hash gave {failed} of {attempted} failed, expected 1")


def test_corpus_is_acceptance_corpus():
    ringgb = workloads.import_ringgb()
    import corpus  # tests/corpus.py, imported after the fresh ringgb

    pool = workloads.corpus_pool(ringgb)
    entries = corpus.corpus()
    expect(workloads.CORPUS_SEED == corpus.CORPUS_SEED, "corpus seed differs")
    expect(len(pool) == len(entries) == 300, "corpus size differs")
    for (ring_name, order, R, gens), entry in zip(pool, entries):
        expect(ring_name == entry.ring_name and R == entry.poly_ring, "ring or order differs")
        expect(gens == entry.generators, f"generators differ: {gens} vs {entry.generators}")
    zz = [entry.trace for entry in entries if entry.ring_name == "zz"]
    counts = (
        sum(t.iterations for t in zz),
        sum(len(t.added) for t in zz),
        sum(t.reduction_steps for t in zz),
    )
    expect(counts == (23_246, 943, 174_847), f"zz counts {counts}")


def test_structured_seeds_change_inputs_not_bases():
    ringgb = workloads.import_ringgb()
    from ringgb.completion import complete, interreduce

    references = oracle.load_references()
    first = workloads.structured_inputs(ringgb, seed=1)
    second = workloads.structured_inputs(ringgb, seed=2)
    for (name, _, gens_a), (_, _, gens_b) in zip(first, second):
        expect(gens_a != gens_b, f"{name}: seeds 1 and 2 gave the same input")
        text_a = oracle.basis_text(interreduce(complete(gens_a).basis))
        text_b = oracle.basis_text(interreduce(complete(gens_b).basis))
        expect(text_a == text_b, f"{name}: reduced bases differ between seeds")
        expect(
            oracle.digest(text_a) == references[f"structured/{name}"],
            f"{name}: reduced basis differs from the reference",
        )


def main() -> int:
    failures = 0
    for test in (
        test_corrupted_reference_fails,
        test_corpus_is_acceptance_corpus,
        test_structured_seeds_change_inputs_not_bases,
    ):
        try:
            test()
        except CheckFailed as exc:
            failures += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"PASS {test.__name__}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
