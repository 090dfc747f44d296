"""Inputs and items of the three benchmark workloads.

Every workload is a closed loop over a fixed list of items: one item
starts when the previous one returns, on one thread.  ``setup(seed)``
imports ``ringgb`` afresh and builds the items; the same seed gives the
same items.  An ``Item``'s ``run()`` does the timed work and returns the
output that its ``check`` verifies after the timed passes.

Where an output is pinned by a stored reference hash, the seed only
changes how the input is presented (generator order, unit scaling, term
order, item order), which leaves the correct output unchanged.  That is
what lets ``references.json`` hold one hash per item for every seed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
import sys
from dataclasses import dataclass
from typing import Callable

#: The acceptance corpus of ``tests/corpus.py``: seed, size, recipe.
CORPUS_SEED = 20260809
IDEALS_PER_RING = 100
COEFF_BOUND = 3
TERMS_DEG2 = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
CORPUS_RINGS = ("gf(5)", "qq", "zz")

#: The query polynomials are pinned by their own seed, so that the
#: normal forms can be pinned by hash and every run seed does the same
#: work; the run seed shuffles their terms and the item order.
QUERY_POOL_SEED = 7919
NF_PER_IDEAL = 20
MEMBER_PER_IDEAL = 20

#: Deterministic per-item reduction budgets.  Items at the seed commit
#: need at most a tenth of these; corpus items run through the CLI,
#: whose own limit is ``completion.DEFAULT_STEP_LIMIT``.
STRUCTURED_MAX_STEPS = 300_000
QUERY_MAX_STEPS = 10_000

#: Short ring labels used by the per-ring metrics.
RING_LABEL = {"gf(5)": "gf", "gf(32003)": "gf", "qq": "qq", "zz": "zz"}


@dataclass
class Item:
    key: str  # reference key, stable across seeds
    ring: str  # "gf", "qq" or "zz"
    run: Callable[[], object]
    check: Callable[[object, str | None], bool]  # (output, reference hash)


def import_ringgb():
    """Import ``ringgb`` as a fresh interpreter would, dropping cached modules."""
    for name in [m for m in sys.modules if m == "ringgb" or m.startswith("ringgb.")]:
        del sys.modules[name]
    return importlib.import_module("ringgb")


# -- classical families -------------------------------------------------------


def cyclic(ringgb, coeff_ring, n):
    """cyclic-n in variables x0..x{n-1}, deglex."""
    R = ringgb.PolyRing(coeff_ring, [f"x{i}" for i in range(n)], "deglex")
    x = R.gens()
    gens = []
    for d in range(1, n):
        total = R.zero()
        for i in range(n):
            m = R.one()
            for k in range(d):
                m = m * x[(i + k) % n]
            total = total + m
        gens.append(total)
    prod = R.one()
    for v in x:
        prod = prod * v
    gens.append(prod - 1)
    return R, gens


def katsura(ringgb, coeff_ring, n):
    """katsura-n with n variables u0..u{n-1}, deglex."""
    R = ringgb.PolyRing(coeff_ring, [f"u{i}" for i in range(n)], "deglex")
    u = R.gens()
    top = n - 1

    def U(i):
        i = abs(i)
        return u[i] if i <= top else R.zero()

    gens = [sum((U(i) for i in range(-top, top + 1)), R.zero()) - 1]
    for m in range(top):
        total = R.zero()
        for i in range(-top, top + 1):
            total = total + U(i) * U(m - i)
        gens.append(total - U(m))
    return R, gens


def random_unit(rng, coeff_ring, ringgb):
    """Random unit that leaves the cost of the arithmetic unchanged.

    Over qq only the sign is drawn: scaling by a/b changed the time of
    katsura-5 over qq by up to a third between seeds.
    """
    if isinstance(coeff_ring, ringgb.PrimeField):
        return rng.randint(1, coeff_ring.p - 1)
    return rng.choice([1, -1])


def present(rng, gens, ringgb):
    """Shuffle generator order and scale each generator by a random unit."""
    gens = list(gens)
    rng.shuffle(gens)
    return [g.scale(random_unit(rng, g.ring.coeff_ring, ringgb)) for g in gens]


# -- corpus ---------------------------------------------------------------------


def corpus_pool(ringgb, seed=CORPUS_SEED):
    """The acceptance-corpus recipe: [(ring name, order, PolyRing, generators)]."""
    rng = random.Random(seed)
    pool = []
    for ring_name in CORPUS_RINGS:
        coeff_ring = ringgb.ring_from_string(ring_name)
        for index in range(IDEALS_PER_RING):
            order = "lex" if index % 2 == 0 else "deglex"
            R = ringgb.PolyRing(coeff_ring, ["x", "y"], order)
            gens = []
            for _ in range(rng.randint(1, 3)):
                while True:
                    p = R.from_monomials(
                        (rng.randint(-COEFF_BOUND, COEFF_BOUND), t) for t in TERMS_DEG2
                    )
                    if p:
                        break
                gens.append(p)
            pool.append((ring_name, order, R, gens))
    return pool


def corpus_argv(ring_name, order, gens, ringgb):
    texts = [ringgb.format_polynomial(g) for g in gens]
    # "--" keeps a generator with a leading minus from reading as an option.
    return ["gb", "--ring", ring_name, "--order", order, "--vars", "x,y", "--", *texts]


def run_cli(cli_module, argv):
    """One in-process CLI call; returns stdout, or raises on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_module.main(argv)
    if code != 0 or err.getvalue():
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def setup_corpus(seed):
    ringgb = import_ringgb()
    cli = importlib.import_module("ringgb.cli")
    from oracle import hash_check

    rng = random.Random(seed)
    items = []
    for index, (ring_name, order, _, gens) in enumerate(corpus_pool(ringgb)):
        argv = corpus_argv(ring_name, order, present(rng, gens, ringgb), ringgb)
        items.append(
            Item(
                f"corpus/{index}",
                RING_LABEL[ring_name],
                lambda argv=argv: run_cli(cli, argv),
                hash_check,
            )
        )
    rng.shuffle(items)
    return items


# -- structured -------------------------------------------------------------------

STRUCTURED = (
    ("katsura5-gf32003", "gf(32003)", katsura, 5),
    ("katsura5-qq", "qq", katsura, 5),
    ("katsura4-zz", "zz", katsura, 4),
)


def structured_inputs(ringgb, seed):
    """[(name, ring label, presented generators)] for one seed."""
    rng = random.Random(seed)
    out = []
    for name, ring_name, family, n in STRUCTURED:
        _, gens = family(ringgb, ringgb.ring_from_string(ring_name), n)
        out.append((name, RING_LABEL[ring_name], present(rng, gens, ringgb)))
    return out


def setup_structured(seed):
    ringgb = import_ringgb()
    completion = importlib.import_module("ringgb.completion")
    from oracle import basis_hash_check

    def run(gens):
        trace = completion.complete(gens, max_steps=STRUCTURED_MAX_STEPS)
        return completion.interreduce(trace.basis)

    return [
        Item(f"structured/{name}", label, lambda gens=gens: run(gens), basis_hash_check)
        for name, label, gens in structured_inputs(ringgb, seed)
    ]


# -- query --------------------------------------------------------------------------

QUERY_IDEALS = (
    ("cyclic4-gf32003", "gf(32003)", cyclic, 4),
    ("cyclic4-qq", "qq", cyclic, 4),
    ("cyclic4-zz", "zz", cyclic, 4),
    ("katsura4-gf32003", "gf(32003)", katsura, 4),
    ("katsura4-qq", "qq", katsura, 4),
)


def random_term(rng, nvars, degree):
    """Uniformly placed exponent vector of the given total degree."""
    cuts = sorted(rng.randint(0, degree) for _ in range(nvars - 1))
    bounds = [0, *cuts, degree]
    return tuple(bounds[i + 1] - bounds[i] for i in range(nvars))


def random_query(rng, R):
    """Degree 10-12, 30-40 distinct terms, nonzero coefficients in [-9, 9]."""
    top = rng.randint(10, 12)
    size = rng.randint(30, 40)
    terms = {random_term(rng, R.nvars, top)}
    while len(terms) < size:
        terms.add(random_term(rng, R.nvars, rng.randint(0, top)))
    return R.from_monomials(
        (rng.choice([-1, 1]) * rng.randint(1, 9), t) for t in sorted(terms)
    )


def random_member(rng, R, gens):
    """sum(c_g * g) with two-term cofactors, so the total degree reaches 10-12."""
    top = rng.randint(10, 12)
    total = R.zero()
    for g in gens:
        room = top - max(sum(t) for _, t in g.monomials)
        cofactor = R.from_monomials(
            (rng.choice([-1, 1]) * rng.randint(1, 9), random_term(rng, R.nvars, rng.randint(room - 2, room)))
            for _ in range(2)
        )
        total = total + cofactor * g
    return total


def shuffled_text(rng, p, ringgb):
    """Text of p with its monomials in random order; parses back to p."""
    pieces = [ringgb.format_polynomial(p.ring.monomial(c, t)) for c, t in p.monomials]
    rng.shuffle(pieces)
    return " + ".join(pieces).replace("+ -", "- ")


def query_ideals(ringgb):
    """{name: (ring label, PolyRing, generators)} for the five query ideals."""
    out = {}
    for name, ring_name, family, n in QUERY_IDEALS:
        R, gens = family(ringgb, ringgb.ring_from_string(ring_name), n)
        out[name] = (RING_LABEL[ring_name], R, gens)
    return out


def query_pool(ringgb, ideals):
    """[(key, ideal name, polynomial)]: the pinned nf and member queries."""
    rng = random.Random(QUERY_POOL_SEED)
    pool = []
    for name, (_, R, gens) in ideals.items():
        pool += [(f"query/nf/{name}/{k}", name, random_query(rng, R)) for k in range(NF_PER_IDEAL)]
        pool += [
            (f"query/member/{name}/{k}", name, random_member(rng, R, gens))
            for k in range(MEMBER_PER_IDEAL)
        ]
    return pool


def setup_query(seed):
    ringgb = import_ringgb()
    completion = importlib.import_module("ringgb.completion")
    parser = importlib.import_module("ringgb.parser")
    poly = importlib.import_module("ringgb.poly")
    reduction = importlib.import_module("ringgb.reduction")
    from oracle import hash_check, member_check

    ideals = query_ideals(ringgb)
    traces = {name: completion.complete(gens) for name, (_, _, gens) in ideals.items()}
    rng = random.Random(seed)

    def run_nf(text, R, basis):
        q = parser.parse_polynomial(text, R)
        budget = reduction.StepBudget(QUERY_MAX_STEPS)
        return poly.format_polynomial(reduction.normal_form(q, basis, budget=budget))

    def run_member(text, R, gens, trace):
        q = parser.parse_polynomial(text, R)
        result = completion.ideal_membership(q, gens, trace=trace)
        if not result.is_member:
            return "NO\n" + poly.format_polynomial(result.remainder) + "\n"
        lines = ["YES", *(poly.format_polynomial(c) for c in result.certificate)]
        return "\n".join(lines) + "\n"

    items = []
    for key, name, p in query_pool(ringgb, ideals):
        label, R, gens = ideals[name]
        trace = traces[name]
        text = shuffled_text(rng, p, ringgb)
        if "/nf/" in key:
            run = lambda t=text, R=R, b=trace.basis: run_nf(t, R, b)  # noqa: E731
            check = hash_check
        else:
            run = lambda t=text, R=R, g=gens, tr=trace: run_member(t, R, g, tr)  # noqa: E731
            check = member_check(text, R, gens)
        items.append(Item(key, label, run, check))
    rng.shuffle(items)
    return items


SETUPS = {"corpus": setup_corpus, "structured": setup_structured, "query": setup_query}
