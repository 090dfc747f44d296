"""Reusable exhaustive checks for the coefficient-ring reduction laws.

The unit tests run these over small ranges; the acceptance suite runs
them over the full ranges it pins down.
"""

from ringgb.rings import Integers, PrimeField


def _measure(value):
    # Well-founded measure on ZZ remainders: |v| first, negatives above
    # positives so the sign flip at the window boundary still descends.
    return (abs(value), 1 if value < 0 else 0)


def nonzero_range(bound):
    return [v for v in range(-bound, bound + 1) if v != 0]


def check_multiples_reduce_to_zero_int(bound):
    """Nonzero multiples reduce to 0 in one step."""
    ring = Integers()
    for b in nonzero_range(bound):
        m = 1
        while abs(m * b) <= bound:
            for c in (m * b, -m * b):
                k, d = ring.reduce_step(c, b)
                assert d == 0 and k * b == c
            m += 1


def check_subtraction_identity(ring, elements):
    """Whenever a step exists, c - d == k*b exactly with k nonzero."""
    for b in elements:
        if ring.is_zero(b):
            continue
        for c in elements:
            hit = ring.reduce_step(c, b)
            if hit is None:
                continue
            k, d = hit
            assert not ring.is_zero(k)
            assert ring.add(c, ring.neg(d)) == ring.mul(k, b)


def check_transitivity_int(bound):
    """a reducible by b and b reducible to 0 by c imply a reducible by c,
    with the step strictly shrinking a's measure."""
    ring = Integers()
    for b in nonzero_range(bound):
        for c in nonzero_range(bound):
            if b % c != 0:
                continue
            for a in range(-bound, bound + 1):
                if ring.reduce_step(a, b) is None:
                    continue
                hit = ring.reduce_step(a, c)
                assert hit is not None, (a, b, c)
                _, d = hit
                assert _measure(d) < _measure(a), (a, b, c, d)


def check_transitivity_field(p):
    ring = PrimeField(p)
    nonzero = range(1, p)
    for b in nonzero:
        for c in nonzero:
            k, d = ring.reduce_step(b, c)
            assert d == 0
            for a in nonzero:
                if ring.reduce_step(a, b) is None:
                    continue
                hit = ring.reduce_step(a, c)
                assert hit is not None and hit[1] == 0


def check_fixed_divisor_terminates(ring, elements):
    """One step with a fixed divisor lands in normal form for it."""
    for b in elements:
        if ring.is_zero(b):
            continue
        for c in elements:
            hit = ring.reduce_step(c, b)
            if hit is None:
                continue
            assert ring.reduce_step(hit[1], b) is None


def check_steps_keep_misses(ring, elements):
    """A step never turns a miss into a hit, in the ring's ``_kernel_form``.

    If head b1 misses c and head b2 reduces c to d, b1 misses d too.  The
    default reduction rule relies on it to resume its divisor scan after
    a hit: its last round over the heads then finds no step.
    """
    form = ring._kernel_form()
    values = [form.enter(v) for v in elements]
    heads = [form.prepare(v) for v in values if not form.is_zero(v)]
    for c in values:
        missed = [h for h in heads if form.step(c, h) is None]
        for b in heads:
            hit = form.step(c, b)
            if hit is not None:
                assert not [h for h in missed if form.step(hit[1], h) is not None], (c, b)


def run_all_int(bound):
    ring = Integers()
    elements = list(range(-bound, bound + 1))
    check_multiples_reduce_to_zero_int(bound)
    check_subtraction_identity(ring, elements)
    check_transitivity_int(bound)
    check_fixed_divisor_terminates(ring, elements)
    check_steps_keep_misses(ring, elements)


def run_all_field(p):
    ring = PrimeField(p)
    elements = list(range(p))
    for c in range(1, p):
        for b in range(1, p):
            k, d = ring.reduce_step(c, b)
            assert d == 0 and k * b % p == c
    check_subtraction_identity(ring, elements)
    check_transitivity_field(p)
    check_fixed_divisor_terminates(ring, elements)
    check_steps_keep_misses(ring, elements)
