"""Reference reduction loop that rescans the polynomial after every step.

Independent oracle for the reduction tests: it lists every valid step
of the whole polynomial with ``term_divides`` on plain terms, lets the
strategy pick one, and applies it with ``Polynomial`` arithmetic, so
it shares neither the heap-key accumulator nor the candidate listing
of ``ringgb.reduction``.  It calls ``select`` once more at the end,
on no candidates, and stops when that returns None.
"""

from ringgb.reduction import FirstReducibleStrategy, ReductionStep
from ringgb.terms import term_divides

from naive_poly import term_div


def iter_reduction_steps(p, basis):
    """All valid steps, largest target monomial first, reducers in basis order."""
    ring = p.ring.coeff_ring
    heads = [b.head_monomial for b in basis]
    for c, t in p.monomials:
        for idx, (head_c, head_t) in enumerate(heads):
            if term_divides(head_t, t):
                hit = ring.reduce_step(c, head_c)
                if hit is not None:
                    yield ReductionStep(idx, t, term_div(t, head_t), hit[0], hit[1])


def _generic_normal_form(p, basis, strategy, budget, collected):
    """``strategy.select`` picks every step; ``collected[reducer]`` sums its cofactor by heap key."""
    add = p.ring.coeff_ring.add
    key_of = p.ring.order.heap_key
    q = p
    while True:
        step = strategy.select(iter_reduction_steps(q, basis))
        if step is None:
            return q
        if budget is not None:
            budget.spend()
        q = q - basis[step.reducer].mul_monomial(step.coefficient, step.cofactor_term)
        if collected is not None:
            cofactor = collected.setdefault(step.reducer, {})
            ks = key_of(step.cofactor_term)
            old = cofactor.get(ks)
            k = step.coefficient
            cofactor[ks] = k if old is None else add(old, k)


def normal_form(p, basis, strategy=None, budget=None):
    return _generic_normal_form(p, basis, strategy or FirstReducibleStrategy(), budget, None)


def normal_form_with_cofactors(p, basis, strategy=None, budget=None):
    collected = {}
    q = _generic_normal_form(p, basis, strategy or FirstReducibleStrategy(), budget, collected)
    ring = p.ring
    is_zero = ring.coeff_ring.is_zero
    cofactors = []
    for i in range(len(basis)):
        # Cofactor terms whose coefficients cancelled are dropped here.
        cofactor = {ks: k for ks, k in collected.get(i, {}).items() if not is_zero(k)}
        cofactors.append(ring._from_keyed(cofactor))
    return q, cofactors
