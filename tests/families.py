"""The classical cyclic-n and katsura-n ideals, in the variables of a ``PolyRing``.

n is the ring's number of variables, taken in the order ``R.gens()``
lists them unless the caller passes them in another.  Both follow the
definitions of ``perfbench/workloads.py``, without its presentation (no
shuffling or unit scaling).
"""


def cyclic(R, x=None):
    """Sums of the n cyclic runs of d consecutive variables for d < n, and the product minus 1."""
    x = x or R.gens()
    n = len(x)
    gens = []
    for d in range(1, n):
        total = R.zero()
        for i in range(n):
            run = R.one()
            for k in range(d):
                run = run * x[(i + k) % n]
            total = total + run
        gens.append(total)
    product = R.one()
    for v in x:
        product = product * v
    return gens + [product - 1]


def katsura(R, u=None):
    """sum(u_i) - 1 over i = -(n-1)..n-1, and sum(u_i * u_(m-i)) - u_m for m < n - 1, with u_-i = u_i."""
    u = u or R.gens()
    top = len(u) - 1

    def U(i):
        return u[abs(i)] if abs(i) <= top else R.zero()

    gens = [sum((U(i) for i in range(-top, top + 1)), R.zero()) - 1]
    for m in range(top):
        gens.append(sum((U(i) * U(m - i) for i in range(-top, top + 1)), R.zero()) - U(m))
    return gens
