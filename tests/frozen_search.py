"""The exhaustive skew search as it stood before the quadratic-form walk, kept
as an oracle.

It builds every skew tensor on the grid and evaluates the full YE6 residual
with ``adw.bialgebra.adybe_residual``; it is deliberately independent of the
polarized form and the pruned walk.  ``test_search_differential`` compares it
with ``adw.bialgebra.search_skew_solutions``.  Do not optimise or refactor it.
"""

from __future__ import annotations

from itertools import product as iproduct

from adw.algebra import ADAlgebra
from adw.bialgebra import adybe_residual
from adw.fields import InputError
from adw.tensors import t3_is_zero


def is_ybe_solution(alg: ADAlgebra, r) -> bool:
    return t3_is_zero(adybe_residual(alg, r))


def skew_tensor_from_uppers(n, uppers):
    """Build a skew tensor from its strictly-upper entries (row-major)."""
    t = [[0] * n for _ in range(n)]
    it = iter(uppers)
    for i in range(n):
        for j in range(i + 1, n):
            v = next(it)
            t[i][j] = v
            t[j][i] = -v
    return tuple(tuple(row) for row in t)


def search_skew_solutions(alg: ADAlgebra, values):
    """Exhaust skew tensors with upper entries drawn from ``values``.

    Returns the solutions of the Yang-Baxter condition in deterministic
    lexicographic grid order.  Dimensions above 4 are refused: the grid grows
    as len(values)**(n(n-1)/2).
    """
    n = alg.dim
    if n > 4:
        raise InputError("skew search supports dimension <= 4")
    k = n * (n - 1) // 2
    found = []
    for combo in iproduct(values, repeat=k):
        r = skew_tensor_from_uppers(n, combo)
        if is_ybe_solution(alg, r):
            found.append(r)
    return found
