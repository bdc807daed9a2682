"""Re-derive the natural-submatrix rearrangement convention empirically.

For Hermitian H the adjugate must satisfy qadj(H) = det(H) * inv(H), so
each entry pins down the value one row expansion has to take.  This
script enumerates row and column orderings of each deleted minor and
prints the ones that match on several random matrices; the shipped
convention (row j and column i moved to the front) is the consistent
survivor.  Kept as documentation of how the convention was fixed.
"""

import itertools

import numpy as np

from qeei import qdet, qmatrix
from qeei.random_matrices import random_hermitian


def required_row_expansions(H):
    """required[(i, j)] = value |H_ij|^row must take (1-based)."""
    n = H.n_rows
    d = qdet.det(H)
    # the first block row of the inverse lift holds inv(H)'s components
    inv_lift = np.linalg.inv(qmatrix.real_lift(H))
    Hinv = qmatrix.from_components(*np.split(inv_lift[:n], 4, axis=1))
    req = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            target = Hinv[j - 1, i - 1] * d.w
            req[(i, j)] = target if i == j else -target
    return req


def matching_orders(samples, reqs, i, j):
    n = samples[0].n_rows
    rem_rows = [r for r in range(1, n + 1) if r != i]
    rem_cols = [c for c in range(1, n + 1) if c != j]
    survivors = None
    for H, req in zip(samples, reqs):
        ok = set()
        for ro in itertools.permutations(rem_rows):
            for co in itertools.permutations(rem_cols):
                sub = qmatrix.QMatrix(
                    [[H[r - 1, c - 1] for c in co] for r in ro])
                if qdet.row_expansion(sub).isclose(req[(i, j)], 1e-8):
                    ok.add((ro, co))
        survivors = ok if survivors is None else survivors & ok
    return sorted(survivors)


def main():
    rng = np.random.default_rng(7)
    for n in (3, 4):
        print(f"=== n = {n} ===")
        samples = [random_hermitian(n, rng).inner for _ in range(4)]
        reqs = [required_row_expansions(H) for H in samples]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                matches = matching_orders(samples, reqs, i, j)
                shipped = qmatrix.natural_orders(n, i, j)
                tag = "  <- shipped" if tuple(map(tuple, shipped)) in matches else ""
                print(f"  (i={i}, j={j}): {matches}{tag}")


if __name__ == "__main__":
    main()
