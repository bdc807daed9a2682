"""Survey every identity's residual over random Hermitian matrices.

Usage: python scripts/residual_survey.py [--n-max 5] [--trials 20] [--seed 0]
"""

import argparse

import numpy as np

from qeei import (HermitianSolve, cauchy_binet_residual, identity_residuals,
                  traditional_eigenpairs, validate_hermitian)
from qeei.eigen import lambda_shift
from qeei.random_matrices import random_hermitian_gapped, random_qmatrix

COLUMNS = ("eei_max", "outer_product_max", "adjugate_identity",
           "det_vs_eigenvalue_product", "unitarity", "cauchy_binet", "oracle_dev")


def survey(n, trials, rng):
    rows = dict.fromkeys(COLUMNS, 0.0)
    for _ in range(trials):
        H = random_hermitian_gapped(n, rng, min_gap=1e-3)
        solve = HermitianSolve(H)
        trial = identity_residuals(solve)
        if n >= 2:
            lam = solve.spectrum[0]
            shifted = validate_hermitian(lambda_shift(H.inner, lam))
            B = random_qmatrix(n, n - 1, rng)
            trial["cauchy_binet"] = cauchy_binet_residual(shifted, B)
        trial["oracle_dev"] = max(p.residual for p in traditional_eigenpairs(solve))
        rows = {k: max(rows[k], trial.get(k, 0.0)) for k in COLUMNS}
    return rows


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--n-max", type=int, default=5)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    widths = [max(12, len(h)) for h in COLUMNS]
    print(f"{'n':>12}  " + "  ".join(f"{h:>{w}}" for h, w in zip(COLUMNS, widths)))
    for n in range(2, args.n_max + 1):
        rows = survey(n, args.trials, rng)
        print(f"{n:>12}  " + "  ".join(f"{rows[h]:>{w}.3e}"
                                       for h, w in zip(COLUMNS, widths)))


if __name__ == "__main__":
    main()
