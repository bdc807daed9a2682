"""Survey every identity's residual over random Hermitian matrices.

Usage: python scripts/residual_survey.py [--n-max 5] [--trials 20] [--seed 0]
"""

import argparse

import numpy as np

from qeei import (HermitianSolve, cauchy_binet_residual, det, eei_report,
                  identity, matmul, qadj, traditional_eigenpairs,
                  validate_hermitian, verify_outer_product)
from qeei.eigen import lambda_shift
from qeei.qmatrix import scale_left
from qeei.random_matrices import random_hermitian_gapped, random_qmatrix


def survey(n, trials, rng):
    rows = {"adjugate_identity": 0.0, "eei": 0.0, "outer": 0.0,
            "cauchy_binet": 0.0, "oracle_dev": 0.0}
    for _ in range(trials):
        H = random_hermitian_gapped(n, rng, min_gap=1e-3)
        solve = HermitianSolve(H)
        Q = qadj(H.inner)
        d = det(H.inner)
        dE = scale_left(d, identity(n))
        rows["adjugate_identity"] = max(rows["adjugate_identity"],
                             (matmul(Q, H.inner) - dE).norm_inf())
        rows["eei"] = max(rows["eei"],
                          max(r.residual for r in eei_report(solve)))
        rows["outer"] = max(rows["outer"],
                            max(verify_outer_product(solve, i)
                                for i in range(1, n + 1)))
        if n >= 2:
            lam = solve.spectrum[0]
            shifted = validate_hermitian(lambda_shift(H.inner, lam))
            B = random_qmatrix(n, n - 1, rng)
            rows["cauchy_binet"] = max(rows["cauchy_binet"],
                                       cauchy_binet_residual(shifted, B))
        trad = traditional_eigenpairs(solve)
        for pair in trad:
            rows["oracle_dev"] = max(rows["oracle_dev"], pair.residual)
    return rows


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--n-max", type=int, default=5)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    header = ["n", "adjugate_identity", "eei", "outer", "cauchy_binet", "oracle_dev"]
    print("  ".join(f"{h:>12}" for h in header))
    for n in range(2, args.n_max + 1):
        rows = survey(n, args.trials, rng)
        print(f"{n:>12}  " + "  ".join(f"{rows[k]:>12.3e}" for k in header[1:]))


if __name__ == "__main__":
    main()
