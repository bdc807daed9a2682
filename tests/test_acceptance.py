"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from qeei import (QMatrix, cauchy_binet_residual, det, eei_modulus, eei_report,
                  eigenvector_from_qadj, matmul, minor, qadj, real_lift,
                  right_eigenvalues, row_expansion, scale_right, symmetric_eig,
                  traditional_eigenpairs, validate_hermitian)
from qeei.eigen import lambda_shift
from qeei.quat import Quaternion
from qeei.random_matrices import (random_hermitian, random_hermitian_gapped,
                                  random_qmatrix)

from conftest import SQRT13, U, max_component_dev, phase_align

EXAMPLE = QMatrix([[3, U], [U.conj(), 2]])


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_example_reproduction():
    t0 = time.perf_counter()
    H = validate_hermitian(EXAMPLE)
    spec = right_eigenvalues(H)
    lo, hi = (5 - SQRT13) / 2, (5 + SQRT13) / 2
    eig_ok = abs(spec[0] - lo) < 1e-10 and abs(spec[1] - hi) < 1e-10
    det_ok = det(EXAMPLE).isclose(Quaternion(3.0), 1e-10)
    m1 = eei_modulus(H, 2, 1)
    m2 = eei_modulus(H, 2, 2)
    eei_ok = (abs(m1 - (SQRT13 + 13) / 26) < 1e-10
              and abs(m2 - (13 - SQRT13) / 26) < 1e-10)
    elapsed = time.perf_counter() - t0
    report(1, eig_ok and det_ok and eei_ok and elapsed < 1.0,
           f"eigenvalues/det/EEI moduli of the 2x2 example ({elapsed:.3f}s)")


def test_criterion_2_adjugate_listing_reproduction():
    t0 = time.perf_counter()
    H = validate_hermitian(EXAMPLE)
    lam1 = right_eigenvalues(H)[1]
    B0, B1, B2, B3 = qadj(lambda_shift(EXAMPLE, lam1)).components()
    listing_ok = (
        np.allclose(B0, [[0.5 + SQRT13 / 2, 0], [0, -0.5 + SQRT13 / 2]],
                    atol=1e-10)
        and np.allclose(B1, [[0, 1], [-1, 0]], atol=1e-10)
        and np.allclose(B2, [[0, -1], [1, 0]], atol=1e-10)
        and np.allclose(B3, [[0, 1], [-1, 0]], atol=1e-10))
    pair = eigenvector_from_qadj(H, 2)
    # reference prints 4 decimals with component 2 chosen real
    v = pair.vector
    q = v[1, 0].conj() * (1.0 / v[1, 0].modulus())
    v = scale_right(v, q)
    comp_ok = (max(abs(c - e) for c, e in
                   zip(v[0, 0].components(), (0.0, 0.4614, -0.4614, 0.4614))) < 5e-4
               and abs(v[1, 0].w - 0.6011) < 5e-4)
    elapsed = time.perf_counter() - t0
    report(2, listing_ok and comp_ok and elapsed < 1.0,
           f"qadj listing and reconstructed components ({elapsed:.3f}s)")


def test_criterion_3_adjugate_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    ok = True
    for n in (2, 3, 4, 5):
        for _ in range(50):
            H = random_hermitian(n, rng)
            Q = qadj(H.inner)
            d = det(H.inner)
            dE = QMatrix([[d * (1.0 if p == q else 0.0) for q in range(n)]
                          for p in range(n)])
            resid = (matmul(Q, H.inner) - dE).norm_inf()
            tol = 1e-9 * (1.0 + H.inner.norm_inf() ** n)
            worst = max(worst, resid / tol)
            ok = ok and resid < tol
    elapsed = time.perf_counter() - t0
    report(3, ok and elapsed < 30.0,
           f"qadj(H)H = det(H)E on 50 matrices each at n=2..5, "
           f"worst residual ratio {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_4_eei_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for t in range(50):
        n = 2 + t % 4
        H = random_hermitian_gapped(n, rng, min_gap=1e-3)
        worst = max(worst, max(r.residual for r in eei_report(H)))
    elapsed = time.perf_counter() - t0
    report(4, worst < 1e-7 and elapsed < 60.0,
           f"EEI residual over 50 gapped matrices n=2..5, "
           f"max {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_5_cauchy_binet_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    for t in range(50):
        n = 3 + t % 2
        H = random_hermitian(n, rng)
        lam = right_eigenvalues(H)[t % n]
        shifted = validate_hermitian(lambda_shift(H.inner, lam))
        B = random_qmatrix(n, n - 1, rng)
        worst = max(worst, cauchy_binet_residual(shifted, B))
    elapsed = time.perf_counter() - t0
    report(5, worst < 1e-8,
           f"Cauchy-Binet residual over 50 singular-shift instances n=3,4, "
           f"max {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_6_lift_quadruples():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    worst = 0.0
    ok = True
    for t in range(100):
        n = 2 + t % 5
        H = random_hermitian(n, rng)
        lift = real_lift(H.inner)
        values = symmetric_eig(lift)
        tol = 1e-8 * (1.0 + np.max(np.abs(lift)))
        for g in range(n):
            spread = values[4 * g + 3] - values[4 * g]
            worst = max(worst, spread / tol)
            ok = ok and spread < tol
    elapsed = time.perf_counter() - t0
    report(6, ok, f"lift eigenvalue quadruples over 100 matrices n<=6, "
                  f"worst spread ratio {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_7_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    worst = 0.0
    for t in range(50):
        n = 2 + t % 4
        H = random_hermitian_gapped(n, rng, min_gap=1e-3)
        trad = traditional_eigenpairs(H)
        for i in range(1, n + 1):
            main = eigenvector_from_qadj(H, i)
            aligned = phase_align(trad[i - 1].vector, main.vector)
            worst = max(worst, max_component_dev(aligned, main.vector))
    elapsed = time.perf_counter() - t0
    report(7, worst < 1e-7,
           f"adjugate vs elimination eigenvectors over 50 matrices n=2..5, "
           f"max componentwise dev {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_8_commutative_degeneration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    worst = 0.0
    for t in range(20):
        n = 2 + t % 4
        S = rng.uniform(-1, 1, (n, n))
        S = S + S.T
        A = QMatrix(S.tolist())
        ref_det = np.linalg.det(S)
        ref_adj = ref_det * np.linalg.inv(S)
        worst = max(worst, abs(det(A).w - ref_det),
                    abs(row_expansion(A).w - ref_det))
        B0, B1, B2, B3 = qadj(A).components()
        worst = max(worst, np.max(np.abs(B0 - ref_adj)),
                    np.max(np.abs(B1)), np.max(np.abs(B2)), np.max(np.abs(B3)))
    elapsed = time.perf_counter() - t0
    report(8, worst < 1e-12,
           f"det/row expansion/qadj vs classical on 20 real symmetric "
           f"matrices n<=5, max dev {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_9_zero_component_minor_eigenvalue():
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    worst = 0.0
    for t in range(20):
        n = 3 + t % 3
        B = random_hermitian_gapped(n - 1, rng, min_gap=1e-2)
        d = float(rng.uniform(5.0, 9.0))
        rows = [[B.inner[p, q] for q in range(n - 1)] + [0]
                for p in range(n - 1)]
        rows.append([0] * (n - 1) + [d])
        A = validate_hermitian(QMatrix(rows))
        spec = right_eigenvalues(A)
        minor_spec = right_eigenvalues(minor(A, n))
        for lam in spec.values:
            if abs(lam - d) < 1e-6:
                continue  # the eigenvector with support only on slot n
            worst = max(worst, min(abs(lam - mu) for mu in minor_spec.values))
    elapsed = time.perf_counter() - t0
    report(9, worst < 1e-8,
           f"forced-zero-component eigenvalues found in the minor spectrum, "
           f"max gap {worst:.2e} ({elapsed:.1f}s)")
