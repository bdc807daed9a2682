"""Correctness gate applied to every operation the benchmark times.

Each check returns a list of problems; an empty list is a pass.  Nothing
here trusts a status the program reports about itself: results are
recomputed with this module's own Hamilton product against the numpy
references from perfbench.inputs, and any non-finite number fails.

Tolerances are relative to the input's scale s = max(1, ||A||_2):
eigenvalues within SPECTRUM_RTOL * s of the reference; eigenvector
residual within RESIDUAL_RTOL * s; verify residuals that carry a product
of k factors of A within RESIDUAL_RTOL * s**k.  At this package's
accuracy (about 1e-13 relative) the gate has six orders of margin, while
any perturbation that changes a result visibly still fails it.
"""

from __future__ import annotations

import json
import math

import numpy as np

SPECTRUM_RTOL = 1e-8
RESIDUAL_RTOL = 1e-6
# a component within this relative distance of the largest modulus may be
# the one the program chose to make real and non-negative
DOMINANT_BAND = 1e-6

# power of ||A|| each verify residual scales with at size n
VERIFY_RESIDUAL_POWER = {
    "eei_max": lambda n: n - 1,
    "outer_product_max": lambda n: n - 1,
    "adjugate_identity": lambda n: n,
    "det_vs_eigenvalue_product": lambda n: n,
    "unitarity": lambda n: 0,
}


def hamilton(a, b):
    """Quaternion product over the last axis (w, x, y, z), broadcasting."""
    aw, ax, ay, az = np.moveaxis(a, -1, 0)
    bw, bx, by, bz = np.moveaxis(b, -1, 0)
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def quat_array(value):
    """(n, 4) components of an n x 1 quaternion matrix or an array."""
    if hasattr(value, "components"):
        value = np.stack([np.asarray(c, dtype=float) for c in value.components()],
                         axis=-1)
    return np.asarray(value, dtype=float).reshape(-1, 4)


def _scale(matrix):
    return max(1.0, matrix.norm)


def check_spectrum(values, matrix):
    values = np.asarray(values, dtype=float)
    if values.shape != matrix.spectrum.shape:
        return [f"spectrum has shape {values.shape}, expected {matrix.spectrum.shape}"]
    if not np.all(np.isfinite(values)):
        return ["spectrum has a non-finite value"]
    err = float(np.max(np.abs(values - matrix.spectrum)))
    if not err <= SPECTRUM_RTOL * _scale(matrix):
        return [f"spectrum deviates from reference by {err:.3e}"]
    return []


def check_eigenpair(lam, vector, i, matrix, reported=()):
    """lam, vector: the program's i-th (1-based) eigenpair.

    reported holds the program's own diagnostics (residual, norm
    deviation); they are checked only for being finite.
    """
    v = quat_array(vector)
    if v.shape[0] != matrix.n:
        return [f"eigenvector has {v.shape[0]} components, expected {matrix.n}"]
    if not (math.isfinite(lam) and np.all(np.isfinite(v))
            and all(math.isfinite(r) for r in reported)):
        return ["eigenpair has a non-finite value"]
    problems = []
    scale = _scale(matrix)
    ref = matrix.spectrum[i - 1]
    if not abs(lam - ref) <= SPECTRUM_RTOL * scale:
        problems.append(f"lambda_{i} = {lam!r} but reference is {ref!r}")
    A = np.moveaxis(matrix.comps, 0, -1)                     # (n, n, 4)
    Av = hamilton(A, v[np.newaxis, :, :]).sum(axis=1)
    residual = float(np.linalg.norm(Av - v * lam))
    if not residual <= RESIDUAL_RTOL * scale:
        problems.append(f"||Av - v lambda|| = {residual:.3e}")
    norm_dev = abs(float(np.linalg.norm(v)) - 1.0)
    if not norm_dev <= RESIDUAL_RTOL:
        problems.append(f"| ||v|| - 1 | = {norm_dev:.3e}")
    moduli = np.linalg.norm(v, axis=1)
    near_top = moduli >= moduli.max() * (1.0 - DOMINANT_BAND)
    real_nonneg = ((np.abs(v[:, 1:]).max(axis=1) <= 1e-12 * moduli)
                   & (v[:, 0] >= 0.0))
    if not np.any(near_top & real_nonneg):
        problems.append("dominant component is not real and non-negative")
    return problems


def check_verify(exit_code, stdout, matrix):
    """Exit code, parsable JSON, spectrum and every residual, recomputed bounds."""
    if exit_code != 0:
        return [f"qeei verify exited with {exit_code}"]
    try:
        report = json.loads(stdout)
        spectrum = report["spectrum"]
        residuals = report["residuals"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return [f"qeei verify output is not the expected JSON: {exc}"]
    problems = check_spectrum(spectrum, matrix)
    missing = set(VERIFY_RESIDUAL_POWER) - set(residuals)
    if missing:
        problems.append(f"residuals missing: {sorted(missing)}")
    scale = _scale(matrix)
    for name, value in residuals.items():
        power = VERIFY_RESIDUAL_POWER.get(name, lambda n: n)(matrix.n)
        bound = RESIDUAL_RTOL * scale ** power
        if not (isinstance(value, (int, float)) and value <= bound):
            problems.append(f"residual {name} = {value!r} exceeds {bound:.3e}")
    return problems
