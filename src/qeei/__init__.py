"""Quaternion Hermitian eigenproblems via the eigenvector-eigenvalue
identity and the quaternion adjugate, with brute-force oracles."""

from .quat import Quaternion
from .qmatrix import (HermitianQMatrix, QMatrix, conj_transpose,
                      from_components, identity, matmul, minor,
                      natural_submatrix, real_lift, scale_right,
                      validate_hermitian, zeros)
from .qdet import det, det_invariance_check, qadj, row_expansion
from .eigen import (EigenPair, EEIReport, HermitianSolve, Spectrum,
                    eei_modulus, eei_report, eigenvector_from_qadj,
                    identity_residuals, right_eigenvalues, symmetric_eig,
                    verify_outer_product)
from .oracle import (NullSpaceResult, cauchy_binet_residual, null_space,
                     traditional_eigenpairs)
from . import errors

__version__ = "0.1.0"
