"""Batched small-matrix arithmetic on grid arrays.

Grid samples hold one n x n matrix per grid point on their trailing two
axes; the grid-batched products, commutators and inverses of the numeric
layer and the CLI go through this module.  numpy's ``@`` on a stack of
small matrices makes one BLAS call per matrix, which dominates at the
n = 2 and 3 of the configured equations; the kernels here instead
accumulate broadcast outer products of columns and rows over the inner
index, n whole-array passes.  The layout of the arrays is unchanged, and
the leading (batch) axes broadcast as for ``@``.  Arrays are real or
complex, by promotion: each result takes the dtype numpy's promotion gives
from the operands.
"""

from __future__ import annotations

import numpy as np


def matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Batched matrix product over the trailing (n, n) axes."""
    out = A[..., :, 0, None] * B[..., None, 0, :]
    for j in range(1, A.shape[-1]):
        out += A[..., :, j, None] * B[..., None, j, :]
    return out


def commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Batched commutator AB - BA."""
    return matmul(A, B) - matmul(B, A)


def inv(A: np.ndarray) -> np.ndarray:
    """Batched inverse: the closed form for 2 x 2 matrices, LAPACK for any
    other size.  A matrix with zero determinant raises LinAlgError."""
    if A.shape[-2:] != (2, 2):
        return np.linalg.inv(A)
    a, b = A[..., 0, 0], A[..., 0, 1]
    c, d = A[..., 1, 0], A[..., 1, 1]
    det = a * d - b * c
    if not np.all(det):
        raise np.linalg.LinAlgError("Singular matrix")
    out = np.empty(A.shape, dtype=np.result_type(det, 1.0))
    out[..., 0, 0] = d / det
    out[..., 0, 1] = -b / det
    out[..., 1, 0] = -c / det
    out[..., 1, 1] = a / det
    return out
