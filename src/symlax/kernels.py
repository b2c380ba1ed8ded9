"""Batched small-matrix arithmetic and finite differences on grid arrays.

Grid samples hold one n x n matrix per grid point on their trailing two
axes.  Grid-batched products are numpy's ``@``, called directly where they
occur; this module holds the two operations that are more than one
product: the commutator and the inverse, whose 2 x 2 case has a closed
form.  For float64 stacks ``@`` beats a broadcast column-times-row
accumulation at every size the program uses (best of 5 on an Intel Xeon
with one BLAS thread, numpy 2.4.6: 2.6 against 4.5 ms on a 257^2 grid of
2 x 2 matrices, 2.6 against 11.9 ms at 3 x 3, and 10 against 24 us for
the 257 lines of one 2 x 2 Lax-march step).  The leading (batch) axes
broadcast as for ``@``.  Arrays are real or complex, by promotion: each
result takes the dtype numpy's promotion gives from the operands.

Every finite-difference derivative of the grid checks is ``gradient``:
second order along one axis, in the interior and at both edges.
"""

from __future__ import annotations

import numpy as np


def commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Batched commutator AB - BA."""
    return A @ B - B @ A


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


def gradient(a: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Finite-difference derivative of a grid array along one grid axis of
    spacing h: central differences inside, one-sided second-order ones at
    the two edges (``np.gradient`` with ``edge_order=2``)."""
    return np.gradient(a, h, axis=axis, edge_order=2)
