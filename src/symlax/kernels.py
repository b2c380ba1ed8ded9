"""Batched small-matrix arithmetic and finite differences on grid arrays.

Grid samples hold one n x n matrix per grid point on their trailing two
axes.  Grid-batched products are numpy's ``@``, called directly where they
occur; this module holds the two operations that are more than one
product: the commutator and the inverse.  For float64 stacks ``@`` beats a
broadcast column-times-row accumulation at every size the program uses
(best of 5 on an Intel Xeon with one BLAS thread, numpy 2.4.6: 2.6 against
4.5 ms on a 257^2 grid of 2 x 2 matrices, 2.6 against 11.9 ms at 3 x 3).
Both operations have a closed form for 2 x 2 matrices, elementwise over
the stack, which beats ``@`` by the most where numpy's per-call overhead
dominates.  The commutator against ``A @ B - B @ A``, float64 stacks of
2 x 2 matrices, same machine and settings:

    matrices                               closed form     @
    257 (one line of a 257^2 grid)              14 us     20 us
    1028 (one Lax step, 4 spectral values)      29 us     69 us
    257^2                                      3.3 ms    7.0 ms
    33^4                                        84 ms    103 ms

The leading (batch) axes broadcast as for ``@``.  Arrays are real or
complex, by promotion: each result takes the dtype numpy's promotion gives
from the operands.

Every finite-difference derivative of the grid checks is ``gradient``:
second order along one axis, in the interior and at both edges, bit for
bit ``np.gradient`` with ``edge_order=2`` but written into one output
array.  On a 257^2 grid of 3 x 3 matrices (same machine and settings, best
of 7) it takes 1.1 to 1.5 ms against numpy's 2.9 to 3.4 ms, and peaks at
one field size against two.
"""

from __future__ import annotations

import numpy as np


def commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Batched commutator AB - BA: the closed form for 2 x 2 matrices,
    two products for any other size.  With d = A00 - A11 and e = B00 - B11,
    [A,B]00 = A01 B10 - B01 A10 = -[A,B]11, [A,B]01 = d B01 - e A01 and
    [A,B]10 = e A10 - d B10."""
    if A.shape[-2:] != (2, 2) or B.shape[-2:] != (2, 2):
        out = A @ B
        out -= B @ A
        return out
    a01, a10, b01, b10 = A[..., 0, 1], A[..., 1, 0], B[..., 0, 1], B[..., 1, 0]
    d = A[..., 0, 0] - A[..., 1, 1]
    e = B[..., 0, 0] - B[..., 1, 1]
    c00 = a01 * b10 - b01 * a10  # broadcast shape, promoted dtype
    out = np.empty(c00.shape + (2, 2), dtype=c00.dtype)
    out[..., 0, 0] = c00
    out[..., 1, 1] = -c00
    out[..., 0, 1] = d * b01 - e * a01
    out[..., 1, 0] = e * a10 - d * b10
    return out


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
    """Finite-difference derivative of a real or complex grid array along
    one grid axis of spacing h: central differences inside, one-sided
    second-order ones at the two edges.  The result is bit for bit
    ``np.gradient(a, h, axis=axis, edge_order=2)``, of its dtype and memory
    layout, but the interior difference is written straight into the one
    output array, where numpy allocates a full-size temporary for it.  An
    axis of fewer than 3 points raises ValueError."""
    f = np.asarray(a)
    if f.shape[axis] < 3:
        raise ValueError(f"a second-order gradient needs at least 3 points "
                         f"along axis {axis}, not {f.shape[axis]}")
    f = np.moveaxis(f, axis, 0)  # a view: index the axis first
    out = np.empty_like(f)
    inner = out[1:-1]
    np.subtract(f[2:], f[:-2], out=inner)
    np.divide(inner, 2. * h, out=inner)
    # numpy's edge coefficients, in its order of operations
    out[0] = -1.5 / h * f[0] + 2. / h * f[1] + -0.5 / h * f[2]
    out[-1] = 0.5 / h * f[-3] + -2. / h * f[-2] + 1.5 / h * f[-1]
    return np.moveaxis(out, 0, axis)
