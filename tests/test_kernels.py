"""Batched small-matrix kernels against numpy's ``@`` and ``linalg.inv``,
and the finite-difference stencil against ``np.gradient``.

Products are numpy's ``@`` itself; the product tests check the commutator,
whose 2 x 2 case is a closed form, against ``A @ B - B @ A`` for every
broadcast shape the products take."""

import numpy as np
import pytest

from symlax import kernels

RNG = np.random.default_rng(7)


def _complex(*shape):
    return RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)


def _real(*shape):
    return RNG.standard_normal(shape)


def _close(got, want, scale=None):
    """Agreement to 1e-13 relative to ``scale`` (by default the largest
    entry of ``want``)."""
    if scale is None:
        scale = np.abs(want).max()
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * scale


PAIR_SHAPES = pytest.mark.parametrize("shape_a,shape_b", [
    ((), ()),
    ((17,), (17,)),
    ((5, 6), (5, 6)),
    ((), (9, 3)),          # one matrix against a grid of them
    ((9, 3), ()),
    ((4, 1, 3), (1, 5, 3)),
], ids=["single", "lines", "grid", "left-broadcast", "right-broadcast",
        "outer"])


def _check_products(A, B):
    # on the stacks and on their transposed (non-contiguous) views
    for A, B in ((A, B), (np.swapaxes(A, -1, -2), np.swapaxes(B, -1, -2))):
        AB = A @ B
        # at n = 1 the commutator is zero, up to the round-off of the products
        got = kernels.commutator(A, B)
        assert got.dtype == AB.dtype
        _close(got, AB - B @ A, scale=np.abs(AB).max())


def _check_inv(A):
    want = np.linalg.inv(A)
    got = kernels.inv(A)
    assert got.dtype == want.dtype
    _close(got, want)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@PAIR_SHAPES
def test_matmul_and_commutator_match_numpy(n, shape_a, shape_b):
    _check_products(_complex(*shape_a, n, n), _complex(*shape_b, n, n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@PAIR_SHAPES
def test_real_matmul_and_commutator_match_numpy(n, shape_a, shape_b):
    _check_products(_real(*shape_a, n, n), _real(*shape_b, n, n))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("make_a,make_b", [(_real, _complex),
                                           (_complex, _real)],
                         ids=["real-complex", "complex-real"])
@PAIR_SHAPES
def test_mixed_commutator_takes_the_promoted_dtype(n, make_a, make_b,
                                                   shape_a, shape_b):
    _check_products(make_a(*shape_a, n, n), make_b(*shape_b, n, n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("shape", [(), (17,), (5, 6)])
def test_inv_matches_numpy(n, shape):
    _check_inv(_complex(*shape, n, n) + 3.0 * np.eye(n))  # well conditioned


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("shape", [(), (17,), (5, 6)])
def test_real_inv_matches_numpy(n, shape):
    _check_inv(_real(*shape, n, n) + 3.0 * np.eye(n))


def test_inv_of_real_input_is_real():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    got = kernels.inv(A)
    assert got.dtype == np.float64
    _close(got, np.linalg.inv(A))


def test_singular_2x2_raises():
    A = _complex(3, 2, 2)
    A[1] = [[1.0, 2.0], [2.0, 4.0]]
    with pytest.raises(np.linalg.LinAlgError):
        kernels.inv(A)


def _stacks():
    """(id, array) of real and complex grid stacks, and of transposed
    (non-contiguous) views of them."""
    for make in (_real, _complex):
        for shape in ((5, 3, 2, 2), (3, 4, 5, 2, 2), (6, 7, 3, 3)):
            a = make(*shape)
            name = make.__name__[1:] + "-" + "x".join(map(str, shape))
            yield name, a
            yield name + "-T", a.T


STACKS = list(_stacks())


@pytest.mark.parametrize("a", [a for _, a in STACKS],
                         ids=[name for name, _ in STACKS])
def test_gradient_is_numpy_gradient_bit_for_bit(a):
    # every axis, an axis of exactly 3 points included, in dtype and layout
    for axis in range(a.ndim):
        if a.shape[axis] < 3:
            with pytest.raises(ValueError):
                np.gradient(a, 0.1, axis=axis, edge_order=2)
            with pytest.raises(ValueError):
                kernels.gradient(a, 0.1, axis)
            continue
        want = np.gradient(a, 0.1, axis=axis, edge_order=2)
        got = kernels.gradient(a, 0.1, axis)
        assert got.dtype == want.dtype and got.strides == want.strides
        assert np.array_equal(got, want)
