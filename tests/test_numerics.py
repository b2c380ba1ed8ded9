"""Grid sampling, finite-difference residuals, path integration, Lax sweeps.

The nilpotent 2x2 pair A = [[0,1],[0,0]], B = [[0,0],[1,0]] gives the exact
sample g(t,x) = exp(tA) exp(xB) = [[1+tx, t], [x, 1]] with det 1, and a
closed-form potential X(t,x) = xA + (x^2/2)[A,B] - (x^3/3)B - tB obtained by
integrating X_x = g^-1 g_t, X_t = -g^-1 g_x from X(0,0) = 0 (B^2 = 0 and
BAB = B collapse the series).  These closed forms are the oracles below.
"""

import functools
import io
import weakref
from dataclasses import replace

import numpy as np
import pytest
from conftest import peak_field_sizes

from symlax import kernels, numerics
from symlax.calculus import total_derivative
from symlax.equations import (
    Characteristic,
    ConnSlot,
    field_equation_residual,
    get_equation,
)
from symlax.errors import (
    DimensionMismatch,
    GridTooSmall,
    IoFailure,
    NonMonotone,
    PathInconsistent,
    SingularLambda,
    UnboundAtom,
    ZeroLambda,
)
from symlax.expr import Field, InvField, Param, Potential
from symlax.numerics import (
    NILPOTENT_A,
    NILPOTENT_B,
    Axis,
    Grid,
    GridEnv,
    GridField,
    SolutionFamily,
    SolutionFields,
    characteristic_rows,
    compute_potential,
    conservation_residual,
    convergence_order,
    dense_expm,
    eval_characteristic,
    eval_on_grid,
    fd_residual_field_equation,
    integrate_lax,
    lax_elimination,
    load_snapshot,
    nilpotent_family,
    residual_stats,
    rung_grid,
    sample_solution,
    save_snapshot,
    scaled_margins,
)
from symlax.recursion import generate_hierarchy

# non-polynomial exact solution (a rotation generator and a generic
# traceless B): finite-difference and integration errors are not zero by
# construction, unlike the nilpotent pair's
ROTATION_FAMILY = SolutionFamily(
    "exponential-product", np.array([[0.0, -1.0], [1.0, 0.0]]),
    np.array([[0.3, 0.8], [-0.5, -0.3]]))

A, B = NILPOTENT_A, NILPOTENT_B
COMM_AB = A @ B - B @ A

CHIRAL = get_equation("chiral")
SDYM = get_equation("sdym")


def chiral_grid(n, extent=1.0):
    h = extent / (n - 1)
    return Grid.regular(("t", "x"), -extent / 2, h, n)


def sdym_grid(n, extent=0.5):
    """The diagonal grid (t = y+yb, x = z+zb) that an sdym rung of n points
    per variable samples."""
    return rung_grid(SDYM, -extent / 2, extent / (n - 1), n)


def closed_potential(grid):
    """Closed-form potential rebased so it vanishes at the grid corner
    (the numerical integral starts from zero there)."""
    tv = grid.coord_array("t")[..., None, None]
    xv = grid.coord_array("x")[..., None, None]
    X = xv * A + 0.5 * xv ** 2 * COMM_AB - (xv ** 3 / 3.0) * B - tv * B
    return X - X[(0,) * len(grid.axes)]


def identity_field(grid, n=2):
    vals = np.broadcast_to(np.eye(n, dtype=complex),
                           grid.counts + (n, n)).copy()
    return GridField(grid, vals)


def ladder(counts=(17, 33, 65), base=3, family=None):
    family = family or nilpotent_family()
    margins = scaled_margins(counts, base)
    out = []
    for n, m in zip(counts, margins):
        grid = chiral_grid(n)
        out.append((sample_solution(family, grid), m))
    return out


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_nilpotent_sample_matches_closed_form():
    grid = chiral_grid(9)
    g = sample_solution(nilpotent_family(), grid)
    tv = grid.coord_array("t")
    xv = grid.coord_array("x")
    expected = np.empty(grid.counts + (2, 2), dtype=complex)
    expected[..., 0, 0] = 1.0 + tv * xv
    expected[..., 0, 1] = tv
    expected[..., 1, 0] = xv
    expected[..., 1, 1] = 1.0
    assert np.allclose(g.values, expected, atol=1e-14)
    assert np.allclose(np.linalg.det(g.values), 1.0, atol=1e-13)


def test_zero_parameters_sample_identity():
    from symlax.numerics import SolutionFamily
    fam = SolutionFamily("exponential-product", np.zeros((2, 2)),
                         np.zeros((2, 2)))
    g = sample_solution(fam, chiral_grid(7))
    assert np.array_equal(g.values, identity_field(chiral_grid(7)).values)


def test_lifted_sample_constant_on_translation_level_sets():
    # J depends only on t = y+yb and x = z+zb: its sample is g(t, x) on
    # the diagonal grid
    grid = sdym_grid(7)
    J = sample_solution(nilpotent_family("lifted-chiral"), grid)
    g = sample_solution(nilpotent_family(), grid)
    assert grid.names == ("t", "x") and grid.counts == (13, 13)
    assert np.array_equal(J.values, g.values)
    assert np.allclose(np.linalg.det(J.values), 1.0, atol=1e-12)


def test_perturbed_family_leaves_the_solution_set():
    grid = chiral_grid(33)
    g = sample_solution(nilpotent_family("perturbed-offshell", eps=0.1), grid)
    stats = fd_residual_field_equation(SolutionFields(CHIRAL, g), 3)
    assert stats.max > 1e-2


# ---------------------------------------------------------------------------
# Snapshots and matrix exponential
# ---------------------------------------------------------------------------

def test_snapshot_roundtrip():
    g = sample_solution(nilpotent_family(), chiral_grid(6))
    buf = io.StringIO()
    save_snapshot(buf, g)
    buf.seek(0)
    back = load_snapshot(buf)
    assert back.grid == g.grid
    assert np.array_equal(back.values, g.values)


def test_snapshot_rejects_foreign_header():
    with pytest.raises(IoFailure):
        load_snapshot(io.StringIO("something-else 1\n"))


def _snapshot_text(n=6):
    buf = io.StringIO()
    save_snapshot(buf, sample_solution(nilpotent_family(), chiral_grid(n)))
    return buf.getvalue()


@pytest.mark.parametrize("cut", [1, 3, 5, -1], ids=["header-only", "axes",
                                                      "matdim", "entries"])
def test_snapshot_truncated_is_io_failure(cut):
    lines = _snapshot_text().splitlines(keepends=True)
    with pytest.raises(IoFailure):
        load_snapshot(io.StringIO("".join(lines[:cut])))


@pytest.mark.parametrize("old,new", [
    ("matdim 2", "matdim two"),
    ("axis x", "axis q"),
    (" 0.0\n", " zero\n"),
    (" 0.0\n", "\n"),
    (" 0.0\n", " nan\n"),
    ("matdim 2", "matdim 0"),
    ("axis x -0.5 0.2 6", "axis x -0.5 0.2 3"),
    ("axis x -0.5 0.2 6", "axis x -0.5 nan 6"),
    ("axis x -0.5 0.2 6", "axis x inf 0.2 6"),
], ids=["matdim", "axis-name", "entry-text", "entry-arity", "entry-nan",
        "matdim-zero", "axis-too-short", "axis-nan-spacing",
        "axis-inf-origin"])
def test_snapshot_garbled_is_io_failure(old, new):
    text = _snapshot_text()
    assert old in text
    with pytest.raises(IoFailure):
        load_snapshot(io.StringIO(text.replace(old, new, 1)))


def test_snapshot_header_counts_are_not_allocated():
    # 10^6 x 10^6 points of 2x2 entries would need 58 TiB; the file holds
    # one entry, so it fails at the second
    text = ("symlax-gridfield 1\naxes t x\naxis t 0.0 0.1 1000000\n"
            "axis x 0.0 0.1 1000000\nmatdim 2\n0.0 0.0\n")
    with pytest.raises(IoFailure, match="entry 1 of 4000000000000"):
        load_snapshot(io.StringIO(text))


def test_dense_expm_nilpotent_is_exact():
    assert np.array_equal(dense_expm(A), np.eye(2) + A)
    N = np.diag([1.0, 2.0], k=1)  # 3x3, N^3 = 0
    assert np.array_equal(dense_expm(N), np.eye(3) + N + N @ N / 2.0)


def test_dense_expm_generic_matches_rotation():
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    th = 0.7
    R = dense_expm(th * J)
    expected = np.array([[np.cos(th), -np.sin(th)],
                         [np.sin(th), np.cos(th)]])
    assert np.allclose(R, expected, atol=1e-12)
    # a sweep of angles: each squaring may add an ulp, so the error bound
    # grows with the norm |th|
    th = np.linspace(-50.0, 50.0, 1001)
    R = dense_expm(th[:, None, None] * J)
    expected = np.stack([np.cos(th), -np.sin(th), np.sin(th), np.cos(th)],
                        axis=-1).reshape(-1, 2, 2)
    err = np.abs(R - expected).max(axis=(-2, -1))
    assert np.all(err <= 1e-15 * np.maximum(1.0, np.abs(th)))


# the so(3) generators of bench/configs/chiral-so3.ini
SO3_A = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
SO3_B = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, -0.3], [-0.5, 0.3, 0.0]])


@pytest.mark.parametrize("M", [
    NILPOTENT_A, NILPOTENT_B, np.diag([1.0, 2.0], k=1),
    np.diag([1.0, 2.0], k=-1), SO3_A, SO3_B,
    np.array([[0.0, -1.0], [1.0, 0.0]])],
    ids=["nilpotent-2-A", "nilpotent-2-B", "nilpotent-3-upper",
         "nilpotent-3-lower", "so3-A", "so3-B", "rotation-2"])
@pytest.mark.parametrize("ts", [
    np.arange(257) / 256.0,                 # starts at t = 0
    np.linspace(-2.0, 1.0, 65),
    np.zeros(3)],
    ids=["ladder-from-0", "signed", "all-zero"])
def test_dense_expm_stack_matches_per_matrix(M, ts):
    stack = dense_expm(ts[:, None, None] * M)
    loop = np.stack([dense_expm(t * M) for t in ts])
    assert stack.shape == loop.shape and stack.dtype == loop.dtype
    assert np.array_equal(stack, loop)
    # a grid of stacks, as for two sampled axes at once
    grid = dense_expm(np.stack([ts, ts[::-1]])[..., None, None] * M)
    assert np.array_equal(grid, np.stack([loop, loop[::-1]]))


def _rodrigues(W):
    """exp(W) for a real skew-symmetric 3x3 W, by Rodrigues' formula."""
    th = np.sqrt(W[2, 1] ** 2 + W[0, 2] ** 2 + W[1, 0] ** 2)
    if th == 0.0:
        return np.eye(3)
    return (np.eye(3) + (np.sin(th) / th) * W
            + ((1.0 - np.cos(th)) / th ** 2) * (W @ W))


@pytest.mark.parametrize("M", [
    SO3_A, SO3_B,
    np.array([[0.0, -0.2, 0.9], [0.2, 0.0, -0.4], [-0.9, 0.4, 0.0]])],
    ids=["so3-A", "so3-B", "so3-generic"])
@pytest.mark.parametrize("ts", [
    np.arange(257) / 256.0, np.linspace(-2.0, 1.0, 65)],
    ids=["ladder-from-0", "signed"])
def test_dense_expm_so3_matches_rodrigues(M, ts):
    stack = ts[:, None, None] * M
    expected = np.stack([_rodrigues(W) for W in stack])
    assert np.abs(dense_expm(stack) - expected).max() <= 1e-15


# V has the exact float inverse VI, so V diag(exp d) VI is a closed form
# that is itself accurate to a few ulps
V = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
VI = np.array([[1.0, -1.0, 1.0], [0.0, 1.0, -1.0], [0.0, 0.0, 1.0]])


@pytest.mark.parametrize("d", [
    np.array([-1.0, 0.3, 0.7]), np.array([1 + 2j, -0.5 + 1j, 0.25 - 3j])],
    ids=["real", "complex"])
@pytest.mark.parametrize("norm", [1e-3, 1e-2, 0.1, 1.0, 5.0, 10.0, 20.0,
                                  50.0])
def test_dense_expm_diagonalizable_matches_closed_form(d, norm):
    assert np.array_equal(V @ VI, np.eye(3))
    d = d * (norm / np.abs(V @ np.diag(d) @ VI).sum(axis=0).max())
    M = V @ np.diag(d) @ VI
    assert np.isclose(np.abs(M).sum(axis=0).max(), norm)
    expected = V @ np.diag(np.exp(d)) @ VI
    got = dense_expm(M)
    assert got.dtype == expected.dtype
    # the error of scaling and squaring grows with the norm
    rel = np.abs(got - expected).max() / np.abs(expected).max()
    assert rel <= 1e-15 * max(1.0, norm)


@pytest.mark.parametrize("dtype", [float, complex])
def test_dense_expm_matches_scipy(dtype):
    from scipy.linalg import expm
    rng = np.random.default_rng(7)
    M = rng.standard_normal((4, 50, 3, 3))
    if dtype is complex:
        M = M + 1j * rng.standard_normal(M.shape)
    # rows of the stack scaled to 1-norms 1e-3, 0.1, 1 and 10
    M = M * (np.array([1e-3, 0.1, 1.0, 10.0])[:, None, None, None]
             / np.abs(M).sum(axis=-2).max(axis=-1)[..., None, None])
    got, ref = dense_expm(M), expm(M)
    err = np.abs(got - ref).max(axis=(-2, -1))
    assert np.all(err <= 1e-11 * np.abs(ref).max(axis=(-2, -1)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_dense_expm_rejects_non_finite(bad):
    M = np.zeros((5, 2, 2))
    M[3, 1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        dense_expm(M)


# ---------------------------------------------------------------------------
# Field-equation residual
# ---------------------------------------------------------------------------

def test_fd_residual_second_order_on_shell():
    stats = [fd_residual_field_equation(SolutionFields(CHIRAL, u), m)
             for u, m in ladder()]
    est = convergence_order([s.max for s in stats], [s.h for s in stats])
    assert est.exact or est.order >= 1.8


def test_fd_residual_identity_field_exactly_zero():
    stats = fd_residual_field_equation(
        SolutionFields(CHIRAL, identity_field(chiral_grid(9))))
    assert stats.max == 0.0


def test_fd_residual_offshell_does_not_converge():
    fam = nilpotent_family("perturbed-offshell", eps=0.1)
    stats = [fd_residual_field_equation(SolutionFields(CHIRAL, u), m)
             for u, m in ladder(family=fam)]
    with pytest.raises(NonMonotone):
        convergence_order([s.max for s in stats], [s.h for s in stats])


# ---------------------------------------------------------------------------
# Potential integration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(9, 17), (5, 6, 7, 8), (9, 17, 2, 2)],
                         ids=["2d", "4d", "2d-matrix"])
def test_cumulative_trapezoid_matches_scipy(monkeypatch, shape):
    # both paths of the row-block integrator over a grid of the first two
    # axes, from a zero corner, in blocks of 1, 5, 16 and 17 rows and of
    # more rows than the grid has: the kept path (axis 0 at index 0 of
    # axis 1, then axis 1 on every row) is scipy's bit for bit, and its
    # largest difference from the other path is that of scipy's paths
    from scipy.integrate import cumulative_trapezoid

    f0, f1 = np.random.default_rng(11).standard_normal((2,) + shape)
    for h0, h1 in ((1.0 / 64, 0.3), (0.3, 1.0 / 64)):
        grid = Grid((Axis(0.0, h0, shape[0]), Axis(0.0, h1, shape[1])),
                    ("t", "x"))
        leg = functools.partial(cumulative_trapezoid, initial=0.0)
        kept = leg(f0[:, :1], dx=h0, axis=0) + leg(f1, dx=h1, axis=1)
        other = leg(f1[:1], dx=h1, axis=1) + leg(f0, dx=h0, axis=0)
        for block in (1, 5, 16, 17, 10 ** 6):
            monkeypatch.setattr(numerics, "BLOCK_ROWS", block)
            X, resid = numerics._trapezoid_paths(
                lambda r0, r1: (f0[r0:r1], f1[r0:r1]), grid)
            assert X.dtype == kept.dtype
            assert np.array_equal(X, kept)
            assert resid == np.abs(kept - other).max() > 0


def _two_path_reference(rung):
    """Both staircase paths of the rung's potential, each built with
    scipy's cumulative trapezoid: X1 runs t first along x = 0, then x along
    every row; X2 runs x first along t = 0, then t along every column."""
    from scipy.integrate import cumulative_trapezoid

    eq = rung.eq
    f = {rung.env.axes[eq.vs.index(v)]: eval_on_grid(r, rung.env)
         for v, r in eq.potential_rules[eq.potential_name].items()}
    ht, hx = rung.u.grid.spacings
    X1 = (cumulative_trapezoid(f[0][:, :1], dx=ht, axis=0, initial=0.0)
          + cumulative_trapezoid(f[1], dx=hx, axis=1, initial=0.0))
    X2 = (cumulative_trapezoid(f[1][:1], dx=hx, axis=1, initial=0.0)
          + cumulative_trapezoid(f[0], dx=ht, axis=0, initial=0.0))
    return X1, X2


# the rotation pair with A and B exchanged: its two paths part most on the
# last row, the compared path's last slab
@pytest.mark.parametrize("eq,kind,grid", [
    (CHIRAL, "exponential-product", chiral_grid(17)),
    (SDYM, "lifted-chiral", sdym_grid(9))], ids=["chiral", "sdym"])
def test_potential_matches_two_path_reference(eq, kind, grid):
    family = SolutionFamily(kind, ROTATION_FAMILY.B, ROTATION_FAMILY.A)
    rung = SolutionFields(eq, sample_solution(family, grid))
    X1, X2 = _two_path_reference(rung)
    res = compute_potential(rung)
    assert np.array_equal(res.field.values, X1)
    gap = np.abs(X1 - X2)
    assert gap[-1].max() == gap.max() > 0
    assert res.path_residual == float(gap.max())


@pytest.mark.parametrize("eq,kind,grid", [
    (CHIRAL, "exponential-product", chiral_grid(17)),
    (SDYM, "lifted-chiral", sdym_grid(9))], ids=["chiral", "sdym"])
def test_potential_reads_the_rung_connections(eq, kind, grid, monkeypatch):
    # each potential rule is plus or minus a slot connection: once the
    # connections exist the integration differentiates nothing, and its
    # samples are those of the rules evaluated afresh
    family = SolutionFamily(kind, ROTATION_FAMILY.A, ROTATION_FAMILY.B)
    u = sample_solution(family, grid)
    X1, _ = _two_path_reference(SolutionFields(eq, u))
    rung = SolutionFields(eq, u)
    rung.connections
    calls = []
    derivative = GridEnv.derivative

    def counting(env, *args):
        calls.append(args)
        return derivative(env, *args)

    monkeypatch.setattr(GridEnv, "derivative", counting)
    got = compute_potential(rung).field.values
    assert calls == []
    assert np.array_equal(got, X1)


def test_potential_matches_closed_form():
    grid = chiral_grid(65)
    u = sample_solution(nilpotent_family(), grid)
    res = compute_potential(SolutionFields(CHIRAL, u))
    h = max(grid.spacings)
    err = float(np.abs(res.field.values - closed_potential(grid)).max())
    assert err < 5.0 * h ** 2
    assert res.path_residual < 5.0 * h ** 2


def test_potential_of_identity_field_is_zero():
    res = compute_potential(
        SolutionFields(CHIRAL, identity_field(chiral_grid(9))))
    assert float(np.abs(res.field.values).max()) == 0.0


def test_potential_offshell_is_path_dependent():
    u = sample_solution(nilpotent_family("perturbed-offshell", eps=0.1),
                        chiral_grid(33))
    with pytest.raises(PathInconsistent):
        compute_potential(SolutionFields(CHIRAL, u))


def test_potential_lifted_sample():
    u = sample_solution(nilpotent_family("lifted-chiral"), sdym_grid(9))
    res = compute_potential(SolutionFields(SDYM, u))
    assert res.path_residual < 1e-2


def test_potential_underdetermined_without_lift():
    # a bump along t = y+yb takes the sample off the solution set: the
    # potential's defining system is no longer integrable
    grid = sdym_grid(9)
    u = sample_solution(nilpotent_family("lifted-chiral"), grid)
    vals = u.values.copy()
    bump = 0.3 * np.sin(3.0 * grid.coord_array("t"))
    vals[..., 0, 1] = vals[..., 0, 1] + bump
    with pytest.raises(PathInconsistent):
        compute_potential(SolutionFields(SDYM, GridField(grid, vals)))


def test_four_variable_sdym_sample_is_a_dimension_mismatch():
    # sdym maps its four variables onto two diagonal axes; a sample over
    # (y, z, yb, zb) is not a rung of it
    grid = Grid.regular(SDYM.vs.names, 0.0, 0.1, 5)
    u = identity_field(grid)
    with pytest.raises(DimensionMismatch, match="2 grid axes"):
        SolutionFields(SDYM, u)
    with pytest.raises(DimensionMismatch):
        sample_solution(nilpotent_family("lifted-chiral"), grid)


# ---------------------------------------------------------------------------
# Characteristics on grids
# ---------------------------------------------------------------------------

def _seed(eq, provenance):
    return next(s for s in eq.seeds if s.provenance == provenance)


def test_closed_form_characteristic_is_pointwise():
    grid = chiral_grid(9)
    u = sample_solution(nilpotent_family(), grid)
    M = NILPOTENT_A
    q = eval_characteristic(_seed(CHIRAL, "right-action"),
                            SolutionFields(CHIRAL, u), params={"M": M})
    assert np.allclose(q.values, u.values @ M, atol=1e-14)


def test_potential_characteristic_matches_closed_potential():
    grid = chiral_grid(65)
    u = sample_solution(nilpotent_family(), grid)
    M = NILPOTENT_A
    h = generate_hierarchy(CHIRAL, _seed(CHIRAL, "right-action"), 0, 1)
    # the rung integrates the potential that the form at level 1 contains
    q = eval_characteristic(h.charges[1], SolutionFields(CHIRAL, u),
                            params={"M": M})
    X = closed_potential(grid)
    expected = u.values @ (X @ M - M @ X)
    hmax = max(grid.spacings)
    assert float(np.abs(q.values - expected).max()) < 20.0 * hmax ** 2


def test_conservation_residual_on_shell_converges():
    M = NILPOTENT_A
    maxes, hs = [], []
    for u, m in ladder():
        rung = SolutionFields(CHIRAL, u)
        q = eval_characteristic(_seed(CHIRAL, "right-action"), rung,
                                params={"M": M})
        stats = conservation_residual(rung, q, m)
        maxes.append(stats.max)
        hs.append(stats.h)
    est = convergence_order(maxes, hs)
    assert est.exact or est.order >= 1.8


def test_constant_characteristic_not_conserved():
    grid = chiral_grid(33)
    u = sample_solution(nilpotent_family(), grid)
    qvals = np.broadcast_to(NILPOTENT_A.astype(complex),
                            grid.counts + (2, 2)).copy()
    stats = conservation_residual(SolutionFields(CHIRAL, u),
                                  GridField(grid, qvals), 3)
    assert stats.max > 1e-2


def test_conservation_residual_identity_field_exact():
    grid = chiral_grid(9)
    u = identity_field(grid)
    q = GridField(grid, np.broadcast_to(
        NILPOTENT_A.astype(complex), grid.counts + (2, 2)).copy())
    # w = u^-1 q is constant and the connections vanish: exact zero
    assert conservation_residual(SolutionFields(CHIRAL, u), q).max == 0.0


def test_implicit_characteristic_is_conserved():
    L = NILPOTENT_A
    h = generate_hierarchy(CHIRAL, _seed(CHIRAL, "right-action"), -2, 0)
    maxes, hs = [], []
    for u, m in ladder():
        rung = SolutionFields(CHIRAL, u)
        q = eval_characteristic(h.charges[-2], rung, params={"L": L})
        stats = conservation_residual(rung, q, m)
        maxes.append(stats.max)
        hs.append(stats.h)
    est = convergence_order(maxes, hs)
    assert est.exact or est.order >= 1.5


# ---------------------------------------------------------------------------
# Lax integration
# ---------------------------------------------------------------------------

def test_lax_identity_field_is_stationary():
    grid = chiral_grid(9)
    u = identity_field(grid)
    phi0 = np.array([[1.0, 2.0], [0.0, 1.0]])
    out = integrate_lax(SolutionFields(CHIRAL, u), [0.5], phi0=phi0)[0]
    assert out.compat_residual == 0.0
    assert np.array_equal(out.phi.values,
                          np.broadcast_to(phi0.astype(complex),
                                          grid.counts + (2, 2)))
    assert np.array_equal(out.psi.values, out.phi.values)


def _count_marches(monkeypatch):
    """Record every RK4 march that ``integrate_lax`` starts."""
    calls = []
    march = numerics._march_lines

    def counted(*args):
        calls.append(args)
        return march(*args)
    monkeypatch.setattr(numerics, "_march_lines", counted)
    return calls


def test_lax_lambda_guards(monkeypatch):
    # a bad value anywhere in the stack raises before any march
    rung = SolutionFields(CHIRAL,
                          sample_solution(nilpotent_family(), chiral_grid(9)))
    marches = _count_marches(monkeypatch)
    for lams, error in [([0.0], ZeroLambda), ([1.0j], SingularLambda),
                        ([0.5, 2.0, 0.0], ZeroLambda),
                        ([0.5, -1.0j, 2.0], SingularLambda),
                        ([0.5, float("nan")], SingularLambda),
                        ([0.5, 1e200], SingularLambda),
                        ([-1e200j], SingularLambda)]:
        with pytest.raises(error):
            integrate_lax(rung, lams)
    assert marches == []


def test_lax_march_count_does_not_grow_with_the_stack(monkeypatch):
    # one edge march and two sweeps per rung, however many values: the
    # compared path's edge is read off the kept path
    rung = SolutionFields(CHIRAL,
                          sample_solution(ROTATION_FAMILY, chiral_grid(9)))
    marches = _count_marches(monkeypatch)
    integrate_lax(rung, [0.5])
    one = len(marches)
    marches.clear()
    integrate_lax(rung, [0.25, 0.5, 1.0, 2.0])
    assert len(marches) == one == 3


@pytest.mark.parametrize("eq,family,grid", [
    (CHIRAL, ROTATION_FAMILY, chiral_grid(17)),
    (SDYM, SolutionFamily("lifted-chiral", ROTATION_FAMILY.A,
                          ROTATION_FAMILY.B), sdym_grid(7))],
    ids=["chiral", "sdym"])
def test_lax_stack_matches_each_value_alone(eq, family, grid):
    rung = SolutionFields(eq, sample_solution(family, grid))
    lams = [0.25, 0.5, 1.0, 2.0]
    stack = integrate_lax(rung, lams)
    assert len(stack) == len(lams)
    for lam, got in zip(lams, stack):
        alone = integrate_lax(rung, [lam])[0]
        assert got.compat_residual == alone.compat_residual
        assert np.array_equal(got.phi.values, alone.phi.values)
        assert np.array_equal(got.psi.values, alone.psi.values)


def test_lax_on_shell_convergence():
    maxes, syms, hs = [], [], []
    for u, m in ladder():
        rung = SolutionFields(CHIRAL, u)
        out = integrate_lax(rung, [0.5])[0]
        maxes.append(out.compat_residual)
        stats = conservation_residual(rung, out.psi, m)
        syms.append(stats.max)
        hs.append(max(u.grid.spacings))
    for seq in (maxes, syms):
        est = convergence_order(seq, hs)
        assert est.exact or est.order >= 1.8


def test_lax_lifted_agrees_with_diagonal_problem():
    # on its diagonal the sdym linear pair is the chiral one
    u = sample_solution(SolutionFamily("lifted-chiral", ROTATION_FAMILY.A,
                                       ROTATION_FAMILY.B), sdym_grid(9))
    got = integrate_lax(SolutionFields(SDYM, u), [0.5])[0]
    want = integrate_lax(SolutionFields(CHIRAL, u), [0.5])[0]
    assert got.compat_residual == want.compat_residual
    assert np.array_equal(got.phi.values, want.phi.values)
    assert np.array_equal(got.psi.values, want.psi.values)


def test_singular_set_is_read_off_the_slots():
    # chiral's connections under the light-cone pairing (t: cov t, div x),
    # (x: cov x, div t), declared with no diagonal: its rung is the plain
    # grid, and the elimination (1 - lam) w_t = lam [a, w],
    # (1 + lam) w_x = -lam [b, w] is singular at lam = +-1, where chiral's
    # is singular at the roots of 1 + lam^2
    a, b = (s.connection for s in CHIRAL.slots)
    light_cone = replace(CHIRAL, name="light-cone",
                         slots=(ConnSlot("t", a, "t", "x"),
                                ConnSlot("x", b, "x", "t")))
    grid = rung_grid(light_cone, 0.0, 0.125, 9)
    assert (grid.names, grid.counts) == (("t", "x"), (9, 9))
    coef, det = lax_elimination(light_cone, 0.5)
    assert coef[0][1] == coef[1][0] == 0.0
    assert (coef[0][0] / det, coef[1][1] / det) == (1.0, -0.5 / 1.5)
    u = sample_solution(ROTATION_FAMILY, grid)
    for eq, singular, regular in [(light_cone, (1.0, -1.0), 1.0j),
                                  (CHIRAL, (1.0j, -1.0j), 1.0)]:
        rung = SolutionFields(eq, u)
        for lam in singular:
            with pytest.raises(SingularLambda):
                integrate_lax(rung, [lam])
        (out,) = integrate_lax(rung, [regular])
        assert np.isfinite(out.compat_residual)


@pytest.mark.parametrize("lam", [0.25, 0.5, 1.0, 2.0, -1.7, 1e-5, 1e100,
                                 3.0j, 0.3 + 0.7j])
@pytest.mark.parametrize("eq,family,grid", [
    (CHIRAL, ROTATION_FAMILY, chiral_grid(9)),
    (SDYM, SolutionFamily("lifted-chiral", ROTATION_FAMILY.A,
                          ROTATION_FAMILY.B), sdym_grid(5))],
    ids=["chiral", "sdym"])
def test_march_coefficients_are_the_closed_forms_bit_for_bit(
        monkeypatch, eq, family, grid, lam):
    # the coefficients the march reads, derived from the slots, against
    # the hand-solved elimination of both equations, which is chiral's
    rung = SolutionFields(eq, sample_solution(family, grid))
    coefs = []
    staircase = numerics._staircase_paths

    def capture(coef, *args, **kw):
        coefs.append(coef)
        return staircase(coef, *args, **kw)
    monkeypatch.setattr(numerics, "_staircase_paths", capture)
    integrate_lax(rung, [lam])
    whole = (slice(None), slice(None))
    a, b = rung.connections
    lam = np.asarray([lam]).reshape(-1, 1, 1, 1)
    den = 1.0 + lam * lam
    assert np.array_equal(coefs[0](0, whole),
                          -(lam * b + lam * lam * a) / den)
    assert np.array_equal(coefs[0](1, whole),
                          (lam * a - lam * lam * b) / den)


def test_a_wrong_elimination_fails_to_converge(monkeypatch):
    # the negative control of the derived elimination: its determinant,
    # -(1 + lam^2) for both equations, made -(1 - lam^2) with the
    # coefficients kept.  At lam = 0.5 on the rotation pair the path
    # residual then stays at about 0.206 on every rung, where the right
    # elimination converges at second order (1.3e-3 -> 8.3e-5 on both
    # equations' default grids)
    solve = numerics.lax_elimination

    def wrong(eq, lams):
        coef, det = solve(eq, lams)
        lam = np.asarray(lams)
        return coef, -(1.0 - lam * lam)

    lifted = SolutionFamily("lifted-chiral", ROTATION_FAMILY.A,
                            ROTATION_FAMILY.B)
    for eq, family, counts in [(CHIRAL, ROTATION_FAMILY, (17, 33, 65)),
                               (SDYM, lifted, (9, 17, 33))]:
        hs = [eq.extent / (n - 1) for n in counts]

        def residuals():
            return [integrate_lax(SolutionFields(eq, sample_solution(
                family, rung_grid(eq, 0.0, h, n))), [0.5])[0].compat_residual
                    for n, h in zip(counts, hs)]
        right = residuals()
        assert convergence_order(right, hs).order >= 1.9
        with monkeypatch.context() as m:
            m.setattr(numerics, "lax_elimination", wrong)
            flat = residuals()
        assert all(0.2 < r < 0.21 for r in flat)
        try:
            order = convergence_order(flat, hs).order
        except NonMonotone:
            order = 0.0
        assert order < 0.5


# ---------------------------------------------------------------------------
# Measurement helpers
# ---------------------------------------------------------------------------

def test_scaled_margins():
    assert scaled_margins((65, 129, 257)) == [3, 6, 12]
    assert scaled_margins((9, 17, 33), base=2) == [2, 4, 8]
    with pytest.raises(ValueError):
        scaled_margins((9, 16, 33))


def test_convergence_order_cases():
    est = convergence_order([1e-2, 2.5e-3, 6.25e-4], [0.1, 0.05, 0.025])
    assert abs(est.order - 2.0) < 1e-6 and not est.exact
    est = convergence_order([0.0, 0.0, 0.0], [0.1, 0.05, 0.025])
    assert est.exact
    with pytest.raises(NonMonotone):
        convergence_order([1e-2, 2e-2, 4e-2], [0.1, 0.05, 0.025])
    with pytest.raises(ValueError):
        convergence_order([1e-2, 1e-3], [0.1, 0.05])


def test_grid_guards():
    with pytest.raises(GridTooSmall):
        Axis(0.0, 0.1, 4)
    grid = chiral_grid(9)
    u = sample_solution(nilpotent_family(), grid)
    with pytest.raises(GridTooSmall):
        residual_stats(u.values, grid, margin=5)
    # no grid environment binds the spectral parameter
    env = GridEnv(grid, {CHIRAL.field_name: u.values})
    with pytest.raises(UnboundAtom):
        eval_on_grid(CHIRAL.vs.lam(1) * CHIRAL.u(), env)


# ---------------------------------------------------------------------------
# Batched integrators against per-line / per-point loop references
# ---------------------------------------------------------------------------

_mm = np.matmul


def _ref_step_line(phi_start, C_line, h):
    """RK4 march of phi' = [C, phi] along one grid line, one step at a
    time, with the commutator kernel the batched march uses."""
    m = C_line.shape[0]
    out = np.empty((m,) + phi_start.shape,
                   dtype=np.result_type(phi_start, C_line))
    out[0] = phi_start
    for i in range(m - 1):
        c0, c1 = C_line[i], C_line[i + 1]
        if i + 2 < m:
            cm = (3.0 * c0 + 6.0 * c1 - C_line[i + 2]) / 8.0
        elif i > 0:
            cm = (3.0 * c1 + 6.0 * c0 - C_line[i - 1]) / 8.0
        else:
            cm = 0.5 * (c0 + c1)
        p = out[i]
        k1 = kernels.commutator(c0, p)
        k2 = kernels.commutator(cm, p + 0.5 * h * k1)
        k3 = kernels.commutator(cm, p + 0.5 * h * k2)
        k4 = kernels.commutator(c1, p + h * k3)
        out[i + 1] = p + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return out


def _ref_lax_2d(grid, a, b, lam, phi0):
    """Both staircase sweeps, marching every grid line separately."""
    den = 1.0 + lam * lam
    Cx = (lam * a - lam * lam * b) / den
    Ct = -(lam * b + lam * lam * a) / den
    nt, nx = grid.counts
    ht, hx = grid.spacings
    phiA = np.empty((nt, nx) + phi0.shape,
                    dtype=np.result_type(phi0, Cx, Ct))
    phiA[0, :] = _ref_step_line(phi0, Cx[0, :], hx)
    for j in range(nx):
        phiA[:, j] = _ref_step_line(phiA[0, j], Ct[:, j], ht)
    phiB = np.empty_like(phiA)
    phiB[:, 0] = _ref_step_line(phi0, Ct[:, 0], ht)
    for i in range(nt):
        phiB[i, :] = _ref_step_line(phiB[i, 0], Cx[i, :], hx)
    return phiA, phiB


@pytest.mark.parametrize("family", [nilpotent_family(), ROTATION_FAMILY],
                         ids=["nilpotent", "rotation"])
def test_batched_lax_2d_matches_per_line_reference(family):
    grid = chiral_grid(17)
    rung = SolutionFields(CHIRAL, sample_solution(family, grid))
    a, b = rung.connections
    phi0 = np.array([[1.2, -0.4], [0.3, 0.9]])
    lams = (0.5, 2.0)
    for lam, out in zip(lams, integrate_lax(rung, lams, phi0)):
        phiA, phiB = _ref_lax_2d(grid, a, b, lam, phi0)
        assert np.array_equal(out.phi.values, phiA)
        # sweep B is never stored: its running comparison is the residual
        assert out.compat_residual == float(np.abs(phiA - phiB).max())


@pytest.mark.parametrize("family", [nilpotent_family(), ROTATION_FAMILY],
                         ids=["nilpotent", "rotation"])
def test_tower_charge_satisfies_published_pair(family):
    # Q = Z2 g two levels below right-action, sampled through its integrated
    # tower potential, against Q_t - Q g^-1 g_t = g D_x(g^-1 L g) and
    # Q_x - Q g^-1 g_x = -g D_t(g^-1 L g)
    q = generate_hierarchy(CHIRAL, _seed(CHIRAL, "right-action"),
                           -2, 0).charges[-2]
    g, gi, L = CHIRAL.u(), CHIRAL.u_inv(), CHIRAL.vs.param("L")
    rhs = (g * total_derivative(gi * L * g, "x"),
           -(g * total_derivative(gi * L * g, "t")))
    params = {"L": NILPOTENT_A}
    maxes, hs = [], []
    for u, m in ladder(family=family):
        grid = u.grid
        rung = SolutionFields(CHIRAL, u)
        Q = eval_characteristic(q, rung, params).values
        env = rung.env.bind(params=params)
        worst = 0.0
        for axis, (conn, r) in enumerate(zip(rung.connections, rhs)):
            dQ = np.gradient(Q, grid.axes[axis].h, axis=axis, edge_order=2)
            res = dQ - Q @ conn - eval_on_grid(r, env)
            worst = max(worst, residual_stats(res, grid, m).max)
        maxes.append(worst)
        hs.append(max(grid.spacings))
    est = convergence_order(maxes, hs)
    assert est.exact or est.order >= 1.8


@pytest.mark.parametrize("provenance,family,exact", [
    ("right-action", nilpotent_family("lifted-chiral"), False),
    ("right-action", SolutionFamily("lifted-chiral", ROTATION_FAMILY.A,
                                    ROTATION_FAMILY.B), False),
    ("y-translation", nilpotent_family("lifted-chiral"), True),
], ids=["right-action-nilpotent", "right-action-rotation",
        "y-translation-nilpotent"])
def test_lifted_rung_conserves_backward_tower_charge(provenance, family,
                                                     exact):
    # Z2 two levels below the seed is pinned along the plain directions
    # (y, z) only; the rung integrates it along t and x
    q = generate_hierarchy(SDYM, _seed(SDYM, provenance), -2, 0).charges[-2]
    assert set(q.potentials["Z2"]) == {"y", "z"}
    params = {"L": NILPOTENT_B}
    counts = (7, 13, 25)
    maxes, hs = [], []
    for n, m in zip(counts, scaled_margins(counts, 2)):
        rung = SolutionFields(SDYM, sample_solution(family, sdym_grid(n)))
        Q = eval_characteristic(q, rung, params)
        maxes.append(conservation_residual(rung, Q, m).max)
        hs.append(max(rung.u.grid.spacings))
    est = convergence_order(maxes, hs)
    assert est.exact if exact else est.order >= 1.8


@pytest.mark.parametrize("eq,grid,axes", [
    (CHIRAL, chiral_grid(9), ("t",)),
    (SDYM, sdym_grid(7), ("y", "yb"))], ids=["chiral", "sdym"])
def test_tower_potential_free_along_an_axis_is_unbound(eq, grid, axes):
    # rules along one axis of the rung leave the other free
    family = nilpotent_family(eq.families[0])
    rung = SolutionFields(eq, sample_solution(family, grid))
    vs = eq.vs
    rule = eq.slots[0].connection
    q = Characteristic(-2, vs.pot("W") * eq.u(), "hand-made",
                       potentials={"W": {v: rule for v in axes}})
    with pytest.raises(UnboundAtom):
        eval_characteristic(q, rung)


def test_batched_lax_lifted_matches_loop_reference():
    grid = sdym_grid(7)
    u = sample_solution(SolutionFamily("lifted-chiral", ROTATION_FAMILY.A,
                                       ROTATION_FAMILY.B), grid)
    phi0 = np.array([[1.2, -0.4], [0.3, 0.9]])
    out = integrate_lax(SolutionFields(SDYM, u), [0.5], phi0=phi0)[0]

    # the connections J^-1 J_y and J^-1 J_z differentiate along t and x
    h = grid.spacings[0]
    inv = kernels.inv(u.values)
    a = _mm(inv, np.gradient(u.values, h, axis=0, edge_order=2))
    b = _mm(inv, np.gradient(u.values, h, axis=1, edge_order=2))
    phi1, phi2 = _ref_lax_2d(grid, a, b, 0.5, phi0)

    assert out.compat_residual == float(np.abs(phi1 - phi2).max())
    assert np.array_equal(out.phi.values, phi1)
    assert np.array_equal(out.psi.values, _mm(u.values, phi1))


# ---------------------------------------------------------------------------
# The diagonal rung against a four-variable reference
# ---------------------------------------------------------------------------

def _lift(diag, n):
    """An array over the diagonal grid of an n-point sdym rung, read at
    every point (y, z, yb, zb) of the four-variable grid: at (y+yb, z+zb),
    by index sums."""
    i = np.arange(n)
    return diag[i[:, None, None, None] + i[None, None, :, None],
                i[None, :, None, None] + i[None, None, None, :]]


def _reference_divergence(env4, w):
    """sum_slots D_div([A_slot, w] + D_cov w) on the four-variable grid,
    each variable along its own axis."""
    grid, div = env4.grid, np.zeros_like(w)
    for s in SDYM.slots:
        conn = eval_on_grid(s.connection, env4)
        cov, dv = SDYM.vs.index(s.cov_var), SDYM.vs.index(s.div_var)
        G = kernels.commutator(conn, w) \
            + kernels.gradient(w, grid.axes[cov].h, cov)
        div = div + kernels.gradient(G, grid.axes[dv].h, dv)
    return div


def _stats(rung, arr, m):
    """The statistics of a whole array over the rung."""
    return rung.reduce_rows(lambda r0, r1: arr[r0:r1], m)


@pytest.mark.parametrize("n,m", [(9, 3), (17, 6)])
def test_lifted_rung_matches_four_variable_reference(n, m):
    # J(y, z, yb, zb) = g(y+yb, z+zb) built by hand from the diagonal
    # sample and evaluated over (y, z, yb, zb) with margin m: the diagonal
    # rung's maxima (margin 2m) are the same floats, and its weighted l2
    # is the four-variable root mean square up to summation order
    diag = sample_solution(SolutionFamily("lifted-chiral", ROTATION_FAMILY.A,
                                          ROTATION_FAMILY.B), sdym_grid(n))
    rung = SolutionFields(SDYM, diag)
    params = {"M": NILPOTENT_A, "L": NILPOTENT_B}
    X = SDYM.potential_name
    env = rung.env.bind(params=params, potentials={X: rung.potential})
    J4 = _lift(diag.values, n)
    env4 = GridEnv(Grid.regular(SDYM.vs.names, -0.25, 0.5 / (n - 1), n),
                   {SDYM.field_name: J4}, params=params,
                   potentials={X: _lift(rung.potential, n)})
    inv4 = kernels.inv(J4)

    pairs = [(fd_residual_field_equation(rung, m),
              eval_on_grid(field_equation_residual(SDYM), env4))]
    for v, rhs in SDYM.potential_rules[X].items():
        e = SDYM.vs.pot(X, v) - rhs
        pairs.append((_stats(rung, eval_on_grid(e, env), m),
                      eval_on_grid(e, env4)))
    for q in SDYM.catalog:
        Q = eval_characteristic(q, rung, params)
        w4 = inv4 @ eval_on_grid(q.body, env4)
        pairs.append((conservation_residual(rung, Q, m),
                      _reference_divergence(env4, w4)))
        pairs.append((_stats(rung, np.trace(rung.inverse @ Q.values,
                                            axis1=-2, axis2=-1), m),
                      np.trace(w4, axis1=-2, axis2=-1)))
    assert len(pairs) == 3 + 2 * len(SDYM.catalog)
    for got, ref in pairs:
        core = np.abs(ref[(slice(m, -m),) * 4])
        assert (got.max, got.margin, got.h) == (core.max(), m, 0.5 / (n - 1))
        assert got.l2 == pytest.approx(np.sqrt(np.mean(core ** 2)),
                                       rel=1e-12, abs=0)


def test_unpaired_stats_are_the_plain_root_mean_square():
    arr = np.random.default_rng(3).standard_normal((17, 19, 2, 2))
    grid = Grid((Axis(0.0, 0.1, 17), Axis(0.0, 0.1, 19)), ("t", "x"))
    st = residual_stats(arr, grid, 3)
    core = np.abs(arr[3:-3, 3:-3])
    assert st.max == float(core.max())
    assert st.l2 == float(np.sqrt(np.mean(core ** 2)))


# ---------------------------------------------------------------------------
# Streamed statistics: numpy's reduction, block by block
# ---------------------------------------------------------------------------

PAIRWISE_SIZES = (list(range(1, 10)) + list(range(127, 131))
                  + [2 ** k + d for k in range(3, 21) for d in (-1, 1)])


def _chunked_sum(a, cuts):
    """``numerics._PairwiseSum`` of ``a`` fed in the chunks that ``cuts``
    (sorted offsets) make."""
    s = numerics._PairwiseSum(a.size)
    for c0, c1 in zip([0] + cuts, cuts + [a.size]):
        s.add(a[c0:c1])
    return s.total


@pytest.mark.parametrize("n", PAIRWISE_SIZES)
def test_pairwise_sum_is_numpys_bit_for_bit(n):
    # numpy sums a contiguous float64 array pairwise; the streamed sum
    # reproduces its tree over any chunking: one chunk, random cuts, runs
    # of one-element chunks, and (up to 300 values) every value alone
    rng = np.random.default_rng(n)
    a = rng.standard_normal(n) * np.exp(4 * rng.standard_normal(n))
    want = np.add.reduce(a)
    chunkings = [[]]
    for _ in range(4):
        cuts = set(rng.integers(1, n, size=rng.integers(1, 12))) if n > 1 \
            else set()
        for c in list(cuts)[:3]:
            cuts |= {c + 1, c + 2}  # one-element chunks
        chunkings.append(sorted(c for c in cuts if 0 < c < n))
    if n <= 300:
        chunkings.append(list(range(1, n)))
    for cuts in chunkings:
        got = _chunked_sum(a, cuts)
        assert got.tobytes() == want.tobytes(), (n, cuts)


def _whole_interior_stats(arr, grid, margin, paired):
    """The maximum of |core| and numpy's (weighted) mean of |core|^2 over
    the whole interior, as residual statistics were once formed."""
    margins = [2 * margin if a in paired else margin
               for a in range(len(grid.axes))]
    mags = np.abs(arr[tuple(slice(m, -m) for m in margins)])
    weights = None
    if paired:
        weights = np.ones(())
        for a, (ax, m) in enumerate(zip(grid.axes, margins)):
            k = np.arange(m, ax.n - m)
            n = (ax.n + 1) // 2
            c = n - m - np.abs(k - (n - 1)) if a in paired \
                else np.ones(k.size)
            weights = np.multiply.outer(weights, c)
        weights = np.broadcast_to(weights.reshape(
            weights.shape + (1,) * (mags.ndim - weights.ndim)), mags.shape)
    return (float(mags.max()),
            float(np.sqrt(np.average(mags ** 2, weights=weights))))


@pytest.mark.parametrize("paired", [(), (0, 1)], ids=["unpaired", "paired"])
@pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
def test_streamed_stats_are_the_whole_interiors_bit_for_bit(
        monkeypatch, dtype, paired):
    # random samples of every trailing shape, margins 1 to 12, blocks of
    # 1, 5, 16, 17 and 32 rows and of more rows than the grid has; the
    # paired axes are sdym's, odd diagonals weighted by index pairs
    rng = np.random.default_rng(7 + len(paired))
    for margin in range(1, 13):
        scale = 4 if paired else 2
        counts = (scale * margin + 3 + 2 * (margin % 3),
                  scale * margin + 5)
        grid = Grid(tuple(Axis(0.0, 0.1, n) for n in counts), ("t", "x"))
        tail = [(), (2, 2), (3, 3)][margin % 3]
        arr = rng.standard_normal(counts + tail).astype(dtype)
        if dtype is complex:
            arr += 1j * rng.standard_normal(counts + tail)
        want = _whole_interior_stats(arr, grid, margin, paired)
        for block in (1, 5, 16, 17, 32, 10 ** 6):
            monkeypatch.setattr(numerics, "BLOCK_ROWS", block)
            st = residual_stats(arr, grid, margin, paired)
            assert (st.max, st.l2) == want, (margin, block)
            assert (st.margin, st.h) == (margin, 0.1)


def test_cached_fields_match_fresh_evaluation():
    u = sample_solution(ROTATION_FAMILY, chiral_grid(17))
    fields = SolutionFields(CHIRAL, u)
    qg = GridField(u.grid, _mm(u.values, NILPOTENT_A.astype(complex)))
    first = conservation_residual(fields, qg)
    # again on the warm rung, and on a fresh rung of the same sample
    assert conservation_residual(fields, qg) == first
    assert conservation_residual(SolutionFields(CHIRAL, u), qg) == first
    assert np.array_equal(fields.inverse, kernels.inv(u.values))
    env = GridEnv(u.grid, {CHIRAL.field_name: u.values})
    for s, conn in zip(CHIRAL.slots, fields.connections):
        assert np.array_equal(conn, eval_on_grid(s.connection, env))


@pytest.mark.parametrize("eq,family,grid", [
    (CHIRAL, ROTATION_FAMILY, chiral_grid(17)),
    (SDYM, SolutionFamily("lifted-chiral", ROTATION_FAMILY.A,
                          ROTATION_FAMILY.B), sdym_grid(7))],
    ids=["chiral", "sdym"])
def test_released_rung_marches_as_a_whole_one(eq, family, grid):
    # release keeps the grid and the connections, made first if they were
    # not, and drops u, u^-1, the potential and every cached derivative;
    # the march and its residual read the connections alone, bit for bit
    whole = SolutionFields(eq, sample_solution(family, grid))
    want = integrate_lax(whole, [0.5, 2.0])
    rung = SolutionFields(eq, sample_solution(family, grid))
    nv = len(eq.vs.names)
    rung.potential, rung.inverse
    rung.env.atom_values(Field(eq.field_name, (1,) + (0,) * (nv - 1)))
    held = [weakref.ref(a) for a in
            [rung.u.values, rung.potential, rung.inverse]
            + list(rung.env._cache.values())]
    rung.release()
    assert rung.u is None and rung.env is None
    assert all(r() is None for r in held)
    assert rung.grid == grid
    for got, conn in zip(rung.connections, whole.connections):
        assert np.array_equal(got, conn)
    for got, out in zip(integrate_lax(rung, [0.5, 2.0]), want):
        assert np.array_equal(got.phi.values, out.phi.values)
        assert got.compat_residual == out.compat_residual
        assert got.symmetry_residual(2) == out.symmetry_residual(2)


def test_potential_failure_is_kept(monkeypatch):
    # an off-shell rung integrates its potential once; every later read
    # raises the same PathInconsistent without integrating again
    calls = []
    compute = numerics.compute_potential
    monkeypatch.setattr(numerics, "compute_potential",
                        lambda fields: calls.append(fields) or compute(fields))
    rung = SolutionFields(CHIRAL, sample_solution(
        nilpotent_family("perturbed-offshell", 0.1), chiral_grid(17)))
    errors = []
    for _ in range(3):
        with pytest.raises(PathInconsistent) as info:
            rung.potential
        errors.append(info.value)
    assert len(calls) == 1
    assert errors[0] is errors[1] is errors[2]


def test_eval_characteristic_reuses_rung_fields():
    u = sample_solution(ROTATION_FAMILY, chiral_grid(17))
    fields = SolutionFields(CHIRAL, u)
    h = generate_hierarchy(CHIRAL, _seed(CHIRAL, "right-action"), -2, 1)
    # a closed form, a potential-dependent form and a tower level, each
    # under two parameter bindings evaluated against the same rung cache
    for level in (0, 1, -2):
        for P in (NILPOTENT_A, ROTATION_FAMILY.B):
            params = {"M": P, "L": P}
            got = eval_characteristic(h.charges[level], fields, params)
            want = eval_characteristic(h.charges[level],
                                       SolutionFields(CHIRAL, u), params)
            assert np.array_equal(got.values, want.values)
    # the rung keeps u^-1 and none of the bindings or derivatives; a bound
    # environment shares u^-1 and computes its derivatives itself
    assert not any(isinstance(a, (Param, Potential))
                   or isinstance(a, Field) and any(a.orders)
                   for a in fields.env._cache)
    bound = fields.env.bind(params={"L": NILPOTENT_A})
    assert bound.atom_values(InvField("g")) is fields.inverse
    assert np.array_equal(bound.atom_values(Field("g", (1, 0))),
                          SolutionFields(CHIRAL, u).env.atom_values(
                              Field("g", (1, 0))))


def test_rung_keeps_no_field_derivative():
    # after the field-equation, conservation and potential evaluations the
    # rung's cache holds u^-1 and no derivative; a bound environment
    # shares u^-1 by identity
    rung = SolutionFields(CHIRAL,
                          sample_solution(ROTATION_FAMILY, chiral_grid(17)))
    params = {"M": NILPOTENT_A, "L": NILPOTENT_B}
    fd_residual_field_equation(rung)
    for q in CHIRAL.catalog:
        conservation_residual(rung, eval_characteristic(q, rung, params))
    rung.potential
    assert list(rung.env._cache) == [InvField("g")]
    assert rung.env.bind().atom_values(InvField("g")) is rung.inverse


def test_eval_on_grid_never_writes_into_a_cached_atom():
    # the first monomial of each normal form is the bare cached atom g_x,
    # which the sum must not accumulate into
    rung = SolutionFields(CHIRAL,
                          sample_solution(ROTATION_FAMILY, chiral_grid(17)))
    vs = CHIRAL.vs
    atoms = [Field("g", (1, 0)), Field("g", (0, 1))]
    g_t, g_x = cached = [rung.env.atom_values(a) for a in atoms]
    kept = [v.copy() for v in cached]
    for e, want in ((vs.field("g", "t") + vs.field("g", "x"), g_x + g_t),
                    (vs.field("g", "x") - 2 * vs.field("g", "t"),
                     g_x + -2.0 * g_t)):
        assert e.mons[0][0] == 1 and e.mons[0][3] == (atoms[1],)
        assert np.array_equal(eval_on_grid(e, rung.env), want)
        for a, v, k in zip(atoms, cached, kept):
            assert rung.env.atom_values(a) is v and np.array_equal(v, k)
    # an expression that is one bare atom comes back as a copy
    got = eval_on_grid(vs.field("g", "t"), rung.env)
    assert got is not g_t and np.array_equal(got, g_t)


def _so3_rung(n=65):
    """A rung of 3x3 rotation generators on an n^2 grid, with u^-1 and the
    connections made."""
    rung = SolutionFields(CHIRAL, sample_solution(
        SolutionFamily("exponential-product", SO3_A, SO3_B),
        chiral_grid(n)))
    rung.inverse, rung.connections
    return rung


def test_conservation_residual_peak_is_bounded():
    # with u^-1, the connections and q made beforehand, the divergence of a
    # 65^2 rung of 3x3 matrices holds u^-1 q, the divergence and the
    # blocks of the one being formed (each about half the grid here)
    rung = _so3_rung()
    q = GridField(rung.u.grid, rung.u.values @ SO3_A)
    assert peak_field_sizes(lambda: conservation_residual(rung, q),
                            rung.u.values.nbytes) <= 4.5


def test_field_equation_evaluation_peak_is_bounded():
    # the residual's one output array and the blocks of its monomials and
    # derivatives; no whole derivative is formed
    rung = _so3_rung()
    residual, env = field_equation_residual(CHIRAL), rung.env.bind()
    assert peak_field_sizes(lambda: eval_on_grid(residual, env),
                            rung.u.values.nbytes) <= 4.5
    assert list(env._cache) == []


# ---------------------------------------------------------------------------
# Row blocks: every blocked evaluation is bit for bit the whole grid's
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4, 5, 9, 17, 33])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_halo_gives_the_whole_derivative_rows(n, k):
    # every block of every size, down to one row, differentiated k times
    # along axis 0 on its halo window, matches those rows of the whole
    # derivative, edges included
    f = np.random.default_rng(n + k).standard_normal((n, 4, 2, 2))
    whole = f
    for _ in range(k):
        whole = kernels.gradient(whole, 0.1, 0)
    for size in range(1, n + 1):
        for r0 in range(0, n, size):
            r1 = min(r0 + size, n)
            lo, hi = numerics._halo(r0, r1, n, k)
            part = f[lo:hi]
            for _ in range(k):
                part = kernels.gradient(part, 0.1, 0)
            assert np.array_equal(part[r0 - lo:r1 - lo], whole[r0:r1])


def _whole_and_blocked(monkeypatch, block, evaluate):
    """``evaluate()`` with one block over the whole grid, then with blocks
    of ``block`` rows."""
    monkeypatch.setattr(numerics, "BLOCK_ROWS", 10 ** 6)
    whole = evaluate()
    monkeypatch.setattr(numerics, "BLOCK_ROWS", block)
    return whole, evaluate()


def _divergence_array(monkeypatch, rung, w_rows):
    """The interior rows of the divergence that ``current_divergence``
    forms from ``w_rows``: the blocks its statistics receive, in order."""
    seen = []
    reduce_rows = numerics.reduce_rows

    def recorded(rows, *args):
        def recording(r0, r1):
            block = rows(r0, r1)
            seen.append(block.copy())
            return block
        return reduce_rows(recording, *args)
    monkeypatch.setattr(numerics, "reduce_rows", recorded)
    numerics.current_divergence(rung, w_rows)
    monkeypatch.setattr(numerics, "reduce_rows", reduce_rows)
    return np.concatenate(seen)


# both rungs have 17 rows (the sdym one on its diagonal); the block sizes
# are above the row count, equal to it, one below it (so 17 is one above
# the block) and one 17 is not a multiple of
BLOCKS = {"below": 32, "equal": 17, "one-above": 16, "not-multiple": 5}


@pytest.mark.parametrize("block", list(BLOCKS.values()), ids=list(BLOCKS))
@pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
@pytest.mark.parametrize("eq,family,grid", [
    (CHIRAL, ROTATION_FAMILY, chiral_grid(17)),
    (SDYM, SolutionFamily("lifted-chiral", ROTATION_FAMILY.A,
                          ROTATION_FAMILY.B), sdym_grid(9))],
    ids=["chiral", "sdym"])
def test_row_blocks_are_bit_for_bit_the_whole_grid(monkeypatch, eq, family,
                                                   grid, dtype, block):
    sample = sample_solution(family, grid)
    u = GridField(grid, sample.values.astype(dtype))
    assert u.grid.counts[0] == 17
    params = {"M": NILPOTENT_A, "L": NILPOTENT_B}

    def rung():
        return SolutionFields(eq, u)

    def evaluate():
        r = rung()
        out = [eval_on_grid(field_equation_residual(eq), r.env.bind())]
        out += [eval_characteristic(q, r, params).values
                for q in eq.catalog]
        if eq is CHIRAL:
            tower = generate_hierarchy(eq, _seed(eq, "right-action"),
                                       -2, 0).charges[-2]
            out.append(eval_characteristic(tower, r, params).values)
        w = r.inverse @ out[1]
        out.append(_divergence_array(monkeypatch, r, lambda lo, hi: w[lo:hi]))
        # the characteristic evaluated and transported on each halo window
        q_rows = characteristic_rows(eq.catalog[0], r, params)
        out.append(_divergence_array(
            monkeypatch, r, lambda lo, hi: r.inverse[lo:hi] @ q_rows(lo, hi)))
        out.append(compute_potential(r).field.values)
        return out

    whole, blocked = _whole_and_blocked(monkeypatch, block, evaluate)
    assert len(whole) == len(blocked) >= 6
    for a, b in zip(whole, blocked):
        assert a.dtype == b.dtype == np.dtype(dtype)
        assert np.array_equal(a, b)


def test_conservation_and_evaluation_never_write_into_their_inputs():
    # the sample, the characteristic's samples, u^-1, the connections, the
    # potential and a cached derivative are all as they were
    rung = SolutionFields(CHIRAL,
                          sample_solution(ROTATION_FAMILY, chiral_grid(17)))
    params = {"M": NILPOTENT_A, "L": NILPOTENT_B}
    g_t = rung.env.atom_values(Field("g", (1, 0)))
    inputs = [rung.u.values, rung.inverse, *rung.connections, rung.potential,
              g_t]
    samples = [eval_characteristic(q, rung, params) for q in CHIRAL.catalog]
    kept = [a.copy() for a in inputs + [q.values for q in samples]]
    for q in samples:
        conservation_residual(rung, q)
    env = rung.env.bind(params=params,
                        potentials={CHIRAL.potential_name: rung.potential})
    for e in (field_equation_residual(CHIRAL), CHIRAL.vs.field("g", "t")):
        eval_on_grid(e, rung.env)
    for q in CHIRAL.catalog:
        eval_on_grid(q.body, env)
    assert rung.env.atom_values(Field("g", (1, 0))) is g_t
    for a, k in zip(inputs + [q.values for q in samples], kept):
        assert np.array_equal(a, k)


@pytest.mark.parametrize("eq,family,grid,provenance", [
    (CHIRAL, ROTATION_FAMILY, chiral_grid(17), "potential-commutator"),
    (SDYM, nilpotent_family("lifted-chiral"), sdym_grid(9),
     "potential-translation")], ids=["chiral", "sdym"])
def test_eval_characteristic_binds_the_rung_potential(eq, family, grid,
                                                      provenance):
    u = sample_solution(family, grid)
    q = next(c for c in eq.catalog if c.provenance == provenance)
    assert q.body.has_potentials()
    params = {"M": NILPOTENT_A, "L": NILPOTENT_B}
    rung = SolutionFields(eq, u)
    got = eval_characteristic(q, rung, params)
    # the same form with the integrated potential bound by hand
    X = compute_potential(SolutionFields(eq, u)).field.values
    env = SolutionFields(eq, u).env.bind(params=params,
                                          potentials={eq.potential_name: X})
    assert np.array_equal(got.values, eval_on_grid(q.body, env))
    # the rung integrates its potential once and keeps it
    assert np.array_equal(rung.potential, X)
    assert rung.potential is rung.potential


def test_eval_on_grid_reads_coordinates_off_the_grid():
    # t g_t on a plain rung is the t axis's points times g_t; the diagonal
    # grid of a lifted rung has no axis for a plain or barred coordinate
    rung = SolutionFields(CHIRAL,
                          sample_solution(ROTATION_FAMILY, chiral_grid(9)))
    vs = CHIRAL.vs
    got = eval_on_grid(vs.coord("t") * vs.field("g", "t"), rung.env)
    g_t = rung.env.atom_values(Field("g", (1, 0)))
    assert np.array_equal(
        got, rung.u.grid.coord_array("t")[..., None, None] * g_t)
    lifted = SolutionFields(SDYM, sample_solution(
        nilpotent_family("lifted-chiral"), sdym_grid(9)))
    with pytest.raises(UnboundAtom, match="coordinate 'y'"):
        eval_on_grid(SDYM.vs.coord("y") * SDYM.vs.field("J", "y"),
                     lifted.env)


# ---------------------------------------------------------------------------
# Dtypes: real samples stay real, complex inputs promote
# ---------------------------------------------------------------------------

def _tower_q(fields, L):
    q = generate_hierarchy(CHIRAL, _seed(CHIRAL, "right-action"),
                           -2, 0).charges[-2]
    return eval_characteristic(q, fields, params={"L": L}).values


def _agree(got, want):
    assert got.dtype == np.complex128
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("family", [
    nilpotent_family(), ROTATION_FAMILY,
    nilpotent_family("perturbed-offshell", eps=0.1)],
    ids=["nilpotent", "rotation", "offshell"])
def test_real_chiral_sample_stays_float64(family):
    u = sample_solution(family, chiral_grid(17))
    assert u.values.dtype == np.float64
    fields = SolutionFields(CHIRAL, u)
    env = fields.env.bind(params={"M": NILPOTENT_A})
    for atom in (Field("g", (1, 0)), Field("g", (1, 1)), InvField("g"),
                 Param("M")):
        assert env.atom_values(atom).dtype == np.float64
    assert all(c.dtype == np.float64 for c in fields.connections)
    if family.kind != "perturbed-offshell":
        assert fields.potential.dtype == np.float64
        assert _tower_q(fields, NILPOTENT_A).dtype == np.float64
    out = integrate_lax(fields, [0.5])[0]
    assert out.phi.values.dtype == np.float64
    assert out.psi.values.dtype == np.float64


def test_real_lifted_sample_stays_float64():
    u = sample_solution(nilpotent_family("lifted-chiral"), sdym_grid(7))
    assert u.values.dtype == np.float64
    fields = SolutionFields(SDYM, u)
    assert all(c.dtype == np.float64 for c in fields.connections)
    assert fields.potential.dtype == np.float64
    out = integrate_lax(fields, [0.5])[0]
    assert out.phi.values.dtype == np.float64
    assert out.psi.values.dtype == np.float64


def test_complex_parameter_promotes_implicit_charge():
    fields = SolutionFields(CHIRAL,
                            sample_solution(ROTATION_FAMILY, chiral_grid(17)))
    real = _tower_q(fields, NILPOTENT_A)
    _agree(_tower_q(fields, NILPOTENT_A.astype(complex)), real)


def test_complex_lambda_promotes_lax_integration():
    u = sample_solution(ROTATION_FAMILY, chiral_grid(17))
    lam = 0.5 + 0.5j
    got = integrate_lax(SolutionFields(CHIRAL, u), [lam])[0]
    # the same integration with the sample cast to complex up front
    cast = GridField(u.grid, u.values.astype(complex))
    want = integrate_lax(SolutionFields(CHIRAL, cast), [lam])[0]
    _agree(got.phi.values, want.phi.values)
    _agree(got.psi.values, want.psi.values)
    assert abs(got.compat_residual - want.compat_residual) <= 1e-12
    lifted = sample_solution(nilpotent_family("lifted-chiral"), sdym_grid(7))
    out = integrate_lax(SolutionFields(SDYM, lifted), [lam])[0]
    assert out.phi.values.dtype == np.complex128


def test_snapshot_sample_runs_in_complex():
    u = sample_solution(ROTATION_FAMILY, chiral_grid(17))
    buf = io.StringIO()
    save_snapshot(buf, u)
    buf.seek(0)
    back = load_snapshot(buf)
    assert back.values.dtype == np.complex128
    real, cplx = SolutionFields(CHIRAL, u), SolutionFields(CHIRAL, back)
    for c_real, c_cplx in zip(real.connections, cplx.connections):
        _agree(c_cplx, c_real)
    _agree(cplx.potential, real.potential)
    _agree(_tower_q(cplx, NILPOTENT_A), _tower_q(real, NILPOTENT_A))
    _agree(integrate_lax(cplx, [0.5])[0].psi.values,
           integrate_lax(real, [0.5])[0].psi.values)
