"""Grid-based numerical verification.

Exact solution families are sampled on rectangular grids; every symbolic
claim is then re-checked with central differences: field-equation residual,
conservation residuals of the charge hierarchy, potential consistency and
path independence, Lax wavefunction integration, and convergence-order
measurement.  A perturbed off-shell family provides negative controls.

Every grid check takes one rung of a ladder, a ``SolutionFields``, which
keeps u^-1, the slot connections and the potential; field derivatives are
formed per evaluation, in an environment bound from the rung's.  The row
block, ``BLOCK_ROWS`` rows along the first grid axis, is the unit of all
grid work.  An expression, a divergence or a trapezoid step is formed on
a block, differentiating on the block plus a halo (``_halo``) with the
whole grid's per-element operations, so a block's rows are bit for bit
the whole grid's.  Every residual is reduced block by block
(``reduce_rows``), so it is never whole, and its statistics are those of
the whole interior bit for bit (``_PairwiseSum``).  Every residual a
claim reads is read here, from a rung, the run's parameter matrices and
its margin (``characteristic_conservation`` and the like).  The potentials are
integrated along both staircase paths by rows (``_trapezoid_paths``): the
kept path is written into the potential's rows, the other is compared
with it block by block and never stored, and their difference fails
off-shell.  The wavefunction's march (``_staircase_paths``) steps along
lines; its coefficients along the grid axes, and the spectral values at
which they are singular, come from the equation's Lax pair, solved from
its slots (``lax_elimination``).

An equation that declares a diagonal (``EquationDef.diagonal``) is
sampled on it only (``rung_grid``), and both variables of a pair
differentiate along its axis (``EquationDef.axes``): a central difference
along y or yb in the interior of SDYM's four-variable grid reads exactly
the samples of the one along t = y+yb, so every residual, potential and
wavefunction is measured on the diagonal, each point weighted by the
four-variable points it stands for (``reduce_rows``).

Grid arrays take the dtype numpy's promotion gives from their inputs: a
real config stays float64, and a complex input (a loaded snapshot, a
complex parameter matrix or spectral value) makes complex128 wherever it
enters.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .equations import Characteristic, EquationDef, field_equation_residual
from .errors import (
    DimensionMismatch,
    GridTooSmall,
    IoFailure,
    NonMonotone,
    PathInconsistent,
    SingularLambda,
    UnboundAtom,
    ZeroLambda,
)
from .expr import DPotential, Field, InvField, JetExpr, Param, Potential
from .kernels import commutator, gradient, inv


# ---------------------------------------------------------------------------
# Grids and grid fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Axis:
    origin: float
    h: float
    n: int

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("spacing must be positive")
        if self.n < 5:
            raise GridTooSmall("need at least 5 points per axis")

    def points(self) -> np.ndarray:
        return self.origin + self.h * np.arange(self.n)


@dataclass(frozen=True)
class Grid:
    axes: Tuple[Axis, ...]
    names: Tuple[str, ...]

    @property
    def counts(self):
        return tuple(ax.n for ax in self.axes)

    @property
    def spacings(self):
        return tuple(ax.h for ax in self.axes)

    def axis_index(self, v: str) -> int:
        return self.names.index(v)

    def coord_array(self, v: str) -> np.ndarray:
        """Coordinate values broadcast over the full grid."""
        i = self.axis_index(v)
        shape = [1] * len(self.axes)
        shape[i] = self.axes[i].n
        pts = self.axes[i].points().reshape(shape)
        return np.broadcast_to(pts, self.counts)

    @staticmethod
    def regular(names: Sequence[str], origin: float, h: float, n: int) -> "Grid":
        return Grid(tuple(Axis(origin, h, n) for _ in names), tuple(names))


@dataclass
class GridField:
    grid: Grid
    values: np.ndarray  # shape counts + (N, N), real or complex, by promotion

    @property
    def n_dim(self) -> int:
        return self.values.shape[-1]

    def __post_init__(self):
        expected = self.grid.counts + (self.n_dim, self.n_dim)
        if self.values.shape != expected:
            raise DimensionMismatch(
                f"values shape {self.values.shape} != grid shape {expected}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid field contains non-finite entries")


def save_snapshot(f, gf: GridField):
    """Plain-text snapshot: header (axes, spacing, counts, N) then row-major
    complex entries in deterministic order."""
    g = gf.grid
    f.write("symlax-gridfield 1\n")
    f.write("axes " + " ".join(g.names) + "\n")
    for name, ax in zip(g.names, g.axes):
        f.write(f"axis {name} {ax.origin!r} {ax.h!r} {ax.n}\n")
    f.write(f"matdim {gf.n_dim}\n")
    flat = gf.values.reshape(-1)
    for v in flat:
        f.write(f"{float(v.real)!r} {float(v.imag)!r}\n")


def load_snapshot(f) -> GridField:
    """Read a snapshot written by ``save_snapshot``.  A foreign, truncated
    or garbled snapshot raises IoFailure, a truncated one at its first
    missing entry: the array is built from the entries read, never
    allocated from the header's counts."""
    def line(tag, arity=None):
        """The values of the next line, which must start with ``tag`` and
        hold ``arity`` values (one or more when None)."""
        parts = f.readline().split()
        if parts[:1] != [tag] or len(parts) < 2 or \
                (arity is not None and len(parts) != arity + 1):
            raise IoFailure(f"bad gridfield snapshot: expected a {tag!r} "
                            f"line, got {parts!r}")
        return parts[1:]

    try:
        line("symlax-gridfield")
        names = tuple(line("axes"))
        axes = []
        for name in names:
            got, o, h, n = line("axis", 4)
            if got != name:
                raise IoFailure(f"bad gridfield snapshot: axis {got!r} "
                                f"where {name!r} was declared")
            o, h = float(o), float(h)
            if not (math.isfinite(o) and math.isfinite(h)):
                raise IoFailure(f"bad gridfield snapshot: axis {name!r} has "
                                f"origin {o} and spacing {h}")
            axes.append(Axis(o, h, int(n)))
        nmat = int(line("matdim", 1)[0])
        if nmat < 1:
            raise IoFailure(f"bad gridfield snapshot: matdim {nmat}")
        grid = Grid(tuple(axes), names)
        count = math.prod(grid.counts) * nmat * nmat
        data = []
        for i in range(count):
            parts = f.readline().split()
            if len(parts) != 2:
                raise IoFailure(f"bad gridfield snapshot: entry {i} of "
                                f"{count} has {len(parts)} values")
            data.append(complex(float(parts[0]), float(parts[1])))
        return GridField(grid, np.array(data).reshape(
            grid.counts + (nmat, nmat)))
    except (ValueError, GridTooSmall) as exc:
        raise IoFailure(f"bad gridfield snapshot: {exc}") from exc


# ---------------------------------------------------------------------------
# Matrix exponential and solution families
# ---------------------------------------------------------------------------

def dense_expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential of one matrix or of a stack ``(..., n, n)``.

    A stack whose every matrix is nilpotent short-circuits to the exact
    finite sum.  Any other goes through scaling and squaring around a
    truncated Taylor series (Moler and Van Loan, "Nineteen Dubious Ways to
    Compute the Exponential of a Matrix, Twenty-Five Years Later", SIAM
    Review 45, 2003): each matrix is scaled by its own power of two 2^-s,
    s = max(0, ceil(log2 |M|_1)), so that |X|_1 <= 1; the series is summed
    by Horner to degree 18, whose remainder is below 1/19! ~ 8e-18; and
    each result is squared back s times.  The scaling is per matrix and the
    degree fixed, so every matrix of a stack comes out bit for bit as it
    would alone.  A non-finite entry raises ValueError."""
    M = np.asarray(M)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix exponential of a non-finite matrix")
    n = M.shape[-1]
    P = np.eye(n)
    out = np.eye(n)
    for k in range(1, n + 1):
        P = P @ M / k
        if not np.any(P):
            return np.broadcast_to(out, M.shape).copy()
        out = out + P
    # frexp gives norm = m * 2^e with m in [0.5, 1): ceil(log2 norm) is e,
    # or e - 1 when m = 0.5, exactly, and a zero norm gives s = 0
    m, e = np.frexp(np.abs(M).sum(axis=-2).max(axis=-1))
    s = np.maximum(e - (m == 0.5), 0)[..., None, None]
    X = M * np.ldexp(1.0, -s)
    out = eye = np.eye(n)
    for k in range(18, 0, -1):
        out = eye + X @ out / k
    for i in range(int(s.max())):
        out = np.where(s > i, out @ out, out)
    return out


@dataclass(frozen=True)
class SolutionFamily:
    """Exact (or deliberately perturbed) solution family.

    kinds: ``exponential-product`` g(t,x) = exp(tA) exp(xB) (chiral);
    ``lifted-chiral`` J = g(y+yb, z+zb) (SDYM); ``perturbed-offshell``
    g*(I + eps*P(t,x)) with smooth non-constant P (negative control).
    """
    kind: str
    A: np.ndarray
    B: np.ndarray
    eps: float = 0.0

    def __post_init__(self):
        A, B = np.asarray(self.A), np.asarray(self.B)
        if A.shape != B.shape or A.shape[0] != A.shape[1]:
            raise DimensionMismatch("parameter matrices must be square, same size")


NILPOTENT_A = np.array([[0.0, 1.0], [0.0, 0.0]])
NILPOTENT_B = np.array([[0.0, 0.0], [1.0, 0.0]])


def nilpotent_family(kind: str = "exponential-product", eps: float = 0.0) -> SolutionFamily:
    return SolutionFamily(kind, NILPOTENT_A, NILPOTENT_B, eps)


def _perturbation(t, x, n):
    """Smooth, non-constant matrix perturbation field."""
    P1 = np.zeros((n, n))
    P2 = np.zeros((n, n))
    P1[0, -1] = 1.0
    P2[-1, 0] = 1.0
    return (np.sin(t + 2.0 * x)[..., None, None] * P1
            + np.cos(t - x)[..., None, None] * P2)


def rung_grid(eq: EquationDef, origin: float, h: float, n: int) -> Grid:
    """The grid a rung of ``eq`` is sampled on, for a ladder count of n
    points at spacing h from ``origin`` per variable.  An equation that
    declares a diagonal is sampled on it: one axis per name of
    ``eq.diagonal``, over the sum of the two variables it carries, so with
    2n - 1 points from 2 * origin."""
    if eq.diagonal:
        return Grid.regular(tuple(eq.diagonal), 2 * origin, h, 2 * n - 1)
    return Grid.regular(eq.vs.names, origin, h, n)


def sample_solution(family: SolutionFamily, grid: Grid) -> GridField:
    """The family's solution on a two-axis grid (t, x); the lifted family
    J = g(y+yb, z+zb) is sampled on its diagonal, t = y+yb, x = z+zb."""
    A = np.asarray(family.A)
    B = np.asarray(family.B)
    n = A.shape[0]
    if family.kind not in ("exponential-product", "lifted-chiral",
                           "perturbed-offshell"):
        raise ValueError(f"unknown family kind {family.kind!r}")
    if len(grid.axes) != 2:
        raise DimensionMismatch(
            f"a solution family samples a grid of two axes, not "
            f"{len(grid.axes)}")
    tv, xv = (ax.points() for ax in grid.axes)
    g = dense_expm(tv[:, None, None] * A)[:, None] \
        @ dense_expm(xv[:, None, None] * B)[None]
    if family.kind == "perturbed-offshell":
        T, X = np.meshgrid(tv, xv, indexing="ij")
        g = g @ (np.eye(n) + family.eps * _perturbation(T, X, n))
    return GridField(grid, g)


# ---------------------------------------------------------------------------
# Expression evaluation on grids
# ---------------------------------------------------------------------------

class GridEnv:
    """Binding of symbolic atoms to grid data: field samples, parameter
    matrices and potential samples.  ``atom_values`` gives an atom's whole
    array and caches it for the environment's lifetime; ``rows`` gives its
    values on a block of rows, reading a cached array, and otherwise
    differentiating a field or potential on the block plus a halo without
    caching it.  An environment made by ``bind`` reads inverse fields from
    the environment it was bound from and caches every other atom itself."""

    def __init__(self, grid: Grid,
                 fields: Dict[str, np.ndarray],
                 params: Optional[Dict[str, np.ndarray]] = None,
                 potentials: Optional[Dict[str, np.ndarray]] = None):
        self.grid = grid
        self.fields = fields
        self.params = params or {}
        self.potentials = potentials or {}
        # the grid axis each variable differentiates along, by position
        self.axes = tuple(range(len(grid.axes)))
        self._cache: Dict[object, np.ndarray] = {}
        self._field_env: Optional[GridEnv] = None

    def bind(self, params: Optional[Dict[str, np.ndarray]] = None,
             potentials: Optional[Dict[str, np.ndarray]] = None
             ) -> "GridEnv":
        """An environment over the same field samples with its own parameter
        matrices and potentials.  Inverse fields come from this
        environment's cache; every other atom is read in the returned one,
        and whatever it caches is freed with it."""
        env = GridEnv(self.grid, self.fields, params, potentials)
        env.axes = self.axes
        env._field_env = self
        return env

    def derivative(self, base: np.ndarray, orders: tuple) -> np.ndarray:
        out = base
        for var, k in enumerate(orders):
            axis = self.axes[var]
            h = self.grid.axes[axis].h
            for _ in range(k):
                out = gradient(out, h, axis)
        return out

    def _base(self, a) -> np.ndarray:
        """The bound samples a field, inverse-field or potential atom reads."""
        kind, bound = (("potential", self.potentials)
                       if isinstance(a, Potential) else ("field", self.fields))
        if a.name not in bound:
            raise UnboundAtom(f"{kind} {a.name!r} not bound")
        return bound[a.name]

    def atom_values(self, a) -> np.ndarray:
        if a in self._cache:
            return self._cache[a]
        if self._field_env is not None and isinstance(a, InvField):
            return self._field_env.atom_values(a)
        if isinstance(a, (Field, Potential)):
            v = self.derivative(self._base(a), a.orders)
        elif isinstance(a, InvField):
            v = inv(self._base(a))
        elif isinstance(a, Param):
            if a.name not in self.params:
                raise UnboundAtom(f"parameter matrix {a.name!r} not bound")
            n = self.matdim()
            v = np.broadcast_to(np.asarray(self.params[a.name]),
                                self.grid.counts + (n, n))
        elif isinstance(a, DPotential):
            raise UnboundAtom(f"no grid data for linearized potential {a.name!r}")
        else:
            raise UnboundAtom(f"cannot evaluate atom {a!r}")
        self._cache[a] = v
        return v

    def rows(self, a, r0: int, r1: int) -> np.ndarray:
        """The values of atom ``a`` on grid rows r0:r1 (along axis 0), which
        the caller only reads.  A field or potential derivative that is not
        cached is differentiated on those rows plus a halo of as many rows
        as its order along axis 0 (``_halo``), bit for bit its rows of the
        whole derivative, and is not cached; any other atom is read off
        ``atom_values``."""
        if isinstance(a, (Field, Potential)) and any(a.orders) \
                and a not in self._cache:
            base = self._base(a)
            k = sum(o for var, o in enumerate(a.orders) if self.axes[var] == 0)
            lo, hi = _halo(r0, r1, base.shape[0], k)
            return self.derivative(base[lo:hi], a.orders)[r0 - lo:r1 - lo]
        return self.atom_values(a)[r0:r1]

    def matdim(self) -> int:
        any_field = next(iter(self.fields.values()))
        return any_field.shape[-1]


# rows of a grid evaluated at once: every full-grid expression, residual,
# divergence and path integral is formed block by block, so its temporaries
# are a block's
BLOCK_ROWS = 32


def _row_blocks(r0: int, r1: int):
    """The blocks ``(a, b)`` of ``BLOCK_ROWS`` rows that cover rows r0:r1."""
    return [(a, min(a + BLOCK_ROWS, r1)) for a in range(r0, r1, BLOCK_ROWS)]


def _halo(r0: int, r1: int, n: int, k: int) -> Tuple[int, int]:
    """The rows lo:hi of n from which k ``gradient`` steps along axis 0
    give rows r0:r1 bit for bit as the steps over all n rows do.  Each step
    is exact one row further in from a side the window cuts, and its
    one-sided edge formula reads three rows, so the window reaches k rows
    past the block, and k + 2 rows in from a grid edge it holds."""
    if k == 0:
        return r0, r1
    return max(0, min(r0, n - 2) - k), min(n, max(r1, 2) + k)


def _fill_rows(n: int, fill) -> np.ndarray:
    """An array of n rows filled one block of rows at a time.
    ``fill(r0, r1, None)`` returns rows r0:r1 of the first block, whose
    dtype the array takes; ``fill(r0, r1, dst)`` writes every later block
    into ``dst``, its rows of the array."""
    out = None
    for r0, r1 in _row_blocks(0, n):
        if out is None:
            first = fill(r0, r1, None)
            out = np.empty((n,) + first.shape[1:], first.dtype)
            out[r0:r1] = first
        else:
            fill(r0, r1, out[r0:r1])
    return out


def eval_on_grid(e: JetExpr, env: GridEnv) -> np.ndarray:
    """Pointwise evaluation of a normal-form expression over the grid, into
    a new array, filled one block of rows at a time (``_eval_rows``).  The
    input arrays and cached atoms are only read.  A monomial with a power
    of the spectral parameter, or with a coordinate the grid has no axis
    for, raises UnboundAtom."""
    return _fill_rows(env.grid.counts[0], functools.partial(_eval_rows, e, env))


def _eval_rows(e: JetExpr, env: GridEnv, r0: int, r1: int,
               dst: Optional[np.ndarray] = None) -> np.ndarray:
    """The sum of the monomials of ``e`` on rows r0:r1: each monomial's
    products are formed on the block, from each atom's rows
    (``GridEnv.rows``), each read once per block.  The sum is accumulated
    into ``dst`` when given, else into an array of the promoted dtype
    (which a unit monomial of one atom may leave a view of that atom, for
    the caller only to read); an expression without monomials is zero."""
    n = env.matdim()
    shape = (r1 - r0,) + env.grid.counts[1:] + (n, n)
    eye = np.broadcast_to(np.eye(n), shape)
    vals: Dict[object, np.ndarray] = {}
    out, owned = None, False
    for coef, lam, coords, factors in e.mons:
        if lam:
            raise UnboundAtom("no grid data for the spectral parameter")
        scal = float(coef)
        term = None
        for c in coords:
            if c not in env.grid.names:  # a diagonal rung's variable
                raise UnboundAtom(f"no grid data for coordinate {c!r}")
            arr = env.grid.coord_array(c)[r0:r1, ..., None, None]
            term = arr * eye if term is None else term * arr
        for a in factors:
            if a not in vals:
                vals[a] = env.rows(a, r0, r1)
            v = vals[a]
            term = v if term is None else term @ v
        if term is None:
            term = eye
        if scal != 1.0:
            term = scal * term
        # a unit monomial of one atom, or of none, is an atom's rows or the
        # broadcast identity, which nothing may write into
        fresh = scal != 1.0 or bool(coords) or len(factors) > 1
        if dst is not None:
            if out is None:
                dst[...] = term
                out = dst
            else:
                dst += term
        elif out is None:
            out, owned = term, fresh
        elif owned and np.result_type(out, term) == out.dtype:
            out += term
        else:
            out, owned = out + term, True
    if out is None:  # no monomials
        if dst is None:
            return np.zeros(shape)
        dst[...] = 0.0
        return dst
    return out


# ---------------------------------------------------------------------------
# Residual statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualStats:
    max: float
    l2: float
    margin: int
    h: float


class _PairwiseSum:
    """``np.add.reduce`` of a contiguous float64 array of n values, bit for
    bit, from the array fed in consecutive chunks (``add``).

    numpy sums such an array pairwise: a range of more than 128 values
    splits at half its size, rounded down to a multiple of 8, and a range
    of at most 128 is summed by its own unrolled loop; the reduction of any
    slice sums it by the same rule.  So a range of the tree that lies
    within one chunk is one ``np.add.reduce`` of it, a range of at most
    128 values that a chunk edge cuts is carried across the edge and
    reduced once complete, and the range sums are added in the tree's
    order.  ``total`` is the sum once all n values are fed."""

    def __init__(self, n: int):
        self.n = n
        self.total = None
        self._pos = 0
        self._carry: List[np.ndarray] = []
        self._open: Dict[Tuple[int, int], float] = {}  # left halves' sums

    def add(self, chunk: np.ndarray) -> None:
        """Feed the next ``chunk.size`` values, a 1-D float64 array."""
        s = self._range(0, self.n, chunk, self._pos)
        self._pos += chunk.size
        if s is not None:
            self.total = s

    def _range(self, lo: int, n: int, chunk: np.ndarray, p: int):
        """Reduce what ``chunk``, fed from offset p, holds of the range
        lo:lo+n of the tree, which it reaches; the range's sum if the chunk
        completes it, else None."""
        hi, q = lo + n, p + chunk.size
        if p <= lo and hi <= q:
            return np.add.reduce(chunk[lo - p:hi - p])
        if n <= 128:
            self._carry.append(chunk[max(lo, p) - p:min(hi, q) - p].copy())
            if hi > q:
                return None
            s = np.add.reduce(np.concatenate(self._carry))
            self._carry = []
            return s
        mid = lo + n // 2 - n // 2 % 8
        left = (self._range(lo, mid - lo, chunk, p) if p < mid
                else self._open.pop((lo, n)))
        if left is None:
            return None
        right = self._range(mid, hi - mid, chunk, p) if q > mid else None
        if right is None:
            self._open[lo, n] = left
            return None
        return left + right


def scaled_margins(counts: Sequence[int], base: int = 3):
    """Interior-trim margins for a refinement ladder, scaled so every grid is
    measured over the same physical window.

    With a fixed index margin the measured interior creeps toward the domain
    boundary as the grid refines; wherever the truncation constant grows
    toward the boundary this corrupts max-norm convergence orders.  Scaling
    the margin with the interval count keeps the window fixed.
    """
    counts = list(counts)
    n0 = counts[0]
    out = []
    for n in counts:
        num = base * (n - 1)
        if num % (n0 - 1):
            raise ValueError(
                f"count {n} is not a refinement of {n0} compatible with base "
                f"margin {base}")
        out.append(num // (n0 - 1))
    return out


def reduce_rows(rows, grid: Grid, margin: int,
                paired: Sequence[int] = ()) -> ResidualStats:
    """Maximum and root mean square of an array over the grid's interior,
    ``margin`` points in from every edge, reduced one block of
    ``BLOCK_ROWS`` interior rows at a time: ``rows(r0, r1)`` gives the
    array's rows r0:r1, which are only read, and each block is reduced
    and dropped before the next is asked for, so the array is never whole
    and rows outside the interior are never formed.  The maximum is that
    of the blocks'; the mean of |core|^2 is the one numpy takes of the
    whole interior, bit for bit, since its sum is fed through
    ``_PairwiseSum``.

    An axis in ``paired`` is the diagonal of a plain/barred pair of
    n-point axes, each trimmed by ``margin``: it is trimmed by
    2 * margin, and in the mean each of its points k counts as the
    (n - 2 margin) - |k - (n - 1)| index pairs of that interior whose sum
    it is; each block's |core|^2 is weighted before it is summed, and
    the weight total is numpy's of the whole interior.  The record keeps
    ``margin``."""
    margins = [2 * margin if a in paired else margin
               for a in range(len(grid.axes))]
    for axis, (n, m) in enumerate(zip(grid.counts, margins)):
        if n <= 2 * m:
            raise GridTooSmall(f"axis {axis} has {n} points, margin {m}")
    weights = None
    if paired:  # each interior point's count of index pairs
        weights = np.ones(())
        for a, (ax, m) in enumerate(zip(grid.axes, margins)):
            k = np.arange(m, ax.n - m)
            n = (ax.n + 1) // 2  # points per axis of the pair
            weights = np.multiply.outer(weights, n - m - np.abs(k - (n - 1))
                                        if a in paired else np.ones(k.size))
    m0, n0 = margins[0], grid.counts[0]
    inner = tuple(slice(m, -m) for m in margins[1:])
    tops, total = [], None
    for r0, r1 in _row_blocks(m0, n0 - m0):
        mags = np.abs(rows(r0, r1)[(slice(None),) + inner])
        tops.append(mags.max())
        np.square(mags, out=mags)
        if paired:
            w = weights[r0 - m0:r1 - m0]
            np.multiply(mags, w.reshape(w.shape + (1,) * (mags.ndim - w.ndim)),
                        out=mags)
        if total is None:
            shape = (n0 - 2 * m0,) + mags.shape[1:]
            total = _PairwiseSum(math.prod(shape))
        total.add(mags.reshape(-1))
        del mags
    if paired:
        weights = weights.reshape(weights.shape
                                  + (1,) * (len(shape) - weights.ndim))
        mean = total.total / np.broadcast_to(weights, shape).sum(
            dtype=np.float64)
    else:
        mean = total.total / math.prod(shape)
    return ResidualStats(max=float(np.max(tops)), l2=float(np.sqrt(mean)),
                         margin=margin, h=max(grid.spacings))


def residual_stats(arr: np.ndarray, grid: Grid, margin: int,
                   paired: Sequence[int] = ()) -> ResidualStats:
    """``reduce_rows`` of a whole array."""
    return reduce_rows(lambda r0, r1: arr[r0:r1], grid, margin, paired)


# ---------------------------------------------------------------------------
# Residual evaluations
# ---------------------------------------------------------------------------

class SolutionFields:
    """One rung of a solution ladder: the sampled solution ``u`` of ``eq``
    on its ``grid``, and the arrays derived from it that it keeps, each
    computed on first use: ``u^-1`` (cached in the grid environment
    ``env``), the slot connections and the samples of the equation's
    potential.  ``release`` keeps only the grid and the connections, all
    the Lax march and its residual read.  A check that reads field
    derivatives evaluates in ``env.bind()``, which shares ``u^-1``; it
    differentiates one block of rows, plus its halo, at a time, so no
    whole derivative is formed.

    Each variable differentiates along its grid axis, ``eq.axes``.  A
    sample over any other number of axes than the equation maps onto
    raises DimensionMismatch."""

    def __init__(self, eq: EquationDef, u: GridField):
        n_axes = len(set(eq.axes))
        if len(u.grid.axes) != n_axes:
            raise DimensionMismatch(
                f"{eq.name} maps its variables {eq.vs.names} onto "
                f"{n_axes} grid axes; the sample has {len(u.grid.axes)}")
        self.eq = eq
        self.grid = u.grid
        self.u: Optional[GridField] = u
        self.env: Optional[GridEnv] = GridEnv(u.grid,
                                              {eq.field_name: u.values})
        self.env.axes = eq.axes
        self._connections: Optional[Tuple[np.ndarray, ...]] = None
        self._potential = None

    @property
    def inverse(self) -> np.ndarray:
        return self.env.atom_values(InvField(self.eq.field_name))

    @property
    def connections(self) -> Tuple[np.ndarray, ...]:
        """Connection samples, one per slot of the equation."""
        if self._connections is None:
            env = self.env.bind()
            self._connections = tuple(eval_on_grid(s.connection, env)
                                      for s in self.eq.slots)
        return self._connections

    @property
    def potential(self) -> np.ndarray:
        """Samples of the potential, integrated by ``compute_potential`` on
        first use.  An off-shell sample raises PathInconsistent on first
        use, and the same exception again on every later one, without
        integrating again."""
        if self._potential is None:
            try:
                self._potential = compute_potential(self).field.values
            except PathInconsistent as exc:
                self._potential = exc
        if isinstance(self._potential, PathInconsistent):
            raise self._potential
        return self._potential

    def reduce_rows(self, rows, margin: int) -> ResidualStats:
        """``reduce_rows`` over this rung, whose axes that two variables
        share are paired."""
        axes = self.eq.axes
        return reduce_rows(rows, self.grid, margin,
                           {a for a in axes if axes.count(a) > 1})

    def release(self) -> None:
        """Keep only the grid and the connections, made first if they are
        not yet: u, u^-1, the potential and every array ``env`` cached go.
        Afterwards only a reader of the connections can read the rung: the
        Lax march, and ``current_divergence`` of rows the caller gives."""
        self.connections
        self.u = self.env = self._potential = None


def fd_residual_field_equation(fields: SolutionFields,
                               margin: int = 3) -> ResidualStats:
    """Central-difference evaluation of F[u] over interior points, one
    block of rows at a time."""
    return fields.reduce_rows(functools.partial(
        _eval_rows, field_equation_residual(fields.eq), fields.env.bind()),
        margin)


def conservation_residual(fields: SolutionFields, qgrid: GridField,
                          margin: int = 3) -> ResidualStats:
    """Divergence of the conserved current pair built from a characteristic
    sample: ``current_divergence`` of its transport u^-1 q, formed on each
    block's rows.  The sample is only read."""
    if qgrid.grid is not fields.grid and qgrid.grid != fields.grid:
        raise DimensionMismatch("characteristic and solution grids differ")
    q = qgrid.values
    return current_divergence(
        fields, _transport(fields, lambda lo, hi: q[lo:hi]), margin)


def characteristic_conservation(fields: SolutionFields, q: Characteristic,
                                params: Optional[Dict[str, np.ndarray]] = None,
                                margin: int = 3) -> ResidualStats:
    """Conservation residual of characteristic q on a rung, under the
    parameter matrices ``params``: the divergence of its transport, formed
    on each block's halo, so only q's tower potentials are ever whole."""
    return current_divergence(
        fields, _transport(fields, characteristic_rows(q, fields, params)),
        margin)


def characteristic_trace(fields: SolutionFields, q: Characteristic,
                         params: Optional[Dict[str, np.ndarray]] = None,
                         margin: int = 3) -> ResidualStats:
    """Trace of the transport u^-1 q of characteristic q on a rung, under
    the parameter matrices ``params``, one block of rows at a time."""
    w_rows = _transport(fields, characteristic_rows(q, fields, params))
    return fields.reduce_rows(
        lambda r0, r1: np.trace(w_rows(r0, r1), axis1=-2, axis2=-1), margin)


def _transport(fields: SolutionFields, q_rows):
    """The rows lo:hi of u^-1 q, formed afresh from ``q_rows(lo, hi)``,
    as a function of (lo, hi); u^-1 is read after ``q_rows`` is made."""
    inverse = fields.inverse
    return lambda lo, hi: inverse[lo:hi] @ q_rows(lo, hi)


def potential_relations(fields: SolutionFields,
                        margin: int = 3) -> ResidualStats:
    """The larger residual of the potential's two defining relations on a
    rung, X_v minus its rule, by blocks of rows: X_v's rows, differentiated
    on the block's halo in an environment that caches nothing, are this
    call's own, so the rule's rows are subtracted from them in place."""
    eq, X = fields.eq, fields.eq.potential_name
    env = fields.env.bind(potentials={X: fields.potential})

    def relation(v: str, rule: JetExpr) -> ResidualStats:
        (atom,) = eq.vs.pot(X, v).atoms()
        read_rule = _rule_rows(fields, rule, env)

        def rows(r0, r1):
            d = env.rows(atom, r0, r1)
            d -= read_rule(r0, r1)
            return d
        return fields.reduce_rows(rows, margin)
    return max((relation(v, rule)
                for v, rule in eq.potential_rules[X].items()),
               key=lambda st: st.max)


def current_divergence(fields: SolutionFields, w_rows,
                       margin: int = 3) -> ResidualStats:
    """Divergence of the conserved current pair of a transported sample
    w = u^-1 q: sum_slots D_div(A_slot w), read on the rung's connections
    alone, one block of interior rows at a time (``reduce_rows``) from the
    block plus a halo of two rows.  ``w_rows(lo, hi)`` gives rows lo:hi of
    w, which are only read, so no whole w need exist; the divergence is
    never whole either."""
    grid = fields.grid
    axes, vs = fields.eq.axes, fields.eq.vs
    slots = [(conn, axes[vs.index(s.cov_var)], axes[vs.index(s.div_var)])
             for s, conn in zip(fields.eq.slots, fields.connections)]

    def divergence(r0, r1):
        # G = [A, w] + D_cov w, then D_div G, summed over the slots
        lo, hi = _halo(r0, r1, grid.counts[0], 2)
        wb = w_rows(lo, hi)
        out = None
        for conn, cov_axis, div_axis in slots:
            G = commutator(conn[lo:hi], wb)
            G += gradient(wb, grid.axes[cov_axis].h, cov_axis)
            G = gradient(G, grid.axes[div_axis].h, div_axis)[r0 - lo:r1 - lo]
            if out is None:
                out = G
            else:
                out += G
        return out

    return fields.reduce_rows(divergence, margin)


# ---------------------------------------------------------------------------
# Staircase path integration
# ---------------------------------------------------------------------------

def _staircase_paths(coef, start: np.ndarray, grid: Grid):
    """Both staircase paths of the Lax march (``_march_lines``) from
    ``start``, a stack of systems ``(S, 1, N, N)``, at a two-axis grid's
    corner, with ``coef(axis, idx)`` the coefficient along ``axis`` at
    points ``idx``.  Returns the path along axis 1 on row 0, then axis 0,
    one array per system of the promoted dtype, and per system its largest
    difference from the path along axis 0 on column 0, then axis 1, whose
    edge is read off the kept path's column 0 and never stored."""
    (n0, n1), (h0, h1) = grid.counts, grid.spacings
    corner = (slice(0, 1), 0)
    dtype = np.result_type(start, coef(0, corner), coef(1, corner))
    kept = [np.empty(grid.counts + start.shape[-2:], dtype) for _ in start]
    row0 = np.concatenate(list(_march_lines(
        start, lambda k: coef(1, (slice(0, 1), k)), n1, h1)), axis=-3)
    for k, p in enumerate(_march_lines(
            row0, lambda k: coef(0, (k, slice(None))), n0, h0)):
        for out, q in zip(kept, p):
            out[k] = q
    col0 = np.stack([out[:, 0] for out in kept])
    resid = np.zeros(len(kept))
    for k, p in enumerate(_march_lines(
            col0, lambda k: coef(1, (slice(None), k)), n1, h1)):
        resid = np.maximum(resid, [np.abs(out[:, k] - q).max()
                                   for out, q in zip(kept, p)])
    return kept, resid.tolist()


# ---------------------------------------------------------------------------
# Potential integration
# ---------------------------------------------------------------------------

def _trapezoid_paths(rows, grid: Grid) -> Tuple[np.ndarray, float]:
    """Both staircase paths of the trapezoid integral, from zero at the
    grid's corner, of a gradient field over a two-axis grid, one block of
    rows at a time: ``rows(r0, r1)`` gives the field's components along
    axes 0 and 1 on rows r0:r1, which are only read, and each block is
    asked for once.  Returns the path along axis 0 at index 0 of axis 1,
    then along axis 1 on every row, in an array of the promoted dtype of
    the field, and its largest difference from the path along axis 1 at
    index 0 of axis 0, then along axis 0.

    Each step is h (f[k] + f[k-1]) / 2, and ``np.cumsum`` adds the steps
    of a line in order.  The kept path's steps along axis 1 are summed in
    place in its rows of the result.  The compared path's steps along
    axis 0 are a running sum over rows, carried from block to block in one
    block buffer; its column 0 is the kept path's edge, and its edge is
    the kept path's row 0, so each block of it is compared with the kept
    rows of that block and never stored."""
    n0, (h0, h1) = grid.counts[0], grid.spacings
    X = run = prev = None
    resid = 0.0
    for r0, r1 in _row_blocks(0, n0):
        f0, f1 = rows(r0, r1)
        if X is None:
            dtype = np.result_type(np.float64, f0, f1)
            X = np.empty((n0,) + f1.shape[1:], dtype)
            buf = np.empty((min(BLOCK_ROWS, n0),) + f1.shape[1:], dtype)
        # the compared path's running sum along axis 0, from zero on row 0
        b = buf[:r1 - r0]
        np.add(f0[1:], f0[:-1], out=b[1:])
        if prev is None:
            b[0] = 0.0
        else:
            np.add(f0[0], prev, out=b[0])
        b *= h0
        b /= 2.0
        if run is not None:
            b[0] += run
        np.cumsum(b, axis=0, out=b)
        run, prev = b[-1].copy(), f0[-1].copy()
        # the kept rows: the steps along axis 1, formed over the block's
        # rows laid end to end, so on contiguous arrays, with column 0
        # zeroed; their running sum; plus the edge, from the zero base
        Xb = X[r0:r1]
        g, k = f1.reshape(-1), f1[0, 0].size
        np.add(g[k:], g[:-k], out=Xb.reshape(-1)[k:])
        del f0, f1, g
        Xb[:, 0] = 0.0
        Xb *= h1
        Xb /= 2.0
        np.cumsum(Xb, axis=1, out=Xb)
        Xb += (b[:, 0] + 0.0)[:, None]
        # the compared rows, from the kept row 0, against the kept rows
        b += X[0]
        np.subtract(Xb, b, out=b)
        np.abs(b, out=b)
        resid = np.maximum(resid, b.real.max())
    return X, float(resid)


@dataclass(frozen=True)
class PotentialResult:
    field: GridField
    path_residual: float


def compute_potential(fields: SolutionFields) -> PotentialResult:
    """Integrate the potential defining system of a rung from the grid's
    corner (base value zero) along the staircase path t first, then x along
    every row; the path x first is compared with it, and their largest
    difference, ``path_residual``, fails off-shell.  Both paths are formed
    one block of rows at a time (``_trapezoid_paths``), so beside the
    potential the integration holds a few blocks: no whole integrand and
    no stored compared path.  A rule that is plus or minus a slot
    connection is read off the rung (``_rule_rows``)."""
    eq = fields.eq
    X, resid = _integrate_potential(fields, eq.potential_rules[eq.potential_name],
                                    fields.env.bind())
    return PotentialResult(GridField(fields.grid, X), resid)


def _integrate_potential(fields: SolutionFields, rules: Dict[str, JetExpr],
                         env: GridEnv) -> Tuple[np.ndarray, float]:
    """Samples of the potential whose first derivatives are ``rules``, each
    read by ``_rule_rows`` from ``env`` over the rung ``fields`` one block
    of rows at a time, along the staircase path t first, and its largest
    difference from the path x first; a difference above tolerance raises
    PathInconsistent, a grid axis the rules leave free UnboundAtom."""
    grid = fields.grid
    integrands = {env.axes[fields.eq.vs.index(v)]: _rule_rows(fields, rhs, env)
                  for v, rhs in rules.items()}
    if len(integrands) < len(grid.axes):
        raise UnboundAtom(
            f"potential rules along {sorted(rules)} leave a direction of "
            f"the grid free; numerical integration is underdetermined")
    scale = 0.0

    def rows(r0, r1):
        nonlocal scale
        out = [integrands[axis](r0, r1) for axis in (0, 1)]
        scale = max([scale] + [float(np.abs(f).max()) for f in out])
        return out

    # kept path: t first along x = 0, then x along every row
    X, resid = _trapezoid_paths(rows, grid)
    h = max(grid.spacings)
    extent = max(ax.h * (ax.n - 1) for ax in grid.axes)
    tol = 20.0 * (1.0 + scale) * extent * h ** 2
    if resid > tol:
        raise PathInconsistent(
            f"potential integration is path-dependent "
            f"(residual {resid:.3e} > tol {tol:.3e}); input is off-shell",
            residual=resid)
    return X, resid


def _rule_rows(fields: SolutionFields, rule: JetExpr, env: GridEnv):
    """A potential's defining rule over the rung ``fields``, as a function
    of (r0, r1) that gives its rows r0:r1, which are only read.  A rule
    that is a slot connection reads that connection's rows, and one that
    is minus a connection negates them on the block only; any other rule
    is evaluated on the rows from ``env`` (``_eval_rows``)."""
    for k, s in enumerate(fields.eq.slots):
        if rule in (s.connection, -s.connection):
            c, plus = fields.connections[k], rule == s.connection
            return lambda r0, r1: c[r0:r1] if plus else -1.0 * c[r0:r1]
    return functools.partial(_eval_rows, rule, env)


# ---------------------------------------------------------------------------
# Characteristic evaluation
# ---------------------------------------------------------------------------

def characteristic_rows(q: Characteristic, fields: SolutionFields,
                        params: Optional[Dict[str, np.ndarray]] = None):
    """A characteristic's closed form on a rung, as a function of (r0, r1)
    that evaluates its rows r0:r1 afresh (``_eval_rows``).  The rung
    supplies u^-1, and its potential when the form or a tower rule reads
    it.  The tower potentials ``q`` carries are path-integrated whole,
    here, in the order they were defined, since the form reads them and
    their rules read ``params``, which bind to this evaluation only."""
    eq = fields.eq
    exprs = [q.body] + [r for rules in q.potentials.values()
                             for r in rules.values()]
    env = fields.env.bind(params=params)
    if any(isinstance(a, Potential) and a.name == eq.potential_name
           for e in exprs for a in e.atoms()):
        env.potentials[eq.potential_name] = fields.potential
    for name, rules in q.potentials.items():
        env.potentials[name] = _integrate_potential(fields, rules, env)[0]
    return functools.partial(_eval_rows, q.body, env)


def eval_characteristic(q: Characteristic, fields: SolutionFields,
                        params: Optional[Dict[str, np.ndarray]] = None
                        ) -> GridField:
    """Sample a characteristic's closed form on a rung: the rows of
    ``characteristic_rows``, filled one block at a time."""
    grid = fields.grid
    return GridField(grid, _fill_rows(grid.counts[0],
                                      characteristic_rows(q, fields, params)))


# ---------------------------------------------------------------------------
# Lax wavefunction integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaxIntegration:
    """The wavefunction phi of one spectral value on a rung, and
    ``psi = u phi`` while the rung holds u."""
    rung: SolutionFields
    phi: GridField
    compat_residual: float

    @property
    def psi(self) -> GridField:
        u = self.rung.u
        return GridField(u.grid, u.values @ self.phi.values)

    def symmetry_residual(self, margin: int = 3) -> ResidualStats:
        """The conservation residual of psi, read on u^-1 psi = phi and
        the rung's connections alone, so psi is never formed."""
        phi = self.phi.values
        return current_divergence(self.rung, lambda lo, hi: phi[lo:hi], margin)


def lax_elimination(eq: EquationDef, lams):
    """The Lax pair of ``eq`` (``recursion._lax_constraints``) solved for
    the derivatives of w = u^-1 Psi along the grid axes, at a spectral
    value or, elementwise, at an array of them.  With each variable read
    along its axis (``eq.axes``) the constraints are
    m (w_0, w_1) = (lam [A_1, w], -lam [A_2, w]) over slots 1 and 2.
    Returns ``coef``, coef[i][k] = adj(m)[i][k] times row k's scalar, and
    det m, so that w_i = sum_k coef[i][k] [A_k, w] / det.  A zero value
    raises ZeroLambda; one where det is not finite or below 1e-8 in size,
    on the pair's singular set, raises SingularLambda."""
    lam = np.asarray(lams)
    if np.any(lam == 0):
        raise ZeroLambda("spectral parameter must be nonzero")
    axes, vs = eq.axes, eq.vs
    s1, s2 = eq.slots
    m = [[0.0, 0.0], [0.0, 0.0]]
    with np.errstate(all="ignore"):
        m[0][axes[vs.index(s2.div_var)]] += 1.0
        m[0][axes[vs.index(s1.cov_var)]] -= lam
        m[1][axes[vs.index(s1.div_var)]] += 1.0
        m[1][axes[vs.index(s2.cov_var)]] += lam
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        bad = ~np.isfinite(det) | (np.abs(det) < 1e-8)
    if np.any(bad):
        raise SingularLambda(f"the Lax elimination's determinant is "
                             f"{det[bad]} at lambda = {lam[bad]}")
    adj = ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))
    return tuple((a0 * lam, a1 * -lam) for a0, a1 in adj), det


def integrate_lax(fields: SolutionFields, lams: Sequence[complex],
                  phi0: Optional[np.ndarray] = None) -> List[LaxIntegration]:
    """Integrate the Lax pair, solved for the wavefunction phi = u^-1 Psi
    by ``lax_elimination``, on a rung along both staircase paths, for
    every spectral value of ``lams`` at once: one integration per value,
    in order.  ``phi`` is the kept path of ``_staircase_paths``, and its
    largest difference from the other, the compatibility residual,
    vanishes with h only on-shell.  Every value is checked before the
    march, which runs on the rung's connections.  A stack that holds a
    complex value is marched in complex."""
    lam = np.asarray(lams).reshape(-1, 1, 1, 1)
    coefs, det = lax_elimination(fields.eq, lam)
    n = fields.connections[0].shape[-1]
    if phi0 is None:
        # identity is a fixed point of the commutator flow; default to a
        # generic well-conditioned start instead
        rng = np.random.default_rng(2024)
        phi0 = np.eye(n) + 0.5 * rng.standard_normal((n, n))
    phi0 = np.asarray(phi0)

    def coef(axis, idx):
        """sum_k coef[axis][k] A_k / det along ``axis``, for the stack."""
        return functools.reduce(np.add, (c * conn[idx] for c, conn in zip(
            coefs[axis], fields.connections))) / det

    grid = fields.grid
    phis, resids = _staircase_paths(
        coef, np.broadcast_to(phi0, (len(lam), 1) + phi0.shape), grid)
    return [LaxIntegration(fields, GridField(grid, phi), r)
            for phi, r in zip(phis, resids)]


def _march_lines(phi_start, coef, m, h):
    """Yield phi at each of the m points of the march of the commutator ODE
    phi' = [C, phi], for every line at once (RK4 with midpoint coefficients
    from quadratic interpolation of the grid samples).  ``coef(k)`` is C at
    point k, of the shape of ``phi_start``; each is formed once, when the
    march first reads it, and dropped after its last read."""
    C = functools.lru_cache(maxsize=3)(coef)
    p = phi_start
    yield p
    for i in range(m - 1):
        c0, c1 = C(i), C(i + 1)
        if i + 2 < m:
            cm = (3.0 * c0 + 6.0 * c1 - C(i + 2)) / 8.0
        elif i > 0:
            cm = (3.0 * c1 + 6.0 * c0 - C(i - 1)) / 8.0
        else:
            cm = 0.5 * (c0 + c1)
        k1 = commutator(c0, p)
        k2 = commutator(cm, p + 0.5 * h * k1)
        k3 = commutator(cm, p + 0.5 * h * k2)
        k4 = commutator(c1, p + h * k3)
        p = p + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        yield p


# ---------------------------------------------------------------------------
# Convergence-order measurement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderEstimate:
    order: float
    exact: bool = False


def convergence_order(residuals: Sequence[float], hs: Sequence[float],
                      zero_floor: float = 1e-9) -> OrderEstimate:
    """Least-squares slope of log(residual) against log(h).

    All-zero residuals report an exact result; residuals that fail to
    decrease raise NonMonotone (a broken convergence claim).
    """
    if len(residuals) < 3 or len(residuals) != len(hs):
        raise ValueError("need at least 3 matched (residual, h) samples")
    r = np.asarray(residuals, dtype=float)
    h = np.asarray(hs, dtype=float)
    idx = np.argsort(-h)  # largest h first
    r, h = r[idx], h[idx]
    if np.all(r < zero_floor):
        return OrderEstimate(order=float("inf"), exact=True)
    if np.any(np.diff(r) >= 0):
        raise NonMonotone("residuals do not decrease with h", residuals=list(r))
    slope = float(np.polyfit(np.log(h), np.log(np.maximum(r, 1e-300)), 1)[0])
    return OrderEstimate(order=slope)
