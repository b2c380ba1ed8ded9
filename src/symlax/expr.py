"""Noncommutative jet-space expressions with exact rational coefficients.

The universal symbolic currency of the package.  An expression is a sum of
monomials; a monomial is an exact rational coefficient, an integer power of
the spectral scalar, a commuting bag of base-coordinate factors, and an
ordered tuple of noncommuting matrix atoms.  Construction is eagerly
normalizing: distribution, commutator expansion, cancellation of adjacent
``u * u^-1`` pairs and collection of like monomials all happen in the
arithmetic operators, so two expressions are equal iff their monomial tuples
are equal, and an expression represents the zero matrix iff it has no
monomials.

A small "raw" tree layer (sums, products, commutators, inverses held
unexpanded) is the unnormalized oracle of the tests: ``normalize`` and
``evaluate`` check the normal form against it numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Union

from .errors import InverseOfComposite, NonTerminating, UnboundAtom

Scalar = Union[int, Fraction]


# ---------------------------------------------------------------------------
# Variable spaces and atoms
# ---------------------------------------------------------------------------

class VarSpace:
    """Ordered tuple of independent-variable names.

    Multi-indices refer to the names positionally, so the order is fixed for
    the lifetime of a session.  ``max_order`` caps the total derivative order
    of any atom (overflow is reported, never silently truncated).
    """

    def __init__(self, names: Iterable[str], max_order: int = 6):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        self.names = names
        self.max_order = max_order

    @property
    def arity(self) -> int:
        return len(self.names)

    def index(self, v: str) -> int:
        try:
            return self.names.index(v)
        except ValueError:
            raise KeyError(f"unknown variable {v!r} in space {self.names}")

    def zero_index(self) -> tuple:
        return (0,) * self.arity

    def unit_index(self, v: str) -> tuple:
        i = self.index(v)
        return tuple(1 if j == i else 0 for j in range(self.arity))

    # -- atom/expression constructors ------------------------------------

    def _orders(self, dvars: Iterable[str]) -> tuple:
        """The multi-index that differentiates once along each of
        ``dvars``."""
        orders = list(self.zero_index())
        for v in dvars:
            orders[self.index(v)] += 1
        return tuple(orders)

    def field(self, name: str, *dvars: str) -> "JetExpr":
        return self.atom(Field(name, self._orders(dvars)))

    def inv(self, name: str) -> "JetExpr":
        return self.atom(InvField(name))

    def param(self, name: str) -> "JetExpr":
        return self.atom(Param(name))

    def pot(self, name: str, *dvars: str) -> "JetExpr":
        return self.atom(Potential(name, self._orders(dvars)))

    def dpot(self, name: str, *dvars: str) -> "JetExpr":
        return self.atom(DPotential(name, self._orders(dvars)))

    def coord(self, name: str) -> "JetExpr":
        self.index(name)
        return JetExpr(self, ((Fraction(1), 0, (name,), ()),))

    def lam(self, power: int = 1) -> "JetExpr":
        return JetExpr(self, ((Fraction(1), power, (), ()),))

    def atom(self, a: "Atom") -> "JetExpr":
        if isinstance(a, (Field, Potential, DPotential)):
            if len(a.orders) != self.arity:
                raise ValueError("multi-index arity mismatch")
        return JetExpr(self, ((Fraction(1), 0, (), (a,)),))

    def one(self) -> "JetExpr":
        return JetExpr(self, ((Fraction(1), 0, (), ()),))

    def zero(self) -> "JetExpr":
        return JetExpr(self, ())

    def __repr__(self):
        return f"VarSpace{self.names}"


@dataclass(frozen=True)
class Field:
    """A field symbol (g, J, Q, psi, ...) with a derivative multi-index."""
    name: str
    orders: tuple

    def is_bare(self):
        return not any(self.orders)


@dataclass(frozen=True)
class InvField:
    """Inverse of a bare field.  Derivatives of it are always expanded."""
    name: str


@dataclass(frozen=True)
class Param:
    """Constant parameter matrix (M, Lambda, ...): zero total and zero
    linearization derivative."""
    name: str


@dataclass(frozen=True)
class Potential:
    """Nonlocal potential symbol with a derivative multi-index."""
    name: str
    orders: tuple


@dataclass(frozen=True)
class DPotential:
    """Linearization image of a potential (a fresh nonlocal atom)."""
    name: str
    orders: tuple


Atom = Union[Field, InvField, Param, Potential, DPotential]

_KIND_RANK = {Param: 0, Field: 1, InvField: 2, Potential: 3, DPotential: 4}


def _atom_key(a: Atom):
    if isinstance(a, (Field, Potential, DPotential)):
        return (_KIND_RANK[type(a)], a.name, a.orders)
    return (_KIND_RANK[type(a)], a.name, ())


def _mon_key(mon):
    coef, lam, coords, factors = mon
    return (lam, coords, tuple(_atom_key(a) for a in factors))


def _cancel(factors: tuple) -> tuple:
    """Cancel adjacent bare-field/inverse pairs, cascading."""
    out = []
    for f in factors:
        if out:
            p = out[-1]
            if isinstance(f, InvField) and isinstance(p, Field) \
                    and p.name == f.name and p.is_bare():
                out.pop()
                continue
            if isinstance(f, Field) and f.is_bare() \
                    and isinstance(p, InvField) and p.name == f.name:
                out.pop()
                continue
        out.append(f)
    return tuple(out)


# ---------------------------------------------------------------------------
# Normalized expressions
# ---------------------------------------------------------------------------

class JetExpr:
    """Normal-form sum of monomials over a fixed variable space.

    Monomial layout: ``(coef: Fraction, lam: int, coords: sorted tuple of
    coordinate names with multiplicity, factors: tuple of atoms)``.
    Immutable; all operations return new values.
    """

    __slots__ = ("vs", "mons", "_hash")

    def __init__(self, vs: VarSpace, mons: tuple):
        self.vs = vs
        self.mons = tuple(sorted(mons, key=_mon_key))
        self._hash = None

    # -- canonical construction from a coefficient dict -------------------

    @staticmethod
    def _from_dict(vs: VarSpace, d: dict) -> "JetExpr":
        mons = tuple((c, k[0], k[1], k[2]) for k, c in d.items() if c != 0)
        return JetExpr(vs, mons)

    def _as_dict(self) -> dict:
        return {(lam, coords, factors): coef
                for coef, lam, coords, factors in self.mons}

    # -- predicates -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.mons

    def __eq__(self, other):
        if not isinstance(other, JetExpr):
            return NotImplemented
        return self.mons == other.mons

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.mons)
        return self._hash

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "JetExpr") -> "JetExpr":
        if not isinstance(other, JetExpr):
            return NotImplemented
        d = self._as_dict()
        for coef, lam, coords, factors in other.mons:
            k = (lam, coords, factors)
            d[k] = d.get(k, Fraction(0)) + coef
        return JetExpr._from_dict(self.vs, d)

    def __sub__(self, other: "JetExpr") -> "JetExpr":
        return self + (-other)

    def __neg__(self) -> "JetExpr":
        return JetExpr(self.vs, tuple((-c, l, co, f) for c, l, co, f in self.mons))

    def scale(self, c: Scalar) -> "JetExpr":
        c = Fraction(c)
        if c == 0:
            return self.vs.zero()
        return JetExpr(self.vs, tuple((c * cf, l, co, f) for cf, l, co, f in self.mons))

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, JetExpr):
            return NotImplemented
        d = {}
        for c1, l1, co1, f1 in self.mons:
            for c2, l2, co2, f2 in other.mons:
                k = (l1 + l2, tuple(sorted(co1 + co2)), _cancel(f1 + f2))
                d[k] = d.get(k, Fraction(0)) + c1 * c2
        return JetExpr._from_dict(self.vs, d)

    # -- display ----------------------------------------------------------

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for coef, lam, coords, factors in self.mons:
            bits = []
            if coef != 1 or (not coords and not factors and lam == 0):
                bits.append(str(coef))
            if lam:
                bits.append("lam" if lam == 1 else f"lam^{lam}")
            bits.extend(coords)
            for a in factors:
                bits.append(_atom_str(a, self.vs))
            parts.append("*".join(bits) if bits else "1")
        return " + ".join(parts)

    # -- queries ----------------------------------------------------------

    def atoms(self) -> set:
        out = set()
        for _, _, _, factors in self.mons:
            out.update(factors)
        return out

    def params(self) -> set:
        return {a.name for a in self.atoms() if isinstance(a, Param)}

    def has_potentials(self) -> bool:
        return any(isinstance(a, (Potential, DPotential)) for a in self.atoms())

    def lam_powers(self) -> set:
        return {lam for _, lam, _, _ in self.mons}

    def lam_coefficient(self, power: int) -> "JetExpr":
        """The coefficient of the given spectral power (with the power removed)."""
        return JetExpr(self.vs, tuple((c, 0, co, f) for c, l, co, f in self.mons
                                      if l == power))


def _orders_str(orders, vs):
    return "".join(v * k for v, k in zip(vs.names, orders))


def _atom_str(a: Atom, vs: VarSpace) -> str:
    if isinstance(a, Field):
        s = _orders_str(a.orders, vs)
        return f"{a.name}_{s}" if s else a.name
    if isinstance(a, InvField):
        return f"{a.name}^-1"
    if isinstance(a, Param):
        return a.name
    if isinstance(a, Potential):
        s = _orders_str(a.orders, vs)
        return f"{a.name}_{s}" if s else a.name
    s = _orders_str(a.orders, vs)
    base = f"d{a.name}"
    return f"{base}_{s}" if s else base


def comm(a: JetExpr, b: JetExpr) -> JetExpr:
    """Commutator ab - ba (eagerly expanded)."""
    return a * b - b * a


# ---------------------------------------------------------------------------
# Raw (pre-normal) trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RAtom:
    atom: Atom


@dataclass(frozen=True)
class RCoord:
    name: str


@dataclass(frozen=True)
class RLam:
    power: int


@dataclass(frozen=True)
class RSum:
    args: tuple


@dataclass(frozen=True)
class RProd:
    args: tuple


@dataclass(frozen=True)
class RScale:
    coef: Fraction
    arg: "RawExpr"


@dataclass(frozen=True)
class RComm:
    a: "RawExpr"
    b: "RawExpr"


@dataclass(frozen=True)
class RInv:
    arg: "RawExpr"


@dataclass(frozen=True)
class RIdentity:
    pass


RawExpr = Union[RAtom, RCoord, RLam, RSum, RProd, RScale, RComm, RInv, RIdentity]


def normalize(e: Union[RawExpr, JetExpr], vs: Optional[VarSpace] = None) -> JetExpr:
    """Unique normal form of a raw tree (or of an already-normal expression).

    Inverse nodes are accepted only around a bare field atom; anything else
    raises InverseOfComposite (composite inverses are outside the fragment).
    """
    if isinstance(e, JetExpr):
        return e
    if vs is None:
        raise ValueError("a VarSpace is required to normalize a raw tree")
    return _norm(e, vs)


def _norm(e: RawExpr, vs: VarSpace) -> JetExpr:
    if isinstance(e, RAtom):
        return vs.atom(e.atom)
    if isinstance(e, RCoord):
        return vs.coord(e.name)
    if isinstance(e, RLam):
        return vs.lam(e.power)
    if isinstance(e, RIdentity):
        return vs.one()
    if isinstance(e, RSum):
        out = vs.zero()
        for a in e.args:
            out = out + _norm(a, vs)
        return out
    if isinstance(e, RProd):
        out = vs.one()
        for a in e.args:
            out = out * _norm(a, vs)
        return out
    if isinstance(e, RScale):
        return _norm(e.arg, vs).scale(e.coef)
    if isinstance(e, RComm):
        return comm(_norm(e.a, vs), _norm(e.b, vs))
    if isinstance(e, RInv):
        inner = e.arg
        if isinstance(inner, RAtom) and isinstance(inner.atom, Field) \
                and inner.atom.is_bare():
            return vs.inv(inner.atom.name)
        raise InverseOfComposite(
            "inverse is only defined for a bare field atom")
    raise TypeError(f"not a raw expression: {e!r}")


# ---------------------------------------------------------------------------
# Rewriting / substitution
# ---------------------------------------------------------------------------

Matcher = Callable[[Atom], Optional[JetExpr]]


def rewrite(e: JetExpr, matcher: Matcher, max_iter: int = 500) -> JetExpr:
    """Replace every matched atom by its image, renormalize, iterate to a
    fixpoint.  Raises NonTerminating past ``max_iter`` sweeps."""
    vs = e.vs
    for _ in range(max_iter):
        changed = False
        out = vs.zero()
        for coef, lam, coords, factors in e.mons:
            term = JetExpr(vs, ((coef, lam, coords, ()),))
            for a in factors:
                img = matcher(a)
                if img is None:
                    term = term * vs.atom(a)
                else:
                    changed = True
                    term = term * img
            out = out + term
        if not changed:
            return e
        e = out
    raise NonTerminating(f"rewrite did not reach a fixpoint in {max_iter} sweeps")


def substitute(e: JetExpr, rules, max_iter: int = 500) -> JetExpr:
    """Apply single-atom rewrite rules to a fixpoint.

    ``rules`` is a mapping or an iterable of (Atom, JetExpr) pairs.
    """
    return rewrite(e, dict(rules).get, max_iter=max_iter)


# ---------------------------------------------------------------------------
# Exact numeric evaluation (independent oracle path)
# ---------------------------------------------------------------------------

def mat_eye(n, one=Fraction(1), zero=Fraction(0)):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(c, A):
    return [[c * a for a in row] for row in A]


def mat_mul(A, B):
    n, m, p = len(A), len(B), len(B[0])
    return [[sum(A[i][k] * B[k][j] for k in range(m)) for j in range(p)]
            for i in range(n)]


def mat_inv(A):
    """Exact inverse by Gauss-Jordan elimination over the entry field."""
    n = len(A)
    M = [list(row) + list(e) for row, e in zip(A, mat_eye(n))]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        M[col], M[piv] = M[piv], M[col]
        inv = Fraction(1) / Fraction(M[col][col]) if isinstance(M[col][col], (int, Fraction)) \
            else 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [row[n:] for row in M]


def evaluate(e: Union[RawExpr, JetExpr], assign: Mapping, n: int,
             lam_value: Scalar = 1, coord_values: Optional[Mapping] = None):
    """Evaluate an expression with concrete matrices substituted for atoms.

    ``assign`` maps atoms to n-by-n matrices (lists of lists).  Raw trees are
    evaluated without any normalization, so this is an independent check of
    the normal form.  Derivative atoms are looked up as-is (the caller
    decides whether they are independent or consistent).
    """
    coord_values = coord_values or {}

    def scalar_of(lam_pow, coords, coef):
        s = coef * (Fraction(lam_value) ** lam_pow if isinstance(lam_value, (int, Fraction))
                    else lam_value ** lam_pow)
        for c in coords:
            s = s * coord_values[c]
        return s

    def atom_val(a):
        if a in assign:
            return assign[a]
        if isinstance(a, InvField):
            for k in assign:
                if isinstance(k, Field) and k.name == a.name and k.is_bare():
                    return mat_inv(assign[k])
        raise UnboundAtom(f"no value for atom {a!r}")

    if isinstance(e, JetExpr):
        out = None
        for coef, lam, coords, factors in e.mons:
            term = mat_eye(n)
            for a in factors:
                term = mat_mul(term, atom_val(a))
            term = mat_scale(scalar_of(lam, coords, coef), term)
            out = term if out is None else mat_add(out, term)
        return out if out is not None else mat_scale(Fraction(0), mat_eye(n))

    # raw tree: direct structural evaluation
    if isinstance(e, RAtom):
        return atom_val(e.atom)
    if isinstance(e, RCoord):
        return mat_scale(coord_values[e.name], mat_eye(n))
    if isinstance(e, RLam):
        return mat_scale(scalar_of(e.power, (), Fraction(1)), mat_eye(n))
    if isinstance(e, RIdentity):
        return mat_eye(n)
    if isinstance(e, RSum):
        out = mat_scale(Fraction(0), mat_eye(n))
        for a in e.args:
            out = mat_add(out, evaluate(a, assign, n, lam_value, coord_values))
        return out
    if isinstance(e, RProd):
        out = mat_eye(n)
        for a in e.args:
            out = mat_mul(out, evaluate(a, assign, n, lam_value, coord_values))
        return out
    if isinstance(e, RScale):
        return mat_scale(e.coef, evaluate(e.arg, assign, n, lam_value, coord_values))
    if isinstance(e, RComm):
        A = evaluate(e.a, assign, n, lam_value, coord_values)
        B = evaluate(e.b, assign, n, lam_value, coord_values)
        return mat_add(mat_mul(A, B), mat_scale(Fraction(-1), mat_mul(B, A)))
    if isinstance(e, RInv):
        return mat_inv(evaluate(e.arg, assign, n, lam_value, coord_values))
    raise TypeError(f"cannot evaluate {e!r}")
