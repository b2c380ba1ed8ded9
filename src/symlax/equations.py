"""Concrete field equations in divergence form.

Two equations are registered: the principal chiral field model in two
variables and the self-dual Yang-Mills (SDYM) equation in four.  Each
declares its divergence components, pure-gauge connections, the
leading-derivative solved form used for on-shell reduction and the nonlocal
potential defining system, together with every fact the verification chain
reads about it: the seed symmetry characteristics, the closed forms one
recursion step derives from them, the expected hierarchy forms per seed,
the solution families that sample it and its default grid ladder.  A new
equation is one ``_make_*`` function and its registry entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, Dict, Optional, Tuple

from .calculus import (
    FrechetContext,
    covariant_derivative,
    frechet_derivative,
    reduce_mod_field_equation,
    total_derivative,
)
from .errors import UnknownConnection
from .expr import JetExpr, VarSpace, comm


@dataclass(frozen=True)
class ConnSlot:
    """A covariant-derivative slot: connection expression, the variable its
    plain-derivative part uses, and the outer divergence variable it pairs
    with in the conservation form."""
    name: str
    connection: JetExpr
    cov_var: str
    div_var: str


@dataclass(frozen=True)
class EquationDef:
    name: str
    vs: VarSpace
    field_name: str
    slots: Tuple[ConnSlot, ...]
    solved_lead: tuple
    solved_rhs: JetExpr
    potential_rules: Dict[str, Dict[str, JetExpr]]
    potential_name: str
    traceless: bool
    seeds: Tuple[Characteristic, ...]    # the built-in seed library
    derived: Tuple[Characteristic, ...]  # closed forms one step derives
    expected_forms: Dict[str, Dict[int, JetExpr]]  # per level, by seed
    families: Tuple[str, ...]              # sampling families, default first
    extent: float                          # default per-axis grid length
    counts: Tuple[int, ...]                # default refinement ladder
    # each grid axis of a diagonal rung, by name, with the variables whose
    # coordinate sum it runs over; empty when every variable is an axis
    diagonal: Dict[str, Tuple[str, ...]] = dc_field(default_factory=dict)

    @property
    def catalog(self) -> Tuple[Characteristic, ...]:
        """The full verification catalog: the seeds, then the derived
        closed forms."""
        return self.seeds + self.derived

    @property
    def axes(self) -> Tuple[int, ...]:
        """The grid axis each variable differentiates along, by position in
        ``vs.names``: the declared diagonal axis that carries it, or its
        own."""
        carried = list(self.diagonal.values()) or [(v,) for v in self.vs.names]
        return tuple(next(d for d, c in enumerate(carried) if v in c)
                     for v in self.vs.names)

    def slot(self, which: str) -> ConnSlot:
        for s in self.slots:
            if s.name == which:
                return s
        raise UnknownConnection(
            f"{self.name} has no connection slot {which!r}; "
            f"known: {[s.name for s in self.slots]}")

    def u(self) -> JetExpr:
        return self.vs.field(self.field_name)

    def u_inv(self) -> JetExpr:
        return self.vs.inv(self.field_name)

    def divergence_components(self) -> Dict[str, JetExpr]:
        """Conserved-current components of F itself, keyed by divergence
        variable: F = sum_v D_v(component_v)."""
        return {s.div_var: s.connection for s in self.slots}

    def with_potentials(self, *chars: "Characteristic") -> "EquationDef":
        """This equation with the defining rules of the tower potentials
        that ``chars`` carry added to its own potential rules."""
        rules = {name: r for q in chars for name, r in q.potentials.items()}
        if not rules:
            return self
        return replace(self, potential_rules={**self.potential_rules, **rules})

    def frechet_ctx(self, q: JetExpr) -> FrechetContext:
        return FrechetContext(
            vs=self.vs,
            field_rules={self.field_name: q},
            potential_rules=self.potential_rules,
        )


# ---------------------------------------------------------------------------
# Characteristics
# ---------------------------------------------------------------------------

# No longer built: bench/tracer.py imports it to name its spans.
@dataclass(frozen=True)
class ImplicitSystem:
    unknown: str
    equations: Tuple[JetExpr, JetExpr]


@dataclass(frozen=True)
class Characteristic:
    """A symmetry characteristic at a hierarchy level, of closed form
    ``body``.  ``potentials`` holds the defining rules ({variable: first
    derivative}) of the tower potentials its form uses, in the order they
    were defined: each rule reads only the equation's own potential and
    earlier tower ones."""
    index: int
    body: JetExpr
    provenance: str = ""
    degenerate: bool = False
    potentials: Dict[str, Dict[str, JetExpr]] = dc_field(default_factory=dict)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def field_equation_residual(eq: EquationDef) -> JetExpr:
    """F[u] as the normalized sum of total derivatives of the divergence
    components."""
    out = eq.vs.zero()
    for s in eq.slots:
        out = out + total_derivative(s.connection, s.div_var)
    return out


def symmetry_condition(eq: EquationDef, q) -> JetExpr:
    """The linearized equation S(Q; u), built by linearizing F along Q.

    Accepts a Characteristic or a bare expression.
    After normalization this agrees with the covariant-divergence form
    (see symmetry_condition_covariant); the equality is itself a test.
    """
    qexpr = q.body if isinstance(q, Characteristic) else q
    ctx = eq.frechet_ctx(qexpr)
    return frechet_derivative(field_equation_residual(eq), ctx)


def symmetry_condition_covariant(eq: EquationDef, q) -> JetExpr:
    """S(Q; u) in its covariant-divergence form: the outer divergence of the
    covariant derivatives of u^-1 Q."""
    qexpr = q.body if isinstance(q, Characteristic) else q
    w = eq.u_inv() * qexpr
    out = eq.vs.zero()
    for s in eq.slots:
        out = out + total_derivative(covariant_derivative(w, eq, s.name), s.div_var)
    return out


@dataclass(frozen=True)
class Verdict:
    holds: bool
    residue: Optional[JetExpr] = None

    def __bool__(self):
        return self.holds


def verify_symmetry(eq: EquationDef, q) -> Verdict:
    """Does S(Q; u) reduce to zero on-shell, modulo the rules of the tower
    potentials a characteristic carries?  Returns the surviving residue
    verbatim when it does not."""
    if isinstance(q, Characteristic):
        eq, qexpr = eq.with_potentials(q), q.body
    else:
        qexpr = q
    s = symmetry_condition(eq, qexpr)
    r = reduce_mod_field_equation(s, eq, ctx=eq.frechet_ctx(qexpr))
    return Verdict(holds=r.is_zero, residue=None if r.is_zero else r)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _right_action_forms(vs: VarSpace, u: JetExpr) -> Dict[int, JetExpr]:
    """Hierarchy from the right-action seed u M: the potential commutator
    above it, the left action below it, then the first backward tower
    potential."""
    M = vs.param("M")
    return {1: u * comm(vs.pot("X"), M), 0: u * M, -1: vs.param("L") * u,
            -2: vs.pot("Z2") * u}


def _make_chiral() -> EquationDef:
    vs = VarSpace(("t", "x"))
    g, gi = vs.field("g"), vs.inv("g")
    a = gi * vs.field("g", "t")
    b = gi * vs.field("g", "x")
    # g_tt = g_t g^-1 g_t + g_x g^-1 g_x - g_xx
    rhs = (vs.field("g", "t") * gi * vs.field("g", "t")
           + vs.field("g", "x") * gi * vs.field("g", "x")
           - vs.field("g", "x", "x"))
    M, X = vs.param("M"), vs.pot("X")
    return EquationDef(
        name="chiral",
        vs=vs,
        field_name="g",
        slots=(
            ConnSlot("t", a, "t", "t"),
            ConnSlot("x", b, "x", "x"),
        ),
        solved_lead=(2, 0),
        solved_rhs=rhs,
        potential_rules={"X": {"x": a, "t": -1 * b}},
        potential_name="X",
        traceless=False,
        seeds=(
            Characteristic(0, g * M, "right-action"),
            Characteristic(-1, vs.param("L") * g, "left-action"),
            Characteristic(0, vs.field("g", "t"), "t-translation"),
            Characteristic(0, vs.field("g", "x"), "x-translation"),
        ),
        derived=(
            Characteristic(1, g * comm(X, M),
                           "potential-commutator"),
        ),
        expected_forms={"right-action": _right_action_forms(vs, g)},
        families=("exponential-product", "perturbed-offshell"),
        extent=1.0,
        counts=(65, 129, 257),
    )


def _make_sdym() -> EquationDef:
    vs = VarSpace(("y", "z", "yb", "zb"))
    J, ji = vs.field("J"), vs.inv("J")
    ay = ji * vs.field("J", "y")
    az = ji * vs.field("J", "z")
    # J_{y yb} = J_yb J^-1 J_y + J_zb J^-1 J_z - J_{z zb}
    rhs = (vs.field("J", "yb") * ji * vs.field("J", "y")
           + vs.field("J", "zb") * ji * vs.field("J", "z")
           - vs.field("J", "z", "zb"))
    M, X = vs.param("M"), vs.pot("X")
    return EquationDef(
        name="sdym",
        vs=vs,
        field_name="J",
        slots=(
            ConnSlot("y", ay, "y", "yb"),
            ConnSlot("z", az, "z", "zb"),
        ),
        solved_lead=(1, 0, 1, 0),
        solved_rhs=rhs,
        potential_rules={"X": {"zb": ay, "yb": -1 * az}},
        potential_name="X",
        traceless=True,
        seeds=(
            Characteristic(0, J * M, "right-action"),
            Characteristic(0, vs.field("J", "y"), "y-translation"),
            Characteristic(0, vs.field("J", "z"), "z-translation"),
            Characteristic(0, vs.field("J", "yb"),
                           "yb-translation"),
            Characteristic(0, vs.field("J", "zb"),
                           "zb-translation"),
        ),
        derived=(
            Characteristic(-1, vs.param("L") * J, "left-action"),
            Characteristic(1, J * comm(X, M),
                           "potential-commutator"),
            Characteristic(1, J * vs.pot("X", "y"),
                           "potential-translation"),
        ),
        expected_forms={
            "right-action": _right_action_forms(vs, J),
            "y-translation": {1: J * vs.pot("X", "y"),
                              0: vs.field("J", "y"),
                              -1: vs.field("J", "zb"),
                              -2: vs.pot("Z2") * J},
        },
        families=("lifted-chiral",),
        extent=0.5,
        counts=(9, 17, 33),
        diagonal={"t": ("y", "yb"), "x": ("z", "zb")},
    )


_REGISTRY: Dict[str, Callable[[], EquationDef]] = {
    "chiral": _make_chiral,
    "sdym": _make_sdym,
}

# the equation a run checks when its config names none
DEFAULT_EQUATION = "chiral"

_CACHE: Dict[str, EquationDef] = {}


def get_equation(name: str) -> EquationDef:
    if name not in _REGISTRY:
        raise KeyError(f"unknown equation {name!r}; known: {sorted(_REGISTRY)}")
    if name not in _CACHE:
        _CACHE[name] = _REGISTRY[name]()
    return _CACHE[name]


def equation_names():
    return sorted(_REGISTRY)
