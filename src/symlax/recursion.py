"""The recursion machinery: indexed auto-BT on the symmetry condition,
hierarchy generation, Laurent assembly, and the Lax system.

The BT links the characteristic Q at level n to Q' at level n+1 through the
kernel K(Q'; u) = u^-1 Q'.  With w = u^-1 Q both directions define a new
nonlocal potential by its first derivatives: forward, W' = u^-1 Q' has
D_{d2} W' = A_1(w) and D_{d1} W' = -A_2(w); backward, Z = Q' u^-1 has
D_{cov1} Z = u D_{d2}(w) u^-1 and D_{cov2} Z = -u D_{d1}(w) u^-1.  A small
ansatz library recognizes the steps that close in the equation's own
potential, each verified before being returned.  Any other step defines a
tower potential P_n (forward) or Z_|n| (backward) by its pair, and the
level is the closed form u P_n or Z_|n| u.  Every level is therefore a
closed form, and the hierarchy runs as far as asked in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Dict, List, Tuple

from .calculus import (
    covariant_derivative,
    reduce_mod_field_equation,
    total_derivative,
)
from .equations import (
    Characteristic,
    EquationDef,
    field_equation_residual,
    symmetry_condition,
    symmetry_condition_covariant,
    verify_symmetry,
)
from .errors import IncompatibleSystem, ZeroLambda
from .expr import Field, JetExpr, comm


# ---------------------------------------------------------------------------
# BT systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BTSystem:
    """One BT step from ``known``.  ``rules`` gives the first derivatives
    ({variable: expression}) of the unknown level's potential: W' = u^-1 Q'
    forward, Z = Q' u^-1 backward.  ``eq`` carries the rules of the tower
    potentials the known characteristic uses."""
    eq: EquationDef
    known: Characteristic
    direction: str            # "forward" | "backward"
    unknown_level: int
    rules: Dict[str, JetExpr]


def bt_step(eq: EquationDef, q: Characteristic, direction: str) -> BTSystem:
    """Build the defining rules of the unknown at level n+1 (forward) or
    n-1 (backward), after checking their on-shell compatibility.  A nonzero
    compatibility residue means the known characteristic was not a symmetry
    and raises IncompatibleSystem."""
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward|backward, got {direction!r}")
    eq = eq.with_potentials(q)
    qe = q.body
    s1, s2 = eq.slots
    w = eq.u_inv() * qe

    if direction == "forward":
        rules = {s2.div_var: covariant_derivative(w, eq, s1.name),
                 s1.div_var: -covariant_derivative(w, eq, s2.name)}
        compat = symmetry_condition(eq, qe)
        level = q.index + 1
    else:
        d1, d2 = (total_derivative(w, s.div_var) for s in (s1, s2))
        u, ui = eq.u(), eq.u_inv()
        rules = {s1.cov_var: u * d2 * ui, s2.cov_var: -(u * d1 * ui)}
        compat = (covariant_derivative(d1, eq, s1.name)
                  + covariant_derivative(d2, eq, s2.name))
        level = q.index - 1

    compat = reduce_mod_field_equation(compat, eq, ctx=eq.frechet_ctx(qe))
    if not compat.is_zero:
        raise IncompatibleSystem(
            f"BT {direction} step from level {q.index} is incompatible "
            f"(known characteristic is not a symmetry)",
            residue=compat, level=q.index)
    rules = {v: reduce_mod_field_equation(r, eq) for v, r in rules.items()}
    return BTSystem(eq, q, direction, level, rules)


# ---------------------------------------------------------------------------
# Symbolic integration of a BT system
# ---------------------------------------------------------------------------

def _forward_candidates(eq: EquationDef, qe: JetExpr) -> List[JetExpr]:
    """Ansatz list for Q' = u W in a forward step."""
    vs = eq.vs
    u = eq.u()
    X = eq.potential_name
    out = [u * comm(vs.pot(X), vs.param(m)) for m in sorted(qe.params())]
    return out + [u * vs.pot(X, v) for v in vs.names]


def _backward_candidates(eq: EquationDef, qe: JetExpr) -> List[JetExpr]:
    """Ansatz list for the unknown Q' itself in a backward step."""
    vs = eq.vs
    u = eq.u()
    used = qe.params()
    fresh = next(n for n in ("L", "L2", "L3") if n not in used)
    out = [vs.param(fresh) * u]
    for v in vs.names:
        out.append(vs.field(eq.field_name, v))
    for m in sorted(used):
        out.append(u * vs.param(m))
    return out


def _satisfies(sys: BTSystem, candidate: JetExpr) -> bool:
    """Does a closed-form candidate for Q' solve the step: do the first
    derivatives of its potential reduce to the step's rules on-shell?"""
    eq = sys.eq
    if sys.direction == "forward":
        pot = eq.u_inv() * candidate
    else:
        pot = candidate * eq.u_inv()
    return all(reduce_mod_field_equation(total_derivative(pot, v) - r, eq).is_zero
               for v, r in sys.rules.items())


def _is_degenerate(eq: EquationDef, expr: JetExpr) -> Tuple[bool, JetExpr]:
    """A produced charge is unproductive when, after eliminating the
    potential, it is a local expression proportional to a coordinate
    derivative of the field (nothing new beyond the known local symmetries)."""
    flat = reduce_mod_field_equation(expr, eq)
    if flat.has_potentials():
        return False, expr
    if len(flat.mons) == 1:
        _, _, _, factors = flat.mons[0]
        if len(factors) == 1 and isinstance(factors[0], Field) \
                and factors[0].name == eq.field_name and sum(factors[0].orders) == 1:
            return True, flat
    return False, expr


def integrate_bt_symbolic(sys: BTSystem) -> Characteristic:
    """The closed form solving a BT system: an ansatz the step satisfies,
    or else u P_n (forward) or Z_|n| u (backward) in a new tower potential
    defined by the step's rules, which the result carries together with
    those of the known side.

    Each integration is defined only up to an additive u*(constant matrix);
    the gauge with that constant set to zero is returned.
    """
    eq = sys.eq
    u = eq.u()
    qe = sys.known.body
    n = sys.unknown_level
    provenance = f"bt-{sys.direction} from {sys.known.provenance}"
    forward = sys.direction == "forward"
    candidates = (_forward_candidates if forward else _backward_candidates)(eq, qe)
    for cand in candidates:
        if _satisfies(sys, cand):
            degen, expr = _is_degenerate(eq, cand)
            return Characteristic(n, expr, provenance, degen)

    name = f"P{n}" if forward else f"Z{-n}"
    expr = u * eq.vs.pot(name) if forward else eq.vs.pot(name) * u
    return Characteristic(n, expr, provenance,
                          potentials={**sys.known.potentials, name: sys.rules})


# ---------------------------------------------------------------------------
# Hierarchy generation
# ---------------------------------------------------------------------------

@dataclass
class Hierarchy:
    """The charges of a window by level, the seed at level 0, with each
    level's verdict."""
    charges: Dict[int, Characteristic] = dc_field(default_factory=dict)
    verdicts: Dict[int, str] = dc_field(default_factory=dict)
    notes: List[str] = dc_field(default_factory=list)


def generate_hierarchy(eq: EquationDef, seed: Characteristic,
                       n_min: int, n_max: int) -> Hierarchy:
    """Iterate the BT in both directions from a level-0 seed, over the whole
    window, and verify every level symbolically."""
    if not (n_min <= 0 <= n_max):
        raise ValueError("hierarchy window must contain 0")
    if seed.index != 0:
        raise ValueError("seed must sit at level 0")

    h = Hierarchy()
    h.charges[0] = seed
    h.verdicts[0] = _verdict_of(eq, seed)

    for direction, levels in (("forward", range(1, n_max + 1)),
                              ("backward", range(-1, n_min - 1, -1))):
        prev = seed
        for n in levels:
            nxt = integrate_bt_symbolic(bt_step(eq, prev, direction))
            h.charges[n] = nxt
            h.verdicts[n] = _verdict_of(eq, nxt)
            if nxt.degenerate:
                h.notes.append(f"level {n} is degenerate (no new symmetry)")
            prev = nxt
    return h


def _verdict_of(eq, q: Characteristic) -> str:
    v = verify_symmetry(eq, q)
    return "holds" if v.holds else f"fails: {v.residue}"


# ---------------------------------------------------------------------------
# Laurent assembly and the Lax system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaurentSeries:
    charges: Dict[int, Characteristic]
    lam: object                 # Fraction/float, or None when symbolic
    window: Tuple[int, int]
    expr: JetExpr


def laurent_assemble(charges: Dict[int, Characteristic], lam) -> LaurentSeries:
    """Truncated sum of lam^n * Q^(n) over a contiguous index window.

    ``lam`` may be a number (nonzero) or the string "symbolic" to keep the
    spectral parameter as a formal scalar.  The window is recorded so that
    residual analysis can attribute leftovers to the boundary orders.
    """
    if not charges:
        raise ValueError("empty charge window")
    ks = sorted(charges)
    if ks != list(range(ks[0], ks[-1] + 1)):
        raise ValueError("charge window must be contiguous")
    symbolic = lam == "symbolic"
    if not symbolic and lam == 0:
        raise ZeroLambda("the spectral parameter must be nonzero")
    vs = None
    total = None
    for n in ks:
        e = charges[n].body
        vs = e.vs
        term = vs.lam(n) * e if symbolic else e.scale(Fraction(lam) ** n)
        total = term if total is None else total + term
    return LaurentSeries(dict(charges), None if symbolic else lam,
                         (ks[0], ks[-1]), total)


@dataclass(frozen=True)
class LaxSystem:
    eq: EquationDef
    psi_name: str
    constraints: Tuple[JetExpr, JetExpr]
    cross_identity: JetExpr       # cross-derivative residue + lam*S(psi): zero
    covariant_identity: JetExpr   # covariant residue - S(psi) + [F, u^-1 psi]: zero
    covariant_residue_on_shell: JetExpr  # reduce of (covariant residue - S): zero


def _lax_constraints(eq: EquationDef, w: JetExpr) -> Tuple[JetExpr, JetExpr]:
    """The linear constraint pair on the transported wavefunction
    w = u^-1 Psi, symbolic in the spectral scalar lam:
    D_{d2} w - lam A_1 w and D_{d1} w + lam A_2 w."""
    s1, s2 = eq.slots
    lam = eq.vs.lam(1)
    e1 = total_derivative(w, s2.div_var) - lam * covariant_derivative(w, eq, s1.name)
    e2 = total_derivative(w, s1.div_var) + lam * covariant_derivative(w, eq, s2.name)
    return e1, e2


def lax_pair(eq: EquationDef, psi_name: str = "psi") -> LaxSystem:
    """The linear constraint pair on the wavefunction, symbolic in the
    spectral scalar, with its two integrability residues attached."""
    vs = eq.vs
    s1, s2 = eq.slots
    lam = vs.lam(1)
    w = eq.u_inv() * vs.field(psi_name)
    e1, e2 = _lax_constraints(eq, w)

    S = symmetry_condition_covariant(eq, vs.field(psi_name))

    cross = total_derivative(e1, s1.div_var) - total_derivative(e2, s2.div_var)
    cross_identity = cross + lam * S

    # C = (A1 D1 + A2 D2)(w) + lam [A1, A2](w); the lam part vanishes by
    # zero curvature, leaving the covariant route at spectral order zero
    C = covariant_derivative(e2, eq, s1.name) + covariant_derivative(e1, eq, s2.name)
    Ccoef = C.lam_coefficient(0)
    F = field_equation_residual(eq)
    covariant_identity = Ccoef - S + comm(F, w)
    on_shell = reduce_mod_field_equation(Ccoef - S, eq)

    return LaxSystem(eq, psi_name, (e1, e2), cross_identity,
                     covariant_identity, on_shell)


def lax_truncation_residues(eq: EquationDef, charges: Dict[int, Characteristic]
                            ) -> List[Dict[int, JetExpr]]:
    """Substitute a truncated Laurent sum into the Lax constraints and
    collect the surviving coefficient of each spectral power (on-shell,
    potentials eliminated).  Interior powers must cancel by the BT
    recursion; leftovers live only at the boundary orders."""
    eq = eq.with_potentials(*charges.values())
    series = laurent_assemble(charges, "symbolic")
    out = []
    for e in _lax_constraints(eq, eq.u_inv() * series.expr):
        r = reduce_mod_field_equation(e, eq)
        out.append({p: r.lam_coefficient(p) for p in sorted(r.lam_powers())})
    return out
