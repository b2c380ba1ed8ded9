"""The recursion machinery: indexed auto-BT on the symmetry condition,
hierarchy generation, Laurent assembly, and the Lax system.

The BT links the characteristic at level n to the one at level n+1 through
the kernel K(Q'; u) = u^-1 Q'.  Forward steps integrate for the higher
level; backward steps solve the covariant pair for the lower one.  Closed
forms are recognized by a small ansatz library and verified before being
returned; anything unrecognized is returned as the defining implicit pair,
exactly as written (left-multiplied by u so the equations read
Q_t - Q u^-1 u_t = ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Dict, List, Tuple

from .calculus import (
    covariant_derivative,
    d_multi,
    reduce_mod_field_equation,
    total_derivative,
)
from .equations import (
    Characteristic,
    ClosedForm,
    EquationDef,
    ImplicitSystem,
    field_equation_residual,
    symmetry_condition,
    verify_symmetry,
)
from .errors import IncompatibleSystem, ZeroLambda
from .expr import Field, JetExpr, comm, rewrite


# ---------------------------------------------------------------------------
# BT systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BTSystem:
    eq: EquationDef
    known: Characteristic
    direction: str            # "forward" | "backward"
    unknown_level: int
    unknown_name: str
    equations: Tuple[JetExpr, JetExpr]


def _known_expr(q: Characteristic) -> JetExpr:
    if not isinstance(q.body, ClosedForm):
        raise IncompatibleSystem(
            "BT step requires a closed-form known characteristic", level=q.index)
    return q.body.expr


def bt_step(eq: EquationDef, q: Characteristic, direction: str) -> BTSystem:
    """Build the constraint pair with the unknown at level n+1 (forward) or
    n-1 (backward), after checking its on-shell compatibility.  A nonzero
    compatibility residue means the known characteristic was not a symmetry
    and raises IncompatibleSystem."""
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward|backward, got {direction!r}")
    qe = _known_expr(q)
    vs = eq.vs
    s1, s2 = eq.slots
    w_known = eq.u_inv() * qe
    unknown = "Qnew"
    w_unk = eq.u_inv() * vs.field(unknown)
    ctx = eq.frechet_ctx(qe)

    if direction == "forward":
        # A_1(u^-1 Q) = D_{d2}(u^-1 Q'), A_2(u^-1 Q) = -D_{d1}(u^-1 Q')
        e1 = covariant_derivative(w_known, eq, s1.name) \
            - total_derivative(w_unk, s2.div_var)
        e2 = covariant_derivative(w_known, eq, s2.name) \
            + total_derivative(w_unk, s1.div_var)
        compat = reduce_mod_field_equation(symmetry_condition(eq, qe), eq, ctx=ctx)
        level = q.index + 1
    else:
        e1 = covariant_derivative(w_unk, eq, s1.name) \
            - total_derivative(w_known, s2.div_var)
        e2 = covariant_derivative(w_unk, eq, s2.name) \
            + total_derivative(w_known, s1.div_var)
        compat_raw = (covariant_derivative(total_derivative(w_known, s1.div_var), eq, s1.name)
                      + covariant_derivative(total_derivative(w_known, s2.div_var), eq, s2.name))
        compat = reduce_mod_field_equation(compat_raw, eq, ctx=ctx)
        level = q.index - 1

    if not compat.is_zero:
        raise IncompatibleSystem(
            f"BT {direction} step from level {q.index} is incompatible "
            f"(known characteristic is not a symmetry)",
            residue=compat, level=q.index)
    return BTSystem(eq, q, direction, level, unknown, (e1, e2))


# ---------------------------------------------------------------------------
# Symbolic integration of a BT system
# ---------------------------------------------------------------------------

def _forward_candidates(eq: EquationDef, qe: JetExpr) -> List[JetExpr]:
    """Ansatz list for W = u^-1 Q' in a forward step."""
    vs = eq.vs
    out = []
    X = eq.potential_name
    for m in sorted(qe.params()):
        out.append(comm(vs.pot(X), vs.param(m)))
    for v in vs.names:
        out.append(vs.pot(X, v))
    return out


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


def _satisfies(eq: EquationDef, sys: BTSystem, candidate: JetExpr) -> bool:
    """Check a closed-form candidate for the unknown against both equations,
    on-shell and modulo the potential defining relations."""
    unknown = sys.unknown_name
    ctx = eq.frechet_ctx(candidate)
    for e in sys.equations:
        sub = _replace_field(e, unknown, candidate)
        if not reduce_mod_field_equation(sub, eq, ctx=ctx).is_zero:
            return False
    return True


def _replace_field(e: JetExpr, name: str, value: JetExpr) -> JetExpr:
    """Substitute a closed form for a field symbol, mapping derivative atoms
    to total derivatives of the value."""
    def matcher(a):
        if isinstance(a, Field) and a.name == name:
            return d_multi(value, a.orders)
        return None

    return rewrite(e, matcher)


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
    """Recognize the closed form solving a BT system, or return the system
    itself as an implicit characteristic.

    Each integration is defined only up to an additive u*(constant matrix);
    the gauge with that constant set to zero is returned.
    """
    eq = sys.eq
    vs = eq.vs
    qe = _known_expr(sys.known)
    u = eq.u()

    if sys.direction == "forward":
        for w in _forward_candidates(eq, qe):
            cand = u * w
            if _satisfies(eq, sys, cand):
                degen, expr = _is_degenerate(eq, cand)
                return Characteristic(sys.unknown_level, ClosedForm(expr),
                                      provenance=f"bt-forward from {sys.known.provenance}",
                                      degenerate=degen)
    else:
        for cand in _backward_candidates(eq, qe):
            if _satisfies(eq, sys, cand):
                degen, expr = _is_degenerate(eq, cand)
                return Characteristic(sys.unknown_level, ClosedForm(expr),
                                      provenance=f"bt-backward from {sys.known.provenance}",
                                      degenerate=degen)

    # No recognized closed form: hand back the defining pair verbatim,
    # left-multiplied by u so it reads  Q_a - Q u^-1 u_a = ...
    pair = tuple(u * _replace_field(e, sys.unknown_name, vs.field("Q"))
                 for e in sys.equations)
    body = ImplicitSystem(unknown="Q", equations=pair)
    return Characteristic(sys.unknown_level, body,
                          provenance=f"bt-{sys.direction} from {sys.known.provenance}")


# ---------------------------------------------------------------------------
# Hierarchy generation
# ---------------------------------------------------------------------------

@dataclass
class Hierarchy:
    eq_name: str
    seed: Characteristic
    charges: Dict[int, Characteristic] = dc_field(default_factory=dict)
    verdicts: Dict[int, str] = dc_field(default_factory=dict)
    notes: List[str] = dc_field(default_factory=list)


def generate_hierarchy(eq: EquationDef, seed: Characteristic,
                       n_min: int, n_max: int) -> Hierarchy:
    """Iterate the BT in both directions from a level-0 seed.

    Closed forms are re-verified symbolically; implicit levels are marked
    deferred to the grid checks.  Iteration in a direction stops once an implicit level is reached (the
    BT step needs a closed-form known side).
    """
    if not (n_min <= 0 <= n_max):
        raise ValueError("hierarchy window must contain 0")
    if seed.index != 0:
        raise ValueError("seed must sit at level 0")

    h = Hierarchy(eq_name=eq.name, seed=seed)
    h.charges[0] = seed
    h.verdicts[0] = _verdict_of(eq, seed)

    for direction, levels in (("forward", range(1, n_max + 1)),
                              ("backward", range(-1, n_min - 1, -1))):
        prev = seed
        for n in levels:
            if not isinstance(prev.body, ClosedForm):
                h.notes.append(
                    f"stopped {direction} at level {n}: previous level is implicit")
                break
            sys = bt_step(eq, prev, direction)
            nxt = integrate_bt_symbolic(sys)
            h.charges[n] = nxt
            h.verdicts[n] = _verdict_of(eq, nxt)
            if nxt.degenerate:
                h.notes.append(f"level {n} is degenerate (no new symmetry)")
            prev = nxt
    return h


def _verdict_of(eq, q: Characteristic) -> str:
    if isinstance(q.body, ClosedForm):
        v = verify_symmetry(eq, q)
        return "holds" if v.holds else f"fails: {v.residue}"
    return "deferred-numeric"


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
        q = charges[n]
        if not isinstance(q.body, ClosedForm):
            raise ValueError(f"level {n} has no closed form to assemble")
        e = q.body.expr
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
    symmetry_form: JetExpr        # S(psi; u)


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

    S = (total_derivative(covariant_derivative(w, eq, s1.name), s1.div_var)
         + total_derivative(covariant_derivative(w, eq, s2.name), s2.div_var))

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
                     covariant_identity, on_shell, S)


def lax_truncation_residues(eq: EquationDef, charges: Dict[int, Characteristic]
                            ) -> List[Dict[int, JetExpr]]:
    """Substitute a truncated Laurent sum into the Lax constraints and
    collect the surviving coefficient of each spectral power (on-shell,
    potentials eliminated).  Interior powers must cancel by the BT
    recursion; leftovers live only at the boundary orders."""
    series = laurent_assemble(charges, "symbolic")
    out = []
    for e in _lax_constraints(eq, eq.u_inv() * series.expr):
        r = reduce_mod_field_equation(e, eq)
        out.append({p: r.lam_coefficient(p) for p in sorted(r.lam_powers())})
    return out
