"""Jet-space differential operators.

Total derivatives are derivations on the monomial algebra; the linearization
operator (directional derivative along a characteristic) is linear, Leibniz,
and commutes with total derivatives.  Reduction modulo a field equation
substitutes the leading-derivative solved form, the potential defining
relations and their linearized images, all to a fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Dict, Optional

from .errors import DerivativeOrderOverflow, UnboundField
from .expr import (
    DPotential,
    Field,
    InvField,
    JetExpr,
    Param,
    Potential,
    VarSpace,
    comm,
    rewrite,
)


def _bump(orders: tuple, i: int, vs: VarSpace) -> tuple:
    out = list(orders)
    out[i] += 1
    if sum(out) > vs.max_order:
        raise DerivativeOrderOverflow(
            f"derivative order {sum(out)} exceeds cap {vs.max_order}")
    return tuple(out)


def total_derivative(e: JetExpr, v: str) -> JetExpr:
    """Total derivative D_v: Leibniz over products, multi-index bump on jet
    atoms, (u^-1)_v = -u^-1 u_v u^-1, zero on parameter matrices."""
    vs = e.vs
    i = vs.index(v)
    out = vs.zero()
    for coef, lam, coords, factors in e.mons:
        # coordinate factors (commuting scalars)
        for pos, c in enumerate(coords):
            if c == v:
                rest = coords[:pos] + coords[pos + 1:]
                out = out + JetExpr(vs, ((coef, lam, rest, factors),))
        # matrix factors
        for pos, a in enumerate(factors):
            da = _d_atom(a, i, vs)
            if da is None:
                continue
            pre = JetExpr(vs, ((coef, lam, coords, factors[:pos]),))
            post = JetExpr(vs, ((Fraction(1), 0, (), factors[pos + 1:]),))
            out = out + pre * da * post
    return out


def _d_atom(a, i: int, vs: VarSpace) -> Optional[JetExpr]:
    if isinstance(a, Field):
        return vs.atom(Field(a.name, _bump(a.orders, i, vs)))
    if isinstance(a, InvField):
        u_i = Field(a.name, vs.unit_index(vs.names[i]))
        return (vs.atom(InvField(a.name)) * vs.atom(u_i)
                * vs.atom(InvField(a.name))).scale(-1)
    if isinstance(a, Param):
        return None
    if isinstance(a, Potential):
        return vs.atom(Potential(a.name, _bump(a.orders, i, vs)))
    if isinstance(a, DPotential):
        return vs.atom(DPotential(a.name, _bump(a.orders, i, vs)))
    raise TypeError(f"unknown atom {a!r}")


def d_multi(e: JetExpr, orders: tuple) -> JetExpr:
    """Apply D^mu for a multi-index over the expression's variable space."""
    for v, k in zip(e.vs.names, orders):
        for _ in range(k):
            e = total_derivative(e, v)
    return e


def _lower_potential(orders: tuple, rules: Dict[str, JetExpr], vs: VarSpace,
                     image: Callable[[JetExpr], JetExpr]) -> Optional[JetExpr]:
    """A differentiated potential lowered through its defining rule: for the
    first variable v with a rule along which ``orders`` differentiates,
    D^(orders - e_v) of ``image(rules[v])``; None when there is no such v."""
    for v in vs.names:
        i = vs.index(v)
        if v in rules and orders[i] > 0:
            rest = list(orders)
            rest[i] -= 1
            return d_multi(image(rules[v]), tuple(rest))
    return None


# ---------------------------------------------------------------------------
# Linearization (directional derivative along a characteristic)
# ---------------------------------------------------------------------------

@dataclass
class FrechetContext:
    """Rules for the linearization operator.

    ``field_rules`` maps a field name to its image (the characteristic).
    ``potential_rules`` maps a potential name to {variable: first-derivative
    defining expression}; images of differentiated potentials are rewritten
    through these, and an undifferentiated potential becomes a fresh
    nonlocal atom.  Parameter matrices and base-space coordinates always map
    to zero.
    """
    vs: VarSpace
    field_rules: Dict[str, JetExpr] = dc_field(default_factory=dict)
    potential_rules: Dict[str, Dict[str, JetExpr]] = dc_field(default_factory=dict)


def frechet_derivative(e: JetExpr, ctx: FrechetContext) -> JetExpr:
    """Linearize e along the characteristics in ctx (Leibniz; commutes with
    total derivatives; kills parameters and base-space functions)."""
    vs = e.vs
    out = vs.zero()
    for coef, lam, coords, factors in e.mons:
        for pos, a in enumerate(factors):
            da = _frechet_atom(a, ctx)
            if da is None:
                continue
            pre = JetExpr(vs, ((coef, lam, coords, factors[:pos]),))
            post = JetExpr(vs, ((Fraction(1), 0, (), factors[pos + 1:]),))
            out = out + pre * da * post
    return out


def _frechet_atom(a, ctx: FrechetContext) -> Optional[JetExpr]:
    vs = ctx.vs
    if isinstance(a, Param):
        return None
    if isinstance(a, Field):
        if a.name not in ctx.field_rules:
            raise UnboundField(f"no linearization rule for field {a.name!r}")
        return d_multi(ctx.field_rules[a.name], a.orders)
    if isinstance(a, InvField):
        if a.name not in ctx.field_rules:
            raise UnboundField(f"no linearization rule for field {a.name!r}")
        q = ctx.field_rules[a.name]
        inv = vs.atom(InvField(a.name))
        return (inv * q * inv).scale(-1)
    if isinstance(a, Potential):
        img = _lower_potential(a.orders, ctx.potential_rules.get(a.name, {}),
                               vs, lambda r: frechet_derivative(r, ctx))
        return img if img is not None else vs.atom(DPotential(a.name, a.orders))
    if isinstance(a, DPotential):
        raise UnboundField(
            f"second linearization of potential {a.name!r} is outside the fragment")
    raise TypeError(f"unknown atom {a!r}")


# ---------------------------------------------------------------------------
# Covariant derivatives and on-shell reduction
# ---------------------------------------------------------------------------

def covariant_derivative(e: JetExpr, eq, which: str) -> JetExpr:
    """D_v(e) + [connection, e] for a declared connection slot of eq."""
    slot = eq.slot(which)
    return total_derivative(e, slot.cov_var) + comm(slot.connection, e)


def reduce_mod_field_equation(e: JetExpr, eq,
                              ctx: Optional[FrechetContext] = None,
                              max_iter: int = 500) -> JetExpr:
    """Fixpoint substitution of the leading-derivative solved form (with
    lazily generated prolongations), elimination of differentiated potential
    atoms through the defining relations, and, when a linearization context
    is given, of differentiated potential-image atoms through the linearized
    relations."""
    vs = e.vs
    lead = eq.solved_lead
    cache: dict = {}

    def matcher(a):
        if a in cache:
            return cache[a]
        img = None
        if isinstance(a, Field) and a.name == eq.field_name \
                and all(o >= l for o, l in zip(a.orders, lead)):
            delta = tuple(o - l for o, l in zip(a.orders, lead))
            img = d_multi(eq.solved_rhs, delta)
        elif isinstance(a, Potential) and a.name in eq.potential_rules:
            img = _lower_potential(a.orders, eq.potential_rules[a.name], vs,
                                   lambda r: r)
        elif isinstance(a, DPotential) and ctx is not None \
                and a.name in eq.potential_rules:
            img = _lower_potential(a.orders, eq.potential_rules[a.name], vs,
                                   lambda r: frechet_derivative(r, ctx))
        cache[a] = img
        return img

    return rewrite(e, matcher, max_iter=max_iter)
