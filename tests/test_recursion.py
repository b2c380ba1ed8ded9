"""Recursion steps, hierarchy generation, spectral assembly, linear pairs."""

import dataclasses
from fractions import Fraction

import pytest

from symlax import sexpr
from symlax.calculus import covariant_derivative, total_derivative
from symlax.equations import (
    Characteristic,
    get_equation,
    verify_symmetry,
)
from symlax.errors import IncompatibleSystem, ZeroLambda
from symlax.expr import JetExpr, comm
from symlax.recursion import (
    bt_step,
    generate_hierarchy,
    integrate_bt_symbolic,
    laurent_assemble,
    lax_pair,
    lax_truncation_residues,
)


def _seed(eq, provenance):
    return next(s for s in eq.seeds if s.provenance == provenance)


# ---------------------------------------------------------------------------
# Single recursion steps
# ---------------------------------------------------------------------------

def test_forward_step_structure_chiral():
    eq = get_equation("chiral")
    sys = bt_step(eq, _seed(eq, "right-action"), "forward")
    assert sys.unknown_level == 1
    assert len(sys.rules) == 2


def test_forward_step_from_non_symmetry_raises():
    eq = get_equation("chiral")
    bad = Characteristic(0, eq.vs.param("M"), "constant")
    with pytest.raises(IncompatibleSystem):
        bt_step(eq, bad, "forward")


def test_backward_step_from_non_symmetry_raises():
    eq = get_equation("chiral")
    bad = Characteristic(0, eq.vs.param("M"), "constant")
    with pytest.raises(IncompatibleSystem):
        bt_step(eq, bad, "backward")


def test_forward_integration_chiral_right_action():
    eq = get_equation("chiral")
    vs = eq.vs
    out = integrate_bt_symbolic(bt_step(eq, _seed(eq, "right-action"),
                                        "forward"))
    assert isinstance(out.body, JetExpr)
    assert out.body == eq.u() * comm(vs.pot("X"), vs.param("M"))
    assert out.index == 1


def test_backward_integration_chiral_right_action():
    eq = get_equation("chiral")
    vs = eq.vs
    out = integrate_bt_symbolic(bt_step(eq, _seed(eq, "right-action"),
                                        "backward"))
    assert isinstance(out.body, JetExpr)
    assert out.body == vs.param("L") * eq.u()
    assert out.index == -1


def test_forward_integration_sdym_y_translation():
    eq = get_equation("sdym")
    vs = eq.vs
    out = integrate_bt_symbolic(bt_step(eq, _seed(eq, "y-translation"),
                                        "forward"))
    assert isinstance(out.body, JetExpr)
    assert out.body == eq.u() * vs.pot("X", "y")


def test_backward_integration_sdym_y_translation():
    eq = get_equation("sdym")
    vs = eq.vs
    out = integrate_bt_symbolic(bt_step(eq, _seed(eq, "y-translation"),
                                        "backward"))
    assert isinstance(out.body, JetExpr)
    assert out.body == vs.field("J", "zb")


def test_double_backward_gives_published_implicit_pair():
    eq = get_equation("chiral")
    vs = eq.vs
    g, gi, L = eq.u(), eq.u_inv(), vs.param("L")
    back1 = integrate_bt_symbolic(bt_step(eq, _seed(eq, "right-action"),
                                          "backward"))
    out = integrate_bt_symbolic(bt_step(eq, back1, "backward"))
    assert out.body == vs.pot("Z2") * g
    # Q = Z2 g turns Q_t - Q g^-1 g_t = g * D_x(g^-1 L g) and
    # Q_x - Q g^-1 g_x = -g * D_t(g^-1 L g) into the rules of Z2
    assert out.potentials == {"Z2": {
        "t": g * total_derivative(gi * L * g, "x") * gi,
        "x": -(g * total_derivative(gi * L * g, "t") * gi)}}


def test_closure_every_closed_form_is_again_a_symmetry():
    for name, prov in (("chiral", "right-action"), ("sdym", "y-translation"),
                       ("sdym", "right-action")):
        eq = get_equation(name)
        for direction in ("forward", "backward"):
            out = integrate_bt_symbolic(bt_step(eq, _seed(eq, prov), direction))
            if isinstance(out.body, JetExpr):
                assert verify_symmetry(eq, out).holds


# ---------------------------------------------------------------------------
# Hierarchies
# ---------------------------------------------------------------------------

def test_hierarchy_chiral_right_action():
    eq = get_equation("chiral")
    vs = eq.vs
    h = generate_hierarchy(eq, _seed(eq, "right-action"), -2, 1)
    assert sorted(h.charges) == [-2, -1, 0, 1]
    assert h.charges[1].body == eq.u() * comm(vs.pot("X"), vs.param("M"))
    assert h.charges[-1].body == vs.param("L") * eq.u()
    assert h.charges[-2].body == vs.pot("Z2") * eq.u()
    assert all(v == "holds" for v in h.verdicts.values())


def test_hierarchy_sdym_both_seeds():
    eq = get_equation("sdym")
    vs = eq.vs
    h = generate_hierarchy(eq, _seed(eq, "right-action"), -1, 1)
    assert h.charges[1].body == eq.u() * comm(vs.pot("X"), vs.param("M"))
    assert h.charges[-1].body == vs.param("L") * eq.u()
    h2 = generate_hierarchy(eq, _seed(eq, "y-translation"), -2, 1)
    assert h2.charges[1].body == eq.u() * vs.pot("X", "y")
    assert h2.charges[-1].body == vs.field("J", "zb")
    assert h2.charges[-2].body == vs.pot("Z2") * eq.u()


_LEVEL0_SEEDS = [(name, s.provenance) for name in ("chiral", "sdym")
                 for s in get_equation(name).seeds if s.index == 0]


@pytest.mark.parametrize("name,provenance", _LEVEL0_SEEDS,
                         ids=[f"{n}-{p}" for n, p in _LEVEL0_SEEDS])
def test_hierarchy_runs_both_ways_without_stopping(name, provenance):
    # the doubly infinite hierarchy: every level is a closed form that
    # verifies, tower potentials included
    eq = get_equation(name)
    h = generate_hierarchy(eq, _seed(eq, provenance), -4, 4)
    assert sorted(h.charges) == list(range(-4, 5))
    assert all(v == "holds" for v in h.verdicts.values())
    assert not any("stopped" in n for n in h.notes)
    for q in h.charges.values():
        assert isinstance(q.body, JetExpr)
        e = q.body
        assert sexpr.loads(sexpr.dumps(e), vs=eq.vs) == e
        for rules in q.potentials.values():
            for r in rules.values():
                assert sexpr.loads(sexpr.dumps(r), vs=eq.vs) == r


def test_flipped_tower_rule_fails_verification():
    eq = get_equation("chiral")
    q = generate_hierarchy(eq, _seed(eq, "right-action"), -2, 0).charges[-2]
    assert verify_symmetry(eq, q).holds
    rules = dict(q.potentials["Z2"])
    rules["t"] = -rules["t"]
    bad = dataclasses.replace(q, potentials={"Z2": rules})
    assert not verify_symmetry(eq, bad).holds


def test_degenerate_coordinate_seed_reported_not_failed():
    eq = get_equation("chiral")
    h = generate_hierarchy(eq, _seed(eq, "t-translation"), 0, 1)
    assert 1 in h.charges
    q = h.charges[1]
    assert q.degenerate
    assert h.verdicts[1] == "holds"
    assert any("degenerate" in n for n in h.notes)


def test_hierarchy_window_validation():
    eq = get_equation("chiral")
    with pytest.raises(ValueError):
        generate_hierarchy(eq, _seed(eq, "right-action"), 1, 2)
    bad_seed = Characteristic(1, _seed(eq, "right-action").body, "x")
    with pytest.raises(ValueError):
        generate_hierarchy(eq, bad_seed, -1, 1)


# ---------------------------------------------------------------------------
# Spectral assembly
# ---------------------------------------------------------------------------

def test_laurent_single_charge():
    eq = get_equation("chiral")
    q0 = _seed(eq, "right-action")
    s = laurent_assemble({0: q0}, 1)
    assert s.expr == q0.body
    assert s.window == (0, 0)


def test_laurent_three_charges_at_half():
    eq = get_equation("chiral")
    vs = eq.vs
    h = generate_hierarchy(eq, _seed(eq, "right-action"), -1, 1)
    s = laurent_assemble(h.charges, Fraction(1, 2))
    expected = (vs.param("L") * eq.u()).scale(2) \
        + eq.u() * vs.param("M") \
        + (eq.u() * comm(vs.pot("X"), vs.param("M"))).scale(Fraction(1, 2))
    assert s.expr == expected


def test_laurent_symbolic_keeps_powers():
    eq = get_equation("chiral")
    h = generate_hierarchy(eq, _seed(eq, "right-action"), -1, 1)
    s = laurent_assemble(h.charges, "symbolic")
    assert s.expr.lam_powers() == {-1, 0, 1}


def test_laurent_errors():
    eq = get_equation("chiral")
    q0 = _seed(eq, "right-action")
    with pytest.raises(ValueError):
        laurent_assemble({}, 1)
    with pytest.raises(ZeroLambda):
        laurent_assemble({0: q0}, 0)
    with pytest.raises(ValueError):
        laurent_assemble({0: q0, 2: q0}, 1)


# ---------------------------------------------------------------------------
# The linear pair
# ---------------------------------------------------------------------------

def test_lax_pair_matches_explicit_form():
    for name in ("chiral", "sdym"):
        eq = get_equation(name)
        vs = eq.vs
        lax = lax_pair(eq)
        s1, s2 = eq.slots
        w = eq.u_inv() * vs.field("psi")
        lam = vs.lam(1)
        e1 = total_derivative(w, s2.div_var) \
            - lam * covariant_derivative(w, eq, s1.name)
        e2 = total_derivative(w, s1.div_var) \
            + lam * covariant_derivative(w, eq, s2.name)
        assert lax.constraints == (e1, e2)


def test_lax_identities_vanish():
    for name in ("chiral", "sdym"):
        lax = lax_pair(get_equation(name))
        assert lax.cross_identity.is_zero
        assert lax.covariant_identity.is_zero
        assert lax.covariant_residue_on_shell.is_zero


def test_truncation_residues_boundary_only():
    for name, prov in (("chiral", "right-action"), ("sdym", "y-translation")):
        eq = get_equation(name)
        h = generate_hierarchy(eq, _seed(eq, prov), -1, 1)
        closed = {n: q for n, q in h.charges.items()
                  if isinstance(q.body, JetExpr)}
        residues = lax_truncation_residues(eq, closed)
        boundary = {-2, -1, 1, 2}
        surviving = set()
        for per_eq in residues:
            for p, r in per_eq.items():
                if not r.is_zero:
                    surviving.add(p)
        assert surviving, "truncation must leave boundary residues"
        assert surviving <= boundary
