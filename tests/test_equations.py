"""Equation registry, symmetry conditions, and verification verdicts."""

import pytest

from symlax.calculus import reduce_mod_field_equation, total_derivative
from symlax.equations import (
    Characteristic,
    equation_names,
    field_equation_residual,
    get_equation,
    symmetry_condition,
    symmetry_condition_covariant,
    verify_symmetry,
)
from symlax.errors import UnknownConnection


def test_registry():
    assert equation_names() == ["chiral", "sdym"]
    with pytest.raises(KeyError):
        get_equation("heat")


def test_unknown_connection_slot():
    eq = get_equation("chiral")
    with pytest.raises(UnknownConnection):
        eq.slot("y")


def test_chiral_residual_expansion():
    eq = get_equation("chiral")
    vs = eq.vs
    gi = vs.inv("g")
    expected = (gi * vs.field("g", "t", "t")
                - gi * vs.field("g", "t") * gi * vs.field("g", "t")
                + gi * vs.field("g", "x", "x")
                - gi * vs.field("g", "x") * gi * vs.field("g", "x"))
    assert field_equation_residual(eq) == expected


def test_sdym_residual_expansion():
    eq = get_equation("sdym")
    vs = eq.vs
    ji = vs.inv("J")
    expected = (ji * vs.field("J", "y", "yb")
                - ji * vs.field("J", "yb") * ji * vs.field("J", "y")
                + ji * vs.field("J", "z", "zb")
                - ji * vs.field("J", "zb") * ji * vs.field("J", "z"))
    assert field_equation_residual(eq) == expected


def test_residual_reduces_to_zero():
    for name in equation_names():
        eq = get_equation(name)
        assert reduce_mod_field_equation(field_equation_residual(eq), eq).is_zero


def test_divergence_components_rebuild_residual():
    for name in equation_names():
        eq = get_equation(name)
        out = eq.vs.zero()
        for v, comp in eq.divergence_components().items():
            out = out + total_derivative(comp, v)
        assert out == field_equation_residual(eq)


def test_seed_library_contents():
    chiral = {s.provenance for s in get_equation("chiral").seeds}
    assert chiral == {"right-action", "left-action", "t-translation",
                      "x-translation"}
    sdym = {s.provenance for s in get_equation("sdym").seeds}
    assert sdym == {"right-action", "y-translation", "z-translation",
                    "yb-translation", "zb-translation"}


def test_every_catalog_characteristic_verifies():
    for name in equation_names():
        eq = get_equation(name)
        for q in eq.catalog:
            v = verify_symmetry(eq, q)
            assert v.holds, f"{name}/{q.provenance}: {v.residue!r}"


def test_right_scaling_special_case():
    # right multiplication by the identity: Q = g itself
    eq = get_equation("chiral")
    assert verify_symmetry(eq, Characteristic(0, eq.u(), "scaling"))


def test_constant_is_not_a_symmetry():
    eq = get_equation("chiral")
    v = verify_symmetry(eq, eq.vs.param("M"))
    assert not v.holds
    assert v.residue is not None and not v.residue.is_zero


def test_random_smooth_expression_is_not_a_symmetry():
    eq = get_equation("chiral")
    vs = eq.vs
    q = vs.field("g", "t") * vs.inv("g") * vs.field("g", "t")
    v = verify_symmetry(eq, q)
    assert not v.holds


def test_symmetry_routes_agree():
    for name in equation_names():
        eq = get_equation(name)
        vs = eq.vs
        u = eq.u()
        candidates = [u * vs.param("M"),
                      vs.field(eq.field_name, vs.names[0]),
                      vs.param("L") * u,
                      u * vs.param("M") * vs.param("L")]
        for q in candidates:
            assert symmetry_condition(eq, q) \
                == symmetry_condition_covariant(eq, q)


def test_symmetry_condition_is_a_divergence():
    # S(Q; u) is literally a sum of total derivatives of the current pair
    from symlax.calculus import covariant_derivative
    for name in equation_names():
        eq = get_equation(name)
        q = eq.u() * eq.vs.param("M")
        w = eq.u_inv() * q
        out = eq.vs.zero()
        for s in eq.slots:
            out = out + total_derivative(
                covariant_derivative(w, eq, s.name), s.div_var)
        assert out == symmetry_condition(eq, q)
