"""Acceptance gate: one test per top-level claim of the package.

1. exact symbolic identity suite for both equations        (< 10 s)
2. recursion hierarchy reproduces the known closed forms   (< 10 s)
3. on-shell numeric suite with convergence order >= 1.8    (< 2 min)
4. off-shell negative controls (ratio >= 10^3, NonMonotone)
5. algebraic property tests, >= 200 random cases each
"""

import time

from hypothesis import given, settings, strategies as st

from symlax.calculus import FrechetContext, frechet_derivative, total_derivative
from symlax.cli import (
    all_claims,
    load_config,
    run_claims,
    symbolic_claims,
)
from symlax.equations import (
    get_equation,
)
from symlax.expr import JetExpr, comm, normalize
from symlax.recursion import generate_hierarchy

from conftest import VS2, eval_pair, norm_expr, raw_expr


def _assert_all_pass(records):
    bad = [r for r in records if not r["passed"] and not r["expected_fail"]]
    assert not bad, "failing claims:\n" + "\n".join(
        f"  {r['id']}: {r['detail']}" for r in bad)


def _grid_claims(cfg):
    """The numeric and Lax claims of the catalog, on one sampled ladder."""
    return [c for c in all_claims(cfg) if c.kind in ("numeric", "lax")]


def test_criterion_1_symbolic_identity_suite():
    start = time.monotonic()
    for eq_name in ("chiral", "sdym"):
        cfg = load_config(equation=eq_name)
        records = run_claims(symbolic_claims(cfg))
        _assert_all_pass(records)
        ids = {r["id"] for r in records}
        assert {"sym.solved-form-consistency", "sym.zero-curvature",
                "sym.operator-identity", "sym.lax-cross-identity",
                "sym.lax-on-shell"} <= ids
        # the full characteristic catalog is covered
        eq = get_equation(eq_name)
        for q in eq.catalog:
            assert f"sym.characteristic.{q.provenance}" in ids
    assert time.monotonic() - start < 10.0


def test_criterion_2_hierarchy_reproduction():
    start = time.monotonic()

    chiral = get_equation("chiral")
    vs = chiral.vs
    seed = next(s for s in chiral.seeds if s.provenance == "right-action")
    h = generate_hierarchy(chiral, seed, -2, 1)
    assert h.charges[1].body == chiral.u() * comm(vs.pot("X"),
                                                       vs.param("M"))
    assert h.charges[-1].body == vs.param("L") * chiral.u()
    assert h.charges[-2].body == vs.pot("Z2") * chiral.u()

    sdym = get_equation("sdym")
    svs = sdym.vs
    for prov, top, bottom in (
            ("right-action", sdym.u() * comm(svs.pot("X"), svs.param("M")),
             svs.param("L") * sdym.u()),
            ("y-translation", sdym.u() * svs.pot("X", "y"),
             svs.field("J", "zb"))):
        sseed = next(s for s in sdym.seeds if s.provenance == prov)
        sh = generate_hierarchy(sdym, sseed, -2, 1)
        assert sh.charges[1].body == top
        assert sh.charges[-1].body == bottom
        assert sh.charges[-2].body == svs.pot("Z2") * sdym.u()
        assert all(isinstance(sh.charges[n].body, JetExpr)
                   for n in (-1, 0, 1))

    assert time.monotonic() - start < 10.0


def test_criterion_3_numeric_on_shell_suite():
    start = time.monotonic()
    for eq_name in ("chiral", "sdym"):
        cfg = load_config(equation=eq_name)
        assert cfg.lambdas == (0.25, 0.5, 1.0, 2.0)
        assert cfg.counts[0] == {"chiral": 65, "sdym": 9}[eq_name]
        assert cfg.min_order == 1.8
        records = run_claims(_grid_claims(cfg))
        _assert_all_pass(records)
        assert any(r["id"] == "num.field-equation" for r in records)
        assert sum(r["id"].startswith("num.conservation.")
                   for r in records) >= 4
        assert sum(r["id"].startswith("lax.path-independence.")
                   for r in records) == 4
        assert sum(r["id"].startswith("lax.wavefunction-symmetry.")
                   for r in records) == 4
    assert time.monotonic() - start < 120.0


def test_criterion_4_negative_controls():
    cfg = load_config(family="perturbed-offshell", eps=0.1,
                      counts=(17, 33, 65))
    records = run_claims(_grid_claims(cfg))
    by_id = {r["id"]: r for r in records}
    # the off-shell field breaks conservation and Lax compatibility by
    # at least the configured factor (1000) at equal spacing
    assert cfg.offshell_factor == 1000.0
    assert by_id["neg.conservation-ratio"]["passed"]
    assert by_id["neg.lax-compatibility-ratio"]["passed"]
    assert by_id["neg.residual-nonconvergence"]["passed"]
    # convergence claims are marked expected-fail and do fail -- except the
    # left-action current, which is conserved unconditionally (it does not
    # need the field equation) and so keeps converging off-shell
    xfail = [r for r in records if r["expected_fail"]]
    assert xfail
    survivors = {r["id"] for r in xfail if r["passed"]}
    assert survivors <= {"num.conservation.left-action"}
    assert not by_id["num.field-equation"]["passed"]
    assert not by_id["num.conservation.right-action"]["passed"]
    # a failing ladder says why, path independence included
    for r in records:
        if r["id"].startswith("lax.path-independence."):
            assert not r["passed"]
            assert r["detail"].startswith("order "), r
            assert r["detail"].endswith(f" < required {cfg.min_order}"), r
    _assert_all_pass(records)


# --- criterion 5: each property at >= 200 random cases ---------------------

_N = 200


@settings(max_examples=_N, deadline=None)
@given(norm_expr)
def _prop_normalize_idempotent(e):
    assert JetExpr(e.vs, e.mons) == e
    assert normalize(e) == e


@settings(max_examples=_N, deadline=None)
@given(norm_expr, norm_expr, st.sampled_from(["t", "x"]))
def _prop_leibniz_total(a, b, v):
    assert total_derivative(a * b, v) \
        == total_derivative(a, v) * b + a * total_derivative(b, v)


_CTX = FrechetContext(vs=VS2, field_rules={"g": VS2.field("Qg"),
                                           "u": VS2.field("Qu")})


@settings(max_examples=_N, deadline=None)
@given(norm_expr, norm_expr)
def _prop_leibniz_frechet(a, b):
    assert frechet_derivative(a * b, _CTX) \
        == frechet_derivative(a, _CTX) * b + a * frechet_derivative(b, _CTX)


@settings(max_examples=_N, deadline=None)
@given(norm_expr, st.sampled_from(["t", "x"]))
def _prop_d_frechet_commute(e, v):
    assert total_derivative(frechet_derivative(e, _CTX), v) \
        == frechet_derivative(total_derivative(e, v), _CTX)


@settings(max_examples=_N, deadline=None)
@given(norm_expr)
def _prop_mixed_partials(e):
    assert total_derivative(total_derivative(e, "t"), "x") \
        == total_derivative(total_derivative(e, "x"), "t")


@settings(max_examples=_N, deadline=None)
@given(raw_expr, st.integers(min_value=0, max_value=10 ** 6))
def _prop_numeric_soundness(raw, seed):
    a, b = eval_pair(raw, seed)
    assert a == b


def test_criterion_5_algebraic_properties():
    _prop_normalize_idempotent()
    _prop_leibniz_total()
    _prop_leibniz_frechet()
    _prop_d_frechet_commute()
    _prop_mixed_partials()
    _prop_numeric_soundness()
