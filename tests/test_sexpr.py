"""Serialization round trips and format stability."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from symlax import sexpr
from symlax.equations import field_equation_residual, get_equation
from symlax.errors import IoFailure
from symlax.expr import VarSpace

from conftest import VS2, norm_expr


def test_roundtrip_field_equation():
    eq = get_equation("chiral")
    F = field_equation_residual(eq)
    assert sexpr.loads(sexpr.dumps(F)) == F


def test_roundtrip_with_given_space():
    eq = get_equation("chiral")
    F = field_equation_residual(eq)
    assert sexpr.loads(sexpr.dumps(F), vs=eq.vs) == F


def test_roundtrip_zero():
    assert sexpr.loads(sexpr.dumps(VS2.zero())).is_zero


def test_roundtrip_all_atom_kinds():
    vs = VS2
    e = (vs.lam(-2) * vs.coord("x") * vs.coord("x") * vs.pot("X", "t")
         * vs.param("M") * vs.inv("g") * vs.field("g", "t", "x")
         - vs.dpot("X", "x").scale(3))
    assert sexpr.loads(sexpr.dumps(e)) == e


def test_serialization_deterministic():
    vs = VS2
    a = vs.param("M") + vs.param("L")
    b = vs.param("L") + vs.param("M")
    assert sexpr.dumps(a) == sexpr.dumps(b)


def test_space_mismatch_rejected():
    e = VS2.param("M")
    other = VarSpace(("y", "z"))
    with pytest.raises(IoFailure):
        sexpr.loads(sexpr.dumps(e), vs=other)


def test_malformed_rejected():
    for bad in ("", "(jet)", "(jet (vars t) (cap 6) (sum) extra)",
                "(jet (vars t) (cap 6) (sum (mon x 0 (coords) (factors))))"):
        with pytest.raises(IoFailure):
            sexpr.loads(bad)


def test_file_roundtrip(tmp_path):
    eq = get_equation("sdym")
    F = field_equation_residual(eq)
    p = tmp_path / "f.sexp"
    sexpr.dump(F, p)
    assert sexpr.load(p) == F


def test_unreadable_file_is_an_io_failure(tmp_path):
    # not UTF-8, missing, or a directory
    p = tmp_path / "f.sexp"
    p.write_bytes(sexpr.dumps(VS2.zero()).encode() + b"\xff\n")
    for path in (p, tmp_path / "missing.sexp", tmp_path):
        with pytest.raises(IoFailure, match="cannot read"):
            sexpr.load(path)


def test_unwritable_path_is_an_io_failure(tmp_path):
    for path in (tmp_path / "missing" / "f.sexp", tmp_path):
        with pytest.raises(IoFailure, match="cannot write"):
            sexpr.dump(VS2.zero(), path)


@settings(max_examples=100, deadline=None)
@given(norm_expr)
def test_roundtrip_random(e):
    assert sexpr.loads(sexpr.dumps(e)) == e


def _doc(mons="", vars_="t x", cap="6"):
    return f"(jet (vars {vars_}) (cap {cap}) (sum {mons}))"


def _mon(coef="1", lam="0", factors=""):
    return f"(mon {coef} {lam} (coords) (factors {factors}))"


@pytest.mark.parametrize("text", [
    _doc(_mon(coef="1/0")),
    _doc(vars_="t t"),
    _doc(cap="-1"),
    _doc(_mon(factors="(field g (o 7 0))")),
    _doc(_mon(factors="(pot X (o 3 4))")),
    _doc(_mon(coef="1e5")),
    _doc(_mon(coef="0.5")),
    _doc(_mon(coef="1_000")),
    _doc(_mon(coef="+1")),
    _doc(_mon(lam="+1")),
    _doc(_mon(lam="1_0")),
    _doc(cap="6.0"),
    _doc(_mon(factors="(field g (o -1 0))")),
    _doc(_mon(factors="(field g (o 0))")),
    _doc(_mon(factors="(blob g)")),
    _doc() + " (jet)",
    "(" * 100_000,
], ids=["zero-denominator", "repeated-variable", "negative-cap",
        "field-over-cap", "pot-over-cap", "coef-1e5", "coef-0.5",
        "coef-1_000", "coef-+1", "lam-+1", "lam-1_0", "cap-6.0",
        "negative-order", "short-multi-index", "unknown-atom",
        "trailing-document", "deep-open"])
def test_outside_the_grammar_is_io_failure(text):
    with pytest.raises(IoFailure):
        sexpr.loads(text)


def test_loads_returns_the_normal_form():
    e = sexpr.loads(_doc(_mon(factors="(field g (o 0 0)) (inv g)")))
    assert e == VS2.one()
    assert (e - VS2.one()).is_zero


_NUMBERS = ["0", "1", "-1", "2", "7", "1/2", "-3/4", "1/0", "1e5", "+1",
            "0.5"]
_TOKENS = ["(", ")", "jet", "vars", "cap", "sum", "mon", "coords", "factors",
           "field", "inv", "param", "pot", "dpot", "o", "t", "x", "g",
           "M"] + _NUMBERS
_token_soup = st.lists(st.sampled_from(_TOKENS), max_size=30).map(" ".join)
_ATOM_TEXTS = ["(field g (o 0 0))", "(field g (o 1 0))", "(inv g)",
               "(param M)", "(pot X (o 0 1))", "(dpot X (o 0 0))",
               "(field g (o 7 0))", "(pot X (o -1 0))", "(inv)", "g"]
_mon_soup = st.lists(st.builds(
    _mon, st.sampled_from(_NUMBERS), st.sampled_from(_NUMBERS),
    st.lists(st.sampled_from(_ATOM_TEXTS), max_size=4).map(" ".join)),
    max_size=3).map(" ".join)


@st.composite
def _mutated_dump(draw):
    """The tokens of a serialized expression with one token replaced,
    deleted or inserted."""
    toks = re.findall(r"\(|\)|[^\s()]+", sexpr.dumps(draw(norm_expr)))
    i = draw(st.integers(0, len(toks) - 1))
    tok = draw(st.sampled_from(_TOKENS))
    op = draw(st.sampled_from(["replace", "delete", "insert"]))
    toks[i:i + (op != "insert")] = [] if op == "delete" else [tok]
    return " ".join(toks)


def _rebuilt(mon, vs):
    """The monomials of the product of a monomial's parts."""
    coef, lam, coords, factors = mon
    out = vs.lam(lam).scale(coef)
    for c in coords:
        out = out * vs.coord(c)
    for a in factors:
        out = out * vs.atom(a)
    return out.mons


@settings(max_examples=400, deadline=None)
@given(st.one_of(_token_soup, _token_soup.map(_doc), _mon_soup.map(_doc),
                 _mutated_dump()))
def test_loads_is_typed_and_normal(text):
    """Any text either fails as IoFailure or loads in normal form."""
    try:
        e = sexpr.loads(text)
    except IoFailure:
        return
    for mon in e.mons:
        assert _rebuilt(mon, e.vs) == (mon,)
