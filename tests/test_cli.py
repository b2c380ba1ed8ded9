"""Configuration loading, claim catalog, report emission, command line."""

import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import peak_field_sizes

import symlax
from symlax import sexpr
from symlax.cli import (
    CONFIG_DIR_ENV,
    DEFAULT_CONFIG_NAME,
    DEFAULT_SEED,
    FIELD_BYTES_BUDGET,
    Claim,
    ClaimResult,
    RunConfig,
    _DEFAULT_MATRICES,
    _RETIRED_KEY,
    _RunContext,
    _SECTIONS,
    _ladder_claim,
    _offshell_ratio,
    all_claims,
    build_report,
    emit_report,
    hierarchy_claims,
    lax_claims,
    load_config,
    main,
    numeric_claims,
    resolve_config_path,
    run,
    run_claims,
    symbolic_claims,
    write_atomic,
)
from symlax.equations import (
    Characteristic,
    equation_names,
    get_equation,
)
from symlax.errors import ConfigInvalid, IoFailure
from symlax import numerics
from symlax.numerics import (
    compute_potential,
    conservation_residual,
    eval_characteristic,
    integrate_lax,
    potential_relations,
)
from symlax.recursion import generate_hierarchy


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def test_defaults_per_equation():
    c = load_config()
    assert c.equation == "chiral"
    assert c.counts == (65, 129, 257)
    assert c.family == "exponential-product"
    s = load_config(equation="sdym")
    assert s.counts == (9, 17, 33)
    assert s.family == "lifted-chiral"
    assert s.extent == 0.5


@pytest.mark.parametrize("name", equation_names())
def test_empty_config_loads_dataclass_defaults(tmp_path, name):
    p = tmp_path / "empty.ini"
    p.write_text("")
    got = load_config(str(p), equation=name)
    # the equation supplies its family and ladder; RunConfig the rest
    eq = get_equation(name)
    want = RunConfig(equation=name, family=eq.families[0], extent=eq.extent,
                     counts=eq.counts)
    for f in dataclasses.fields(RunConfig):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "matrices":
            assert sorted(a) == sorted(b) == ["A", "B", "L", "M"]
            for k in a:
                assert a[k].dtype == b[k].dtype and np.array_equal(a[k], b[k])
        else:
            assert type(a) is type(b) and a == b, f.name
    assert load_config(str(p)).equation == RunConfig().equation


def test_config_file_parsing(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(
        "[run]\nequation = chiral\nseed = left-action\nwindow = -1 1\n"
        "lambdas = 0.5 2\n"
        "[grid]\ncounts = 9 17 33\nextent = 2.0\n"
        "[tolerances]\nmin_order = 1.5\n"
        "[matrices]\nM = 0 2; 0 0\n")
    c = load_config(str(p))
    assert c.seed == "left-action"
    assert c.window == (-1, 1)
    assert c.lambdas == (0.5, 2.0)
    assert c.counts == (9, 17, 33)
    assert c.extent == 2.0
    assert c.min_order == 1.5
    assert np.array_equal(c.matrices["M"], [[0.0, 2.0], [0.0, 0.0]])
    # untouched defaults survive
    assert np.array_equal(c.matrices["B"], [[0.0, 0.0], [1.0, 0.0]])


def test_overrides_beat_file(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[grid]\ncounts = 9 17 33\n")
    c = load_config(str(p), counts=(17, 33, 65))
    assert c.counts == (17, 33, 65)


@pytest.mark.parametrize("kw", [
    dict(lambdas=(0.0, 1.0)),
    dict(window=(1, 2)),
    dict(counts=(9, 18, 33)),
    dict(counts=(9, 17)),
    dict(base_margin=5, counts=(9, 17, 33)),
    dict(equation="sdym", family="perturbed-offshell"),
    # a family that cannot sample the equation, or no family at all
    dict(equation="sdym", family="exponential-product"),
    dict(family="lifted-chiral"),
    dict(family="exponential-prodcut"),
    # no spectral value, a non-finite one, or two that share a claim tag
    dict(lambdas=()),
    dict(lambdas=(float("nan"),)),
    dict(lambdas=(0.5, float("inf"))),
    dict(lambdas=(0.5, 0.5)),
    dict(lambdas=(0.1234567, 0.12345671)),
    # a grid without length or interior, or a value out of its range
    dict(extent=-1.0),
    dict(extent=0.0),
    dict(extent=float("nan")),
    dict(extent=float("inf")),
    dict(origin=float("nan")),
    dict(origin=float("-inf")),
    dict(base_margin=0),
    dict(min_order=float("nan")),
    dict(zero_floor=-1e-9),
    dict(offshell_factor=float("inf")),
    dict(eps=float("nan")),
    # a parameter matrix missing, or one the equations do not read
    dict(matrices={"A": np.eye(2), "X": np.eye(2)}),
    dict(matrices={k: np.asarray(v) for k, v in _DEFAULT_MATRICES.items()
                   if k != "L"}),
    dict(equation="sdym",
         matrices={k: np.asarray(v) for k, v in _DEFAULT_MATRICES.items()
                   if k != "M"}),
    dict(matrices=dict(_DEFAULT_MATRICES, C=np.eye(2))),
    # a spectral value whose square overflows
    dict(lambdas=(0.5, 1e200)),
    # an integer too large for a float
    dict(lambdas=(10 ** 400,)),
    dict(origin=10 ** 400),
    dict(extent=10 ** 400),
    dict(eps=10 ** 400),
    # a window, ladder or margin that is not made of integers
    dict(window=(0,)),
    dict(window=(-1, 0, 1)),
    dict(window=(-1.5, 1)),
    dict(counts=(17.0, 33.0, 65.0)),
    dict(base_margin=2.5),
    dict(base_margin=True),
    # a complex spectral value or parameter matrix: config values are real
    dict(lambdas=(0.5, 3j)),
    dict(matrices=dict(_DEFAULT_MATRICES,
                       M=np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))),
    # text where a number belongs, from a Python caller
    dict(eps="0.1"),
    dict(origin="0"),
    dict(lambdas=("0.5",)),
    dict(matrices=dict(_DEFAULT_MATRICES, M=[["0", "1"], ["0", "0"]])),
    # a number, or an array, where a tuple belongs
    dict(lambdas=0.5),
    dict(counts=65),
    dict(lambdas=np.array([0.5, 2.0])),
])
def test_invalid_configs_rejected(kw):
    with pytest.raises(ConfigInvalid):
        load_config(**kw)


@pytest.mark.parametrize("key,value", [
    ("window", (0,)), ("window", (-1, 0, 1)), ("window", (-1.5, 1)),
    ("window", (False, 1)), ("counts", (17.0, 33.0, 65.0)),
    ("base_margin", 2.5), ("base_margin", True)])
def test_non_integer_config_value_names_its_key(key, value):
    with pytest.raises(ConfigInvalid, match=key):
        load_config(**{key: value})


@pytest.mark.parametrize("key,value", [
    ("lambdas", (0.5, 3j)), ("eps", 0.1 + 0j),
    ("matrices", dict(_DEFAULT_MATRICES, L=np.eye(2) * 1j))])
def test_complex_config_value_names_its_key(key, value):
    # a complex value used to load, then fail untyped in the report's
    # config echo (or, in a matrix, lose its imaginary part there)
    with pytest.raises(ConfigInvalid, match="'L'" if key == "matrices"
                       else key):
        load_config(**{key: value})


@pytest.mark.parametrize("key,value", [
    ("eps", "0.1"), ("origin", "0"), ("lambdas", ("0.5",)),
    ("lambdas", (0.5, None)), ("min_order", [2.0]), ("lambdas", 0.5),
    ("counts", 65),
    ("matrices", dict(_DEFAULT_MATRICES, L=[["0", "0"], ["1", "0"]]))])
def test_non_numeric_config_value_names_its_key(key, value):
    # a Python caller's text, None, list or scalar in the wrong place is
    # a ConfigInvalid naming the key, not a TypeError or numpy's
    # UFuncTypeError from deep in validation
    with pytest.raises(ConfigInvalid, match="'L'" if key == "matrices"
                       else key):
        load_config(**{key: value})


def test_non_utf8_config_is_config_invalid(tmp_path):
    p = tmp_path / "run.ini"
    p.write_bytes(b"[run]\nseed = right-action\xff\n")
    with pytest.raises(ConfigInvalid, match="cannot read config"):
        load_config(str(p))


def test_cli_non_utf8_config_is_a_one_line_error(tmp_path):
    p = tmp_path / "run.ini"
    p.write_bytes(b"[run]\nseed = \xff\n")
    src = os.path.dirname(os.path.dirname(symlax.__file__))
    r = subprocess.run([sys.executable, "-m", "symlax.cli", "report",
                        "--config", str(p)],
                       env=dict(os.environ, PYTHONPATH=src),
                       capture_output=True, text=True)
    assert r.returncode != 0 and r.stdout == ""
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("Error: cannot read config")
    assert len(r.stderr.strip().splitlines()) == 1, r.stderr


@pytest.mark.parametrize("text,offender", [
    ("[tolerances]\nmin_ordr = 5\n", "'min_ordr' in [tolerances]"),
    ("[typo]\nmin_order = 5\n", "[typo]"),
    ("[run]\nmin_order = 5\n", "'min_order' in [run]"),
    ("[matrices]\nC = 0 1; 0 0\n", "'c' in [matrices]"),
    ("[DEFAULT]\nmin_order = 5\n", "[DEFAULT]"),
], ids=["key", "section", "key-in-wrong-section", "matrix", "default"])
def test_unknown_config_names_rejected(tmp_path, text, offender):
    p = tmp_path / "run.ini"
    p.write_text(text)
    with pytest.raises(ConfigInvalid) as info:
        load_config(str(p))
    assert offender in str(info.value)


def test_unknown_override_rejected():
    # a keyword override must name a RunConfig field
    with pytest.raises(ConfigInvalid, match="min_ordr"):
        load_config(min_ordr=5)
    with pytest.raises(ConfigInvalid, match="min_ordr"):
        load_config(min_ordr=None)
    assert load_config(min_order=2.5).min_order == 2.5


def test_retired_key_is_accepted_and_ignored(tmp_path):
    section, key = _RETIRED_KEY
    p = tmp_path / "run.ini"
    p.write_text(f"[{section}]\n{key} = 1e-8\n")
    assert load_config(str(p)).echo() == load_config().echo()


def test_sdym_requires_traceless_matrices():
    mats = {"A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0, 0.0], [1.0, 0.0]],
            "M": [[1.0, 0.0], [0.0, 1.0]], "L": [[0.0, 0.0], [1.0, 0.0]]}
    with pytest.raises(ConfigInvalid):
        load_config(equation="sdym", matrices=mats)


def test_bad_matrix_literal(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[matrices]\nM = 0 x; 0 0\n")
    with pytest.raises(ConfigInvalid):
        load_config(str(p))
    p.write_text("[matrices]\nM = 0 1 2; 0 0\n")
    with pytest.raises(ConfigInvalid):
        load_config(str(p))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_matrix_rejected(tmp_path, bad):
    p = tmp_path / "run.ini"
    p.write_text(f"[matrices]\nB = 0 0; {bad} 0\n")
    with pytest.raises(ConfigInvalid, match="'B' has a non-finite entry"):
        load_config(str(p))


def test_oversized_grid_rejected_before_allocation():
    # the budget judges the grid that is sampled: sdym's diagonal of
    # 2n - 1 points per pair, 4097^2 points of 2x2 float64 entries here
    with pytest.raises(ConfigInvalid) as info:
        load_config(equation="sdym", counts=(513, 1025, 2049))
    assert str(4097 ** 2 * 4 * 8) in str(info.value)
    assert 4097 ** 2 * 4 * 8 > FIELD_BYTES_BUDGET
    with pytest.raises(ConfigInvalid) as info:
        load_config(counts=(1025, 2049, 4097))
    assert str(4097 ** 2 * 4 * 8) in str(info.value)
    # sdym's 257-point ladder samples 513^2 points, not 257^4
    assert 513 ** 2 * 4 * 8 < FIELD_BYTES_BUDGET // 4
    load_config(equation="sdym", counts=(65, 129, 257))
    load_config(equation="sdym")


def test_unknown_equation():
    with pytest.raises(ConfigInvalid):
        load_config(equation="heat")


def test_readme_configuration_lists_every_key():
    # the ini block of README's "Configuration" names each key load_config
    # reads, in its section, and no other
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Configuration", 1)[1]
    block = block.split("```ini\n", 1)[1].split("```", 1)[0]
    listed, section = set(), None
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line.strip("[]")
        elif line:
            listed.add((section, line.split("=", 1)[0].strip()))
    read = ({("run", "equation")}
            | {(sec, key) for sec, keys in _SECTIONS.items() for key in keys}
            | {("matrices", name) for name in _DEFAULT_MATRICES})
    assert listed == read


def test_config_dir_resolution(tmp_path, monkeypatch):
    d = tmp_path / "cfgs"
    d.mkdir()
    (d / DEFAULT_CONFIG_NAME).write_text("[run]\nseed = left-action\n")
    (d / "other.ini").write_text("[run]\n")
    monkeypatch.setenv(CONFIG_DIR_ENV, str(d))
    assert resolve_config_path(None) == str(d / DEFAULT_CONFIG_NAME)
    assert resolve_config_path("other.ini") == str(d / "other.ini")
    # explicit paths win over the directory
    explicit = tmp_path / "mine.ini"
    explicit.write_text("[run]\n")
    assert resolve_config_path(str(explicit)) == str(explicit)
    monkeypatch.delenv(CONFIG_DIR_ENV)
    assert resolve_config_path(None) is None


# ---------------------------------------------------------------------------
# Claim catalog
# ---------------------------------------------------------------------------

def _ids(claims):
    return [c.id for c in claims]

def test_symbolic_catalog_contents():
    ids = _ids(symbolic_claims(load_config()))
    for expected in ("sym.zero-curvature", "sym.operator-identity",
                     "sym.linearization-routes-agree", "sym.lax-on-shell",
                     "sym.characteristic.right-action",
                     "sym.characteristic.left-action"):
        assert expected in ids
    sdym_ids = _ids(symbolic_claims(load_config(equation="sdym")))
    assert "sym.characteristic.potential-translation" in sdym_ids


def test_hierarchy_catalog_contents():
    ids = _ids(hierarchy_claims(_RunContext(load_config())))
    assert "hier.levels-verified" in ids
    for n in (-2, -1, 0, 1):
        assert f"hier.level.{n}" in ids
    assert "hier.truncation-boundary" in ids


def test_numeric_and_lax_catalogs_build():
    cfg = load_config(counts=(9, 17, 33))
    ids = _ids(numeric_claims(_RunContext(cfg)))
    assert "num.field-equation" in ids
    assert "num.conservation.right-action" in ids
    assert "num.potential-defining-relations" in ids
    lx = _ids(lax_claims(_RunContext(cfg)))
    assert any(i.startswith("lax.path-independence.") for i in lx)
    assert any(i.startswith("lax.wavefunction-symmetry.") for i in lx)


def test_negative_controls_marked_expected_fail():
    cfg = load_config(family="perturbed-offshell", counts=(9, 17, 33))
    claims = numeric_claims(_RunContext(cfg))
    ids = _ids(claims)
    assert "neg.conservation-ratio" in ids
    assert "neg.residual-nonconvergence" in ids
    assert any(c.expected_fail for c in claims)


_HIER_IDS = ["hier.levels-verified", "hier.level.-2", "hier.level.-1",
             "hier.level.0", "hier.level.1", "hier.truncation-boundary"]
_LAX_IDS = [f"lax.{kind}.{tag}" for tag in ("0.25", "0.5", "1", "2")
            for kind in ("path-independence", "wavefunction-symmetry")]
_CHIRAL_CATALOG = ["right-action", "left-action", "t-translation",
                   "x-translation", "potential-commutator"]
_SDYM_CATALOG = ["right-action", "y-translation", "z-translation",
                 "yb-translation", "zb-translation", "left-action",
                 "potential-commutator", "potential-translation"]


def _sym_ids(catalog):
    return (["sym.solved-form-consistency", "sym.zero-curvature",
             "sym.operator-identity", "sym.linearization-routes-agree",
             "sym.potential-cross-consistency",
             "sym.potential-linearized-cross-consistency"]
            + [f"sym.characteristic.{q}" for q in catalog]
            + ["sym.lax-cross-identity", "sym.lax-covariant-identity",
               "sym.lax-on-shell"])


_CHIRAL_NUM_IDS = (["num.field-equation"]
                   + [f"num.conservation.{q}" for q in _CHIRAL_CATALOG]
                   + ["num.potential-defining-relations",
                      "num.implicit-charge"])


@pytest.mark.parametrize("kw,size,expected", [
    (dict(), 36, _sym_ids(_CHIRAL_CATALOG) + _HIER_IDS + _CHIRAL_NUM_IDS
     + _LAX_IDS),
    (dict(equation="sdym"), 51,
     _sym_ids(_SDYM_CATALOG) + _HIER_IDS + ["num.field-equation"]
     + [f"num.conservation.{q}" for q in _SDYM_CATALOG]
     + ["num.potential-defining-relations", "num.implicit-charge",
        "num.determinant-preserved"]
     + [f"num.trace-constraint.{q}" for q in _SDYM_CATALOG] + _LAX_IDS),
    (dict(family="perturbed-offshell", eps=0.1, counts=(17, 33, 65)), 39,
     _sym_ids(_CHIRAL_CATALOG) + _HIER_IDS + _CHIRAL_NUM_IDS
     + ["neg.conservation-ratio", "neg.lax-compatibility-ratio",
        "neg.residual-nonconvergence"] + _LAX_IDS),
], ids=["chiral", "sdym", "offshell"])
def test_claim_catalog_is_frozen(kw, size, expected):
    # the full catalog, in report order, built without running a claim
    assert len(expected) == size
    assert _ids(all_claims(load_config(**kw))) == expected


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _symbolic_report(cfg=None):
    cfg = cfg or load_config()
    return build_report(cfg, run_claims(symbolic_claims(cfg)))


def test_report_deterministic():
    a = emit_report(_symbolic_report())
    b = emit_report(_symbolic_report())
    assert a == b
    json.loads(a)  # well-formed


def test_report_summary_counts():
    rep = _symbolic_report()
    s = rep["summary"]
    assert s["total"] == len(rep["claims"])
    assert s["passed"] == s["total"] and s["overall_pass"]
    assert s["failed"] == 0


def test_failed_claim_flips_overall():
    rep = _symbolic_report()
    records = rep["claims"] + [{
        "id": "made.up", "anchor": "x", "kind": "symbolic",
        "expected_fail": False, "passed": False, "detail": "boom"}]
    rep2 = build_report(load_config(), records)
    assert not rep2["summary"]["overall_pass"]
    assert rep2["summary"]["failed"] == 1
    # expected failures do not flip the verdict
    records[-1]["expected_fail"] = True
    rep3 = build_report(load_config(), records)
    assert rep3["summary"]["overall_pass"]


def test_text_format_renders_same_data():
    rep = _symbolic_report()
    text = emit_report(rep, "text")
    assert "overall PASS" in text
    for r in rep["claims"]:
        assert r["id"] in text
    with pytest.raises(IoFailure):
        emit_report(rep, "yaml")


def test_write_atomic(tmp_path):
    p = tmp_path / "out" / "r.json"
    p.parent.mkdir()
    write_atomic(str(p), "hello\n")
    assert p.read_text() == "hello\n"
    write_atomic(str(p), "world\n")
    assert p.read_text() == "world\n"
    assert [f for f in os.listdir(p.parent)] == ["r.json"]


def test_write_atomic_failure_leaves_no_temp_file(tmp_path):
    # the target is a directory, or the text cannot be encoded
    (tmp_path / "r.json").mkdir()
    with pytest.raises(IoFailure):
        write_atomic(str(tmp_path / "r.json"), "hello\n")
    with pytest.raises(UnicodeEncodeError):
        write_atomic(str(tmp_path / "s.json"), "\ud800")
    assert os.listdir(tmp_path) == ["r.json"]


def test_matrix_names_are_named_when_wrong():
    with pytest.raises(ConfigInvalid, match=r"missing \['B', 'L', 'M'\], "
                                            r"unknown \['X'\]"):
        load_config(matrices={"A": np.eye(2), "X": np.eye(2)})


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def test_cli_verify_symbolic():
    r = CliRunner().invoke(main, ["verify-symbolic"])
    assert r.exit_code == 0, r.output
    rep = json.loads(r.output)
    assert rep["summary"]["overall_pass"]


def test_cli_gen_hierarchy_attaches_levels():
    r = CliRunner().invoke(main, ["gen-hierarchy", "--window", "-1", "1"])
    assert r.exit_code == 0, r.output
    rep = json.loads(r.output)
    levels = rep["hierarchy"]["levels"]
    assert set(levels) == {"-1", "0", "1"}
    assert all(l["form"] == "closed" for l in levels.values())


def test_cli_gen_hierarchy_writes_tower_rules():
    r = CliRunner().invoke(main, ["gen-hierarchy"])
    assert r.exit_code == 0, r.output
    levels = json.loads(r.output)["hierarchy"]["levels"]
    eq = get_equation("chiral")
    q = generate_hierarchy(eq, eq.seeds[0], -2, 1).charges[-2]
    got = levels["-2"]
    assert got["verdict"] == "holds"
    assert sexpr.loads(got["expr"], vs=eq.vs) == q.body
    assert {name: {v: sexpr.loads(t, vs=eq.vs) for v, t in rules.items()}
            for name, rules in got["potentials"].items()} == q.potentials
    assert not any("potentials" in levels[n] for n in ("-1", "0", "1"))


def test_cli_gen_hierarchy_generates_once(monkeypatch):
    import symlax.cli as cli
    calls = []
    generate = cli.generate_hierarchy

    def counting(*args, **kwargs):
        calls.append(args)
        return generate(*args, **kwargs)

    monkeypatch.setattr(cli, "generate_hierarchy", counting)
    # the hier.* claims and num.implicit-charge share one hierarchy
    for command in ("gen-hierarchy", "report"):
        calls.clear()
        r = CliRunner().invoke(main, [command])
        assert r.exit_code == 0, r.output
        assert len(calls) == 1, command


def test_offshell_run_integrates_each_rung_and_value_once(monkeypatch):
    # the negative controls and the lax.* claims share one integration of
    # each (rung, spectral value)
    import symlax.cli as cli
    marched = []
    integrate = cli.integrate_lax

    def recording(rung, lams, *args, **kwargs):
        marched.extend((rung, lam) for lam in lams)
        return integrate(rung, lams, *args, **kwargs)

    monkeypatch.setattr(cli, "integrate_lax", recording)
    cfg = load_config(family="perturbed-offshell", eps=0.1,
                      counts=(17, 33, 65))
    report = run(cfg)
    assert report["summary"]["overall_pass"]
    pairs = [(id(rung), lam) for rung, lam in marched]
    assert len(set(pairs)) == len(pairs)
    # three off-shell rungs with every value, one on-shell rung with one
    assert len(pairs) == 3 * len(cfg.lambdas) + 1


def test_run_integrates_each_rung_potential_once(monkeypatch):
    import symlax.numerics as numerics
    calls = []
    compute = numerics.compute_potential

    def counting(fields, *args, **kwargs):
        calls.append(fields)
        return compute(fields, *args, **kwargs)

    monkeypatch.setattr(numerics, "compute_potential", counting)
    cfg = load_config(equation="chiral")
    report = run(cfg)
    assert report["summary"]["overall_pass"]
    assert len(calls) == len(cfg.counts) == 3
    assert len({id(f) for f in calls}) == 3


_OFFSHELL = dict(family="perturbed-offshell", counts=(17, 33, 65))


@pytest.mark.parametrize("kw,sampled,integrated", [
    (dict(), [65, 129, 257], [65, 129, 257]),
    # sdym samples 2n - 1 points per diagonal axis
    (dict(equation="sdym"), [17, 33, 65], [17, 33, 65]),
    # the off-shell potential fails on the coarsest rung, so no reader
    # asks for it again; the twin samples the finest rung only
    (_OFFSHELL, [17, 33, 65, 65], [17]),
], ids=["chiral", "sdym", "offshell"])
def test_a_run_samples_each_rung_once_and_one_at_a_time(
        monkeypatch, kw, sampled, integrated):
    import symlax.cli as cli
    sampled_counts, samples, potentials = [], [], []
    sample = cli.sample_solution
    compute = numerics.compute_potential

    def sampling(family, grid):
        # every earlier rung, its u and all that was made from it, is gone
        # by the time the next one is sampled
        assert all(ref() is None for ref in samples), \
            f"a rung outlives its pass: {sampled_counts}"
        sampled_counts.append(grid.counts[0])
        u = sample(family, grid)
        samples.append(weakref.ref(u.values))
        return u

    def integrating(fields):
        potentials.append(fields.grid.counts[0])
        return compute(fields)
    monkeypatch.setattr(cli, "sample_solution", sampling)
    monkeypatch.setattr(numerics, "compute_potential", integrating)
    # without the cyclic collector, only references keep a rung alive
    gc.disable()
    try:
        run(load_config(**kw))
    finally:
        gc.enable()
    assert sampled_counts == sampled
    assert potentials == integrated


@pytest.mark.parametrize("target,ids", [
    ("fd_residual_field_equation", ["num.field-equation"]),
    ("integrate_lax", _LAX_IDS),
], ids=["field-reader", "lax-reader"])
def test_a_reader_raising_on_a_rung_fails_only_its_claims(
        monkeypatch, target, ids):
    # a reader that raises on rung 1 makes the record of an unexpected
    # exception, with the frame where it arose, and reads no later rung;
    # every other claim's record is unchanged
    import symlax.cli as cli
    cfg = load_config(counts=(17, 33, 65))
    want = run(cfg)["claims"]
    original, rungs = getattr(cli, target), []

    def raising(rung, *args):
        rungs.append(len(rung.connections[0]))
        if rungs[-1] == 33:
            return 1 / 0
        return original(rung, *args)
    monkeypatch.setattr(cli, target, raising)
    got = run(cfg)["claims"]
    line = raising.__code__.co_firstlineno + 3
    detail = (f"ZeroDivisionError: division by zero "
              f"(at test_cli.py:{line} in raising)")
    assert [r["id"] for r in got] == [r["id"] for r in want]
    for rec, before in zip(got, want):
        if rec["id"] in ids:
            assert rec == {k: before[k] for k in
                           ("id", "anchor", "kind", "expected_fail")} | {
                "passed": False, "detail": detail, "error": True}
        else:
            assert rec == before
    # a raising march is attempted again by each claim that reads it, as
    # when each claim read its own rungs
    assert rungs == [17] + [33] * len(ids)


def test_cli_output_file(tmp_path):
    dest = tmp_path / "report.json"
    r = CliRunner().invoke(main, ["verify-symbolic", "--output", str(dest)])
    assert r.exit_code == 0, r.output
    assert json.loads(dest.read_text())["summary"]["overall_pass"]


def test_cli_bad_config_is_an_error(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[run]\nlambdas = 0\n")
    r = CliRunner().invoke(main, ["verify-symbolic", "--config", str(p)])
    assert r.exit_code != 0


def test_cli_bad_counts_is_an_error():
    r = CliRunner().invoke(main, ["verify-numeric", "--counts", "9 x 33"])
    assert r.exit_code != 0
    assert isinstance(r.exception, SystemExit), r.exception
    assert "Error: bad config value" in r.output


def test_cli_exit_nonzero_on_failed_claim(tmp_path):
    # an unattainable order threshold makes the numeric order claims fail
    p = tmp_path / "strict.ini"
    p.write_text("[grid]\ncounts = 9 17 33\n"
                 "[tolerances]\nmin_order = 10\n")
    r = CliRunner().invoke(main, ["verify-numeric", "--config", str(p)])
    assert r.exit_code == 1
    rep = json.loads(r.output)
    assert not rep["summary"]["overall_pass"]


def test_cli_rejects_seed_off_level_zero():
    # the chiral left-action characteristic sits at level -1
    r = CliRunner().invoke(main, ["gen-hierarchy", "--equation", "chiral",
                                  "--seed", "left-action"])
    assert r.exit_code != 0
    assert not isinstance(r.exception, ValueError), r.exception
    assert "level 0" in r.output
    with pytest.raises(ConfigInvalid):
        hierarchy_claims(_RunContext(load_config(seed="left-action")))


def test_cli_seed_off_level_zero_only_stops_hierarchy_commands(tmp_path):
    # the symbolic suite never reads the seed, so a config naming an
    # off-level seed still runs it; the commands that build the hierarchy
    # stop with the config error
    p = tmp_path / "run.ini"
    p.write_text("[run]\nequation = chiral\nseed = left-action\n")
    r = CliRunner().invoke(main, ["verify-symbolic", "--config", str(p)])
    assert r.exit_code == 0, r.output
    r = CliRunner().invoke(main, ["report", "--config", str(p)])
    assert r.exit_code != 0
    assert not isinstance(r.exception, ValueError), r.exception
    assert "level 0" in r.output


def _trace_records(cfg):
    return run_claims([c for c in numeric_claims(_RunContext(cfg))
                       if c.id.startswith("num.trace-constraint.")])


def test_sdym_trace_claims_are_exact_on_the_default_ladder():
    records = _trace_records(load_config(equation="sdym"))
    assert [r["id"] for r in records] == [
        f"num.trace-constraint.{q}" for q in _SDYM_CATALOG]
    assert all(r["passed"] and r["order"] == "exact" for r in records)


def test_sdym_trace_claims_pass_on_the_rotation_pair():
    # the trace vanishes in exact arithmetic; on the grid its truncation
    # error must converge (potential-translation's falls at third order)
    mats = dict(_DEFAULT_MATRICES, A=[[0.0, -1.0], [1.0, 0.0]],
                B=[[0.3, 0.8], [-0.5, -0.3]])
    cfg = load_config(equation="sdym",
                      matrices={k: np.asarray(v) for k, v in mats.items()})
    records = _trace_records(cfg)
    assert len(records) == 8
    assert all(r["passed"] for r in records), [
        (r["id"], r["detail"]) for r in records if not r["passed"]]


def test_trace_ladder_fails_a_characteristic_with_trace():
    # Q = J gives tr(J^-1 Q) = 2 on every rung: the ladder cannot pass it
    ctx = _RunContext(load_config(equation="sdym"))
    q = Characteristic(0, ctx.eq.u(), "identity")
    claim = _ladder_claim(ctx, "num.trace-constraint.identity", "tr 2",
                          "numeric", False,
                          ctx.reader(lambda rung, i: ctx.trace(q, rung, i)))
    rec, = run_claims([claim])
    assert not rec["passed"] and rec["order"] == "non-monotone"
    assert [float(s["max"]) for s in rec["residuals"]] == \
        pytest.approx([2.0] * 3)


_ROTATION = {"A": [[0.0, -1.0], [1.0, 0.0]], "B": [[0.3, 0.8], [-0.5, -0.3]]}


@pytest.mark.parametrize("equation,counts", [
    ("chiral", (17, 33, 65)), ("sdym", (9, 17, 33))])
def test_lax_residual_on_phi_is_the_residual_of_psi(equation, counts):
    # ctx.march reads the residual of psi = u phi on phi = u^-1 psi; it
    # is the residual of psi itself up to the round-off of u^-1 (u phi)
    mats = dict(_DEFAULT_MATRICES, **_ROTATION)
    ctx = _RunContext(load_config(
        equation=equation, counts=counts,
        matrices={k: np.asarray(v) for k, v in mats.items()}))
    for i in range(len(counts)):
        rung = ctx.sample(i)
        want = [conservation_residual(rung, lax.psi, ctx.margins[i])
                for lax in integrate_lax(rung, ctx.cfg.lambdas)]
        marched = ctx.march(rung, i)
        for lam, w in zip(ctx.cfg.lambdas, want):
            got = marched[lam][1]
            assert w.max > 1e-8
            assert got.max == pytest.approx(w.max, rel=1e-5)
            assert got.l2 == pytest.approx(w.l2, rel=1e-5)
            assert (got.margin, got.h) == (w.margin, w.h)


SO3_MATRICES = {k: np.asarray(v, dtype=float) for k, v in {
    "A": [[0, -1, 0], [1, 0, 0], [0, 0, 0]],
    "B": [[0, 0, 0.5], [0, 0, -0.3], [-0.5, 0.3, 0]],
    "M": [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
    "L": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]}.items()}


def _so3_context(i=0):
    """A chiral-so3 run context (3 x 3 rotation generators) and its rung i
    (65^2 for 0, 257^2 for 2), which holds u^-1, its connections and its
    potential, as after the field readers of a report's pass.  A Lax march
    on a 9-point rung runs first, so that no module the march imports on
    first use (numpy.random, some 600 kB) counts toward a measured peak."""
    warm = _RunContext(load_config(matrices=SO3_MATRICES, counts=(9, 17, 33)))
    warm.march(warm.sample(0), 0)
    ctx = _RunContext(load_config(matrices=SO3_MATRICES))
    rung = ctx.sample(i)
    assert rung.u.grid.counts == ((65, 65), (129, 129), (257, 257))[i]
    rung.inverse, rung.connections, rung.potential
    return ctx, rung


# On the 65^2 rung a block of 32 rows is half the grid; on the 257^2 rung
# it is an eighth, so there the bounds show what the blocks save.

def test_lax_phase_peak_is_bounded():
    # four wavefunctions and the blocks of the divergence of one, with no
    # psi, no u^-1 psi and no u^-1 beside them
    ctx, rung = _so3_context()
    assert peak_field_sizes(lambda: ctx.march(rung, 0),
                            rung.u.values.nbytes) <= 7.0


def test_tower_characteristic_peak_is_bounded():
    # level -2 integrates tower potentials; each rule's derivatives are
    # freed before the next rule is evaluated
    ctx, rung = _so3_context()
    q = ctx.hierarchy(DEFAULT_SEED, -2, 1).charges[-2]
    assert peak_field_sizes(lambda: eval_characteristic(q, rung, ctx.params),
                            rung.u.values.nbytes) <= 5.5


def test_context_conservation_peak_is_bounded():
    # the characteristic is evaluated and transported on each block's
    # halo, and the divergence is reduced one block of rows at a time
    ctx, rung = _so3_context()
    seed = next(s for s in ctx.eq.seeds if s.provenance == DEFAULT_SEED)
    assert peak_field_sizes(lambda: ctx.conservation(seed, rung, 0),
                            rung.u.values.nbytes) <= 3.5


def test_tower_charge_conservation_peak_is_bounded():
    # level -2's tower potentials, and the blocks of its sample, its
    # transport and its divergence
    ctx, rung = _so3_context()
    q = ctx.hierarchy(DEFAULT_SEED, -2, 1).charges[-2]
    assert peak_field_sizes(lambda: ctx.conservation(q, rung, 0),
                            rung.u.values.nbytes) <= 4.5


def test_potential_relations_peak_is_bounded():
    # each relation reads X_v and the rule by blocks of rows, and adds a
    # connection where the rule is minus it; the potentials are made
    # beforehand
    ctx = _RunContext(load_config(matrices=SO3_MATRICES, counts=(17, 33, 65)))
    rungs = [ctx.sample(i) for i in range(3)]
    for rung in rungs:
        rung.potential
    assert peak_field_sizes(
        lambda: [potential_relations(rung, margin)
                 for rung, margin in zip(rungs, ctx.margins)],
        rungs[2].u.values.nbytes) <= 1.5


def test_finest_rung_peaks_are_bounded():
    # the 257^2 rung: four wavefunctions and divergence blocks in the Lax
    # phase; the tower potentials beside blocks of the sample's rows and
    # of its divergence; the potential beside blocks of its integrands
    # and of the compared path; the seed's conservation in blocks only
    ctx, rung = _so3_context(2)
    nbytes = rung.u.values.nbytes
    q = ctx.hierarchy(DEFAULT_SEED, -2, 1).charges[-2]
    seed = next(s for s in ctx.eq.seeds if s.provenance == DEFAULT_SEED)
    peaks = {
        "tower characteristic": peak_field_sizes(
            lambda: eval_characteristic(q, rung, ctx.params), nbytes),
        "compute_potential": peak_field_sizes(
            lambda: compute_potential(rung), nbytes),
        "conservation": peak_field_sizes(
            lambda: ctx.conservation(seed, rung, 2), nbytes),
        "tower conservation": peak_field_sizes(
            lambda: ctx.conservation(q, rung, 2), nbytes),
        # last: the march releases the rung to its connections
        "lax": peak_field_sizes(lambda: ctx.march(rung, 2), nbytes),
    }
    bounds = {"tower characteristic": 2.5, "compute_potential": 1.6,
              "conservation": 1.0, "tower conservation": 2.0, "lax": 5.0}
    assert all(peaks[k] <= bounds[k] for k in bounds), peaks


def test_every_residual_is_reduced_in_blocks(monkeypatch):
    # the numeric and Lax claims of a chiral-so3 ladder hand their
    # statistics blocks of at most BLOCK_ROWS rows, never a whole-grid
    # residual
    sizes = []
    reduce_rows = numerics.reduce_rows

    def recorded(rows, *args):
        def recording(r0, r1):
            block = rows(r0, r1)
            sizes.append(len(block))
            return block
        return reduce_rows(recording, *args)
    monkeypatch.setattr(numerics, "reduce_rows", recorded)
    ctx = _RunContext(load_config(matrices=SO3_MATRICES, counts=(33, 65, 129)))
    records = run_claims(numeric_claims(ctx) + lax_claims(ctx))
    assert not any(r.get("error") for r in records)
    assert len(sizes) > 50 and max(sizes) == numerics.BLOCK_ROWS == 32


def test_whole_run_peak_is_bounded():
    # the numeric and Lax claims of a chiral-so3 ladder read one rung at a
    # time: the peak is the finest rung's u, u^-1, connections and
    # potential beside its largest reader (level -2's tower potentials),
    # with no coarser rung still held (9.15 finest field sizes when every
    # rung was kept until its march)
    warm = _RunContext(load_config(matrices=SO3_MATRICES, counts=(9, 17, 33)))
    run_claims(numeric_claims(warm) + lax_claims(warm))
    ctx = _RunContext(load_config(matrices=SO3_MATRICES, counts=(33, 65, 129)))
    ctx.hierarchy(DEFAULT_SEED, -2, 1)
    nbytes = 129 * 129 * 3 * 3 * 8
    assert peak_field_sizes(
        lambda: run_claims(numeric_claims(ctx) + lax_claims(ctx)),
        nbytes) <= 8.0


def test_offshell_ratio_with_zero_on_shell_residual():
    assert _offshell_ratio(3.0, 1.5) == 2.0
    assert _offshell_ratio(1e-12, 0.0) == math.inf
    assert _offshell_ratio(0.0, 0.0) == 0.0


def test_unexpected_exception_is_an_error_record():
    def divide():
        return ClaimResult(1 / 0 > 0)

    def bad_config():
        raise ConfigInvalid("no such seed")

    def ok():
        return ClaimResult(True)

    claims = [Claim("c.zero", "a", "numeric", divide),
              Claim("c.config", "b", "numeric", bad_config),
              Claim("c.ok", "c", "numeric", ok)]
    records = run_claims(claims)
    zero, config, good = records
    assert zero["error"] is True and not zero["passed"]
    assert zero["detail"].startswith("ZeroDivisionError: division by zero")
    assert "in divide)" in zero["detail"]
    assert "test_cli.py:" in zero["detail"]
    # a package error is an ordinary claim failure, without the error key
    assert "error" not in config and not config["passed"]
    assert config["detail"] == "ConfigInvalid: no such seed"
    assert set(good) == {"id", "anchor", "kind", "expected_fail", "passed",
                         "detail"}
    # an error fails the run even where the claim is expected to fail
    claims = [Claim("c.zero", "a", "numeric", divide, expected_fail=True),
              Claim("c.config", "b", "numeric", bad_config,
                    expected_fail=True)]
    s = build_report(load_config(), run_claims(claims))["summary"]
    assert (s["failed"], s["expected_failures"]) == (1, 1)
    assert not s["overall_pass"]
    text = emit_report(build_report(load_config(), records), "text")
    assert "ERROR" in text


def test_cli_import_leaves_out_scipy():
    # the package runs on numpy alone; scipy is a test reference only
    src = os.path.dirname(os.path.dirname(symlax.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, symlax.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_import_leaves_out_scipy_integrate():
    # scipy.integrate pulls in scipy.special, scipy.optimize and
    # scipy.sparse: a large share of start-up time and memory
    src = os.path.dirname(os.path.dirname(symlax.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, symlax.cli; "
            "print('scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
