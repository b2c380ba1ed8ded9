"""Batch verification front-end.

Reads a plain-text config, runs the symbolic identity suite, hierarchy
generation, the numeric residual suite and the Lax-integration checks, and
emits deterministic machine-readable reports.  The claim catalog is data:
each claim record binds an id and a descriptive anchor to a symbolic and/or
numeric check, so reports are traceable line by line.

Configs are INI files with the sections ``[run]``, ``[grid]``,
``[tolerances]`` and ``[matrices]`` (README, "Configuration").  Every key is
optional: a key a file leaves out takes the ``RunConfig`` default, and the
equation supplies the default family, extent and grid counts.  A section,
key or matrix name the loader does not read is a ``ConfigInvalid``, as is a
value out of its range.

The claims of one run share one ``_RunContext``: it makes each product they
share (the sampled ladder, the hierarchies, the Lax integrations and the
on-shell twin of an off-shell run) once, on first use.

The environment variable SYMLAX_CONFIG_DIR names the directory searched for
a config given by bare name (and for ``symlax.ini`` when no config is
given).  Reports are written atomically; the structured (JSON) form is
byte-identical across runs of the same config.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import sys
import tempfile
import traceback
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass, field as dc_field, fields, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import click
import numpy as np

from . import sexpr
from .calculus import (
    covariant_derivative,
    frechet_derivative,
    reduce_mod_field_equation,
    total_derivative,
)
from .equations import (
    DEFAULT_EQUATION,
    Characteristic,
    EquationDef,
    equation_names,
    field_equation_residual,
    get_equation,
    symmetry_condition,
    symmetry_condition_covariant,
    verify_symmetry,
)
from .errors import ConfigInvalid, IoFailure, NonMonotone, SymlaxError
from .expr import comm
from .numerics import (
    ResidualStats,
    SolutionFamily,
    SolutionFields,
    characteristic_conservation,
    characteristic_trace,
    convergence_order,
    fd_residual_field_equation,
    integrate_lax,
    lax_elimination,
    potential_relations,
    rung_grid,
    sample_solution,
    scaled_margins,
)
from .recursion import (
    Hierarchy,
    generate_hierarchy,
    lax_pair,
    lax_truncation_residues,
)

CONFIG_DIR_ENV = "SYMLAX_CONFIG_DIR"
DEFAULT_CONFIG_NAME = "symlax.ini"

_DEFAULT_MATRICES = {
    "A": [[0.0, 1.0], [0.0, 0.0]],
    "B": [[0.0, 0.0], [1.0, 0.0]],
    "M": [[0.0, 1.0], [0.0, 0.0]],
    "L": [[0.0, 0.0], [1.0, 0.0]],
}

# largest field sample a config may ask for on its finest rung, in bytes;
# a run holds a few dozen arrays of that size at its peak
FIELD_BYTES_BUDGET = 2 ** 28

# every registered equation has a right-action seed at level 0
DEFAULT_SEED = "right-action"


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

def _is_int(v) -> bool:
    """Whether ``v`` is a Python integer and not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def _overflows_float(v) -> bool:
    """Whether ``v`` is an integer too large to convert to a float."""
    if isinstance(v, int):
        try:
            float(v)
        except OverflowError:
            return True
    return False


@dataclass
class RunConfig:
    equation: str = DEFAULT_EQUATION
    seed: str = DEFAULT_SEED
    window: Tuple[int, int] = (-2, 1)
    family: str = "exponential-product"
    lambdas: Tuple[float, ...] = (0.25, 0.5, 1.0, 2.0)
    origin: float = 0.0
    extent: float = 1.0
    counts: Tuple[int, ...] = (65, 129, 257)
    base_margin: int = 3
    min_order: float = 1.8
    zero_floor: float = 1e-9
    offshell_factor: float = 1000.0
    eps: float = 0.1
    matrices: Dict[str, np.ndarray] = dc_field(default_factory=lambda: {
        k: np.asarray(v, dtype=float) for k, v in _DEFAULT_MATRICES.items()})
    output: Optional[str] = None

    def validate(self) -> "RunConfig":
        if self.equation not in equation_names():
            raise ConfigInvalid(f"unknown equation {self.equation!r}")
        eq = get_equation(self.equation)
        if self.family not in eq.families:
            raise ConfigInvalid(
                f"family {self.family!r} cannot sample {self.equation}; "
                f"known: {list(eq.families)}")
        if not (isinstance(self.window, (tuple, list))
                and len(self.window) == 2 and all(map(_is_int, self.window))):
            raise ConfigInvalid(f"window must be two integers, "
                                f"got {self.window!r}")
        if not (self.window[0] <= 0 <= self.window[1]):
            raise ConfigInvalid("hierarchy window must contain 0")
        if not self.lambdas:
            raise ConfigInvalid("need at least one spectral value")
        reals = ("origin", "extent", "min_order", "zero_floor",
                 "offshell_factor", "eps")
        for name in ("lambdas",) + reals:
            value = getattr(self, name)
            values = value if name == "lambdas" else (value,)
            if any(np.iscomplexobj(v) for v in values):
                raise ConfigInvalid(f"{name} must be real, got {value!r}")
            if any(map(_overflows_float, values)):
                raise ConfigInvalid(
                    f"{name} holds an integer too large for a float")
        try:
            lax_elimination(eq, self.lambdas)
        except SymlaxError as exc:
            raise ConfigInvalid(f"spectral values {self.lambdas}: {exc}")
        tags = [f"{l:g}" for l in self.lambdas]
        if len(set(tags)) < len(tags):
            raise ConfigInvalid(
                f"spectral values {tags} repeat a claim tag")
        for name in reals:
            if not math.isfinite(getattr(self, name)):
                raise ConfigInvalid(f"{name} must be finite, "
                                    f"got {getattr(self, name)}")
        if self.extent <= 0:
            raise ConfigInvalid(f"extent must be positive, got {self.extent}")
        if not _is_int(self.base_margin):
            raise ConfigInvalid(f"base_margin must be an integer, "
                                f"got {self.base_margin!r}")
        if self.base_margin < 1:
            raise ConfigInvalid(f"base_margin must be >= 1, "
                                f"got {self.base_margin}")
        if self.zero_floor < 0:
            raise ConfigInvalid(f"zero_floor must be >= 0, "
                                f"got {self.zero_floor}")
        if len(self.counts) < 3:
            raise ConfigInvalid("need at least 3 grid counts for a ladder")
        if not all(map(_is_int, self.counts)):
            raise ConfigInvalid(f"counts must be integers, "
                                f"got {self.counts!r}")
        n0 = self.counts[0]
        for a, b in zip(self.counts, self.counts[1:]):
            if b != 2 * a - 1:
                raise ConfigInvalid(
                    f"grid counts must halve the spacing each step "
                    f"(n -> 2n-1); got {a} -> {b}")
        if n0 <= 2 * self.base_margin:
            raise ConfigInvalid("base margin leaves no interior points")
        names, known = set(self.matrices), set(_DEFAULT_MATRICES)
        if names != known:
            raise ConfigInvalid(
                f"parameter matrices must be {sorted(known)}; missing "
                f"{sorted(known - names)}, unknown {sorted(names - known)}")
        for name, m in self.matrices.items():
            m = np.asarray(m)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ConfigInvalid(f"matrix {name!r} is not square")
            if np.iscomplexobj(m):
                raise ConfigInvalid(f"matrix {name!r} must be real")
            if not np.all(np.isfinite(m)):
                raise ConfigInvalid(f"matrix {name!r} has a non-finite entry")
        dims = {np.asarray(m).shape[0] for m in self.matrices.values()}
        if len(dims) > 1:
            raise ConfigInvalid("parameter matrices must share one dimension")
        # one matrix per point of the sampled grid, entries of the
        # matrices' promoted dtype
        n = dims.pop() if dims else 1
        itemsize = np.result_type(
            float, *(np.asarray(m) for m in self.matrices.values())).itemsize
        finest = rung_grid(eq, self.origin,
                           self.extent / (self.counts[-1] - 1),
                           self.counts[-1]).counts
        nbytes = math.prod(finest) * n * n * itemsize
        if nbytes > FIELD_BYTES_BUDGET:
            raise ConfigInvalid(
                f"the finest grid ({' x '.join(map(str, finest))} points) "
                f"needs {nbytes} bytes per field sample, over the budget of "
                f"{FIELD_BYTES_BUDGET} bytes")
        if eq.traceless:
            for name in ("A", "B", "M", "L"):
                m = np.asarray(self.matrices[name])
                if abs(np.trace(m)) > 1e-12:
                    raise ConfigInvalid(
                        f"matrix {name!r} must be traceless for "
                        f"{self.equation}")
        return self

    def echo(self) -> dict:
        return {
            "equation": self.equation,
            "seed": self.seed,
            "window": list(self.window),
            "family": self.family,
            "lambdas": [_fmt(l) for l in self.lambdas],
            "origin": _fmt(self.origin),
            "extent": _fmt(self.extent),
            "counts": list(self.counts),
            "base_margin": self.base_margin,
            "min_order": _fmt(self.min_order),
            "zero_floor": _fmt(self.zero_floor),
            "offshell_factor": _fmt(self.offshell_factor),
            "eps": _fmt(self.eps),
            "matrices": {k: [[_fmt(float(x)) for x in row]
                             for row in np.asarray(v, dtype=float).tolist()]
                         for k, v in sorted(self.matrices.items())},
        }


def _parse_matrix(text: str) -> np.ndarray:
    try:
        rows = [[float(x) for x in row.split()]
                for row in text.split(";") if row.strip()]
    except ValueError:
        raise ConfigInvalid(f"bad matrix literal {text!r}")
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ConfigInvalid(f"ragged matrix literal {text!r}")
    return np.asarray(rows)


def resolve_config_path(name: Optional[str]) -> Optional[str]:
    """Resolve a config argument: explicit paths win; bare names (and the
    default name) are searched in $SYMLAX_CONFIG_DIR."""
    cfg_dir = os.environ.get(CONFIG_DIR_ENV)
    if name is None:
        if cfg_dir:
            cand = os.path.join(cfg_dir, DEFAULT_CONFIG_NAME)
            if os.path.exists(cand):
                return cand
        return None
    if os.path.sep in name or os.path.exists(name):
        return name
    if cfg_dir:
        cand = os.path.join(cfg_dir, name)
        if os.path.exists(cand):
            return cand
    return name


# the INI section of each RunConfig value a file sets, bar the equation and
# the matrices; a value parses as the type of its default
_SECTIONS = {"run": ("seed", "window", "family", "lambdas", "output"),
             "grid": ("origin", "extent", "counts", "base_margin"),
             "tolerances": ("min_order", "zero_floor", "offshell_factor",
                            "eps")}

# a key the loader accepts and ignores: the program no longer reads it, but
# bench/configs/*.ini still set it; it goes once those configs drop the key
_RETIRED_KEY = ("tolerances", "trace_tol")


def _check_names(cp: ConfigParser):
    """Reject a section, key or matrix name of ``cp`` that ``load_config``
    does not read, naming it."""
    known = {section: set(keys) for section, keys in _SECTIONS.items()}
    known["run"].add("equation")
    known[_RETIRED_KEY[0]].add(_RETIRED_KEY[1])
    # the parser lower-cases every key
    known["matrices"] = {name.lower() for name in _DEFAULT_MATRICES}
    if cp.defaults():
        raise ConfigInvalid("unknown config section [DEFAULT]")
    for section in cp.sections():
        if section not in known:
            raise ConfigInvalid(f"unknown config section [{section}]")
        for key in cp.options(section):
            if key not in known[section]:
                raise ConfigInvalid(f"unknown key {key!r} in [{section}]; "
                                    f"known: {sorted(known[section])}")


def _parse_value(text: str, default):
    """``text`` as a value of the type of ``default``: one element per word
    for a tuple, the text itself for a default of None."""
    try:
        if isinstance(default, tuple):
            return tuple(type(default[0])(x) for x in text.split())
        return text if default is None else type(default)(text)
    except ValueError as exc:
        raise ConfigInvalid(f"bad config value: {exc}")


def load_config(path: Optional[str] = None, **overrides) -> RunConfig:
    """Build a RunConfig from an INI file plus keyword overrides.  A key the
    file leaves out takes the RunConfig default, except the family, extent
    and counts, which default to the equation's own.  A section, key or
    matrix name the file sets and the loader does not read is a
    ConfigInvalid, as is an override that names no RunConfig field; an
    override of None leaves its field as the file sets it."""
    unknown = sorted(set(overrides) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise ConfigInvalid(f"unknown config override(s) {unknown}")
    cp = ConfigParser()
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cp.read_file(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigInvalid(f"cannot read config {path!r}: {exc}")
        except ConfigParserError as exc:
            raise ConfigInvalid(f"malformed config {path!r}: {exc}")
    _check_names(cp)

    equation = overrides.pop("equation", None) or \
        cp.get("run", "equation", fallback=RunConfig.equation)
    if equation not in equation_names():
        raise ConfigInvalid(f"unknown equation {equation!r}")
    eq = get_equation(equation)

    cfg = RunConfig(equation=equation, family=eq.families[0],
                    extent=eq.extent, counts=eq.counts)
    for section, keys in _SECTIONS.items():
        for key in keys:
            if cp.has_option(section, key):
                setattr(cfg, key, _parse_value(cp.get(section, key),
                                               getattr(cfg, key)))
    if cp.has_section("matrices"):
        for key, val in cp.items("matrices"):
            cfg.matrices[key.upper()] = _parse_matrix(val)

    for key, val in overrides.items():
        if val is not None:
            setattr(cfg, key, val)
    return cfg.validate()


# ---------------------------------------------------------------------------
# Claims and results
# ---------------------------------------------------------------------------

@dataclass
class ClaimResult:
    passed: bool
    symbolic: Optional[str] = None
    residuals: Optional[List[dict]] = None
    order: Optional[str] = None
    detail: str = ""


@dataclass
class Claim:
    id: str
    anchor: str
    kind: str                       # symbolic | hierarchy | numeric | lax
    run: Callable[[], ClaimResult]
    expected_fail: bool = False


def _fmt(x: float) -> str:
    return f"{float(x):.12e}"


def _stats_dict(r: ResidualStats) -> dict:
    return {"max": _fmt(r.max), "l2": _fmt(r.l2),
            "margin": r.margin, "h": _fmt(r.h)}


def _sym_result(e) -> ClaimResult:
    if e.is_zero:
        return ClaimResult(True, symbolic="zero")
    return ClaimResult(False, symbolic="nonzero",
                       detail=f"surviving residue: {e!r}")


def _order_result(vals: Sequence[float], stats: List[dict],
                  hs: Sequence[float], cfg: RunConfig) -> ClaimResult:
    """The verdict of a convergence ladder: its residuals ``vals`` at the
    spacings ``hs`` must vanish or converge at ``cfg.min_order``; ``stats``
    are the residual records the result carries."""
    try:
        est = convergence_order(vals, hs, zero_floor=cfg.zero_floor)
    except NonMonotone as exc:
        return ClaimResult(False, residuals=stats, order="non-monotone",
                           detail=str(exc))
    if est.exact:
        return ClaimResult(True, residuals=stats, order="exact")
    ok = est.order >= cfg.min_order
    return ClaimResult(ok, residuals=stats, order=_fmt(est.order),
                       detail="" if ok else
                       f"order {est.order:.3f} < required {cfg.min_order}")


# ---------------------------------------------------------------------------
# Symbolic claim catalog
# ---------------------------------------------------------------------------

def symbolic_claims(cfg: RunConfig) -> List[Claim]:
    eq = get_equation(cfg.equation)
    vs = eq.vs
    phi = vs.field("phi")
    s1, s2 = eq.slots
    claims: List[Claim] = []

    def add(cid, anchor, fn):
        claims.append(Claim(cid, anchor, "symbolic", fn))

    add("sym.solved-form-consistency",
        "the field equation reduces to zero modulo its own solved form",
        lambda: _sym_result(reduce_mod_field_equation(
            field_equation_residual(eq), eq)))

    def zero_curvature():
        c = (covariant_derivative(covariant_derivative(phi, eq, s2.name), eq, s1.name)
             - covariant_derivative(covariant_derivative(phi, eq, s1.name), eq, s2.name))
        return _sym_result(c)
    add("sym.zero-curvature",
        "the two covariant derivative operators commute identically "
        "(pure-gauge connections)", zero_curvature)

    def operator_identity():
        F = field_equation_residual(eq)
        lhs = vs.zero()
        for s in eq.slots:
            lhs = lhs + covariant_derivative(
                total_derivative(phi, s.div_var), eq, s.name)
            lhs = lhs - total_derivative(
                covariant_derivative(phi, eq, s.name), s.div_var)
        return _sym_result(lhs + comm(F, phi))
    add("sym.operator-identity",
        "covariant-then-plain and plain-then-covariant divergences differ "
        "exactly by the commutator with the field equation", operator_identity)

    def route_equivalence():
        q = eq.u() * vs.param("M")
        return _sym_result(symmetry_condition(eq, q)
                           - symmetry_condition_covariant(eq, q))
    add("sym.linearization-routes-agree",
        "linearizing the field equation along Q equals the covariant "
        "divergence of the transported characteristic", route_equivalence)

    def potential_cross():
        rules = eq.potential_rules[eq.potential_name]
        (v1, e1), (v2, e2) = sorted(rules.items())
        return _sym_result(reduce_mod_field_equation(
            total_derivative(e1, v2) - total_derivative(e2, v1), eq))
    add("sym.potential-cross-consistency",
        "the two defining relations of the nonlocal potential have equal "
        "cross-derivatives on-shell", potential_cross)

    def potential_frechet_cross():
        q = eq.u() * vs.param("M")
        ctx = eq.frechet_ctx(q)
        rules = eq.potential_rules[eq.potential_name]
        (v1, e1), (v2, e2) = sorted(rules.items())
        d = (total_derivative(frechet_derivative(e1, ctx), v2)
             - total_derivative(frechet_derivative(e2, ctx), v1))
        return _sym_result(reduce_mod_field_equation(d, eq, ctx=ctx))
    add("sym.potential-linearized-cross-consistency",
        "the linearized potential relations are cross-derivative consistent "
        "on-shell for a symmetry direction", potential_frechet_cross)

    for q in eq.catalog:
        def check(q=q):
            v = verify_symmetry(eq, q)
            if v.holds:
                return ClaimResult(True, symbolic="holds")
            return ClaimResult(False, symbolic="fails",
                               detail=f"residue: {v.residue!r}")
        add(f"sym.characteristic.{q.provenance}",
            f"the {q.provenance} characteristic satisfies the linearized "
            f"equation on-shell", check)

    lax = lax_pair(eq)
    add("sym.lax-cross-identity",
        "the cross-derivative of the linear pair equals the spectral scalar "
        "times the linearized equation of the wavefunction",
        lambda: _sym_result(lax.cross_identity))
    add("sym.lax-covariant-identity",
        "the covariant combination of the linear pair reduces to the "
        "commutator with the field equation",
        lambda: _sym_result(lax.covariant_identity))
    add("sym.lax-on-shell",
        "the integrability residue of the linear pair vanishes on-shell",
        lambda: _sym_result(lax.covariant_residue_on_shell))
    return claims


# ---------------------------------------------------------------------------
# Run context
# ---------------------------------------------------------------------------

def _seed_by_provenance(eq: EquationDef, name: str) -> Characteristic:
    """The named seed of the library, which must sit at level 0: the
    recursion runs in both directions from the seed's level."""
    for s in eq.seeds:
        if s.provenance == name:
            if s.index != 0:
                raise ConfigInvalid(
                    f"seed {name!r} sits at level {s.index}; a hierarchy "
                    f"seed must sit at level 0")
            return s
    known = [s.provenance for s in eq.seeds]
    raise ConfigInvalid(f"unknown seed {name!r}; known: {known}")


class _RunContext:
    """Every product the claims of one run share, each made once, on first
    use: the sampled ladder, the hierarchies, the Lax integrations and, for
    an off-shell run, its on-shell twin.  Rung i is kept as a
    ``SolutionFields``."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.eq = eq = get_equation(cfg.equation)
        self.params = {k: np.asarray(v)
                       for k, v in cfg.matrices.items() if k in ("M", "L")}
        self.offshell = cfg.family == "perturbed-offshell"
        self.family = SolutionFamily(cfg.family, cfg.matrices["A"],
                                     cfg.matrices["B"],
                                     cfg.eps if self.offshell else 0.0)
        self.grids = [rung_grid(eq, cfg.origin, cfg.extent / (n - 1), n)
                      for n in cfg.counts]
        self.margins = scaled_margins(cfg.counts, cfg.base_margin)
        self.hs = [max(g.spacings) for g in self.grids]
        self._rungs: Dict[int, SolutionFields] = {}
        self._hierarchies: Dict[Tuple[str, int, int], Hierarchy] = {}
        self._lax: Dict[Tuple[float, int], Tuple[float, ResidualStats]] = {}

    def rung(self, i: int) -> SolutionFields:
        if i not in self._rungs:
            u = sample_solution(self.family, self.grids[i])
            self._rungs[i] = SolutionFields(self.eq, u)
        return self._rungs[i]

    def hierarchy(self, seed: str, lo: int, hi: int) -> Hierarchy:
        """The hierarchy of levels lo..hi from the named level-0 seed."""
        key = (seed, lo, hi)
        if key not in self._hierarchies:
            self._hierarchies[key] = generate_hierarchy(
                self.eq, _seed_by_provenance(self.eq, seed), lo, hi)
        return self._hierarchies[key]

    def lax(self, lam: float, i: int) -> Tuple[float, ResidualStats]:
        """The compatibility residual of the Lax integration at spectral
        value ``lam`` on rung i, and the symmetry residual of its psi.
        Every spectral value of a rung is integrated in one march, at the
        first read of the rung, which first drops the rung's u^-1 and
        potential: the march and the residual read only the connections.
        Each integration is reduced to these two numbers as soon as it is
        made, and its arrays are released."""
        if (lam, i) not in self._lax:
            rung = self.rung(i)
            rung.drop_cache()
            lams = self.cfg.lambdas
            for l, lax in zip(lams, integrate_lax(rung, lams)):
                self._lax[(l, i)] = (lax.compat_residual,
                                     lax.symmetry_residual(self.margins[i]))
        return self._lax[(lam, i)]

    @functools.cached_property
    def twin(self) -> "_RunContext":
        """The unperturbed counterpart of the run, for the off-shell ratio
        claims, which read only its first spectral value."""
        return _RunContext(replace(
            self.cfg, family=self.eq.families[0],
            lambdas=self.cfg.lambdas[:1]))

    def conservation(self, q: Characteristic, i: int) -> ResidualStats:
        """Conservation residual of characteristic q on rung i."""
        return characteristic_conservation(self.rung(i), q, self.params,
                                           self.margins[i])

    def trace(self, q: Characteristic, i: int) -> ResidualStats:
        """Trace of the transport u^-1 q of characteristic q on rung i."""
        return characteristic_trace(self.rung(i), q, self.params,
                                    self.margins[i])


# ---------------------------------------------------------------------------
# Hierarchy claim catalog
# ---------------------------------------------------------------------------

def hierarchy_claims(ctx: _RunContext) -> List[Claim]:
    """The hierarchy claims, which share the context's hierarchy of the
    configured seed and window."""
    cfg, eq = ctx.cfg, ctx.eq
    _seed_by_provenance(eq, cfg.seed)  # a bad seed fails the build

    hierarchy = functools.partial(ctx.hierarchy, cfg.seed, *cfg.window)
    claims: List[Claim] = []

    def levels_verified():
        h = hierarchy()
        bad = {n: v for n, v in h.verdicts.items() if v != "holds"}
        if bad:
            return ClaimResult(False, detail=f"failing levels: {bad}")
        return ClaimResult(True, symbolic="holds",
                           detail=f"levels {sorted(h.charges)}")
    claims.append(Claim(
        "hier.levels-verified",
        "every generated hierarchy level passes its symmetry verification",
        "hierarchy", levels_verified))

    expected = {n: f for n, f in eq.expected_forms.get(cfg.seed, {}).items()
                if cfg.window[0] <= n <= cfg.window[1]}
    for level, form in sorted(expected.items()):
        def check(level=level, form=form):
            got = hierarchy().charges[level].body
            ok = got == form
            return ClaimResult(ok, symbolic="match" if ok else "mismatch",
                               detail="" if ok else
                               f"got {got!r}, expected {form!r}")
        claims.append(Claim(
            f"hier.level.{level}",
            f"recursion level {level} reproduces the known form exactly",
            "hierarchy", check))

    def truncation():
        h = hierarchy()
        residues = lax_truncation_residues(eq, h.charges)
        lo, hi = min(h.charges), max(h.charges)
        boundary = {lo - 1, hi, lo, hi + 1}
        for per_eq in residues:
            interior = {p: r for p, r in per_eq.items()
                        if not r.is_zero and p not in boundary}
            if interior:
                return ClaimResult(False,
                                   detail=f"interior spectral powers survive: "
                                          f"{sorted(interior)}")
        return ClaimResult(True, symbolic="boundary-only")
    claims.append(Claim(
        "hier.truncation-boundary",
        "substituting the truncated spectral sum into the linear pair leaves "
        "residues only at the boundary spectral powers",
        "hierarchy", truncation))
    return claims


# ---------------------------------------------------------------------------
# Numeric claim catalog
# ---------------------------------------------------------------------------

def _ladder_claim(ctx: _RunContext, cid: str, anchor: str, kind: str,
                  expected_fail: bool,
                  rung_stats: Callable[[int], ResidualStats]) -> Claim:
    """A claim that measures ``rung_stats(i)`` on every rung i of the
    ladder of ``ctx``, coarsest first, and judges the ladder by
    ``_order_result``."""
    def check() -> ClaimResult:
        stats = [rung_stats(i) for i in range(len(ctx.grids))]
        return _order_result([s.max for s in stats],
                             [_stats_dict(s) for s in stats], ctx.hs,
                             ctx.cfg)
    return Claim(cid, anchor, kind, check, expected_fail)


def numeric_claims(ctx: _RunContext) -> List[Claim]:
    eq, offshell = ctx.eq, ctx.offshell
    claims: List[Claim] = [_ladder_claim(
        ctx, "num.field-equation",
        "the finite-difference residual of the field equation converges at "
        "second order on the sampled solution",
        "numeric", offshell,
        lambda i: fd_residual_field_equation(ctx.rung(i), ctx.margins[i]))]

    for q in eq.catalog:
        claims.append(_ladder_claim(
            ctx, f"num.conservation.{q.provenance}",
            f"the conserved current of the {q.provenance} characteristic has "
            f"second-order divergence residual on the grid",
            "numeric", offshell,
            lambda i, q=q: ctx.conservation(q, i)))

    claims.append(_ladder_claim(
        ctx, "num.potential-defining-relations",
        "the integrated nonlocal potential satisfies both of its defining "
        "relations to second order",
        "numeric", offshell,
        lambda i: potential_relations(ctx.rung(i), ctx.margins[i])))

    # a backward level does not depend on the forward window, so a default
    # run reads the hierarchy the hier.* claims build
    def tower_charge() -> Characteristic:
        lo, hi = ctx.cfg.window
        return ctx.hierarchy(DEFAULT_SEED, min(lo, -2), hi).charges[-2]
    claims.append(_ladder_claim(
        ctx, "num.implicit-charge",
        "the characteristic two levels below the seed, in its "
        "path-integrated tower potential, is conserved to the expected "
        "order",
        "numeric", offshell,
        lambda i: ctx.conservation(tower_charge(), i)))

    if eq.traceless:
        def det_preserved() -> ClaimResult:
            u = ctx.rung(len(ctx.grids) - 1).u
            dev = float(np.abs(np.linalg.det(u.values) - 1.0).max())
            ok = dev <= 1e-10
            return ClaimResult(ok, detail=f"max |det - 1| = {dev:.3e}")
        claims.append(Claim(
            "num.determinant-preserved",
            "the sampled solution stays unimodular at every grid point",
            "numeric", det_preserved))

        for q in eq.catalog:
            claims.append(_ladder_claim(
                ctx, f"num.trace-constraint.{q.provenance}",
                f"the {q.provenance} characteristic keeps the transported "
                f"field traceless to the expected order",
                "numeric", False,
                lambda i, q=q: ctx.trace(q, i)))

    if offshell:
        claims.extend(_negative_control_claims(ctx))
    return claims


def _offshell_ratio(off: float, on: float) -> float:
    """off/on; infinite when only the on-shell residual is exactly zero."""
    if on > 0:
        return off / on
    return math.inf if off > 0 else 0.0


def _negative_control_claims(ctx: _RunContext) -> List[Claim]:
    cfg = ctx.cfg
    i = len(ctx.grids) - 1
    seed_q = _seed_by_provenance(ctx.eq, DEFAULT_SEED)

    def conservation_ratio() -> ClaimResult:
        twin = ctx.twin
        off = ctx.conservation(seed_q, i)
        on = twin.conservation(seed_q, i)
        ratio = _offshell_ratio(off.max, on.max)
        ok = ratio >= cfg.offshell_factor
        return ClaimResult(ok, residuals=[_stats_dict(off), _stats_dict(on)],
                           detail=f"off/on ratio = {ratio:.3e}")

    def lax_ratio() -> ClaimResult:
        lam = cfg.lambdas[0]
        off, _ = ctx.lax(lam, i)
        on, _ = ctx.twin.lax(lam, i)
        ratio = _offshell_ratio(off, on)
        ok = ratio >= cfg.offshell_factor
        return ClaimResult(ok, detail=f"off/on ratio = {ratio:.3e} "
                                      f"(off {off:.3e}, on {on:.3e})")

    def nonconvergence() -> ClaimResult:
        stats = [fd_residual_field_equation(ctx.rung(j), ctx.margins[j])
                 for j in range(len(ctx.grids))]
        vals = [s.max for s in stats]
        try:
            est = convergence_order(vals, ctx.hs, zero_floor=cfg.zero_floor)
        except NonMonotone:
            return ClaimResult(True, order="non-monotone",
                               residuals=[_stats_dict(s) for s in stats])
        ok = est.order < 0.5
        return ClaimResult(ok, order=_fmt(est.order),
                           residuals=[_stats_dict(s) for s in stats],
                           detail="" if ok else
                           "off-shell residual unexpectedly converges")

    return [
        Claim("neg.conservation-ratio",
              "off-shell conservation residuals exceed the on-shell ones by "
              "the configured factor at equal spacing",
              "numeric", conservation_ratio),
        Claim("neg.lax-compatibility-ratio",
              "off-shell wavefunction path-dependence exceeds the on-shell "
              "one by the configured factor at equal spacing",
              "numeric", lax_ratio),
        Claim("neg.residual-nonconvergence",
              "the off-shell field-equation residual does not converge "
              "(bounded below by the perturbation)",
              "numeric", nonconvergence),
    ]


# ---------------------------------------------------------------------------
# Lax claim catalog
# ---------------------------------------------------------------------------

def lax_claims(ctx: _RunContext) -> List[Claim]:
    """Each (lambda, rung) integration is read by the path-independence
    claim and the symmetry claim, as the two residuals it was reduced
    to."""
    claims: List[Claim] = []
    for lam in ctx.cfg.lambdas:
        tag = f"{lam:g}"

        def compat(lam=lam) -> ClaimResult:
            vals = [ctx.lax(lam, i)[0] for i in range(len(ctx.grids))]
            stats = [{"max": _fmt(v), "h": _fmt(h)}
                     for v, h in zip(vals, ctx.hs)]
            return _order_result(vals, stats, ctx.hs, ctx.cfg)
        claims.append(Claim(
            f"lax.path-independence.{tag}",
            f"the two staircase integrations of the wavefunction agree to "
            f"second order at spectral value {tag}",
            "lax", compat, expected_fail=ctx.offshell))

        # S(psi; u) is the conservation residual of psi, read on
        # phi = u^-1 psi
        claims.append(_ladder_claim(
            ctx, f"lax.wavefunction-symmetry.{tag}",
            f"the integrated wavefunction satisfies the linearized equation "
            f"to second order at spectral value {tag}",
            "lax", ctx.offshell,
            lambda i, lam=lam: ctx.lax(lam, i)[1]))
    return claims


# ---------------------------------------------------------------------------
# Execution and reports
# ---------------------------------------------------------------------------

def run_claims(claims: Sequence[Claim]) -> List[dict]:
    """Run each claim; an exception is recorded and never aborts the suite.
    A package error is an ordinary claim failure.  Any other exception marks
    the record ``"error": true``, with the innermost traceback frame in its
    detail."""
    records = []
    for c in claims:
        error = False
        try:
            res = c.run()
        except Exception as exc:
            detail = f"{type(exc).__name__}: {exc}"
            if not isinstance(exc, SymlaxError):
                error = True
                frame = traceback.extract_tb(exc.__traceback__)[-1]
                detail += (f" (at {os.path.basename(frame.filename)}:"
                           f"{frame.lineno} in {frame.name})")
            res = ClaimResult(False, detail=detail)
        rec = {
            "id": c.id,
            "anchor": c.anchor,
            "kind": c.kind,
            "expected_fail": c.expected_fail,
            "passed": res.passed,
            "detail": res.detail,
        }
        if res.symbolic is not None:
            rec["symbolic"] = res.symbolic
        if res.residuals is not None:
            rec["residuals"] = res.residuals
        if res.order is not None:
            rec["order"] = res.order
        if error:
            rec["error"] = True
        records.append(rec)
    return records


def build_report(cfg: RunConfig, records: List[dict]) -> dict:
    """The report of a run; a record marked as an error counts as failed
    even when its claim is expected to fail."""
    failed = [r for r in records if not r["passed"]
              and (not r["expected_fail"] or r.get("error"))]
    expected_failed = [r for r in records if not r["passed"]
                       and r["expected_fail"] and not r.get("error")]
    return {
        "format": "symlax-report 1",
        "config": cfg.echo(),
        "claims": records,
        "summary": {
            "total": len(records),
            "passed": sum(r["passed"] for r in records),
            "failed": len(failed),
            "expected_failures": len(expected_failed),
            "overall_pass": not failed,
        },
    }


def emit_report(report: dict, fmt: str = "structured") -> str:
    if fmt == "structured":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if fmt != "text":
        raise IoFailure(f"unknown report format {fmt!r}")
    lines = []
    cfg = report["config"]
    lines.append(f"equation: {cfg['equation']}   family: {cfg['family']}   "
                 f"seed: {cfg['seed']}")
    lines.append(f"{'claim':44s} {'kind':10s} {'verdict':10s} order")
    lines.append("-" * 78)
    for r in report["claims"]:
        verdict = ("pass" if r["passed"] else "ERROR" if r.get("error")
                   else "xfail" if r["expected_fail"] else "FAIL")
        lines.append(f"{r['id']:44s} {r['kind']:10s} {verdict:10s} "
                     f"{r.get('order', '-')}")
        if r["detail"]:
            lines.append(f"    {r['detail']}")
    s = report["summary"]
    lines.append("-" * 78)
    lines.append(f"total {s['total']}  passed {s['passed']}  "
                 f"failed {s['failed']}  expected-failures "
                 f"{s['expected_failures']}  overall "
                 f"{'PASS' if s['overall_pass'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def write_atomic(path: str, text: str):
    """Write ``text`` to a temporary file beside ``path``, then rename it
    over ``path``.  A failed write removes the temporary file; an OSError
    is raised as IoFailure."""
    d = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".symlax-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoFailure(f"cannot write {path!r}: {exc}")


def all_claims(cfg: RunConfig) -> List[Claim]:
    """The full catalog in report order: symbolic suite, hierarchy, numeric
    suite, Lax checks; all but the symbolic claims share one run context.
    Building it runs no claim."""
    ctx = _RunContext(cfg)
    return (symbolic_claims(cfg) + hierarchy_claims(ctx)
            + numeric_claims(ctx) + lax_claims(ctx))


def run(cfg: RunConfig) -> dict:
    """Full pipeline: every claim of the catalog, then the report."""
    return build_report(cfg, run_claims(all_claims(cfg)))


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def _finish(cfg: RunConfig, report: dict, fmt: str, output: Optional[str]):
    text = emit_report(report, fmt)
    dest = output or cfg.output
    if dest:
        write_atomic(dest, text)
        click.echo(f"report written to {dest}")
    else:
        click.echo(text, nl=False)
    if not report["summary"]["overall_pass"]:
        sys.exit(1)


_common = [
    click.option("--config", "config_path", default=None,
                 help="Config file (path, or bare name under "
                      "$SYMLAX_CONFIG_DIR)."),
    click.option("--equation", default=None,
                 type=click.Choice(equation_names()),
                 help="Equation registry name."),
    click.option("--output", default=None, help="Report output path."),
    click.option("--format", "fmt", default="structured",
                 type=click.Choice(["structured", "text"]),
                 help="Report serialization."),
]


def _with_common(f):
    for opt in reversed(_common):
        f = opt(f)
    return f


@contextlib.contextmanager
def _config_errors():
    """Turn a ConfigInvalid into a one-line CLI error, without a
    traceback."""
    try:
        yield
    except ConfigInvalid as exc:
        raise click.ClickException(str(exc))


def _load(config_path, equation, **kw) -> RunConfig:
    with _config_errors():
        return load_config(resolve_config_path(config_path),
                           equation=equation, **kw)


@click.group()
def main():
    """Symbolic and numeric verification of integrable-structure claims for
    matrix field equations in conservation-law form."""


@main.command("verify-symbolic")
@_with_common
def verify_symbolic_cmd(config_path, equation, output, fmt):
    """Run the exact symbolic identity suite."""
    cfg = _load(config_path, equation)
    report = build_report(cfg, run_claims(symbolic_claims(cfg)))
    _finish(cfg, report, fmt, output)


@main.command("gen-hierarchy")
@_with_common
@click.option("--window", nargs=2, type=int, default=None,
              help="Hierarchy window n_min n_max (must contain 0).")
@click.option("--seed", default=None, help="Seed provenance name.")
def gen_hierarchy_cmd(config_path, equation, output, fmt, window, seed):
    """Generate the recursion hierarchy and verify every level."""
    cfg = _load(config_path, equation,
                window=tuple(window) if window else None, seed=seed)
    ctx = _RunContext(cfg)
    with _config_errors():  # the seed must sit at level 0
        claims = hierarchy_claims(ctx)
    report = build_report(cfg, run_claims(claims))
    h = ctx.hierarchy(cfg.seed, *cfg.window)
    # attach the serialized closed forms, with the defining rules of the
    # tower potentials each one uses, as data
    levels = {}
    for n in sorted(h.charges):
        q = h.charges[n]
        levels[str(n)] = {"form": "closed",
                          "expr": sexpr.dumps(q.body),
                          "verdict": h.verdicts[n],
                          "degenerate": q.degenerate}
        if q.potentials:
            levels[str(n)]["potentials"] = {
                name: {v: sexpr.dumps(r) for v, r in rules.items()}
                for name, rules in q.potentials.items()}
    report["hierarchy"] = {"seed": cfg.seed, "levels": levels,
                           "notes": list(h.notes)}
    _finish(cfg, report, fmt, output)


@main.command("verify-numeric")
@_with_common
@click.option("--counts", default=None,
              help="Grid ladder override, e.g. '65 129 257'.")
def verify_numeric_cmd(config_path, equation, output, fmt, counts):
    """Run the grid residual suite on the configured solution family."""
    with _config_errors():
        counts = _parse_value(counts, RunConfig.counts) if counts else None
    cfg = _load(config_path, equation, counts=counts)
    report = build_report(cfg, run_claims(numeric_claims(_RunContext(cfg))))
    _finish(cfg, report, fmt, output)


@main.command("lax-check")
@_with_common
@click.option("--lam", "lambdas", multiple=True, type=float,
              help="Spectral value(s); repeatable.")
def lax_check_cmd(config_path, equation, output, fmt, lambdas):
    """Integrate the linear pair and check path independence and the
    wavefunction's symmetry residual over the grid ladder."""
    cfg = _load(config_path, equation,
                lambdas=tuple(lambdas) if lambdas else None)
    report = build_report(cfg, run_claims(lax_claims(_RunContext(cfg))))
    _finish(cfg, report, fmt, output)


@main.command("report")
@_with_common
def report_cmd(config_path, equation, output, fmt):
    """Run every suite and emit the combined report."""
    cfg = _load(config_path, equation)
    with _config_errors():  # the seed must sit at level 0
        report = run(cfg)
    _finish(cfg, report, fmt, output)


if __name__ == "__main__":
    main()
