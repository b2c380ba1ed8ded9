"""Spans and counters around the public functions of symlax's modules.

The tracer wraps functions from outside the package: it replaces each
target in its defining module and in every ``symlax`` module that imported
it by name, so ``src/`` stays untouched.  Spans are kept in memory as
``[name, start, end, parent]`` and written out once the run has ended; a
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time

import numpy as np

# (module, attribute, span name) for every traced module-level function
FUNCTIONS = [
    ("symlax.numerics", "sample_solution", "numerics.sample_solution"),
    ("symlax.numerics", "eval_on_grid", "numerics.eval_on_grid"),
    ("symlax.numerics", "fd_residual_field_equation",
     "numerics.fd_residual_field_equation"),
    ("symlax.numerics", "conservation_residual", "numerics.conservation_residual"),
    ("symlax.numerics", "compute_potential", "numerics.compute_potential"),
    ("symlax.numerics", "eval_characteristic", None),  # named per body kind
    ("symlax.numerics", "integrate_lax", "numerics.integrate_lax"),
    ("symlax.numerics", "convergence_order", "numerics.convergence_order"),
    ("symlax.recursion", "generate_hierarchy", "recursion.generate_hierarchy"),
    ("symlax.recursion", "lax_pair", "recursion.lax_pair"),
    ("symlax.recursion", "integrate_bt_symbolic", "recursion.integrate_bt_symbolic"),
    ("symlax.recursion", "lax_truncation_residues",
     "recursion.lax_truncation_residues"),
    ("symlax.equations", "verify_symmetry", "equations.verify_symmetry"),
    ("symlax.calculus", "reduce_mod_field_equation",
     "calculus.reduce_mod_field_equation"),
    ("symlax.expr", "rewrite", "expr.rewrite"),
]

CLAIM_KINDS = ("symbolic", "hierarchy", "numeric", "lax")

# span statistics reported per traced name
SPAN_METRICS = {
    "numerics.sample_solution": ("calls", "self_s"),
    "numerics.eval_on_grid": ("calls", "self_s"),
    "numerics.fd_residual_field_equation": ("self_s",),
    "numerics.conservation_residual": ("calls", "self_s"),
    "numerics.compute_potential": ("calls", "self_s"),
    "numerics.eval_characteristic.closed": ("calls", "self_s"),
    "numerics.eval_characteristic.implicit": ("calls", "self_s"),
    "numerics.GridEnv.derivative": ("calls", "self_s"),
    "numerics.integrate_lax": ("calls", "self_s"),
    "numerics.convergence_order": ("calls",),
    "recursion.generate_hierarchy": ("calls", "self_s"),
    "recursion.lax_pair": ("self_s",),
    "recursion.integrate_bt_symbolic": ("calls", "self_s"),
    "recursion.lax_truncation_residues": ("self_s",),
    "equations.verify_symmetry": ("calls", "self_s"),
    "calculus.reduce_mod_field_equation": ("calls", "self_s"),
    "expr.rewrite": ("calls", "self_s"),
}


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for kind in CLAIM_KINDS:
        units[f"cli.{kind}.wall_s"] = "s"
    units["cli.emit_s"] = "s"
    units["cli.self_s"] = "s"
    units["cli.numeric.rss_growth_mb"] = "MB"
    units["cli.lax.rss_growth_mb"] = "MB"
    for name, stats in SPAN_METRICS.items():
        for stat in stats:
            units[f"{name}.{stat}"] = "count" if stat == "calls" else "s"
    units["numerics.GridEnv.created"] = "count"
    units["numerics.GridEnv.hit_ratio"] = "fraction"
    units["numerics.returned_mb"] = "MB"
    units["expr.JetExpr.mul.calls"] = "count"
    units["trace.report_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def array_bytes(x, depth: int = 0) -> int:
    """Bytes of the arrays held by a returned value (arrays, grid fields and
    the small result records that hold them)."""
    if isinstance(x, np.ndarray):
        return x.nbytes
    if depth >= 2:
        return 0
    if isinstance(x, (tuple, list)):
        return sum(array_bytes(v, depth + 1) for v in x)
    d = getattr(x, "__dict__", None)
    if d:
        return sum(array_bytes(v, depth + 1) for v in d.values())
    return 0


def replace_everywhere(original, wrapped):
    """Put ``wrapped`` in place of ``original`` in every ``symlax`` module
    that holds it by name (its defining module and those that imported it)."""
    for mname, mod in list(sys.modules.items()):
        if mname == "symlax" or mname.startswith("symlax."):
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapped)


def observed(fn, observe):
    """``fn`` that also hands its arguments and result to ``observe``."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        observe(args, out)
        return out
    return wrapper


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.returned_bytes = 0
        self.mul_calls = 0
        self.env_created = 0
        self.lookups = 0
        self.hits = 0
        self.rss_growth_kb = {k: 0 for k in CLAIM_KINDS}
        self.observers: dict = {}   # span name -> callback(args, result)

    # -- spans ---------------------------------------------------------
    def wrap(self, fn, name=None, name_of=None, numeric=False):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nm = name if name_of is None else name_of(*args, **kwargs)
            rec = [nm, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if numeric:
                self.returned_bytes += array_bytes(out)
            obs = self.observers.get(nm)
            if obs is not None:
                obs(args, out)
            return out
        return traced

    def install(self):
        """Wrap every target; call after ``symlax`` has been imported."""
        from symlax import numerics
        from symlax.equations import ImplicitSystem
        from symlax.expr import JetExpr

        def eval_kind(q, *args, **kwargs):
            kind = "implicit" if isinstance(q.body, ImplicitSystem) else "closed"
            return f"numerics.eval_characteristic.{kind}"

        for modname, attr, name in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapped = self.wrap(original, name=name,
                                name_of=eval_kind if name is None else None,
                                numeric=modname == "symlax.numerics")
            replace_everywhere(original, wrapped)

        env_cls = numerics.GridEnv
        env_cls.derivative = self.wrap(env_cls.derivative,
                                       name="numerics.GridEnv.derivative",
                                       numeric=True)
        init, lookup = env_cls.__init__, env_cls.atom_values

        @functools.wraps(init)
        def env_init(env, *args, **kwargs):
            self.env_created += 1
            init(env, *args, **kwargs)

        @functools.wraps(lookup)
        def atom_values(env, a):
            # GridEnv answers from its cache exactly when the atom is in it
            self.lookups += 1
            self.hits += a in env._cache
            return lookup(env, a)

        env_cls.__init__ = env_init
        env_cls.atom_values = atom_values

        mul = JetExpr.__mul__

        @functools.wraps(mul)
        def counted_mul(a, b):
            self.mul_calls += 1
            return mul(a, b)
        JetExpr.__mul__ = counted_mul

    def wrap_claims(self, claims):
        """Give each claim a span named after its kind, and record how far
        the process's peak resident memory rose while it ran."""
        for c in claims:
            run = self.wrap(c.run, name=f"cli.{c.kind}")

            def measured(run=run, kind=c.kind):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                try:
                    return run()
                finally:
                    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    self.rss_growth_kb[kind] += after - before
            c.run = measured
        return claims

    def span(self, name, fn, *args):
        return self.wrap(fn, name=name)(*args)

    # -- results -------------------------------------------------------
    def aggregate(self) -> dict:
        """Per span name: calls, total seconds, self seconds."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        agg: dict = {}
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            a = agg.setdefault(name, {"calls": 0, "wall_s": 0.0, "self_s": 0.0})
            a["calls"] += 1
            a["wall_s"] += t1 - t0
            a["self_s"] += (t1 - t0) - child[i]
        return agg

    def metrics(self) -> dict:
        agg = self.aggregate()
        zero = {"calls": 0, "wall_s": 0.0, "self_s": 0.0}
        out = {}
        for kind in CLAIM_KINDS:
            out[f"cli.{kind}.wall_s"] = agg.get(f"cli.{kind}", zero)["wall_s"]
        out["cli.emit_s"] = agg.get("cli.emit", zero)["wall_s"]
        out["cli.self_s"] = sum(agg.get(f"cli.{k}", zero)["self_s"]
                                for k in CLAIM_KINDS)
        out["cli.numeric.rss_growth_mb"] = self.rss_growth_kb["numeric"] / 1024.0
        out["cli.lax.rss_growth_mb"] = self.rss_growth_kb["lax"] / 1024.0
        for name, stats in SPAN_METRICS.items():
            for stat in stats:
                out[f"{name}.{stat}"] = agg.get(name, zero)[stat]
        out["numerics.GridEnv.created"] = self.env_created
        out["numerics.GridEnv.hit_ratio"] = (self.hits / self.lookups
                                             if self.lookups else 0.0)
        out["numerics.returned_mb"] = self.returned_bytes / 2 ** 20
        out["expr.JetExpr.mul.calls"] = self.mul_calls
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, fh)
