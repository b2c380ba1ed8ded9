"""One ``symlax report`` in a fresh process.

Runs the report command's path through the public functions of
``symlax.cli`` (``load_config``, ``run``, ``emit_report``, ``write_atomic``)
and stamps the moment the claim catalog is built by hooking
``cli.run_claims``.  Every round records seeded sample points of every
sampled rung and, with ``--potential``, the potential's error against the
closed form; with ``--trace 1`` it also installs the tracer and writes the
spans out after the run.  It times a fixed speed probe five times right
after set-up, once before each claim and once after the report, so that
the runner can scale each part's CPU time to the machine's speed at that
moment.  It writes its timings (monotonic wall clock, process CPU time,
per-claim CPU time and probe times) and observations as JSON to
``--result``.

    python3 bench/worker.py --config C --report R --result J --trace 0|1 --seed N
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5


def make_probe(np):
    """A fixed mix of the report's kinds of work: Python-level steps,
    batched 2x2 products and an elementwise pass over 2 MB.  Returns a
    function that runs it once and gives its CPU seconds (about 0.03 s on
    the reference machine)."""
    rng = np.random.default_rng(0)
    small = rng.standard_normal((64, 64, 2, 2)) + 0j
    big = rng.standard_normal(1 << 17) + 0j

    def probe() -> float:
        t = time.process_time()
        s = 0.0
        for i in range(15):
            s += float((small @ small)[0, 0, 0, 0].real)
            s += float((big * 1.0001)[i].real)
        return time.process_time() - t
    return probe


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--potential", action="store_true",
                    help="record the potential's error against the closed form")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    from symlax import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"symlax imported from {cli.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    import numpy as np

    import checks
    import tracer as tracing
    tracer = None
    samples: list = []
    potential_errors: list = []

    def record_sample(call_args, gf):
        grid = gf.grid
        idx = checks.pick_points(grid.counts, args.seed, len(samples))
        vals = gf.values[tuple(idx.T)]
        coords = np.stack([ax.points()[idx[:, k]]
                           for k, ax in enumerate(grid.axes)], axis=1)
        samples.append({"counts": list(grid.counts),
                        "names": list(grid.names),
                        "coords": coords.tolist(),
                        "values": [[v.real.tolist(), v.imag.tolist()]
                                   for v in vals]})

    # the potentials are compared with the closed form after the report,
    # outside the timed span
    captured: list = []
    observers = {"numerics.sample_solution": record_sample}
    if args.potential:
        observers["numerics.compute_potential"] = \
            lambda call_args, res: captured.append(res.field)
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.observers.update(observers)
    else:
        from symlax import numerics
        for name, observe in observers.items():
            fn = getattr(numerics, name.split(".")[1])
            tracing.replace_everywhere(fn, tracing.observed(fn, observe))

    marks = {}
    run_claims = cli.run_claims
    claim_cpu: list = []
    probe_s: list = []
    probe_cpu = [0.0]     # all CPU time spent probing, set-up included
    probe = None

    def timed_probe():
        nonlocal probe
        t = time.process_time()
        if probe is None:
            probe = make_probe(np)
        probe_s.append(probe())
        probe_cpu[0] += time.process_time() - t

    def timed(run):
        def timed_run():
            timed_probe()
            t = time.process_time()
            try:
                return run()
            finally:
                claim_cpu.append(time.process_time() - t)
        return timed_run

    def stamped_run_claims(claims):
        marks["catalog"] = time.monotonic()
        marks["catalog_cpu"] = time.process_time()
        # the machine's speed just after set-up, for scaling the set-up
        for _ in range(SETUP_PROBES):
            timed_probe()
        marks["setup_probe_s"] = probe_s[:]
        probe_s.clear()
        if tracer is not None:
            claims = tracer.wrap_claims(claims)
        for c in claims:
            c.run = timed(c.run)
        return run_claims(claims)
    cli.run_claims = stamped_run_claims

    cfg = cli.load_config(args.config)
    report = cli.run(cfg)
    t_emit = time.monotonic()

    def emit():
        cli.write_atomic(args.report, cli.emit_report(report))
    if tracer is not None:
        tracer.span("cli.emit", emit)
    else:
        emit()
    t_end, cpu_end = time.monotonic(), time.process_time()
    inside_probe_cpu = probe_cpu[0]
    timed_probe()

    result = {**marks, "emit": t_emit, "end": t_end, "end_cpu": cpu_end,
              "probe_cpu": inside_probe_cpu, "claim_cpu": claim_cpu,
              "probe_s": probe_s,
              "samples": samples, "potential_errors": potential_errors}
    if captured:
        mats = checks.read_config(args.config)["matrices"]
        for field in captured:
            t, x = np.meshgrid(*(ax.points() for ax in field.grid.axes),
                               indexing="ij")
            ref = checks.potential_reference(t, x, mats["A"], mats["B"])
            potential_errors.append([field.grid.counts[0],
                                     float(np.abs(field.values - ref).max())])
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if args.spans:
            tracer.dump(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
