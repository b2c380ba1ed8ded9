"""Benchmark of ``symlax report``, end to end and per module.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round is one report in a fresh worker process (``bench/worker.py``),
one at a time.  An untraced run makes rounds for as long as the next one
should still end within ``--seconds`` (at least one), and reports the
medians of ``setup_s``, ``report_s`` and ``peak_rss_mb``.  The two times
are the worker's CPU seconds, each part scaled by the speed probe timed
next to it (see ``scaled_times``), so that they read the same whether the
shared host is busy or quiet.  A traced run
makes one traced round and reports the per-layer metrics.  It compares its
report bytes and ``report_s`` with the untraced rounds that this checkout
has made of the same workload from the same sources (saved under
``bench/out/<workload>/<source key>/``), and makes an untraced round first
when there are none yet.  Every round's structured report is checked
against references computed here (see ``checks.py``); the last line of
standard output is the JSON result.  The exit code is nonzero when any
check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEADLINE_S = 175.0
END_TO_END = {"setup_s": "s", "report_s": "s", "peak_rss_mb": "MB"}
# the speed probe's CPU seconds on the reference machine when it is quiet;
# times are reported as if every probe had taken this long
PROBE_REF_S = 0.030

WORKLOADS = {
    "chiral-report": {"config": "chiral-report.ini", "potential": True,
                      "known_failures": set()},
    "sdym-report": {"config": "sdym-report.ini", "potential": False,
                    "known_failures": set()},
    # Round-off growing like 1/h^2 crosses the absolute zero_floor of
    # numerics.convergence_order, so these two exact claims fail as
    # non-monotone on every run.
    "chiral-so3": {"config": "chiral-so3.ini", "potential": False,
                   "known_failures": {"num.conservation.t-translation",
                                      "num.conservation.x-translation"}},
}


class BenchError(Exception):
    pass


def source_key(cfg_path: Path) -> str:
    """A digest of everything a round's report and timings depend on: the
    symlax sources, the workload config and the benchmark's own code."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "symlax").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for f in files + [cfg_path]:
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def scaled_times(res: dict) -> tuple:
    """Set-up and report CPU seconds at the reference speed.  Each claim's
    CPU time is scaled by PROBE_REF_S over the mean of the probes taken
    just before and just after it; the set-up by the median of the probes
    taken right after it, and the rest of the report (building, emitting
    and writing it) by the last probe."""
    probes, claims = res["probe_s"], res["claim_cpu"]
    report = res["report_cpu_s"] - sum(claims)
    report /= probes[-1]
    for i, cpu in enumerate(claims):
        report += cpu / ((probes[i] + probes[i + 1]) / 2)
    return (PROBE_REF_S * res["setup_cpu_s"] / statistics.median(res["setup_probe_s"]),
            PROBE_REF_S * report)


def run_round(workload: str, spec: dict, trace: int, seed: int,
              deadline: float, kdir: Path) -> dict:
    """Run one report in a fresh process; returns its timings, peak RSS,
    report bytes and observations."""
    wdir = OUT / workload
    tag = "traced" if trace else "untraced"
    report = wdir / f"report-{tag}.json"
    result = wdir / f"result-{tag}.json"
    for p in (report, result):
        p.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--config", str(HERE / "configs" / spec["config"]),
           "--report", str(report), "--result", str(result),
           "--trace", str(trace), "--seed", str(seed)]
    if trace:
        cmd += ["--spans", str(kdir / f"spans-seed{seed}.json")]
    if spec["potential"]:
        cmd.append("--potential")
    # one BLAS thread: idle OpenBLAS workers spin and add CPU time that
    # varies from run to run, and the program's small matrices gain nothing
    # from more threads
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise BenchError(f"{workload}: round passed the {DEADLINE_S:.0f} s "
                             f"deadline")
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited with {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        res = json.load(fh)
    # CPU seconds of the worker (all threads); on a virtual machine they
    # leave out the time the hypervisor gives to other guests
    res["setup_cpu_s"] = res["catalog_cpu"]
    res["report_cpu_s"] = res["end_cpu"] - res["catalog_cpu"] - res["probe_cpu"]
    res["setup_s"], res["report_s"] = scaled_times(res)
    res["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    res["wall_s"] = time.monotonic() - t0
    res["setup_wall_s"] = res["catalog"] - t0
    res["report_wall_s"] = res["end"] - res["catalog"]
    res["report_bytes"] = report.read_bytes()
    res["traced"] = bool(trace)
    return res


def check_round(res: dict, workload: str, cfg: dict, kdir: Path) -> tuple:
    """Check one round's outputs; returns (problems, attempted, failed).
    The first untraced round of these sources that passes every check
    becomes the reference that later rounds must match byte for byte."""
    spec = WORKLOADS[workload]
    rep = json.loads(res["report_bytes"])
    problems = checks.check_report(rep, cfg)
    problems += checks.check_samples(res["samples"], cfg)
    problems += checks.self_test(rep, cfg, res["samples"])
    if spec["potential"]:
        problems += checks.check_potential(res["potential_errors"], cfg)
    failing = {r["id"] for r in rep["claims"]
               if not r["passed"] and not r["expected_fail"]}
    unexpected = failing - spec["known_failures"]
    if unexpected:
        problems.append(f"claims failed: {sorted(unexpected)}")
    ref = kdir / "reference-report.json"
    if ref.exists():
        if ref.read_bytes() != res["report_bytes"]:
            problems.append(f"structured report differs from {ref}")
    elif res["traced"]:
        problems.append("no untraced report of these sources to compare with")
    elif not problems:
        ref.write_bytes(res["report_bytes"])
    if not problems and not res["traced"]:
        timings = kdir / "untraced-report-s.json"
        history = json.loads(timings.read_text()) if timings.exists() else []
        timings.write_text(json.dumps(history + [res["report_s"]]))
    return problems, len(rep["claims"]), len(failing)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()
    deadline = start + DEADLINE_S

    if not (ROOT / "src" / "symlax" / "cli.py").is_file():
        print(f"no symlax sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    cfg_path = HERE / "configs" / spec["config"]
    cfg = checks.read_config(cfg_path)
    kdir = OUT / args.workload / source_key(cfg_path)
    kdir.mkdir(parents=True, exist_ok=True)
    timings = kdir / "untraced-report-s.json"

    rounds, problems = [], []
    attempted = failed = 0

    def round_(trace):
        nonlocal attempted, failed
        res = run_round(args.workload, spec, trace, args.seed, deadline, kdir)
        p, a, f = check_round(res, args.workload, cfg, kdir)
        rounds.append(res)
        problems.extend(p)
        attempted, failed = attempted + a, failed + f
        print(f"{'traced' if trace else 'untraced'} round: wall "
              f"{res['wall_s']:.2f} s (setup {res['setup_wall_s']:.2f} s, "
              f"report {res['report_wall_s']:.2f} s), CPU setup "
              f"{res['setup_cpu_s']:.3f} s, report {res['report_cpu_s']:.3f} s, "
              f"scaled setup {res['setup_s']:.3f} s, report "
              f"{res['report_s']:.3f} s", file=sys.stderr)

    try:
        if args.trace:
            if not timings.exists():
                # nothing saved from these sources yet: make the untraced
                # round to compare with, if the traced one still fits
                round_(0)
                if time.monotonic() + 1.1 * rounds[-1]["wall_s"] > deadline:
                    raise BenchError(
                        f"{args.workload}: no time left for the traced round "
                        f"after an untraced one; run --trace 0 first")
            round_(1)
        else:
            while True:
                round_(0)
                # stop before a round that would end past --seconds
                elapsed = time.monotonic() - start
                if elapsed + rounds[-1]["wall_s"] > min(args.seconds,
                                                        DEADLINE_S * 0.8):
                    break
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1

    if args.trace:
        res = rounds[-1]
        metrics = dict(res["layers"])
        metrics["trace.report_s"] = res["report_s"]
        history = json.loads(timings.read_text()) if timings.exists() else []
        if history:
            metrics["trace.overhead_s"] = res["report_s"] - statistics.median(history)
        else:
            problems.append("no untraced report_s of these sources saved")
            metrics["trace.overhead_s"] = 0.0
        out = {k: {"value": metrics[k], "unit": unit}
               for k, unit in tracer.metric_units().items()}
    else:
        out = {k: {"value": statistics.median(r[k] for r in rounds), "unit": unit}
               for k, unit in END_TO_END.items()}
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
