"""Output checks, with references computed apart from symlax.

Every function returns a list of problems; an empty list means the output
passed.  Nothing here imports symlax.
"""

from __future__ import annotations

import configparser
import math

import numpy as np

SAMPLE_POINTS = 32       # seeded check points per sampled rung
SAMPLE_TOL = 1e-12       # closed-form exponential against the sample
ORDER_TOL = 1e-9         # re-fitted against reported convergence order
POTENTIAL_MIN_ORDER = 1.9


# ---------------------------------------------------------------------------
# Workload configs
# ---------------------------------------------------------------------------

def read_config(path) -> dict:
    """The parts of a workload config the checks need."""
    cp = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        cp.read_file(fh)
    mats = {k.upper(): np.array([[float(x) for x in row.split()]
                                 for row in v.split(";") if row.strip()])
            for k, v in cp.items("matrices")}
    return {
        "extent": float(cp.get("grid", "extent")),
        "counts": [int(x) for x in cp.get("grid", "counts").split()],
        "zero_floor": float(cp.get("tolerances", "zero_floor")),
        "min_order": float(cp.get("tolerances", "min_order")),
        "matrices": mats,
    }


# ---------------------------------------------------------------------------
# Closed-form references
# ---------------------------------------------------------------------------

def expm_reference(M: np.ndarray) -> np.ndarray:
    """exp(M) in closed form: I + M when M squares to zero, Rodrigues'
    formula for a real skew-symmetric 3x3 M."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    eye = np.eye(n)
    if not np.any(M @ M):
        return eye + M
    if n == 3 and np.array_equal(M, -M.T):
        theta = math.sqrt(M[2, 1] ** 2 + M[0, 2] ** 2 + M[1, 0] ** 2)
        return (eye + (math.sin(theta) / theta) * M
                + ((1.0 - math.cos(theta)) / theta ** 2) * (M @ M))
    raise ValueError("no closed-form exponential for this matrix")


def solution_reference(names, coords, A, B) -> np.ndarray:
    """g = exp(tA) exp(xB) at one point; the sdym lift J(y, z, yb, zb)
    samples g at t = y + yb, x = z + zb."""
    at = dict(zip(names, coords))
    if "t" in at:
        t, x = at["t"], at["x"]
    else:
        t, x = at["y"] + at["yb"], at["z"] + at["zb"]
    return expm_reference(t * A) @ expm_reference(x * B)


def potential_reference(t, x, A, B) -> np.ndarray:
    """X = -tB + xA + (x^2/2)[A, B] - (x^3/3) BAB, the chiral potential of
    exp(tA) exp(xB) for the nilpotent default pair, on a (t, x) mesh."""
    t = np.asarray(t)[..., None, None]
    x = np.asarray(x)[..., None, None]
    return (-t * B + x * A + (x ** 2 / 2) * (A @ B - B @ A)
            - (x ** 3 / 3) * (B @ A @ B))


def pick_points(counts, seed: int, rung: int):
    """Seeded grid indices, one row per check point."""
    rng = np.random.default_rng([seed, rung])
    return np.stack([rng.integers(0, n, SAMPLE_POINTS) for n in counts], axis=1)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def loglog_order(residuals, hs) -> float:
    """Least-squares slope of log(residual) against log(h)."""
    x = np.log(np.asarray(hs, dtype=float))
    y = np.log(np.maximum(np.asarray(residuals, dtype=float), 1e-300))
    xm, ym = x.mean(), y.mean()
    return float(((x - xm) * (y - ym)).sum() / ((x - xm) ** 2).sum())


def check_report(report: dict, cfg: dict) -> list:
    """Re-derive every convergence verdict of a structured report from its
    own residuals and spacings, and check the ladder spacings and summary."""
    problems = []
    expected_hs = [cfg["extent"] / (n - 1) for n in cfg["counts"]]
    for rec in report["claims"]:
        cid, order = rec["id"], rec.get("order")
        if order is None or cid.startswith("neg."):
            continue
        res = rec.get("residuals") or []
        hs = [float(r["h"]) for r in res]
        vals = [float(r["max"]) for r in res]
        if len(hs) != len(expected_hs) or not np.allclose(hs, expected_hs,
                                                          rtol=1e-12, atol=0):
            problems.append(f"{cid}: spacings {hs} are not the ladder "
                            f"{expected_hs}")
            continue
        decreasing = all(b < a for a, b in zip(vals, vals[1:]))
        if order == "exact":
            if not all(v < cfg["zero_floor"] for v in vals) or not rec["passed"]:
                problems.append(f"{cid}: 'exact' with residuals {vals}")
        elif order == "non-monotone":
            if decreasing or rec["passed"]:
                problems.append(f"{cid}: 'non-monotone' with residuals {vals}")
        else:
            fit = loglog_order(vals, hs)
            if not decreasing or abs(fit - float(order)) > ORDER_TOL * max(1.0, abs(fit)):
                problems.append(f"{cid}: reported order {order}, re-fitted "
                                f"{fit!r} from residuals {vals}")
            elif rec["passed"] != (fit >= cfg["min_order"]):
                problems.append(f"{cid}: verdict {rec['passed']} with order {fit!r}")
    s = report["summary"]
    recs = report["claims"]
    failed = sum(not r["passed"] and not r["expected_fail"] for r in recs)
    if (s["total"] != len(recs) or s["passed"] != sum(r["passed"] for r in recs)
            or s["failed"] != failed or s["overall_pass"] != (failed == 0)):
        problems.append(f"summary {s} disagrees with the claim records")
    return problems


def check_samples(samples: list, cfg: dict) -> list:
    """Compare every recorded sample point with the closed form."""
    if not samples:
        return ["no sampled rung was recorded"]
    problems = []
    A, B = cfg["matrices"]["A"], cfg["matrices"]["B"]
    rungs = sorted({tuple(s["counts"]) for s in samples})
    want = sorted(tuple([n] * len(rungs[0])) for n in cfg["counts"])
    if rungs != want:
        problems.append(f"sampled rungs {rungs}, expected {want}")
    for s in samples:
        for coords, val in zip(s["coords"], s["values"]):
            got = np.asarray(val[0]) + 1j * np.asarray(val[1])
            err = float(np.abs(got - solution_reference(s["names"], coords, A, B)).max())
            if not err <= SAMPLE_TOL:
                problems.append(f"sample on {s['counts']} at {coords}: "
                                f"error {err:.3e} > {SAMPLE_TOL:.0e}")
                break
    return problems


def check_potential(errors: list, cfg: dict) -> list:
    """The potential's maximum error must fall at second order."""
    hs = [cfg["extent"] / (n - 1) for n in cfg["counts"]]
    errs = [e for _, e in sorted(errors, key=lambda ne: ne[0])]
    if len(errs) != len(hs):
        return [f"potential computed on {len(errs)} rungs, expected {len(hs)}"]
    if not all(b < a for a, b in zip(errs, errs[1:])):
        return [f"potential errors {errs} do not fall"]
    order = loglog_order(errs, hs)
    if order < POTENTIAL_MIN_ORDER:
        return [f"potential errors {errs} fall at order {order:.3f} "
                f"< {POTENTIAL_MIN_ORDER}"]
    return []


def self_test(report: dict, cfg: dict, samples: list) -> list:
    """Feed the checks altered outputs and confirm they refuse each one."""
    problems = []
    altered = _alter_residual(report)
    if altered is not None and not check_report(altered, cfg):
        problems.append("self-test: a report with one residual changed passed")
    if samples:
        last = dict(samples[-1])
        re, im = last["values"][0]
        last["values"] = [[(np.asarray(re) + 1e-9).tolist(), im]] + last["values"][1:]
        if not check_samples(samples[:-1] + [last], cfg):
            problems.append("self-test: a sample with one value changed passed")
    return problems


def _alter_residual(report: dict):
    """A copy of the report with the finest residual of one ladder claim
    raised above the coarsest one, or None if it has no ladder claim."""
    claims = [dict(r) for r in report["claims"]]
    for rec in claims:
        if rec.get("order") not in (None, "non-monotone") and rec.get("residuals") \
                and not rec["id"].startswith("neg."):
            res = [dict(r) for r in rec["residuals"]]
            res[-1]["max"] = repr(max(10.0 * float(res[0]["max"]), 1.0))
            rec["residuals"] = res
            return {**report, "claims": claims}
    return None
