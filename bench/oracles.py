"""Output checks that recompute each claim without importing qpwave.

Every check reads what the command line wrote and returns a list of
problems (empty when the output is correct).  The arithmetic is the
benchmark's own: dict convolutions in plain loops, numpy for the
Diophantine and separation margins, and LAPACK eigenvalues for the inverse
norms of the theta sweep.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path

import numpy as np

# Relative tolerance on the theta sweep's inverse norms.  The sweep estimates
# them by power iteration, which sits up to 6.9e-4 below 1/min|eig| on the
# theta-d1 grid (median 1.2e-4); the nearest grid point is 14 % away from the
# bad-set threshold, so the flags must agree exactly.
THETA_NORM_RTOL = 1e-3

# Relative agreement required between the margins a sweep reports and the
# ones recomputed here.
MARGIN_RTOL = 1e-9


def read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# lattice arithmetic, restated

def orbit(j) -> set:
    """Per-block sign flips of a flattened index."""
    d = len(j) // 2
    out = set()
    for signs in itertools.product((1, -1), repeat=d):
        out.add(tuple(signs[k // 2] * c for k, c in enumerate(j)))
    return out


def symbol(j, lam) -> float:
    return sum((j[k] * lam[k] + j[k + 1] * lam[k + 1]) ** 2 for k in range(0, len(j), 2))


def expand(coeffs) -> dict:
    """Canonical {"j", "v"} entries of a solution file -> full coefficient map."""
    out = {}
    for e in coeffs:
        for o in orbit(tuple(e["j"])):
            out[o] = float(e["v"])
    return out


def brute_convolve(A: dict, B: dict) -> dict:
    out: dict = {}
    for ja, va in A.items():
        for jb, vb in B.items():
            j = tuple(x + y for x, y in zip(ja, jb))
            out[j] = out.get(j, 0.0) + va * vb
    return out


def brute_power(A: dict, m: int) -> dict:
    out = dict(A)
    for _ in range(m - 1):
        out = brute_convolve(out, A)
    return out


def residual_norm(u: dict, E: float, lam, p: int, N: int) -> float:
    """l2 norm of (symbol(j) - E) u(j) - u^(*(2p+1))(j) over the box |j| <= N."""
    power = brute_power(u, 2 * p + 1)
    terms = []
    for j in set(u) | set(power):
        if max(abs(c) for c in j) <= N:
            f = (symbol(j, lam) - E) * u.get(j, 0.0) - power.get(j, 0.0)
            terms.append(f * f)
    return math.sqrt(math.fsum(terms))


# ---------------------------------------------------------------------------
# construct-d2: solve + verify

def check_solution(doc: dict, expect: dict) -> list[str]:
    """A solve output: configuration echoed, accepted, pinned amplitudes exact,
    and the residual on the final box recomputed below residual_tol."""
    problems = []
    cfg = doc.get("diagnostics", {}).get("effective_config", {})
    for key in ("d", "p", "a", "M"):
        if doc.get(key) != expect[key]:
            problems.append(f"{key} is {doc.get(key)!r}, expected {expect[key]!r}")
    if tuple(doc.get("jtilde", ())) != tuple(expect["jtilde"]):
        problems.append(f"jtilde is {doc.get('jtilde')!r}")
    if tuple(doc.get("lambda", ())) != tuple(expect["lambda"]):
        problems.append(f"lambda is {doc.get('lambda')!r}")
    if doc.get("accepted") is not True:
        problems.append("solution not accepted")
    if problems:
        return problems
    u = expand(doc["coeffs"])
    jt = tuple(expect["jtilde"])
    pin = expect["a"] / 2 ** sum(1 for k in range(0, len(jt), 2) if jt[k] or jt[k + 1])
    for s in sorted(orbit(jt)):
        if u.get(s) != pin:
            problems.append(f"pinned amplitude at {s} is {u.get(s)!r}, expected {pin!r}")
    resid = residual_norm(u, float(doc["E"]), expect["lambda"], expect["p"], cfg["N_max"])
    if not resid <= cfg["residual_tol"]:
        problems.append(f"recomputed residual {resid!r} exceeds {cfg['residual_tol']!r}")
    return problems


# ---------------------------------------------------------------------------
# survey-d1: sweep-lambda

def diophantine_margin(lam, J_max: int = 50, exponent: float = 4.0) -> float:
    """min over blocks and 0 < |j| <= J_max of dist(j . lambda_k, Z) * |j|^exponent."""
    r = np.arange(-J_max, J_max + 1)
    j1, j2 = (g.ravel() for g in np.meshgrid(r, r, indexing="ij"))
    keep = (j1 != 0) | (j2 != 0)
    j1, j2 = j1[keep], j2[keep]
    weight = np.maximum(np.abs(j1), np.abs(j2)).astype(float) ** exponent
    best = math.inf
    for k in range(0, len(lam), 2):
        v = j1 * lam[k] + j2 * lam[k + 1]
        best = min(best, float(np.min(np.abs(v - np.round(v)) * weight)))
    return best


def separation_margin(lam, jtilde, N: int) -> float:
    """min |symbol(j) - symbol(jtilde)| over the box |j| <= N minus orbit(jtilde)."""
    dim = len(jtilde)
    r = np.arange(-N, N + 1)
    pts = np.stack([g.ravel() for g in np.meshgrid(*([r] * dim), indexing="ij")], axis=1)
    drop = np.zeros(len(pts), dtype=bool)
    for s in orbit(tuple(jtilde)):
        drop |= np.all(pts == np.asarray(s), axis=1)
    pts = pts[~drop]
    inner = np.stack([pts[:, k] * lam[k] + pts[:, k + 1] * lam[k + 1]
                      for k in range(0, dim, 2)], axis=1)
    return float(np.min(np.abs(np.sum(inner * inner, axis=1) - symbol(jtilde, lam))))


def _close(x: float, y: float, rtol: float) -> bool:
    return abs(x - y) <= rtol * max(abs(x), abs(y))


def check_sweep(report: dict, rows: list[dict], expect: dict) -> list[list[str]]:
    """Per-sample problems of one sweep-lambda output (one list per sample).

    The draws are regenerated from the seed, the Diophantine and separation
    stage outcomes recomputed, and every accepted sample must carry a
    residual <= 1e-12 and a finite decay rate beta > 0.  Samples that pass
    both stages and are then rejected by the solver are domain results.
    """
    n, a, p, jt = expect["n_samples"], expect["a"], expect["p"], tuple(expect["jtilde"])
    dim = len(jt)
    lams = np.random.default_rng(expect["seed"]).uniform(0.5, 1.5, size=(n, dim))
    common = []
    if len(rows) != n or report.get("n_samples") != n:
        common.append(f"{len(rows)} rows / n_samples {report.get('n_samples')!r}, expected {n}")
    n_acc = sum(1 for r in rows if r["reason"] == "accepted")
    if report.get("n_accepted") != n_acc or report.get("acceptance_fraction") != n_acc / n:
        common.append("report totals disagree with samples.csv")
    if not _close(report.get("theorem_bound", 0.0), 1.0 - a ** (p / 6.0), 1e-15):
        common.append(f"theorem_bound {report.get('theorem_bound')!r}")
    dio_min, sep_threshold = expect["dio_min"], 2.0 * a ** (p / 2.0)
    out = []
    for i in range(n):
        problems = list(common)
        if i >= len(rows):
            out.append(problems + ["row missing"])
            continue
        row = rows[i]
        lam = tuple(float(row[f"lambda_{k}"]) for k in range(dim))
        if lam != tuple(float(x) for x in lams[i]):
            problems.append(f"lambda {lam} is not draw {i} of seed {expect['seed']}")
        dio = diophantine_margin(lam)
        if not _close(float(row["dio_margin"]), dio, MARGIN_RTOL):
            problems.append(f"dio_margin {row['dio_margin']} != recomputed {dio!r}")
        if dio <= dio_min:
            expected = {"diophantine"}
        else:
            sep = separation_margin(lam, jt, expect["sep_N"])
            if row["sep_margin"] == "" or not _close(float(row["sep_margin"]), sep, MARGIN_RTOL):
                problems.append(f"sep_margin {row['sep_margin']!r} != recomputed {sep!r}")
            if sep <= sep_threshold:
                expected = {"separation"}
            else:
                expected = {"accepted", "NotConverged", "DivergedIncrement", "SingularOperator"}
        if row["reason"] not in expected:
            problems.append(f"stage outcome {row['reason']!r}, expected one of {sorted(expected)}")
        if row["reason"] == "accepted":
            resid = float(row["residual"]) if row["residual"] else math.nan
            beta = float(row["beta"]) if row["beta"] else math.nan
            if not resid <= 1e-12:
                problems.append(f"accepted with residual {row['residual']!r}")
            if not (math.isfinite(beta) and beta > 0):
                problems.append(f"accepted with beta {row['beta']!r}")
        out.append(problems)
    return out


# ---------------------------------------------------------------------------
# theta-d1: theta-sweep

def theta_reference(solution: dict, N: int, thetas, axis: int = 1):
    """1/min|eig| of the shifted operator on the box minus the pinned orbit.

    The operator is rebuilt here from the stored coefficients:
    T(j, j') = sum_k ((j_k . lambda_k) + theta_k)^2 - E  on the diagonal,
    minus (2p+1) u^(*2p)(j - j') everywhere.
    """
    cfg = solution["diagnostics"]["effective_config"]
    lam, p, E = cfg["lambda"], cfg["p"], float(solution["E"])
    jt = tuple(cfg["jtilde"])
    dim = len(jt)
    pinned = orbit(jt)
    sites = [j for j in itertools.product(range(-N, N + 1), repeat=dim) if j not in pinned]
    where = {j: i for i, j in enumerate(sites)}
    kernel = brute_power(expand(solution["coeffs"]), 2 * p)
    off = np.zeros((len(sites), len(sites)))
    for i, j in enumerate(sites):
        for k, v in kernel.items():
            col = where.get(tuple(a - b for a, b in zip(j, k)))
            if col is not None:
                off[i, col] -= (2 * p + 1) * v
    inner = np.array([[j[k] * lam[k] + j[k + 1] * lam[k + 1] for k in range(0, dim, 2)]
                      for j in sites])
    ref = []
    for t in thetas:
        shift = np.zeros(dim // 2)
        shift[axis - 1] = t
        M = off.copy()
        M[np.diag_indices(len(sites))] += np.sum((inner + shift) ** 2, axis=1) - E
        ref.append(1.0 / float(np.min(np.abs(np.linalg.eigvalsh(M)))))
    return np.array(ref)


def check_theta(doc: dict, rows: list[dict], expect: dict, ref) -> list[list[str]]:
    """Per-point problems of one theta-sweep output against the reference norms."""
    thetas, threshold = expect["thetas"], expect["threshold"]
    common = []
    if len(rows) != len(thetas):
        common.append(f"{len(rows)} grid points, expected {len(thetas)}")
    if not _close(doc.get("norm_threshold", 0.0), threshold, 1e-15):
        common.append(f"norm_threshold {doc.get('norm_threshold')!r}, expected {threshold!r}")
    bad = [r["bad"] == "True" for r in rows]
    if rows and doc.get("bad_fraction") != float(np.mean(bad)):
        common.append(f"bad_fraction {doc.get('bad_fraction')!r} disagrees with the flags")
    out = []
    for i, t in enumerate(thetas):
        problems = list(common)
        if i >= len(rows):
            out.append(problems + ["point missing"])
            continue
        row = rows[i]
        t, r = float(t), float(ref[i])
        if abs(float(row["theta"]) - t) > 1e-12:
            problems.append(f"theta {row['theta']}, expected {t!r}")
        inv = float(row["inv_norm"])
        if not abs(inv - r) <= THETA_NORM_RTOL * r:
            problems.append(f"inv_norm {inv!r} vs 1/min|eig| {r!r} at theta {t!r}")
        if bad[i] != (r > threshold):
            problems.append(f"bad flag {bad[i]} at theta {t!r}, reference norm {r!r}")
        out.append(problems)
    return out


# ---------------------------------------------------------------------------
# evolve-d1: evolve

def check_evolve(doc: dict, rows: list[dict], expect: dict) -> list[str]:
    """Standing-wave deviation <= 1e-6, mass drift <= 1e-8, checkpoints as
    configured, and the trajectory consistent with the summary."""
    problems = []
    steps = int(round(expect["T"] / expect["dt"]))
    every = expect["checkpoint_every"]
    n_ck = 1 + steps // every + (1 if steps % every else 0)
    if doc.get("n_checkpoints") != n_ck or len(rows) != n_ck:
        problems.append(f"{doc.get('n_checkpoints')!r} checkpoints ({len(rows)} rows), expected {n_ck}")
    dev = doc.get("max_deviation", math.nan)
    drift = doc.get("mass_drift", math.nan)
    if not dev <= 1e-6:
        problems.append(f"max_deviation {dev!r} > 1e-6")
    if not drift <= 1e-8:
        problems.append(f"mass_drift {drift!r} > 1e-8")
    if rows:
        if max(float(r["deviation"]) for r in rows) != dev:
            problems.append("max_deviation disagrees with trajectory.csv")
        if not _close(max(float(r["mass_drift"]) for r in rows), drift, 1e-12):
            problems.append("mass_drift disagrees with trajectory.csv")
        times = [float(r["t"]) for r in rows]
        want = [min(k * every, steps) * expect["dt"] for k in range(n_ck)]
        if len(times) != len(want) or any(abs(a - b) > 1e-9 for a, b in zip(times, want)):
            problems.append("checkpoint times are not multiples of checkpoint_every * dt")
    return problems
