"""Sampling-based surrogates for the excision and measure statements.

Nothing here is a proof: each routine measures, on grids or random samples,
a quantity the theory controls asymptotically (non-resonance margins,
sectional bad fractions of the shifted operator family, the fraction of
admissible frequencies, bifurcation scaling exponents) and reports it with
enough context to be reproduced bit-for-bit from the stored seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import lattice, linop, solver
from .lattice import Frequency, Index, Region
from .series import QPSeries
from .solver import ProblemConfig

# Acceptance pipeline defaults: Diophantine margin floor at its grid size,
# and the box scale of the separation precheck (the first Newton scale).
DIO_J_MAX = 50
DIO_EXPONENT = 4.0
DIO_MARGIN_MIN = 1e-6
GREENS_SCALE = 16
# Peak bytes per theta point of a theta-sweep command (21.4 B traced at
# N = 1, 40001 points): the result arrays hold 17 B, and the CSV rows are
# streamed to the file.
THETA_POINT_BYTES = 24


def separation_margin(lam: Frequency, jtilde: Index, N: int, a: float, p: int):
    """Minimum of |symbol(j) - symbol(jtilde)| over the box minus the
    resonant orbit, and whether it clears the 2 a^(p/2) threshold.  Raises
    OperatorTooLarge, before any site is enumerated, when the box's site
    list may outgrow linop.BLOCK_BYTES_BUDGET."""
    if N < 1:
        raise ValueError("N must be >= 1")
    d = len(jtilde) // 2
    region = Region.box_minus(N, lattice.orbit(jtilde))
    linop.check_box_bytes(lambda n: 16 * d * (2 * n + 1) ** (2 * d), N, "the site list")
    pts = lattice.sites_array(region, d)
    values = lattice.symbol_array(pts, lam)
    margin = float(np.min(np.abs(values - lattice.symbol(jtilde, lam))))
    threshold = 2.0 * a ** (p / 2.0)
    return margin, margin > threshold


def diophantine_margin(lam: Frequency, J_max: int, exponent: float = DIO_EXPONENT) -> float:
    """min over blocks k and 0 < |j_k| <= J_max of dist(j_k . lambda_k, Z) * |j_k|^A."""
    if J_max < 1:
        raise ValueError("J_max must be >= 1")
    rng = np.arange(-J_max, J_max + 1)
    g1, g2 = np.meshgrid(rng, rng, indexing="ij")
    j1, j2 = g1.ravel(), g2.ravel()
    nonzero = (j1 != 0) | (j2 != 0)
    j1, j2 = j1[nonzero], j2[nonzero]
    norms = np.maximum(np.abs(j1), np.abs(j2)).astype(float)
    best = math.inf
    for k in range(len(lam) // 2):
        v = j1 * lam[2 * k] + j2 * lam[2 * k + 1]
        dist = np.abs(v - np.round(v))
        best = min(best, float(np.min(dist * norms ** exponent)))
    return best


@dataclass
class ThetaSweepResult:
    """Grid fraction of shift parameters where the truncated operator is
    singular or its inverse exceeds the norm threshold."""

    axis: int
    grid_step: float
    grid_start: float
    grid_stop: float
    bad_fraction: float
    norm_threshold: float
    N: int
    thetas: np.ndarray = field(repr=False)
    inv_norms: np.ndarray = field(repr=False)
    bad: np.ndarray = field(repr=False)

    def to_json_dict(self):
        return {
            "axis": self.axis, "grid_step": self.grid_step,
            "grid_start": self.grid_start, "grid_stop": self.grid_stop,
            "bad_fraction": self.bad_fraction,
            "norm_threshold": self.norm_threshold, "N": self.N,
        }


def theta_bad_fraction(u: QPSeries, E: float, lam: Frequency, N: int, axis: int,
                       grid_step: float, norm_threshold: float,
                       p: int = 1, jtilde=None) -> ThetaSweepResult:
    """Sweep one shift component over [-2, 2] (one covariance cell, with
    room) holding the others at 0, and measure the bad fraction.  Raises
    OperatorTooLarge first if the grid may outgrow linop.BLOCK_BYTES_BUDGET.

    When jtilde is given, the operator is restricted to the box minus the
    pinned orbit (the space the Newton solves actually act on, where the
    translation null mode of a converged profile does not live); otherwise
    the full box is used.
    """
    d = u.d
    if not 1 <= axis <= d:
        raise ValueError(f"axis must be in 1..{d}")
    if not 0 < grid_step < math.inf:
        raise ValueError(f"grid_step must be positive and finite, got {grid_step!r}")
    points = 4.0 / grid_step + 2  # at least len(thetas); inf for a subnormal step
    if points * THETA_POINT_BYTES > linop.BLOCK_BYTES_BUDGET:
        raise linop.OperatorTooLarge(
            f"{points:.3g} theta points at grid step {grid_step!r} may need more than the "
            f"{linop.BLOCK_BYTES_BUDGET >> 20} MiB budget; the smallest grid step that fits is "
            f"{4.0 / (linop.BLOCK_BYTES_BUDGET // THETA_POINT_BYTES - 2)!r}")
    if not norm_threshold > 0:
        raise ValueError(f"norm_threshold must be positive, got {norm_threshold!r}")
    if jtilde is None:
        region = Region.full_box(N)
    else:
        region = Region.box_minus(N, lattice.orbit(tuple(jtilde)))
    T0 = linop.assemble(u, E, lam, None, region, p)
    # theta moves only the diagonal: keep the blocks and reset their
    # diagonals to what assemble would build at each theta
    blocks = T0.blocks()
    k0 = T0.kernel.get((0,) * (2 * d))

    thetas = np.arange(-2.0, 2.0 + grid_step / 2, grid_step)
    inv_norms = np.empty(len(thetas))
    for i, t in enumerate(thetas):
        th = np.zeros(d)
        th[axis - 1] = t
        diag = (lattice.symbol_array(T0.sites, lam, th) - E) - k0
        for rows, A in blocks:
            at = np.arange(rows.shape[1])
            A[:, at, at] = diag[rows]
        inv_norms[i] = linop.inverse_norm(blocks)
    bad = ~np.isfinite(inv_norms) | (inv_norms > norm_threshold)
    return ThetaSweepResult(
        axis=axis, grid_step=grid_step, grid_start=float(thetas[0]),
        grid_stop=float(thetas[-1]), bad_fraction=float(np.mean(bad)),
        norm_threshold=norm_threshold, N=N,
        thetas=thetas, inv_norms=inv_norms, bad=bad,
    )


@dataclass
class SampleResult:
    index: int
    lam: tuple
    dio_margin: float
    sep_margin: float | None
    solved: bool
    accepted: bool
    reason: str
    residual: float | None
    beta: float | None

    def to_json_dict(self):
        return {
            "index": self.index, "lambda": list(self.lam),
            "dio_margin": self.dio_margin, "sep_margin": self.sep_margin,
            "solved": self.solved, "accepted": self.accepted,
            "reason": self.reason, "residual": self.residual, "beta": self.beta,
        }


@dataclass
class AcceptanceReport:
    """Empirical stand-in for the admissible-frequency measure bound."""

    n_samples: int
    n_accepted: int
    acceptance_fraction: float
    theorem_bound: float
    seed: int
    samples: list[SampleResult]
    config: ProblemConfig

    def to_json_dict(self):
        return {
            "n_samples": self.n_samples, "n_accepted": self.n_accepted,
            "acceptance_fraction": self.acceptance_fraction,
            "theorem_bound": self.theorem_bound, "seed": self.seed,
            "config": self.config.to_json_dict(),
            "samples": [s.to_json_dict() for s in self.samples],
        }


def _sweep_one(cfg: ProblemConfig, idx: int, lam_flat, sep_N: int,
               greens_region: Region) -> SampleResult:
    lam = tuple(float(x) for x in lam_flat)
    dio = diophantine_margin(lam, DIO_J_MAX, DIO_EXPONENT)
    if dio <= DIO_MARGIN_MIN:
        return SampleResult(idx, lam, dio, None, False, False, "diophantine", None, None)
    cfg_s = replace(cfg, lam=lam, precheck=False)  # the sweep runs its own precheck at sep_N
    sep, ok = separation_margin(lam, cfg_s.jtilde, sep_N, cfg_s.a, cfg_s.p)
    if not ok:
        return SampleResult(idx, lam, dio, sep, False, False, "separation", None, None)
    try:
        rec = solver.solve(cfg_s)
    except (solver.NotConverged, solver.DivergedIncrement) as exc:
        return SampleResult(idx, lam, dio, sep, False, False,
                            type(exc).__name__, exc.record.diagnostics.get("final_residual"), None)
    except linop.SingularOperator:
        return SampleResult(idx, lam, dio, sep, False, False, "SingularOperator", None, None)
    beta = None
    try:
        T = linop.assemble(rec.u, rec.E, lam, None, greens_region, cfg_s.p)
        prof = linop.greens_profile(T)
        beta = prof.decay.rate if prof.decay else None
    except (linop.SingularOperator, linop.OperatorTooLarge):
        # a resonant profile box, or blocks over the memory budget (d=2 at
        # the default --greens-n); anything else is a bug
        pass
    return SampleResult(idx, lam, dio, sep, True, True, "accepted",
                        rec.diagnostics.get("final_residual"), beta)


def lambda_sweep(cfg: ProblemConfig, n_samples: int, seed: int,
                 sep_N: int | None = None, greens_N: int = GREENS_SCALE,
                 lambdas=None) -> AcceptanceReport:
    """Draw frequencies uniformly from the parameter cube and push each one
    through the three-stage pipeline: Diophantine margin, separation margin
    at the first Newton scale, full solve (plus a Green's decay fit on
    acceptance).  Per-sample failures are recorded, never raised.

    lambdas, when given, overrides the random draws (e.g. to plant a
    resonant frequency); the seed is still recorded for the report.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if sep_N is None:
        sep_N = cfg.M
    # profile the operator the Newton scheme inverts: box minus the pinned
    # orbit (the full box carries the translation null mode); built here so
    # that a bad greens_N is rejected before any sample is drawn
    greens_region = Region.box_minus(greens_N, lattice.orbit(cfg.jtilde))
    rng = np.random.default_rng(seed)
    lams = rng.uniform(0.5, 1.5, size=(n_samples, 2 * cfg.d))
    if lambdas is not None:
        lams = np.asarray(lambdas, dtype=float).reshape(n_samples, 2 * cfg.d)
    samples = [_sweep_one(cfg, i, lams[i], sep_N, greens_region) for i in range(n_samples)]
    n_acc = sum(1 for s in samples if s.accepted)
    return AcceptanceReport(
        n_samples=n_samples, n_accepted=n_acc,
        acceptance_fraction=n_acc / n_samples,
        theorem_bound=1.0 - cfg.a ** (cfg.p / 6.0),
        seed=seed, samples=samples, config=cfg,
    )


@dataclass
class BifurcationScan:
    """Log-log scaling of the eigenvalue shift and the profile correction
    against the bifurcation amplitude."""

    a_values: list[float]
    e_shifts: list[float]
    u_shifts: list[float]
    slope_E: float
    intercept_E: float
    slope_u: float
    intercept_u: float

    def to_json_dict(self):
        return {
            "a_values": self.a_values, "e_shifts": self.e_shifts,
            "u_shifts": self.u_shifts,
            "slope_E": self.slope_E, "intercept_E": self.intercept_E,
            "slope_u": self.slope_u, "intercept_u": self.intercept_u,
        }


def bifurcation_scan(cfg: ProblemConfig, a_values) -> BifurcationScan:
    """Solve along an amplitude ladder at fixed frequency and fit the
    slopes of log|E - E_linear| and log||u - seed||_2 against log a.

    Requires >= 4 amplitudes spanning >= 1.5 decades; NotConverged
    propagates (the scan is only meaningful when every solve is accepted).
    """
    a_values = sorted(float(a) for a in a_values)
    if len(a_values) < 4:
        raise ValueError("need at least 4 amplitude values")
    if a_values[0] <= 0:
        raise ValueError("amplitudes must be positive")
    # [1e-3, 3e-2] (1.477 decades) must qualify, hence the 1.45 cut
    if math.log10(a_values[-1] / a_values[0]) < 1.45:
        raise ValueError("amplitudes must span at least about 1.5 decades")
    e_shifts, u_shifts = [], []
    e_tilde = lattice.symbol(cfg.jtilde, cfg.lam)
    for a in a_values:
        cfg_a = replace(cfg, a=a)
        rec = solver.solve(cfg_a)
        u0, _ = solver.initial_guess(cfg_a)
        e_shifts.append(abs(rec.E - e_tilde))
        u_shifts.append(rec.u.add(u0.scale(-1.0)).l2_norm())
    log_a = np.log(np.array(a_values))
    slope_E, intercept_E = np.polyfit(log_a, np.log(np.array(e_shifts)), 1)
    # profile corrections can underflow the coefficient drop floor at tiny
    # amplitudes (they scale like a^(2p+1)); fit the u-slope where resolved
    u_arr = np.array(u_shifts)
    resolved = u_arr > 0.0
    if resolved.sum() >= 2:
        slope_u, intercept_u = np.polyfit(log_a[resolved], np.log(u_arr[resolved]), 1)
    else:
        slope_u, intercept_u = math.nan, math.nan
    return BifurcationScan(
        a_values=a_values, e_shifts=e_shifts, u_shifts=u_shifts,
        slope_E=float(slope_E), intercept_E=float(intercept_E),
        slope_u=float(slope_u), intercept_u=float(intercept_u),
    )
