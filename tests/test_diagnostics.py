import json
import math

import numpy as np
import pytest

from helpers import GOOD_JT, GOOD_LAM
from qpwave import diagnostics
from qpwave.diagnostics import (
    bifurcation_scan,
    diophantine_margin,
    lambda_sweep,
    separation_margin,
    theta_bad_fraction,
)
from qpwave.lattice import Region, orbit, symbol
from qpwave.linop import assemble
from qpwave.series import QPSeries
from qpwave.solver import ProblemConfig, solve


def good_cfg(**kw):
    base = dict(d=1, p=1, a=0.01, jtilde=GOOD_JT, lam=GOOD_LAM)
    base.update(kw)
    return ProblemConfig(**base)


# --------------------------------------------------------------------------
# separation margin

def test_separation_exact_resonance_fails():
    margin, ok = separation_margin((1.0, 1.0), (1, 0), N=3, a=0.01, p=1)
    assert margin == 0.0 and not ok


def test_separation_threshold_vanishes_with_amplitude():
    margins = []
    for a in (1e-2, 1e-4, 1e-8):
        margin, ok = separation_margin(GOOD_LAM, GOOD_JT, N=8, a=a, p=1)
        margins.append(margin)
        assert ok
    assert margins[0] == margins[1] == margins[2]  # margin itself is a-independent


@pytest.mark.parametrize("d,N", [(1, 6), (1, 12), (2, 3)])
def test_separation_matches_exhaustive_oracle(d, N):
    rng = np.random.default_rng(9)
    jt = (1,) * (2 * d)
    for _ in range(5):
        lam = tuple(float(x) for x in rng.uniform(0.51, 1.49, 2 * d))
        margin, ok = separation_margin(lam, jt, N, a=0.01, p=1)
        S = orbit(jt)
        e_t = symbol(jt, lam)
        brute = min(
            abs(symbol(j, lam) - e_t)
            for j in __import__("itertools").product(range(-N, N + 1), repeat=2 * d)
            if j not in S
        )
        assert margin == pytest.approx(brute, rel=0, abs=0)
        assert ok == (margin > 2 * 0.01 ** 0.5)


# --------------------------------------------------------------------------
# Diophantine margin

PHI_BAR = (math.sqrt(5.0) - 1.0) / 2.0


def test_diophantine_rational_resonance():
    # equal components: the block (1, -1) lands exactly on zero
    assert diophantine_margin((1.0, 1.0), 10) == 0.0


def test_diophantine_unit_component_vanishes():
    # (1.0, golden conjugate): the block (1, 0) alone already violates the
    # nonresonance condition, so the full margin is exactly zero
    assert diophantine_margin((1.0, PHI_BAR), 50) == 0.0


def test_diophantine_golden_sublattice_with_cf_oracle():
    # on the sublattice j2 != 0 the margin is controlled by dist(j2 * phi),
    # bounded below through the Fibonacci continued-fraction denominators
    for J in (5, 13, 50):
        best = math.inf
        for j2 in range(1, J + 1):
            v = j2 * PHI_BAR
            dist = abs(v - round(v))
            best = min(best, dist * j2**4)
        # classical convergent bound: dist(q phi) >= 1/(q' + q) for the next
        # Fibonacci denominator q' <= ~2.62 q
        fib = [1, 2]
        while fib[-1] <= J:
            fib.append(fib[-1] + fib[-2])
        lower = min(q**4 / (q_next + q) for q, q_next in zip(fib, fib[1:]) if q <= J)
        assert best >= lower > 0.0


def test_diophantine_float_matches_mpmath_oracle():
    import mpmath

    mpmath.mp.dps = 50
    phi_hp = mpmath.mpf(PHI_BAR)  # the double, promoted exactly
    for q in range(1, 51):
        v = q * phi_hp
        dist_hp = abs(v - mpmath.nint(v))
        v_f = q * PHI_BAR
        dist_f = abs(v_f - round(v_f))
        assert abs(float(dist_hp) - dist_f) <= 1e-12


def test_diophantine_monotone_in_range():
    vals = [diophantine_margin(GOOD_LAM, J) for J in (5, 10, 25, 50)]
    assert all(v > 0 for v in vals)
    assert all(a >= b for a, b in zip(vals, vals[1:]))


# --------------------------------------------------------------------------
# theta sweeps

def test_theta_bad_fraction_spectral_gap():
    # zero profile with E below the spectrum: uniformly invertible
    res = theta_bad_fraction(QPSeries.zero(1), -1.0, GOOD_LAM, N=4, axis=1,
                             grid_step=0.1, norm_threshold=10.0)
    assert res.bad_fraction == 0.0


def _analytic_bad_measure(lam, E, N, threshold):
    """Exact measure of the bad set in [-2, 2] for the diagonal family:
    |(v_j + t)^2 - E| < 1/threshold for some box site j."""
    eps = 1.0 / threshold
    pts = []
    for j0 in range(-N, N + 1):
        for j1 in range(-N, N + 1):
            pts.append(j0 * lam[0] + j1 * lam[1])
    intervals = []
    hi = math.sqrt(E + eps)
    lo = math.sqrt(E - eps) if E > eps else 0.0
    for v in pts:
        for root_sign in (1.0, -1.0):
            a, b = root_sign * hi, root_sign * lo
            a, b = min(a, b), max(a, b)
            if E <= eps and root_sign < 0:
                continue  # the two root intervals merge through zero
            intervals.append((a - v, b - v))
    if E <= eps:
        intervals = [(-math.sqrt(E + eps) - v, math.sqrt(E + eps) - v) for v in pts]
    clipped = sorted((max(a, -2.0), min(b, 2.0)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total / 4.0


def test_theta_bad_fraction_matches_interval_oracle():
    E, thr, N = 2.0137, 5.0, 2
    exact = _analytic_bad_measure(GOOD_LAM, E, N, thr)
    errors = []
    for h in (0.08, 0.04, 0.02):
        res = theta_bad_fraction(QPSeries.zero(1), E, GOOD_LAM, N=N, axis=1,
                                 grid_step=h, norm_threshold=thr)
        errors.append(abs(res.bad_fraction - exact))
    # first-order convergence of a grid count to the interval measure:
    # error bounded by (endpoint count) * h / 4, and shrinking overall
    n_sites = (2 * N + 1) ** 2
    for h, err in zip((0.08, 0.04, 0.02), errors):
        assert err <= 4 * n_sites * h / 4.0
    assert errors[2] <= errors[0] + 1e-12


def test_theta_bad_fraction_shrinks_with_scale():
    rec = solve(good_cfg())
    fracs = []
    for N in (6, 9, 12):
        thr = math.exp(math.sqrt(N))
        res = theta_bad_fraction(rec.u, rec.E, rec.config.lam, N=N, axis=1,
                                 grid_step=0.05, norm_threshold=thr, p=1)
        fracs.append(res.bad_fraction)
        assert 0.0 <= res.bad_fraction <= 1.0
    grid_quantum = 1.0 / len(res.thetas)
    assert fracs[1] <= fracs[0] + grid_quantum
    assert fracs[2] <= fracs[1] + grid_quantum
    assert fracs[2] < 0.5


def test_theta_inverse_norms_match_eigenvalue_oracle():
    # the sweep's norms on the accepted profile's box minus the pinned orbit
    # against 1/min|eig| of each shifted operator, densified and diagonalized
    rec = solve(good_cfg())
    N = 8
    res = theta_bad_fraction(rec.u, rec.E, rec.config.lam, N=N, axis=1,
                             grid_step=0.05, norm_threshold=1e3, p=1, jtilde=GOOD_JT)
    region = Region.box_minus(N, orbit(GOOD_JT))
    for t, inv in zip(res.thetas, res.inv_norms):
        M = assemble(rec.u, rec.E, rec.config.lam, (float(t),), region, 1).to_dense()
        oracle = 1.0 / np.min(np.abs(np.linalg.eigvalsh(M)))
        assert inv == pytest.approx(oracle, rel=1e-9)


def test_theta_axis_validation():
    with pytest.raises(ValueError):
        theta_bad_fraction(QPSeries.zero(1), 0.0, GOOD_LAM, N=2, axis=2,
                           grid_step=0.1, norm_threshold=1.0)


# --------------------------------------------------------------------------
# frequency sweeps

def test_lambda_sweep_planted_resonance():
    # close components: |lambda_2^2 - lambda_1^2| ~ 0.1 < 2 sqrt(a) while the
    # nonresonance margins are healthy, so the rejection is 'separation'
    report = lambda_sweep(good_cfg(jtilde=(1, 0)), n_samples=1, seed=0,
                          lambdas=[(1.0334771, 1.0834772)])
    assert report.acceptance_fraction == 0.0
    assert report.samples[0].reason == "separation"
    assert report.samples[0].sep_margin is not None


def test_lambda_sweep_planted_diophantine_failure():
    report = lambda_sweep(good_cfg(jtilde=(1, 0)), n_samples=1, seed=0,
                          lambdas=[(1.0 + 1e-9, 1.0)])
    assert report.acceptance_fraction == 0.0
    assert report.samples[0].reason == "diophantine"


def test_lambda_sweep_zero_amplitude_trivially_accepts():
    report = lambda_sweep(good_cfg(a=0.0), n_samples=5, seed=3, greens_N=4)
    assert report.n_accepted == 5
    for s in report.samples:
        assert s.solved and s.reason == "accepted"
        assert s.residual == 0.0


def test_lambda_sweep_deterministic_given_seed():
    r1 = lambda_sweep(good_cfg(), n_samples=8, seed=11, greens_N=6)
    r2 = lambda_sweep(good_cfg(), n_samples=8, seed=11, greens_N=6)
    assert json.dumps(r1.to_json_dict()) == json.dumps(r2.to_json_dict())


def test_lambda_sweep_parallel_matches_serial():
    r1 = lambda_sweep(good_cfg(), n_samples=6, seed=5, greens_N=6, max_workers=1)
    r2 = lambda_sweep(good_cfg(), n_samples=6, seed=5, greens_N=6, max_workers=3)
    assert json.dumps(r1.to_json_dict()) == json.dumps(r2.to_json_dict())


def test_lambda_sweep_small_sample_fraction():
    report = lambda_sweep(good_cfg(), n_samples=30, seed=2, greens_N=6)
    assert report.theorem_bound == pytest.approx(1.0 - 0.01 ** (1.0 / 6.0))
    assert report.acceptance_fraction >= report.theorem_bound
    for s in report.samples:
        if s.accepted:
            assert s.residual is not None and s.residual <= 1e-12
            assert s.beta is not None and s.beta > 0


# --------------------------------------------------------------------------
# bifurcation scans

def test_bifurcation_scan_validation():
    with pytest.raises(ValueError):
        bifurcation_scan(good_cfg(), [1e-3, 2e-3, 4e-3])  # too few
    with pytest.raises(ValueError):
        bifurcation_scan(good_cfg(), [1e-3, 2e-3, 4e-3, 8e-3])  # span too short


def test_bifurcation_scan_quick_slopes():
    scan = bifurcation_scan(good_cfg(), list(np.geomspace(1e-3, 3.2e-2, 5)))
    assert scan.slope_E == pytest.approx(2.0, abs=0.05)
    assert scan.slope_u >= 1.0
    assert scan.slope_u == pytest.approx(3.0, abs=0.1)
