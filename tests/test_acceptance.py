"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
measured values.  Tolerances are pinned here, not configurable.
"""

import cmath
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from helpers import (GOOD_JT, GOOD_LAM, GOOD_LAM_D2, GOOD_JT_D2, brute_conv_power, coeffs_of, complex_series,
                     random_symmetric_series)
from qpwave import linop
from qpwave.diagnostics import bifurcation_scan, lambda_sweep
from qpwave.dynamics import ComplexSeries, evolve, standing_wave_deviation
from qpwave.lattice import Region, orbit, symbol
from qpwave.linop import assemble, covariance_discrepancy, greens_profile
from qpwave.series import QPSeries, conv_power, convolve, decay_fit
from qpwave.solver import ProblemConfig, initial_guess, newton_step, q_update, residual, solve

D3_LAM = (1.05, 0.723, 0.8, 1.31, 1.21, 0.57)


@contextmanager
def criterion(number, title, budget_seconds):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {title}: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {number:2d} {title}: PASS ({elapsed:.1f}s, budget {budget_seconds}s)")
    assert elapsed < budget_seconds


def test_criterion_1_convolution_golden():
    with criterion(1, "convolution golden matrix", 1.0):
        b1, b2 = (1, 2), (2, -1)
        jt = (*b1, *b2)
        v = QPSeries.delta(2, 0.25, jt)  # a = 1, value a/2^d
        sq = convolve(v, v)
        expected = {(0, 0, 0, 0): 0.25}
        for s in (1, -1):
            expected[(2 * s * b1[0], 2 * s * b1[1], 0, 0)] = 0.125
            expected[(0, 0, 2 * s * b2[0], 2 * s * b2[1])] = 0.125
            for s2 in (1, -1):
                expected[(2 * s * b1[0], 2 * s * b1[1], 2 * s2 * b2[0], 2 * s2 * b2[1])] = 0.0625
        assert set(sq.coeffs) == set(expected)
        for j, val in expected.items():
            assert abs(sq.get(j) - val) <= 1e-15


def test_criterion_2_eigenvalue_closed_form():
    with criterion(2, "pinned-equation closed form", 1.0):
        a = 0.01
        for d, lam in ((1, GOOD_LAM), (2, GOOD_LAM_D2), (3, D3_LAM)):
            jt = (1,) * (2 * d)
            cfg = ProblemConfig(d=d, p=1, a=a, jtilde=jt, lam=lam, N_max=30 if d == 1 else 8)
            u0, _ = initial_guess(cfg)
            E1 = q_update(u0, cfg)
            oracle = brute_conv_power(u0.coeffs, 3)
            expect = symbol(jt, lam) - (2**d / a) * oracle[jt]
            assert abs(E1 - expect) <= 1e-14 * abs(expect)
            # the shift itself, computed without cancellation
            shift = -(2**d / a) * oracle[jt]
            target = -((3.0 / 4.0) ** d) * a * a
            assert abs(shift - target) <= 1e-14 * abs(target)


def test_criterion_3_first_residual_law():
    with criterion(3, "first-residual law", 10.0):
        for d in (1, 2):
            lam = GOOD_LAM if d == 1 else GOOD_LAM_D2
            jt = GOOD_JT if d == 1 else GOOD_JT_D2
            for p in (1, 2):
                for a in (1e-2, 1e-3):
                    cfg = ProblemConfig(d=d, p=p, a=a, jtilde=jt, lam=lam,
                                        N_max=30 if d == 1 else 8)
                    u0, _ = initial_guess(cfg)
                    E1 = q_update(u0, cfg)
                    delta, _ = newton_step(u0, E1, cfg, N=cfg.M)
                    u1 = u0.add(delta)
                    E2 = q_update(u1, cfg)
                    norm = residual(u1, E2, cfg.lam, cfg.p).l2_norm()
                    bound = a ** (2 * p + 1)
                    print(f"    d={d} p={p} a={a:g}: |F(u1)| = {norm:.3e} < {bound:.1e}")
                    assert norm < bound


def test_criterion_4_convergence_exponent():
    with criterion(4, "convergence exponent", 60.0):
        # M = 2 staggers the box growth, so the trace carries enough steps
        # for the 4/3-exponent check to bite
        cfg = ProblemConfig(d=1, p=1, a=0.1, jtilde=GOOD_JT, lam=GOOD_LAM, M=2,
                            N_max=30, residual_tol=1e-13)
        rec = solve(cfg)
        assert rec.accepted
        assert rec.diagnostics["final_residual"] <= 1e-12
        incs = rec.trace.increment_norms()
        print(f"    increments: {[f'{x:.3e}' for x in incs]}")
        pairs = 0
        for r in range(2, len(incs)):  # pairs (r, r+1), 1-based
            assert incs[r] <= incs[r - 1] ** (4.0 / 3.0)
            pairs += 1
        print(f"    contraction pairs checked at r>=2: {pairs}")
        assert pairs >= 1


def test_criterion_5_bifurcation_scalings():
    with criterion(5, "bifurcation scalings", 300.0):
        a_values = list(np.geomspace(1e-3, 3e-2, 6))
        for p, slope_tol in ((1, 0.05), (2, 0.1)):
            # drop_tol 0 keeps profile corrections resolvable down to a^5
            cfg = ProblemConfig(d=1, p=p, a=a_values[0], jtilde=GOOD_JT,
                                lam=GOOD_LAM, drop_tol=0.0)
            scan = bifurcation_scan(cfg, a_values)
            print(f"    p={p}: slope_E = {scan.slope_E:.4f} (target {2 * p}), "
                  f"slope_u = {scan.slope_u:.4f}")
            assert abs(scan.slope_E - 2.0 * p) <= slope_tol
            assert scan.slope_u >= p


def test_criterion_6_measure_proxy():
    with criterion(6, "frequency-measure proxy", 1800.0):
        cfg = ProblemConfig(d=1, p=1, a=0.01, jtilde=GOOD_JT, lam=GOOD_LAM)
        report = lambda_sweep(cfg, n_samples=200, seed=0)
        reasons = {}
        for s in report.samples:
            reasons[s.reason] = reasons.get(s.reason, 0) + 1
        print(f"    acceptance {report.acceptance_fraction:.3f} "
              f">= bound {report.theorem_bound:.3f}; reasons: {reasons}")
        assert report.theorem_bound == pytest.approx(1.0 - 0.01 ** (1.0 / 6.0))
        assert report.acceptance_fraction >= report.theorem_bound
        assert set(reasons) <= {"accepted", "separation", "diophantine",
                                "SingularOperator", "NotConverged", "DivergedIncrement"}


def test_criterion_7_covariance_identity():
    with criterion(7, "covariance identity", 10.0):
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(1, 3))
            lam = GOOD_LAM if d == 1 else GOOD_LAM_D2
            u = random_symmetric_series(d, rng, n_orbits=3, box_n=2, scale=0.5)
            theta = tuple(float(t) for t in rng.uniform(-1.0, 1.0, size=d))
            j0 = tuple(int(c) for c in rng.integers(-5, 6, size=2 * d))
            disc = covariance_discrepancy(u, float(rng.uniform(-2, 2)), lam, theta,
                                          j0, Region.full_box(3 if d == 1 else 2))
            worst = max(worst, disc)
        print(f"    max discrepancy over 100 instances: {worst:.3e}")
        assert worst <= 1e-12


def test_criterion_8_greens_and_profile_decay():
    with criterion(8, "inverse decay and profile decay", 60.0):
        cfg = ProblemConfig(d=1, p=1, a=0.01, jtilde=GOOD_JT, lam=GOOD_LAM)
        rec = solve(cfg)
        region = Region.box_minus(16, orbit(GOOD_JT))
        T = assemble(rec.u, rec.E, cfg.lam, None, region, cfg.p)
        prof = greens_profile(T)
        print(f"    beta = {prof.decay.rate:.3f}, fit rms = {prof.decay.residual_rms:.3f} "
              f"(decades), |G| = {prof.op_norm_inverse:.2f}")
        assert prof.decay.rate > 0.0
        assert prof.decay.residual_rms < 1.0
        rates = []
        for a in (0.01, 0.001):
            rec_a = solve(replace(cfg, a=a))
            fit = decay_fit(rec_a.u, min_distance=1)
            rates.append(fit.rate)
        print(f"    profile decay rates over one amplitude decade: {rates[0]:.3f} -> {rates[1]:.3f}")
        assert rates[0] > 0.0
        assert rates[1] >= rates[0]


def test_criterion_9_standing_wave_dynamics():
    with criterion(9, "standing-wave dynamics", 120.0):
        cfg = ProblemConfig(d=1, p=1, a=0.01, jtilde=GOOD_JT, lam=GOOD_LAM)
        rec = solve(cfg)
        box = Region.full_box(cfg.N_max)
        C0 = ComplexSeries.from_profile(rec.u)
        res = evolve(C0, cfg.lam, cfg.p, T=1.0, dt=1e-3, box=box, phase_reference=rec.E)
        print(f"    deviation = {res.max_deviation:.3e}, mass drift = {res.mass_drift:.3e}")
        assert res.max_deviation <= 1e-6
        assert res.mass_drift <= 1e-8
        # scheme order: halving dt cuts the closed-form error by >= ~2^4
        a, p, T = 0.6, 1, 2.0
        exact = a * cmath.exp(1j * a ** (2 * p) * T)
        errs = []
        for dt in (0.04, 0.02):
            r = evolve(complex_series(1, {(0, 0): a}), GOOD_LAM, p, T, dt, Region.full_box(1))
            errs.append(abs(coeffs_of(r.final)[(0, 0)] - exact))
        print(f"    dt-halving error ratio: {errs[0] / errs[1]:.1f} (>= 12 for 4th order)")
        assert errs[0] / errs[1] >= 12.0


def test_criterion_10_oracle_equivalence():
    with criterion(10, "fixed-point oracle equivalence", 120.0):
        from test_solver import fixed_point_solution

        for a, lam in ((0.01, GOOD_LAM), (0.05, GOOD_LAM), (0.01, (1.2201317830938476, 1.4381147002756478))):
            cfg = ProblemConfig(d=1, p=1, a=a, jtilde=GOOD_JT, lam=lam)
            rec = solve(cfg)
            assert rec.accepted
            u_fp = fixed_point_solution(cfg)
            diff = rec.u.add(u_fp.scale(-1.0)).l2_norm()
            print(f"    a={a:g} lam[0]={lam[0]:.4f}: |u_newton - u_fixed_point| = {diff:.3e}")
            assert diff <= 1e-8
