import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import (GOOD_JT, GOOD_JT_D2, GOOD_LAM, GOOD_LAM_D2, brute_conv_power, contains,
                     count_convolutions, evaluate, seed_series)
from qpwave import lattice, linop, solver
from qpwave.lattice import Region, is_canonical, orbit, symbol
from qpwave.series import QPSeries
from qpwave.solver import (
    DivergedIncrement,
    MixedDegenerateIndex,
    NotConverged,
    ProblemConfig,
    SeparationFailure,
    initial_guess,
    newton_step,
    q_update,
    residual,
    solve,
)


def good_cfg(**kw):
    base = dict(d=1, p=1, a=0.01, jtilde=GOOD_JT, lam=GOOD_LAM)
    base.update(kw)
    return ProblemConfig(**base)


D2_LAM = (1.05, 0.723, 0.8, 1.31)
D3_LAM = (1.05, 0.723, 0.8, 1.31, 1.21, 0.57)


# --------------------------------------------------------------------------
# configuration and seeds

def test_config_rejects_mixed_degenerate_seed():
    with pytest.raises(MixedDegenerateIndex):
        ProblemConfig(d=2, p=1, a=0.01, jtilde=(1, 0, 0, 0), lam=D2_LAM)


def test_config_rejects_negative_amplitude():
    with pytest.raises(ValueError):
        good_cfg(a=-0.01)


def test_config_rejects_out_of_band_frequency():
    with pytest.raises(ValueError):
        good_cfg(lam=(1.0, 1.6))


def test_config_requires_seed_inside_first_box():
    with pytest.raises(ValueError):
        good_cfg(jtilde=(5, 1), M=3)


def test_config_default_box_scales():
    assert good_cfg().N_max == 30
    assert ProblemConfig(d=2, p=1, a=0.01, jtilde=(1, 0, 0, 1), lam=D2_LAM).N_max == 8


def test_config_json_round_trip_and_defaults():
    cfg = good_cfg(p=2, M=4, N_max=9, residual_tol=1e-11)
    assert ProblemConfig.from_json_dict(cfg.to_json_dict()) == cfg
    least = {"jtilde": list(GOOD_JT), "lambda": list(GOOD_LAM)}
    assert ProblemConfig.from_json_dict(least) == ProblemConfig(jtilde=GOOD_JT, lam=GOOD_LAM)
    # an int stands for a float and is stored as one
    assert ProblemConfig.from_json_dict({**least, "a": 0}).to_json_dict()["a"] == 0.0
    with pytest.raises(ValueError, match="config key 'a'"):
        ProblemConfig.from_json_dict({**least, "a": 10 ** 400})
    with pytest.raises(ValueError, match="missing config keys: \\['jtilde'\\]"):
        ProblemConfig.from_json_dict({"lambda": list(GOOD_LAM)})
    # the precheck's skip is recorded, and a document without the record ran it
    assert "precheck" not in cfg.to_json_dict() and cfg.precheck is True
    forced = replace(cfg, precheck=False)
    assert forced.to_json_dict()["precheck"] is False
    assert ProblemConfig.from_json_dict(forced.to_json_dict()) == forced
    with pytest.raises(ValueError, match="config key 'precheck' must be a JSON boolean"):
        ProblemConfig.from_json_dict({**least, "precheck": "false"})


def test_initial_guess_nondegenerate_d2():
    cfg = ProblemConfig(d=2, p=1, a=0.02, jtilde=(1, 0, 0, 1), lam=D2_LAM)
    u0, E0 = initial_guess(cfg)
    assert u0.support_size() == 4
    assert all(v == 0.02 / 4 for v in u0.coeffs.values())
    assert E0 == symbol(cfg.jtilde, cfg.lam)


def test_initial_guess_zero_branch():
    cfg = ProblemConfig(d=1, p=2, a=0.3, jtilde=(0, 0), lam=GOOD_LAM)
    u0, E0 = initial_guess(cfg)
    assert u0.coeffs == {(0, 0): 0.3}
    assert E0 == 0.0


def test_initial_guess_evaluates_to_amplitude_at_origin():
    for d, lam in ((1, GOOD_LAM), (2, D2_LAM)):
        jt = (1,) * (2 * d)
        cfg = ProblemConfig(d=d, p=1, a=0.04, jtilde=jt, lam=lam)
        u0, _ = initial_guess(cfg)
        assert evaluate(u0, lam, [0.0] * d) == pytest.approx(0.04, rel=1e-14)


# --------------------------------------------------------------------------
# eigenvalue update

@pytest.mark.parametrize("d,lam", [(1, GOOD_LAM), (2, D2_LAM), (3, D3_LAM)])
def test_q_update_seed_closed_form(d, lam):
    a = 0.01
    jt = (1,) * (2 * d)
    cfg = ProblemConfig(d=d, p=1, a=a, jtilde=jt, lam=lam, N_max=31 if d == 1 else 8)
    u0, _ = initial_guess(cfg)
    E1 = q_update(u0, cfg)
    oracle = brute_conv_power(u0.coeffs, 3)
    expect = symbol(jt, lam) - (2**d / a) * oracle[jt]
    assert E1 == pytest.approx(expect, rel=1e-14)
    assert E1 - symbol(jt, lam) == pytest.approx(-((3.0 / 4.0) ** d) * a * a, rel=1e-12)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_q_update_constant_branch(p):
    a = 0.3
    cfg = ProblemConfig(d=1, p=p, a=a, jtilde=(0, 0), lam=GOOD_LAM)
    u = QPSeries.delta(1, a)
    assert q_update(u, cfg) == pytest.approx(-(a ** (2 * p)), rel=1e-14)


def test_q_update_linear_limit():
    e_tilde = symbol(GOOD_JT, GOOD_LAM)
    for a in (1e-3, 1e-5):
        cfg = good_cfg(a=a)
        u0, _ = initial_guess(cfg)
        assert abs(q_update(u0, cfg) - e_tilde) <= 0.76 * a * a


def test_q_update_requires_pinned_amplitude():
    cfg = good_cfg()
    u_bad = QPSeries.delta(1, 0.9 * cfg.pin_value, GOOD_JT)
    with pytest.raises(ValueError):
        q_update(u_bad, cfg)


# --------------------------------------------------------------------------
# residuals and Newton steps

def test_residual_zero_profile():
    F = residual(QPSeries.zero(1), 1.0, GOOD_LAM, 1)
    assert F.support_size() == 0


def test_residual_first_iterate_closed_form():
    cfg = good_cfg()
    a = cfg.a
    u0, _ = initial_guess(cfg)
    E1 = q_update(u0, cfg)
    F = residual(u0, E1, cfg.lam, cfg.p)
    jt3 = tuple(3 * c for c in GOOD_JT)
    # entries on the pinned orbit cancel to rounding (~1e-18); ignore them
    support = {j for j, v in F.coeffs.items() if abs(v) > 1e-15 * a}
    assert support == set(orbit(jt3))
    assert F.get(jt3) == pytest.approx(-(a**3) / 8.0, rel=1e-13)
    oracle = brute_conv_power(u0.coeffs, 3)
    assert F.get(jt3) == pytest.approx(-oracle[jt3], rel=1e-14)


def test_residual_of_accepted_record_meets_tolerance():
    rec = solve(good_cfg())
    F = residual(rec.u, rec.E, rec.config.lam, rec.config.p,
                 box=Region.full_box(rec.config.N_max))
    assert F.l2_norm() <= rec.config.residual_tol


def test_newton_step_zero_at_fixed_point():
    cfg = ProblemConfig(d=1, p=1, a=0.2, jtilde=(0, 0), lam=GOOD_LAM)
    u = QPSeries.delta(1, 0.2)
    E = q_update(u, cfg)
    delta, resid = newton_step(u, E, cfg, N=3)
    assert resid == 0.0
    assert delta.l2_norm() == 0.0


@pytest.mark.parametrize("d,jtilde,a,lam", [(1, (1, 1), 0.05, GOOD_LAM),
                                            (2, (1, 0, 0, 1), 0.02, D2_LAM),
                                            (1, (0, 0), 0.2, GOOD_LAM)])
def test_newton_step_on_empty_coupled_set(monkeypatch, d, jtilde, a, lam):
    # at N = 2 no odd multiple 3 * jtilde_k fits the box (and a zero seed
    # couples nothing), so the increment is zero and no matrix is built
    def no_matrix(op):
        raise AssertionError("matrix built for an empty coupled set")

    monkeypatch.setattr(linop.ReducedOperator, "matrix", no_matrix)
    cfg = ProblemConfig(d=d, p=1, a=a, jtilde=jtilde, lam=lam)
    u0, _ = initial_guess(cfg)
    delta, resid = newton_step(u0, q_update(u0, cfg), cfg, N=2)
    assert delta.sites.shape == (0, 2 * d)
    assert delta.l2_norm() == 0.0
    assert (resid > 0.0) == any(jtilde)


def test_newton_step_rejects_inconsistent_eigenvalue():
    cfg = good_cfg()
    u0, E0 = initial_guess(cfg)
    with pytest.raises(AssertionError):
        newton_step(u0, E0, cfg, N=3)  # E0 is the linear eigenvalue, not q_update


def test_first_residual_law_quick():
    cfg = good_cfg()
    u0, _ = initial_guess(cfg)
    E1 = q_update(u0, cfg)
    delta, _ = newton_step(u0, E1, cfg, N=cfg.M)
    u1 = u0.add(delta)
    E2 = q_update(u1, cfg)
    F1 = residual(u1, E2, cfg.lam, cfg.p)
    assert F1.l2_norm() < cfg.a ** 3


# --------------------------------------------------------------------------
# the full scheme

def test_solve_zero_amplitude():
    rec = solve(good_cfg(a=0.0))
    assert rec.accepted
    assert rec.u.support_size() == 0
    assert rec.E == symbol(GOOD_JT, GOOD_LAM)
    assert rec.diagnostics["final_residual"] == 0.0
    assert len(rec.trace.steps) == 0


@pytest.mark.parametrize("p", [1, 2])
def test_solve_constant_branch_exact(p):
    cfg = ProblemConfig(d=1, p=p, a=0.25, jtilde=(0, 0), lam=GOOD_LAM)
    rec = solve(cfg)
    assert rec.accepted
    assert rec.u.coeffs == {(0, 0): 0.25}
    assert rec.E == pytest.approx(-(0.25 ** (2 * p)), rel=1e-15)
    assert rec.diagnostics["final_residual"] == 0.0


def test_solve_generic_d1():
    cfg = good_cfg()
    rec = solve(cfg)
    assert rec.accepted
    assert rec.diagnostics["final_residual"] <= 1e-12
    e_tilde = symbol(GOOD_JT, GOOD_LAM)
    # eigenvalue shift follows the leading closed form to fourth order
    assert abs(rec.E - e_tilde + 0.75 * cfg.a**2) <= 10 * cfg.a**4
    # pinning and symmetry survived
    for s in orbit(GOOD_JT):
        assert rec.u.get(s) == cfg.pin_value
    F = residual(rec.u, rec.E, cfg.lam, cfg.p)
    assert abs(F.get(GOOD_JT)) <= 1e-15 * cfg.a


def test_solve_trace_scales_nondecreasing():
    rec = solve(good_cfg(a=0.1, residual_tol=1e-13))
    scales = [s.N for s in rec.trace.steps]
    assert scales == sorted(scales)
    assert len(rec.trace.steps) <= rec.config.max_steps


def test_superlinear_contraction_nonvacuous():
    # M = 2 staggers the box growth (the first box is too small to act), so
    # the trace carries three scales and the 4/3-exponent check bites
    rec = solve(good_cfg(a=0.1, M=2, residual_tol=1e-13))
    incs = rec.trace.increment_norms()
    assert len(incs) >= 3
    checked = 0
    for r in range(2, len(incs)):  # pairs (r, r+1) with r >= 2, 1-based
        assert incs[r] <= incs[r - 1] ** (4.0 / 3.0)
        checked += 1
    assert checked >= 1


def test_separation_precheck_rejects_planted_resonance():
    cfg = ProblemConfig(d=1, p=1, a=0.01, jtilde=(1, 0), lam=(1.0, 1.0))
    with pytest.raises(SeparationFailure) as info:
        solve(cfg)
    assert info.value.margin == 0.0


def test_not_converged_carries_record():
    cfg = good_cfg(a=0.1, max_steps=1, residual_tol=1e-14)
    with pytest.raises(NotConverged) as info:
        solve(cfg)
    rec = info.value.record
    assert not rec.accepted
    assert len(rec.trace.steps) == 1


def test_diverged_increment_detected(monkeypatch):
    calls = {"n": 0}
    real_step = solver.newton_step

    def fake_step(u, E, cfg, N, chain=None, F=None):
        calls["n"] += 1
        delta, resid = real_step(u, E, cfg, N, chain, F)
        return delta.scale(10.0 ** calls["n"]), resid

    monkeypatch.setattr(solver, "newton_step", fake_step)
    with pytest.raises(DivergedIncrement):
        solve(good_cfg(a=0.1, residual_tol=1e-16, max_steps=8))


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("d", [1, 2])
def test_solve_forms_one_convolution_chain_per_iterate(monkeypatch, d, p):
    # u^(*2p) takes 2p - 1 products and u^(*(2p+1)) one more; each iterate,
    # the seed included, forms that chain once for its kernel, E and
    # residual, and its residual once for the acceptance test and the next step
    if d == 1:
        cfg = good_cfg(p=p, a=0.05)
    else:
        cfg = ProblemConfig(d=2, p=p, a=0.05, jtilde=GOOD_JT_D2, lam=GOOD_LAM_D2, M=2, N_max=4)
    calls = count_convolutions(monkeypatch)
    residuals = []
    real_residual = solver.residual
    monkeypatch.setattr(solver, "residual", lambda *a, **k: residuals.append(1) or real_residual(*a, **k))
    rec = solve(replace(cfg, precheck=False))
    steps = len(rec.trace.steps)
    assert rec.accepted and steps >= 2
    assert calls["n"] == 2 * p * (steps + 1)
    assert len(residuals) == steps + 1


def test_solve_d2_end_to_end():
    # d = 2 margins only clear the precheck at small amplitude
    cfg = ProblemConfig(d=2, p=1, a=1e-3, jtilde=GOOD_JT_D2, lam=GOOD_LAM_D2, N_max=5)
    rec = solve(cfg)
    assert rec.accepted
    assert rec.diagnostics["final_residual"] <= 1e-12
    e_tilde = symbol(GOOD_JT_D2, GOOD_LAM_D2)
    assert abs(rec.E - e_tilde + (0.75 ** 2) * cfg.a ** 2) <= 100 * cfg.a**4
    for s in orbit(GOOD_JT_D2):
        assert rec.u.get(s) == cfg.pin_value


def test_solve_d3_default_never_enumerates_a_box(monkeypatch):
    # the Newton steps enumerate only the coupled set, never a box (the
    # box of scale N_max = 8 holds 17^6, about 24M sites)
    def no_box(region, d):
        raise AssertionError(f"box of scale {region.N} enumerated")

    monkeypatch.setattr(lattice, "sites_array", no_box)
    cfg = ProblemConfig(d=3, p=1, a=0.01, jtilde=(1, 0, 0, 1, 1, 0), lam=D3_LAM, M=2)
    assert cfg.N_max == 8
    rec = solve(replace(cfg, precheck=False))
    assert rec.accepted
    assert rec.diagnostics["final_residual"] <= cfg.residual_tol


def test_residual_monotone_under_box_growth():
    resids = []
    for n_max in (8, 16, 32):
        rec = solve(good_cfg(a=0.05, N_max=n_max))
        assert rec.accepted
        resids.append(rec.diagnostics["final_residual"])
    tol = 1e-12
    assert resids[1] <= max(resids[0], tol) * (1 + 1e-9)
    assert resids[2] <= max(resids[1], tol) * (1 + 1e-9)


def test_physical_space_consistency():
    cfg = good_cfg(a=0.05)
    rec = solve(cfg)
    u, E = rec.u, rec.E
    F = residual(u, E, cfg.lam, cfg.p)
    sym_u = QPSeries.from_canonical(1, {tuple(j): symbol(j, cfg.lam) * v
                                        for j, v in zip(u.sites.tolist(), u.vals.tolist())})
    rng = np.random.default_rng(12)
    for _ in range(100):
        x = [float(rng.uniform(-20, 20))]
        lhs = evaluate(F, cfg.lam, x)
        ux = evaluate(u, cfg.lam, x)
        rhs = evaluate(sym_u, cfg.lam, x) - E * ux - ux ** (2 * cfg.p + 1)
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_fixed_point_oracle_agreement_quick():
    cfg = good_cfg()
    rec = solve(cfg)
    u_fp = fixed_point_solution(cfg)
    diff = rec.u.add(u_fp.scale(-1.0)).l2_norm()
    assert diff <= 1e-8


def fixed_point_solution(cfg, damping=0.8, sweeps=400, tol=1e-14):
    """Independent damped fixed-point oracle: off the pinned orbit, replace
    u(j) by u^(*(2p+1))(j) / (symbol(j) - E), with E refreshed each sweep."""
    from qpwave.series import conv_power

    u, _ = initial_guess(cfg)
    S = set(orbit(cfg.jtilde))
    box = Region.full_box(cfg.N_max)
    for _ in range(sweeps):
        power = conv_power(u, 2 * cfg.p + 1)
        E = q_update(u, cfg, power=power)
        new = dict(u.coeffs)
        for j, v in power.coeffs.items():
            if j in S or not contains(box, j):
                continue
            denom = symbol(j, cfg.lam) - E
            new[j] = (1 - damping) * new.get(j, 0.0) + damping * v / denom
        candidate = QPSeries.from_canonical(
            cfg.d, {j: v for j, v in new.items() if v != 0.0 and is_canonical(j)})
        if candidate.add(u.scale(-1.0)).l2_norm() <= tol:
            return candidate
        u = candidate
    return u


@pytest.mark.parametrize("cfg, digest", [
    (good_cfg(), "02d356d776d911beb0f1e092c60c336682c13a46a39d60778f342fa99fd9fdf3"),
    (ProblemConfig(d=2, p=2, a=0.08, M=2, jtilde=GOOD_JT_D2, lam=(1.05, 0.723, 0.8, 1.31), precheck=False),
     "327da93796274102ab679956a976c260a6a8c73af4eac5954a9118820c2f27dd"),
    (ProblemConfig(d=3, M=2, jtilde=(1, 0, 0, 1, 1, 0), lam=(1.05, 0.723, 0.8, 1.31, 1.21, 0.57), precheck=False),
     "c58a4c40d712ad4d9af8d526753df5e005879081a17e767304747317c0415f14"),
], ids=["d1-stored", "d2-longest-chain", "d3"])
def test_solve_is_bit_identical_to_pinned_digests(cfg, digest):
    """sha256 of repr((E, sorted coefficients)) of three solves: the stored
    d=1 solution, the benchmark's d=2 grid point with the longest
    convolution chain, and the d=3 solve of CI.  The digests were computed
    at commit c7367bbc85dc, so any reordering of the accumulation, which the
    per-call oracles may miss, changes them."""
    rec = solve(cfg)
    assert hashlib.sha256(repr((rec.E, sorted(rec.u.coeffs.items()))).encode()).hexdigest() == digest
