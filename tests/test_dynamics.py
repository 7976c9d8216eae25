import cmath
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from helpers import (GOOD_JT, GOOD_JT_D2, GOOD_LAM, GOOD_LAM_D2, brute_conv_power, brute_convolve, coeffs_of,
                     complex_series, evenness_defect, full_box_evolve, full_box_nonlinear,
                     random_symmetric_series, reality_defect)
from qpwave import dynamics, lattice, linop
from qpwave.dynamics import ComplexSeries, StepUnstable, evolve, nonlinear_term, standing_wave_deviation
from qpwave.lattice import Region, symbol
from qpwave.series import QPSeries, conv_power, truncate
from qpwave.solver import ProblemConfig, solve


def good_cfg(**kw):
    base = dict(d=1, p=1, a=0.01, jtilde=GOOD_JT, lam=GOOD_LAM)
    base.update(kw)
    return ProblemConfig(**base)


# --------------------------------------------------------------------------
# the nonlinear term

@pytest.mark.parametrize("p", [1, 2])
def test_nonlinear_term_constant_field(p):
    a = 0.7
    C = complex_series(1, {(0, 0): a})
    out = coeffs_of(nonlinear_term(C, p, Region.full_box(2)))
    assert set(out) == {(0, 0)}
    assert out[(0, 0)] == pytest.approx(a ** (2 * p + 1), rel=1e-13)


@pytest.mark.parametrize("box_n", [3, 12])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p", [1, 2])
def test_nonlinear_term_real_symmetric_matches_convolution_power(p, d, box_n):
    # box_n = 3 lies inside the product's support, so aliasing would show
    rng = np.random.default_rng(0)
    u = random_symmetric_series(d, rng, n_orbits=3, box_n=2, scale=0.3)
    C = ComplexSeries.from_profile(u)
    box = Region.full_box(box_n)
    out = coeffs_of(nonlinear_term(C, p, box))
    ref = truncate(conv_power(u, 2 * p + 1), box)
    for j in set(out) | set(ref.coeffs):
        got = out.get(j, 0j)
        assert abs(got.imag) <= 1e-14
        assert got.real == pytest.approx(ref.get(j), rel=1e-11, abs=1e-13)


def test_nonlinear_term_collocation_oracle():
    # sample |U|^2 U pointwise on a quasi-random set and project back onto
    # the expected modes by least squares; agreement to 1e-6
    rng = np.random.default_rng(1)
    modes = [(0, 0), (1, 1), (-1, -1), (2, -1), (-2, 1)]
    coeffs = {j: complex(rng.normal(), rng.normal()) * 0.5 for j in modes}
    p = 1
    out = coeffs_of(nonlinear_term(complex_series(1, coeffs), p, Region.full_box(9)))
    out_modes = sorted(out)
    xs = rng.uniform(0.0, 60.0, size=max(50, 2 * len(out_modes)))

    def field(x):
        return sum(v * cmath.exp(1j * (j[0] * GOOD_LAM[0] + j[1] * GOOD_LAM[1]) * x)
                   for j, v in coeffs.items())

    target = np.array([abs(field(x)) ** (2 * p) * field(x) for x in xs])
    design = np.array([[cmath.exp(1j * (j[0] * GOOD_LAM[0] + j[1] * GOOD_LAM[1]) * x)
                        for j in out_modes] for x in xs])
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    for j, c in zip(out_modes, coef):
        assert abs(c - out[j]) <= 1e-6


def test_nonlinear_term_respects_box():
    C = complex_series(1, {(2, 2): 0.5, (-2, -2): 0.5})
    out = nonlinear_term(C, 1, Region.full_box(3))
    assert len(out.vals) and np.abs(out.sites).max() <= 3


@pytest.mark.parametrize("p", [1, 2])
def test_nonlinear_term_on_a_box_minus_region_is_the_full_box_term_without_s(p):
    # the crop to a region with excluded sites is one array mask; S holds
    # two sites of the full-box term and one off the support's coset
    C = complex_series(1, {(1, 1): 0.3 + 0.1j, (2, -1): -0.2 + 0.25j})
    S = {(1, 1), (3, -3), (0, 0)}
    full = coeffs_of(nonlinear_term(C, p, Region.full_box(4)))
    assert {(1, 1), (3, -3)} <= set(full) and (0, 0) not in full
    got = coeffs_of(nonlinear_term(C, p, Region.box_minus(4, S)))
    assert got == {j: v for j, v in full.items() if j not in S}


# --------------------------------------------------------------------------
# the alias bound of the placed grid

# (d, rows spanning the support's lattice, support radius); each support
# holds the origin and, on every axis of the coordinates m, a point at
# m_i = h_i and one at m_i = -h_i, so the term reaches (2p+1) h_i there
ALIAS_CASES = {
    "d1-rank1-axis": (1, [[1, 0]], 3),
    "d1-rank1-diagonal": (1, [[1, 1]], 3),
    "d1-rank2": (1, [[1, 0], [0, 1]], 2),
    "d1-rank2-skewed": (1, [[1, 1], [2, -1]], 3),  # index 3: H = [[1, 1], [0, 3]]
    "d2-rank2": (2, [[1, 0, 1, 0], [0, 1, 0, 1]], 2),
    "d2-rank3-skewed": (2, [[1, 1, 0, 0], [0, 2, 1, 0], [0, 0, 1, -1]], 2),
    "d2-rank4": (2, np.eye(4, dtype=int).tolist(), 1),
}


def _alias_case(name):
    d, rows, R = ALIAS_CASES[name]
    rng = np.random.default_rng(sorted(ALIAS_CASES).index(name))
    H = lattice.hermite_basis(np.array(rows))
    box = np.array(list(itertools.product(range(-R, R + 1), repeat=2 * d)))
    on = box[~lattice.lattice_reduce(box, H)[1].any(axis=1)]
    m = lattice.lattice_reduce(on, H)[0]
    half = dynamics._half_widths((np.zeros(2 * d, dtype=np.int64), H), R)
    pick = set(rng.choice(len(on), size=3).tolist())
    pick |= {int(rng.choice(np.flatnonzero(m[:, i] == s * h))) for i, h in enumerate(half) for s in (1, -1)}
    C = {tuple(on[k].tolist()): complex(*rng.normal(size=2)) * 0.3 for k in sorted(pick)}
    C[(0,) * (2 * d)] = 0.2  # the origin: the coset's s0, so the grid is H's rectangle
    assert complex_series(d, C).coset()[1].tolist() == H.tolist()
    return d, C, R


def _alias_error(d, C, p, N) -> float:
    """Largest gap between nonlinear_term and the brute-force convolution on
    the box of scale N, relative to the term's peak."""
    Cbar = {tuple(-c for c in j): v.conjugate() for j, v in C.items()}
    want = brute_convolve(brute_conv_power(C, p + 1), brute_conv_power(Cbar, p))
    want = {j: v for j, v in want.items() if max(map(abs, j)) <= N}
    got = coeffs_of(nonlinear_term(complex_series(d, C), p, Region.full_box(N)))
    return max(abs(got.get(j, 0j) - want.get(j, 0j)) for j in set(got) | set(want)) / max(map(abs, want.values()))


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("name", sorted(ALIAS_CASES))
def test_corner_placement_is_alias_free_at_the_minimal_period_and_no_shorter(monkeypatch, name, p):
    # next_fast_len as the identity leaves every period at its minimum,
    # (2p+1) h_in + h_out + 1; one shorter aliases the term's extreme
    # coefficient at (2p+1) h_in onto -h_out, inside the crop
    d, C, R = _alias_case(name)
    monkeypatch.setattr(dynamics, "next_fast_len", lambda n: n)
    assert _alias_error(d, C, p, R) <= 1e-12
    monkeypatch.setattr(dynamics, "next_fast_len", lambda n: n - 1)
    assert _alias_error(d, C, p, R) > 1e-6


# --------------------------------------------------------------------------
# evolution

def test_linear_evolution_is_exact_phase(monkeypatch):
    # without the nonlinear term the flow is the exact phase rotation
    monkeypatch.setattr(dynamics._Spectral, "__call__",
                        lambda self, grid: np.zeros_like(self.padded[self.crop]))
    a = 0.3
    C0 = complex_series(1, {GOOD_JT: a / 2, (-1, -1): a / 2})
    T, dt = 1.0, 1e-2
    res = evolve(C0, GOOD_LAM, 1, T, dt, Region.full_box(3),
                 phase_reference=symbol(GOOD_JT, GOOD_LAM))
    assert res.max_deviation <= 1e-12
    assert res.mass_drift <= 1e-13


@pytest.mark.parametrize("p", [1, 2])
def test_constant_branch_phase_rotation(p):
    # the constant field rotates with phase +|a|^(2p) t
    a = 0.5
    C0 = complex_series(1, {(0, 0): a})
    T, dt = 1.0, 1e-3
    res = evolve(C0, GOOD_LAM, p, T, dt, Region.full_box(2),
                 phase_reference=-(a ** (2 * p)))
    assert res.max_deviation <= 1e-10
    assert res.mass_drift <= 1e-12


def test_scheme_order_against_closed_form():
    # halving dt cuts the error by >= ~2^4 for the constant-field closed form
    a, p, T = 0.6, 1, 2.0
    exact = a * cmath.exp(1j * a ** (2 * p) * T)
    errs = []
    for dt in (0.04, 0.02):
        res = evolve(complex_series(1, {(0, 0): a}), GOOD_LAM, p, T, dt, Region.full_box(1))
        errs.append(abs(coeffs_of(res.final)[(0, 0)] - exact))
    assert errs[0] > 0
    assert errs[0] / errs[1] >= 12.0


def test_mass_drift_fourth_order_reduction():
    rng = np.random.default_rng(2)
    u = random_symmetric_series(1, rng, n_orbits=3, box_n=1, scale=0.4)
    C0 = ComplexSeries.from_profile(u)
    drifts = []
    for dt in (0.02, 0.01):
        res = evolve(C0, GOOD_LAM, 1, 1.0, dt, Region.full_box(4))
        drifts.append(res.mass_drift)
    assert drifts[0] / max(drifts[1], 1e-18) >= 10.0


def test_phase_equivariance():
    rng = np.random.default_rng(3)
    u = random_symmetric_series(1, rng, n_orbits=2, box_n=1, scale=0.3)
    C0 = ComplexSeries.from_profile(u)
    phi = 0.739
    C0_rot = ComplexSeries(1, C0.sites, C0.vals * cmath.exp(1j * phi))
    box = Region.full_box(4)
    f1 = coeffs_of(evolve(C0, GOOD_LAM, 1, 0.5, 1e-2, box).final)
    f2 = coeffs_of(evolve(C0_rot, GOOD_LAM, 1, 0.5, 1e-2, box).final)
    for j in set(f1) | set(f2):
        assert abs(f2.get(j, 0j) - f1.get(j, 0j) * cmath.exp(1j * phi)) <= 1e-12


def test_evenness_preserved_but_not_reality():
    # the even subspace is flow-invariant; literal realness of the field is
    # not (free evolution already rotates each mode's phase)
    rng = np.random.default_rng(4)
    u = random_symmetric_series(1, rng, n_orbits=3, box_n=1, scale=0.3)
    C0 = ComplexSeries.from_profile(u)
    assert reality_defect(C0) == 0.0
    assert evenness_defect(C0) == 0.0
    res = evolve(C0, GOOD_LAM, 1, 0.5, 1e-2, Region.full_box(4))
    assert evenness_defect(res.final) <= 1e-12
    assert reality_defect(res.final) > 1e-3  # phases rotated, as they must


def test_derotated_standing_wave_stays_real():
    # for a constructed solution the conjugate symmetry is restored by
    # removing the eigenvalue phase
    rec = solve(good_cfg())
    C0 = ComplexSeries.from_profile(rec.u)
    res = evolve(C0, rec.config.lam, 1, 0.25, 1e-3, Region.full_box(12))
    t_final = res.times[-1]
    derotated = ComplexSeries(1, res.final.sites, res.final.vals * cmath.exp(1j * rec.E * t_final))
    assert reality_defect(derotated) <= 1e-8 * np.abs(rec.u.vals).max()


def test_step_unstable_raises():
    C0 = complex_series(1, {(0, 0): 8.0, (1, 1): 4.0, (-1, -1): 4.0})
    with pytest.raises(StepUnstable):
        evolve(C0, GOOD_LAM, 1, 1.0, 0.5, Region.full_box(2))


def test_out_of_box_mass_reported():
    coeffs = {(2, 2): 0.4, (-2, -2): 0.4}
    box = Region.full_box(2)
    res = evolve(complex_series(1, coeffs), GOOD_LAM, 1, 0.1, 1e-2, box)
    # t = 0 reports the initial state's own fraction, against the sparse oracle
    full = conv_power(QPSeries.delta(1, 0.4, (2, 2)), 3)
    inside = truncate(full, box).l2_norm()
    expected = math.sqrt(full.l2_norm() ** 2 - inside ** 2) / full.l2_norm()
    assert res.out_of_box[0] == pytest.approx(expected, abs=1e-12)
    assert res.max_out_of_box == max(res.out_of_box)
    assert res.max_out_of_box > 0.0


def test_evolve_rejects_bad_step_and_checkpoint_arguments():
    C0 = complex_series(1, {(0, 0): 0.5})
    box = Region.full_box(2)
    for T, dt in ((math.nan, 1e-2), (1.0, math.nan), (math.inf, 1e-2), (1.0, 0.0), (1e-3, 1e-2)):
        with pytest.raises(ValueError, match="dt > 0"):
            evolve(C0, GOOD_LAM, 1, T, dt, box)
    with pytest.raises(ValueError, match="checkpoint_every"):
        evolve(C0, GOOD_LAM, 1, 0.1, 1e-2, box, checkpoint_every=0)


# --------------------------------------------------------------------------
# the support's coset against the whole box

def _solution_case(cfg, N):
    rec = solve(replace(cfg, precheck=False))
    assert rec.accepted
    return ComplexSeries.from_profile(rec.u), cfg.lam, cfg.p, N, rec.E


# (initial state, lambda, p, box scale, phase reference)
ORACLE_CASES = {
    "d1-stored": lambda: _solution_case(good_cfg(), 30),
    # a larger amplitude on a small box: out-of-box mass near 4e-4
    "d1-large-amplitude": lambda: _solution_case(good_cfg(a=0.3), 4),
    "d2-p1": lambda: _solution_case(
        ProblemConfig(d=2, p=1, a=0.02, M=2, jtilde=GOOD_JT_D2, lam=GOOD_LAM_D2), 4),
    "d2-p2": lambda: _solution_case(
        ProblemConfig(d=2, p=2, a=0.02, M=2, jtilde=GOOD_JT_D2, lam=GOOD_LAM_D2), 4),
    # (1, 1) and (2, -1) span an index-3 lattice of full rank, but their
    # coset (1, 1) + Z (1, -2) is a skewed line
    "skewed": lambda: (complex_series(1, {(1, 1): 0.3 + 0.1j, (2, -1): -0.2 + 0.25j}),
                       GOOD_LAM, 1, 6, 0.4),
    "constant": lambda: (complex_series(1, {(0, 0): 0.5 + 0j}), GOOD_LAM, 1, 2, -0.25),
}


@pytest.fixture(scope="module", params=sorted(ORACLE_CASES))
def oracle_case(request):
    return ORACLE_CASES[request.param]()


def _assert_close_coeffs(got: dict, want: dict):
    peak = max(map(abs, want.values()))
    for j in set(got) | set(want):
        assert abs(got.get(j, 0j) - want.get(j, 0j)) <= 1e-12 * peak, j


def _assert_agree(got: np.ndarray, want: np.ndarray):
    # 1e-12 relative above an absolute floor of 1e-15: the deviation and the
    # out-of-box fraction are ratios of norms of small differences or small
    # tails, and the two paths' FFTs, of different sizes, round differently
    # at about 1e-16 of the peak
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


def test_nonlinear_term_matches_the_whole_box(oracle_case):
    C, lam, p, N, _ = oracle_case
    inside = np.abs(C.sites).max(axis=1) <= N
    C = ComplexSeries(C.d, C.sites[inside], C.vals[inside])
    grid = np.zeros((2 * N + 1,) * (2 * C.d), dtype=complex)
    for j, v in coeffs_of(C).items():
        grid[tuple(c + N for c in j)] = v
    crop = full_box_nonlinear(grid, p, N, N)
    want = {tuple(int(c) - N for c in pos): complex(crop[tuple(pos)]) for pos in np.argwhere(crop != 0)}
    _assert_close_coeffs(coeffs_of(nonlinear_term(C, p, Region.full_box(N))), want)


def test_evolve_matches_the_whole_box(oracle_case):
    C0, lam, p, N, E = oracle_case
    T, dt, every = 0.004, 1e-3, 4
    res = evolve(C0, lam, p, T, dt, Region.full_box(N), checkpoint_every=every, phase_reference=E)
    final, rows = full_box_evolve(coeffs_of(C0), lam, p, T, dt, N, every, E)
    np.testing.assert_allclose(res.times, [0.0, 0.004], rtol=0.0, atol=1e-15)
    _assert_agree(res.mass, rows[:, 0])
    _assert_agree(res.deviation, rows[:, 1])
    _assert_agree(res.out_of_box, rows[:, 2])
    _assert_close_coeffs(coeffs_of(res.final), final)


D3_CFG = ProblemConfig(d=3, M=2, jtilde=(1, 0, 0, 1, 1, 0), lam=(1.05, 0.723, 0.8, 1.31, 1.21, 0.57),
                       precheck=False)


def test_evolution_grid_is_the_support_coset():
    # an even seed's solution sits on the odd multiples of its blocks: the
    # d = 1 state is one line of N + 1 points (31 at N = 30, not 61), the
    # default d = 3 one a 9^3 grid (not 17^3), and the grids' bytes grow like N
    s0, H = ComplexSeries.from_profile(solve(good_cfg()).u).coset()
    assert abs(s0).max() == 1 and H.tolist() == [[2, 2]]
    assert dynamics._half_widths((s0, H), 30) == (15,)
    assert dynamics._evolve_bytes((s0, H), 1, 2000) < 2 * dynamics._evolve_bytes((s0, H), 1, 1000)
    d3 = solve(D3_CFG)
    assert d3.accepted and d3.config.N_max == 8
    assert dynamics._half_widths(ComplexSeries.from_profile(d3.u).coset(), 8) == (4, 4, 4)


# (configuration, box scale): the stored d = 1 solution and the d = 2 and
# d = 3 solutions that CI evolves, on boxes where the grids dominate
MEMORY_CASES = {
    "d1": (good_cfg(), 20000),
    "d2": (ProblemConfig(d=2, M=2, a=0.02, jtilde=GOOD_JT_D2, lam=GOOD_LAM_D2, precheck=False), 40),
    "d3": (D3_CFG, 16),
}


@pytest.mark.parametrize("name", sorted(MEMORY_CASES))
def test_evolve_peak_memory_stays_within_its_byte_bound(name):
    cfg, N = MEMORY_CASES[name]
    rec = solve(cfg)
    C0 = ComplexSeries.from_profile(rec.u)
    args = (C0, cfg.lam, cfg.p, 1e-3, 1e-3, Region.full_box(N))
    evolve(*args, checkpoint_every=1, phase_reference=rec.E)  # numpy's first calls load lazy parts
    tracemalloc.start()
    try:
        evolve(*args, checkpoint_every=1, phase_reference=rec.E)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= dynamics._evolve_bytes(C0.coset(), cfg.p, N)


@pytest.mark.parametrize("half", [(), (200,), (6, 6), (4, 4, 4)])
def test_spectral_evaluator_allocates_no_array_per_call(half):
    stage = dynamics._Spectral(half, half, 1)
    grid = np.full(tuple(2 * h + 1 for h in half), 0.1 + 0.2j)
    first = stage(grid).copy()
    tracemalloc.start()
    try:
        again = stage(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(again, first)
    assert peak < 4096  # views and scalars; the smallest work array here takes 10 KB


def test_evolve_rejects_grids_over_the_budget_before_allocating(monkeypatch):
    C0 = complex_series(1, {(1, 1): 0.1, (-1, -1): 0.1})
    monkeypatch.setattr(ComplexSeries, "to_grid", lambda *a: pytest.fail("allocated"))
    with pytest.raises(linop.OperatorTooLarge, match="the evolution grids on the box of scale 10000000"):
        evolve(C0, GOOD_LAM, 1, 0.01, 1e-3, Region.full_box(10**7))


def test_next_fast_len_is_the_smallest_5_smooth_length():
    def smooth(n):
        for f in (2, 3, 5):
            while n % f == 0:
                n //= f
        return n == 1

    for n in range(1, 400):
        L = dynamics.next_fast_len(n)
        assert L >= n and smooth(L) and not any(smooth(k) for k in range(n, L))


# --------------------------------------------------------------------------
# standing waves

def test_standing_wave_zero_amplitude():
    rec = solve(good_cfg(a=0.0))
    assert standing_wave_deviation(rec, T=0.5, dt=1e-2) == 0.0


def test_standing_wave_constant_branch():
    rec = solve(ProblemConfig(d=1, p=1, a=0.25, jtilde=(0, 0), lam=GOOD_LAM))
    dev = standing_wave_deviation(rec, T=1.0, dt=1e-3, box=Region.full_box(2))
    assert dev <= 1e-10


def test_standing_wave_accepted_solution_quick():
    rec = solve(good_cfg())
    dev = standing_wave_deviation(rec, T=0.25, dt=1e-3, box=Region.full_box(12))
    assert dev <= 1e-6


def test_standing_wave_requires_accepted_record():
    rec = solve(good_cfg())
    rec.accepted = False
    with pytest.raises(ValueError):
        standing_wave_deviation(rec, T=0.1, dt=1e-2)


def test_deviation_scales_with_residual():
    # run the dynamics on the seed pair (loose) and the converged pair
    # (tight); deviation tracks the residual roughly linearly
    devs, resids = [], []
    for tol in (1e-6, 1e-12):
        rec = solve(good_cfg(residual_tol=tol))
        assert rec.accepted
        resids.append(max(rec.diagnostics["final_residual"], 1e-300))
        dev = standing_wave_deviation(rec, T=0.5, dt=2e-4, box=Region.full_box(12))
        devs.append(max(dev, 1e-300))
    slope = math.log(devs[0] / devs[1]) / math.log(resids[0] / resids[1])
    assert 0.6 <= slope <= 1.4
