import math

import numpy as np
import pytest

from helpers import GOOD_LAM, random_symmetric_series, seed_series
from qpwave import lattice, linop
from qpwave.lattice import Region, orbit, symbol
from qpwave.linop import (
    ReducedOperator,
    SingularOperator,
    apply,
    assemble,
    covariance_discrepancy,
    greens_profile,
    solve_linear,
)
from qpwave.series import QPSeries


D2_LAM = (1.05, 0.723, 0.8, 1.31)


def test_assemble_zero_profile_is_diagonal():
    u = QPSeries.zero(1)
    theta = (0.3,)
    E = 1.7
    T = assemble(u, E, GOOD_LAM, theta, Region.full_box(3), p=1)
    M = T.to_dense()
    assert np.allclose(M, np.diag(np.diag(M)), atol=0)
    for i, site in enumerate(T.sites):
        j = tuple(map(int, site))
        v = (j[0] * GOOD_LAM[0] + j[1] * GOOD_LAM[1] + theta[0]) ** 2 - E
        assert M[i, i] == pytest.approx(v, rel=1e-15)


def test_assemble_seed_kernel_matrix_d2():
    # kernel is (2p+1) * u0^(*2); its entries land with a minus sign
    jt = (1, 0, 0, 1)
    u = QPSeries(2, {o: 0.25 for o in orbit(jt)})  # a = 1
    E = symbol(jt, D2_LAM)
    T = assemble(u, E, D2_LAM, None, Region.full_box(3), p=1)
    idx = T.site_index()
    origin = (0, 0, 0, 0)
    i0 = idx[origin]
    assert T.to_dense()[i0, idx[(2, 0, 0, 0)]] == pytest.approx(-3.0 / 8.0, abs=1e-15)
    assert T.to_dense()[i0, idx[(0, 0, 0, 2)]] == pytest.approx(-3.0 / 8.0, abs=1e-15)
    assert T.to_dense()[i0, idx[(2, 0, 0, -2)]] == pytest.approx(-3.0 / 16.0, abs=1e-15)
    # the kernel's value at offset zero sits on the diagonal
    assert T.to_dense()[i0, i0] == pytest.approx(T.diag[i0] - 3.0 / 4.0, abs=1e-15)


def test_diag_vanishes_on_resonant_orbit_at_linear_eigenvalue():
    jt = (1, 0, 0, 1)
    u = seed_series(2, 0.01)
    u = QPSeries(2, {o: 0.01 / 4 for o in orbit(jt)})
    E = symbol(jt, D2_LAM)
    T = assemble(u, E, D2_LAM, None, Region.full_box(2), p=1)
    idx = T.site_index()
    for s in orbit(jt):
        assert T.diag[idx[s]] == 0.0


def test_apply_linear_and_matches_dense():
    rng = np.random.default_rng(0)
    u = random_symmetric_series(1, rng, n_orbits=3, box_n=2, scale=0.1)
    T = assemble(u, 1.3, GOOD_LAM, None, Region.full_box(4), p=1)
    assert np.all(apply(T, np.zeros(T.n)) == 0.0)
    v = rng.normal(size=T.n)
    assert np.allclose(apply(T, v), T.to_dense() @ v, rtol=1e-13, atol=1e-14)


def test_apply_diagonal_only_is_elementwise():
    T = assemble(QPSeries.zero(1), 0.9, GOOD_LAM, None, Region.full_box(3), p=1)
    v = np.arange(T.n, dtype=float)
    assert np.allclose(apply(T, v), T.diag * v, atol=0)


def test_apply_index_mismatch():
    T = assemble(QPSeries.zero(1), 0.9, GOOD_LAM, None, Region.full_box(2), p=1)
    with pytest.raises(ValueError):
        apply(T, np.zeros(T.n + 1))


def test_solve_linear_diagonal():
    T = assemble(QPSeries.zero(1), -0.5, GOOD_LAM, None, Region.full_box(3), p=1)
    for i in (0, T.n // 2, T.n - 1):
        rhs = np.zeros(T.n)
        rhs[i] = 1.0
        w = solve_linear(T, rhs)
        expect = np.zeros(T.n)
        expect[i] = 1.0 / T.diag[i]
        assert np.allclose(w, expect, rtol=1e-13, atol=1e-16)


def test_solve_linear_singular_at_resonance():
    # at the linear eigenvalue on the full box, the diagonal vanishes on the
    # resonant orbit and the tiny kernel cannot compensate
    jt = (1, 1)
    a = 1e-8
    u = QPSeries(1, {o: a / 2 for o in orbit(jt)})
    E = symbol(jt, GOOD_LAM)
    T = assemble(u, E, GOOD_LAM, None, Region.full_box(3), p=1)
    rhs = np.ones(T.n)
    with pytest.raises(SingularOperator):
        solve_linear(T, rhs)


def test_solve_linear_matches_dense_oracle():
    rng = np.random.default_rng(1)
    u = random_symmetric_series(1, rng, n_orbits=4, box_n=2, scale=0.05)
    T = assemble(u, -2.0, GOOD_LAM, None, Region.full_box(5), p=1)
    rhs = rng.normal(size=T.n)
    w = solve_linear(T, rhs)
    w_oracle = np.linalg.solve(T.to_dense(), rhs)
    assert np.linalg.norm(w - w_oracle) <= 1e-11 * np.linalg.norm(w_oracle)
    # residual contract, re-checked from outside
    r = np.linalg.norm(apply(T, w) - rhs) / np.linalg.norm(rhs)
    assert r <= 1e-12


def test_positive_definite_below_spectrum():
    E = -1.0  # below min of the symbol on any box
    T = assemble(QPSeries.zero(1), E, GOOD_LAM, None, Region.full_box(4), p=1)
    # all factorization pivots positive == Cholesky succeeds
    np.linalg.cholesky(T.to_dense())


def test_assembled_matrix_exactly_symmetric():
    rng = np.random.default_rng(2)
    for d, lam in ((1, GOOD_LAM), (2, D2_LAM)):
        u = random_symmetric_series(d, rng, n_orbits=3, box_n=2, scale=0.2)
        T = assemble(u, 0.7, lam, None, Region.full_box(3 if d == 1 else 2), p=1)
        M = T.to_dense()
        assert np.array_equal(M, M.T)


def test_covariance_identity_zero_shift():
    u = seed_series(1, 0.01)
    j0 = (0, 0)
    disc = covariance_discrepancy(u, 1.0, GOOD_LAM, (0.2,), j0, Region.full_box(3))
    assert disc == 0.0


def test_covariance_identity_random_shifts():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(1, 3))
        lam = GOOD_LAM if d == 1 else D2_LAM
        u = random_symmetric_series(d, rng, n_orbits=3, box_n=2, scale=0.3)
        theta = tuple(float(t) for t in rng.uniform(-1, 1, size=d))
        j0 = tuple(int(c) for c in rng.integers(-5, 6, size=2 * d))
        disc = covariance_discrepancy(u, float(rng.uniform(-2, 2)), lam, theta, j0,
                                      Region.full_box(3 if d == 1 else 2))
        assert disc <= 1e-12


def test_covariance_discrepancy_independent_of_E():
    rng = np.random.default_rng(4)
    u = random_symmetric_series(1, rng, n_orbits=3, box_n=2)
    j0 = (2, -1)
    d1 = covariance_discrepancy(u, 0.0, GOOD_LAM, (0.1,), j0, Region.full_box(3))
    d2 = covariance_discrepancy(u, 57.3, GOOD_LAM, (0.1,), j0, Region.full_box(3))
    assert d1 == d2


def test_greens_profile_diagonal_case():
    E = -0.25
    T = assemble(QPSeries.zero(1), E, GOOD_LAM, None, Region.full_box(4), p=1)
    prof = greens_profile(T)
    assert prof.op_norm_inverse == pytest.approx(1.0 / np.min(np.abs(T.diag)), rel=1e-9)
    assert prof.decay is None  # no off-diagonal mass at all
    assert prof.threshold_distance == 1


def test_greens_profile_norm_lower_bound():
    rng = np.random.default_rng(5)
    u = random_symmetric_series(1, rng, n_orbits=3, box_n=2, scale=0.05)
    T = assemble(u, -1.5, GOOD_LAM, None, Region.full_box(4), p=1)
    prof = greens_profile(T)
    sigma_max = np.linalg.svd(T.to_dense(), compute_uv=False)[0]
    assert prof.op_norm_inverse >= (1.0 / sigma_max) * (1 - 1e-6)


def test_greens_profile_covariance_invariance():
    u = seed_series(1, 0.05)
    E = symbol((1, 1), GOOD_LAM) - 0.6
    region = Region.full_box(4)
    base_sites = lattice.sites_array(region, 1)
    j0 = (2, 1)
    shift = tuple(map(int, j0))
    shifted = [tuple(map(int, s + np.array(shift))) for s in base_sites]
    T_shift_region = assemble(u, E, GOOD_LAM, (0.0,), shifted, p=1)
    theta2 = (lattice.block_inner(j0, GOOD_LAM),)
    T_shift_theta = assemble(u, E, GOOD_LAM, theta2, region, p=1)
    p1 = greens_profile(T_shift_region)
    p2 = greens_profile(T_shift_theta)
    assert p1.op_norm_inverse == pytest.approx(p2.op_norm_inverse, rel=1e-6)
    assert p1.decay.rate == pytest.approx(p2.decay.rate, rel=1e-6)


def _reduced_action(red):
    """Dense action of the reduced operator in canonical (unweighted) coords."""
    M = red.matrix()
    if not isinstance(M, np.ndarray):
        M = M.toarray()
    sq = np.sqrt(red.weights)
    return (M / sq[:, None]) * sq[None, :]


def test_reduced_operator_matches_full_on_symmetric_vectors():
    rng = np.random.default_rng(6)
    u = random_symmetric_series(1, rng, n_orbits=4, box_n=2, scale=0.1)
    region = Region.box_minus(3, orbit((1, 1)))
    red = ReducedOperator(u, 0.8, GOOD_LAM, region, p=1)
    T = assemble(u, 0.8, GOOD_LAM, None, region, p=1)
    # random symmetric vector via a random series
    w = random_symmetric_series(1, rng, n_orbits=5, box_n=3)
    v_full = np.array([w.get(tuple(map(int, s))) for s in T.sites])
    y_full = apply(T, v_full)
    v_canon = np.array([w.get(tuple(map(int, s))) for s in red.sites])
    y_canon = _reduced_action(red) @ v_canon
    idx = T.site_index()
    for row, s in enumerate(red.sites):
        assert y_canon[row] == pytest.approx(y_full[idx[tuple(map(int, s))]], rel=1e-12, abs=1e-14)


def test_reduced_matrix_nearly_symmetric():
    rng = np.random.default_rng(7)
    u = random_symmetric_series(2, rng, n_orbits=3, box_n=1, scale=0.2)
    red = ReducedOperator(u, 0.4, D2_LAM, Region.full_box(2), p=1)
    M = red.matrix()
    scale = np.max(np.abs(M))
    assert np.max(np.abs(M - M.T)) <= 1e-14 * scale


def test_reduced_solve_matches_full_solve():
    rng = np.random.default_rng(8)
    u = random_symmetric_series(1, rng, n_orbits=3, box_n=2, scale=0.05)
    region = Region.box_minus(4, orbit((1, 1)))
    red = ReducedOperator(u, -1.2, GOOD_LAM, region, p=1)
    rhs = random_symmetric_series(1, rng, n_orbits=4, box_n=3)
    w_series = red.solve_series(rhs)
    T = assemble(u, -1.2, GOOD_LAM, None, region, p=1)
    rhs_full = np.array([rhs.get(tuple(map(int, s))) for s in T.sites])
    w_full = solve_linear(T, rhs_full)
    for i, s in enumerate(T.sites):
        assert w_series.get(tuple(map(int, s))) == pytest.approx(w_full[i], rel=1e-10, abs=1e-14)


def test_reduced_requires_orbit_closed_region():
    u = QPSeries.zero(1)
    with pytest.raises(ValueError):
        ReducedOperator(u, 0.0, GOOD_LAM, Region.box_minus(3, [(1, 1)]), p=1)


def test_newton_increment_solves_linearized_equation():
    # apply(assemble(u, ...), delta) + F(u) vanishes on the solve region
    # after an exact Newton step, to solver tolerance
    from qpwave.solver import ProblemConfig, initial_guess, newton_step, q_update, residual

    cfg = ProblemConfig(d=1, p=1, a=0.05, jtilde=(1, 1), lam=GOOD_LAM)
    u0, _ = initial_guess(cfg)
    E1 = q_update(u0, cfg)
    delta, _ = newton_step(u0, E1, cfg, N=9)
    region = Region.box_minus(9, orbit((1, 1)))
    T = assemble(u0, E1, GOOD_LAM, None, region, cfg.p)
    F = residual(u0, E1, GOOD_LAM, cfg.p)
    d_vec = np.array([delta.get(tuple(map(int, s))) for s in T.sites])
    f_vec = np.array([F.get(tuple(map(int, s))) for s in T.sites])
    defect = np.linalg.norm(apply(T, d_vec) + f_vec)
    assert defect <= 1e-13 * max(np.linalg.norm(f_vec), 1e-30)


def test_reduced_solve_matches_dense_oracle():
    rng = np.random.default_rng(9)
    u = random_symmetric_series(1, rng, n_orbits=3, box_n=2, scale=0.05)
    region = Region.box_minus(5, orbit((1, 1)))
    red = ReducedOperator(u, -1.0, GOOD_LAM, region, p=1)
    rhs = random_symmetric_series(1, rng, n_orbits=4, box_n=4)
    w = red.solve_series(rhs)
    rhs_vec = np.array([rhs.get(tuple(map(int, s))) for s in red.sites])
    w_vec = np.linalg.solve(_reduced_action(red), rhs_vec)
    w_oracle = QPSeries.from_canonical(
        1, {tuple(map(int, s)): float(x) for s, x in zip(red.sites, w_vec) if x != 0.0})
    diff = w.add(w_oracle.scale(-1.0)).l2_norm()
    assert diff <= 1e-11 * max(w_oracle.l2_norm(), 1e-30)
