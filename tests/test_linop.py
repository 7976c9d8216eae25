import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    GOOD_JT_D2,
    GOOD_LAM,
    GOOD_LAM_D2,
    assembly_oracle,
    brute_conv_power,
    canonical_sites,
    dense_greens_profile,
    profile_with_shells,
    random_symmetric_series,
    seed_series,
    site_tuples,
    theta_symbol,
)
from qpwave import lattice, linop
from qpwave.diagnostics import theta_bad_fraction
from qpwave.lattice import Region, canonical, is_canonical, orbit, symbol
from qpwave.linop import (
    LinearizedOperator,
    ReducedOperator,
    SingularOperator,
    apply,
    assemble,
    covariance_discrepancy,
    greens_profile,
    kernel_series,
    solve_linear,
)
from qpwave.series import QPSeries
from qpwave.solver import ProblemConfig, initial_guess, q_update, solve


D2_LAM = (1.05, 0.723, 0.8, 1.31)
D3_LAM = (1.05, 0.723, 0.8, 1.31, 1.21, 0.57)


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
    u = QPSeries.delta(2, 0.25, jt)  # a = 1
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
    u = QPSeries.delta(2, 0.01 / 4, jt)
    E = symbol(jt, D2_LAM)
    T = assemble(u, E, D2_LAM, None, Region.full_box(2), p=1)
    idx = T.site_index()
    for s in orbit(jt):
        assert T.diag[idx[s]] == 0.0


def test_assemble_rejects_repeated_sites():
    # a repeated site would have two rows but one column: not symmetric
    with pytest.raises(ValueError, match="repeats a site"):
        assemble(seed_series(1, 0.1), -1.0, GOOD_LAM, None, [(0, 0), (1, 0), (1, 0)], p=1)


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
    u = QPSeries.delta(1, a / 2, jt)
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


def test_covariance_discrepancy_matches_directly_built_blocks():
    # the two operators built from their sites and diagonals directly, as
    # assemble builds them: the discrepancy must agree bit for bit
    rng = np.random.default_rng(5)
    for d, lam, N, theta, j0 in ((1, GOOD_LAM, 3, (0.1,), (2, -1)),
                                 (2, D2_LAM, 2, (0.4, -0.7), (3, -1, 2, 5))):
        u = random_symmetric_series(d, rng, n_orbits=3, box_n=2, scale=0.3)
        kernel = kernel_series(u, 1)
        basis = lattice.hermite_basis(kernel.orbit_members()[0])
        base = lattice.sites_array(Region.full_box(N), d)
        shifted = base + np.asarray(j0, dtype=np.int64)
        theta2 = tuple(theta[k] + lattice.block_inner(j0[2 * k:2 * k + 2], lam[2 * k:2 * k + 2])
                       for k in range(d))
        T1 = LinearizedOperator(shifted, lattice.symbol_array(shifted, lam, theta) - 0.3,
                                kernel, basis)
        T2 = LinearizedOperator(base, lattice.symbol_array(base, lam, theta2) - 0.3, kernel, basis)
        want = max(float(np.abs(A1 - A2).max())
                   for (_, A1), (_, A2) in zip(T1.blocks(), T2.blocks()))
        assert want > 0.0
        assert covariance_discrepancy(u, 0.3, lam, theta, j0, Region.full_box(N)) == want


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


@pytest.mark.parametrize("d", [2, 3], ids=["d2", "d3"])
def test_greens_profile_matches_dense_profile(d):
    # the operator a sweep sample profiles: box minus the pinned orbit
    # around a converged solution, in many small blocks; d = 2 at N = 3
    # (n = 2397) and the default d = 3 solution at N = 1 (n = 721), whose
    # shells end at distance 2, too close for a decay fit
    cfg, N, n = {
        2: (ProblemConfig(d=2, p=1, a=0.02, jtilde=GOOD_JT_D2, lam=GOOD_LAM_D2, M=2, N_max=4),
            3, 2397),
        3: (ProblemConfig(d=3, p=1, a=0.01, jtilde=(1, 0, 0, 1, 1, 0), lam=D3_LAM, M=2), 1, 721),
    }[d]
    rec = solve(replace(cfg, precheck=False))
    T = assemble(rec.u, rec.E, cfg.lam, None, Region.box_minus(N, orbit(cfg.jtilde)), cfg.p)
    assert T.n == n
    prof, shells = profile_with_shells(T)
    dense, dense_shells = dense_greens_profile(T)
    expected = np.array([dense_shells[s] for s in range(len(dense_shells))])
    assert np.allclose(shells, expected, rtol=1e-13, atol=0.0)
    assert prof.op_norm_inverse == pytest.approx(dense.op_norm_inverse, rel=1e-12)
    if d == 3:
        assert prof.decay is None and dense.decay is None
        return
    assert math.isfinite(prof.decay.rate) and prof.decay.rate > 0.0
    assert prof.decay.rate == pytest.approx(dense.decay.rate, rel=1e-12)


def test_greens_profile_finds_blocks_once(monkeypatch):
    # the blocks are found once per profile, and its norm is inverse_norm's
    calls = []
    real = LinearizedOperator.blocks
    monkeypatch.setattr(LinearizedOperator, "blocks", lambda T: calls.append((T.n, T.n)) or real(T))
    u = seed_series(1, 0.05)
    T = assemble(u, symbol((1, 1), GOOD_LAM) - 0.6, GOOD_LAM, None, Region.full_box(4), p=1)
    prof = greens_profile(T)
    assert calls == [(T.n, T.n)]
    assert prof.op_norm_inverse == linop.inverse_norm(real(T))


@pytest.mark.parametrize("kind", ["solve_linear", "reduced"])
def test_every_solve_finds_blocks_once(kind, monkeypatch):
    # a solve finds the blocks once and its refinement steps reuse them;
    # the first block solve is perturbed, so one refinement step runs
    u, E = seed_series(1, 0.05), symbol((1, 1), GOOD_LAM) - 0.6
    if kind == "solve_linear":
        T = assemble(u, E, GOOD_LAM, None, Region.full_box(4), p=1)
        op, M, run = T, T.to_dense(), lambda b: solve_linear(T, b)
    else:
        region = Region.box_minus(4, orbit((1, 1)))
        red = ReducedOperator(kernel_series(u, 1), E, GOOD_LAM, region,
                              canonical_sites(region, 1))
        sq = np.sqrt(red.weights)
        op, M, run = red, red.matrix(), lambda b: red.solve(b / sq) * sq
    rhs = np.random.default_rng(3).standard_normal(M.shape[0])
    expected = np.linalg.solve(M, rhs)
    calls, passes = [], []
    real_blocks, real_solve = type(op).blocks, np.linalg.solve
    monkeypatch.setattr(type(op), "blocks", lambda o: calls.append((o.n, o.n)) or real_blocks(o))

    def first_pass_off(A, b):
        passes.append(A.shape)
        x = real_solve(A, b)
        return x * (1.0 + 1e-6) if len(passes) == 1 else x

    monkeypatch.setattr(np.linalg, "solve", first_pass_off)
    w = run(rhs)
    assert calls == [M.shape]
    assert len(passes) >= 2
    assert np.allclose(w, expected, rtol=1e-10, atol=1e-14 * np.max(np.abs(expected)))


def test_diagonal_blocks_keep_tiny_entries():
    # the first-scale Newton matrix of d = 2, p = 2, a = 1e-3 couples its 3
    # sites through entries near 5e-13; each is stored, so the 3 sites form
    # one block (csgraph would drop them from a dense copy, |x| <= 1e-8)
    cfg = ProblemConfig(d=2, p=2, a=1e-3, jtilde=GOOD_JT_D2, lam=GOOD_LAM_D2, M=3)
    u, _ = initial_guess(cfg)
    red = ReducedOperator(kernel_series(u, cfg.p), q_update(u, cfg), cfg.lam,
                          Region.box_minus(3, cfg.resonant_set()),
                          lattice.coupled_sites(cfg.jtilde, 3))
    M = red.matrix()
    off = M[~np.eye(3, dtype=bool)]
    assert np.all(off != 0.0) and np.max(np.abs(off)) < 1e-12
    [(rows, A)] = red.blocks()
    assert rows.tolist() == [[0, 1, 2]]
    assert np.array_equal(A[0], M)


@pytest.mark.parametrize("case", ["survey-d1", "theta-d1", "construct-d2"])
def test_coset_blocks_are_the_connected_components(case):
    # the blocks of the operators the benchmark workloads profile are the
    # connected components of the pattern built entry by entry from the
    # definition; a coarser partition would stay exact but cube the blocks'
    # LU cost
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    d1 = ProblemConfig(d=1, p=1, a=0.01, jtilde=(1, 1), lam=GOOD_LAM)
    d2 = ProblemConfig(d=2, p=1, a=0.02, jtilde=GOOD_JT_D2, lam=GOOD_LAM_D2, M=2)
    cfg, N = {"survey-d1": (d1, 16), "theta-d1": (d1, 12), "construct-d2": (d2, 4)}[case]
    rec = solve(replace(cfg, precheck=False))
    T = assemble(rec.u, rec.E, cfg.lam, None, Region.box_minus(N, orbit(cfg.jtilde)), cfg.p)
    index = T.site_index()
    pattern = [(i, index[src]) for i, s in enumerate(map(tuple, T.sites.tolist()))
               for off in T.kernel.coeffs
               if (src := tuple(a - b for a, b in zip(s, off))) in index]
    rows, cols = np.array(pattern).T
    _, components = connected_components(
        coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(T.n, T.n)), directed=False)
    labels = np.empty(T.n, dtype=np.int64)
    start = 0
    for block_rows, _ in T.blocks():
        labels[block_rows] = start + np.arange(len(block_rows))[:, None]
        start += len(block_rows)
    pairs = set(zip(labels.tolist(), components.tolist()))
    assert len(pairs) == start == components.max() + 1


def test_assemble_rejects_blocks_over_the_budget(monkeypatch):
    # the seed's kernel lives on Z(2, 2), so on the box of scale 6 minus
    # orbit((1, 1)) each of the 167 sites lies in a block of at most
    # ceil(13 / 2) = 7 sites; the bound is reached before any enumeration
    u, region = seed_series(1, 0.05), Region.box_minus(6, orbit((1, 1)))
    monkeypatch.setattr(linop, "BLOCK_BYTES_BUDGET", 8 * 167 * 7)
    assert assemble(u, -1.0, GOOD_LAM, None, region, p=1).n == 167
    monkeypatch.setattr(linop, "BLOCK_BYTES_BUDGET", 8 * 167 * 7 - 1)
    monkeypatch.setattr(lattice, "sites_array", lambda region, d: pytest.fail("enumerated"))
    with pytest.raises(linop.OperatorTooLarge, match="largest box scale that fits is N = 5"):
        assemble(u, -1.0, GOOD_LAM, None, region, p=1)
    monkeypatch.setattr(linop, "BLOCK_BYTES_BUDGET", 8)
    with pytest.raises(linop.OperatorTooLarge, match="no box scale fits"):
        assemble(u, -1.0, GOOD_LAM, None, region, p=1)


def test_box_bytes_search_costs_about_its_answer():
    # the largest fitting scale is found by doubling from N = 1, then
    # bisecting, so the search evaluates need far fewer times than N
    calls = []

    def need(N):
        calls.append(N)
        return N * (linop.BLOCK_BYTES_BUDGET // 100)

    linop.check_box_bytes(need, 100, "the list")
    assert calls == [100]
    with pytest.raises(linop.OperatorTooLarge,
                       match="the list on the box of scale 1000000 .* fits is N = 100$"):
        linop.check_box_bytes(need, 10**6, "the list")
    assert len(calls) < 110


@pytest.mark.parametrize("answer", [0, 1, 2, 3, 4_999_999, 5_000_000])
def test_box_bytes_search_is_logarithmic_and_exact(answer):
    # need is monotone, so doubling then bisection finds the same largest
    # fitting scale a climb from N = 1 would, in about 2 log2(answer) steps
    calls = []

    def need(N):
        calls.append(N)
        return linop.BLOCK_BYTES_BUDGET + (N > answer)

    with pytest.raises(linop.OperatorTooLarge) as info:
        linop.check_box_bytes(need, 10**7, "the grids")
    assert str(info.value).endswith(f"fits is N = {answer}" if answer else "no box scale fits")
    assert len(calls) <= 2 + 2 * max(answer, 1).bit_length()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_greens_profile_rejects_non_finite_block_inverse(bad, monkeypatch):
    # an inversion can succeed and still produce non-finite entries
    T = assemble(seed_series(1, 0.05), -0.25, GOOD_LAM, None, Region.full_box(4), p=1)
    real = np.linalg.inv

    def poisoned(A):
        G = real(A)
        G[-1, -1, 0] = bad
        return G

    monkeypatch.setattr(np.linalg, "inv", poisoned)
    with pytest.raises(SingularOperator, match="non-finite entries"):
        greens_profile(T)


def test_exactly_singular_block():
    # zero kernel: T is diagonal, and at theta = 0.5 its j = 0 entry
    # (0 + 0.5)^2 - 0.25 is exactly 0
    u, E, region = QPSeries.zero(1), 0.25, Region.full_box(2)
    T = assemble(u, E, GOOD_LAM, (0.5,), region, p=1)
    assert linop.inverse_norm(T.blocks()) == math.inf
    res = theta_bad_fraction(u, E, GOOD_LAM, N=2, axis=1, grid_step=0.25, norm_threshold=1e6)
    at = np.flatnonzero(res.thetas == 0.5)
    assert len(at) == 1 and res.bad[at[0]] and res.inv_norms[at[0]] == math.inf
    with pytest.raises(SingularOperator):
        greens_profile(T)
    with pytest.raises(SingularOperator, match="singular block"):
        solve_linear(T, np.ones(T.n))


def _reduced_action(red):
    """Dense action of the reduced operator in canonical (unweighted) coords."""
    M = red.matrix()
    sq = np.sqrt(red.weights)
    return (M / sq[:, None]) * sq[None, :]


@pytest.mark.parametrize("p", [2, 3])
def test_assemble_kernel_is_exact_convolution_power(p):
    # the kernel reaches past 2N, so a box on its intermediate products would
    # drop terms of the offsets the operator reads
    rng = np.random.default_rng(14)
    u = random_symmetric_series(1, rng, n_orbits=4, box_n=3)
    assert u.support_radius() == 3
    T = assemble(u, 0.0, GOOD_LAM, None, Region.full_box(2), p)
    oracle = brute_conv_power(u.coeffs, 2 * p)
    scale = max(abs(v) for v in oracle.values())
    for j in site_tuples(Region.full_box(4), 1):
        expected = (2 * p + 1) * oracle.get(j, 0.0)
        assert T.kernel.get(j) == pytest.approx(expected, rel=1e-14, abs=1e-14 * scale)


def test_reduced_operator_matches_full_on_symmetric_vectors():
    rng = np.random.default_rng(6)
    u = random_symmetric_series(1, rng, n_orbits=4, box_n=2, scale=0.1)
    region = Region.box_minus(3, orbit((1, 1)))
    red = ReducedOperator(kernel_series(u, 1), 0.8, GOOD_LAM, region, canonical_sites(region, 1))
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
    region = Region.full_box(2)
    red = ReducedOperator(kernel_series(u, 1), 0.4, D2_LAM, region, canonical_sites(region, 2))
    M = red.matrix()
    scale = np.max(np.abs(M))
    assert np.max(np.abs(M - M.T)) <= 1e-14 * scale


def test_reduced_solve_matches_full_solve():
    rng = np.random.default_rng(8)
    u = random_symmetric_series(1, rng, n_orbits=3, box_n=2, scale=0.05)
    region = Region.box_minus(4, orbit((1, 1)))
    red = ReducedOperator(kernel_series(u, 1), -1.2, GOOD_LAM, region, canonical_sites(region, 1))
    rhs = random_symmetric_series(1, rng, n_orbits=4, box_n=3)
    w_series = red.solve_series(rhs)
    T = assemble(u, -1.2, GOOD_LAM, None, region, p=1)
    rhs_full = np.array([rhs.get(tuple(map(int, s))) for s in T.sites])
    w_full = solve_linear(T, rhs_full)
    for i, s in enumerate(T.sites):
        assert w_series.get(tuple(map(int, s))) == pytest.approx(w_full[i], rel=1e-10, abs=1e-14)


def test_reduced_requires_orbit_closed_region():
    u = QPSeries.zero(1)
    region = Region.box_minus(3, [(1, 1)])
    with pytest.raises(ValueError, match="orbit-closed"):
        ReducedOperator(kernel_series(u, 1), 0.0, GOOD_LAM, region, canonical_sites(region, 1))


@pytest.mark.parametrize("sites", [[(1, 1)], [(-3, 3)], [(5, 5)], [(3, 3), (2, 0)], [(2, 0), (2, 0)]])
def test_reduced_rejects_bad_site_list(sites):
    # a pinned, non-canonical or out-of-box site, unsorted or repeated sites
    region = Region.box_minus(4, orbit((1, 1)))
    with pytest.raises(ValueError, match="reduced sites"):
        ReducedOperator(kernel_series(seed_series(1, 0.05), 1), -1.0, GOOD_LAM, region,
                        np.array(sites))


def test_reduced_solve_guards_the_coupled_set():
    # for jtilde (1, 1) at N = 4 the coupled set is the one site (3, 3); a
    # right-hand side on the even multiple (2, 2), inside the region, breaks
    # the invariant that drove the choice of set and must not be dropped
    jt = (1, 1)
    region = Region.box_minus(4, orbit(jt))
    red = ReducedOperator(kernel_series(seed_series(1, 0.05), 1), -1.0, GOOD_LAM, region,
                          lattice.coupled_sites(jt, 4))
    assert red.sites.tolist() == [[3, 3]]
    with pytest.raises(AssertionError, match="off the reduced site list"):
        red.solve_series(QPSeries.from_canonical(1, {(3, 3): 1.0, (2, 2): 1e-30}))
    # sites outside the region, in the pinned orbit or beyond the box, are
    # dropped silently
    expected = red.solve_series(QPSeries.delta(1, 1.0, (3, 3)))
    w = red.solve_series(QPSeries.from_canonical(1, {(1, 1): 2.0, (3, 3): 1.0, (5, 5): 3.0}))
    assert w.sites.tolist() == [[3, 3]] and w.vals.tolist() == expected.vals.tolist()


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
    red = ReducedOperator(kernel_series(u, 1), -1.0, GOOD_LAM, region, canonical_sites(region, 1))
    rhs = random_symmetric_series(1, rng, n_orbits=4, box_n=4)
    w = red.solve_series(rhs)
    rhs_vec = np.array([rhs.get(tuple(map(int, s))) for s in red.sites])
    w_vec = np.linalg.solve(_reduced_action(red), rhs_vec)
    w_oracle = QPSeries.from_canonical(
        1, {tuple(map(int, s)): float(x) for s, x in zip(red.sites, w_vec) if x != 0.0})
    diff = w.add(w_oracle.scale(-1.0)).l2_norm()
    assert diff <= 1e-11 * max(w_oracle.l2_norm(), 1e-30)


def _assert_matches_oracle(M, M_def):
    assert np.max(np.abs(M - M_def)) <= 1e-15 * np.max(np.abs(M_def))


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("d,N,lam,jt", [(1, 5, GOOD_LAM, (1, 1)), (2, 3, GOOD_LAM_D2, (1, 0, 0, 1))])
def test_reduced_matrix_matches_definition(d, N, lam, jt, p):
    # the kernel reaches beyond the box, so sources fall outside it too
    rng = np.random.default_rng(10 + d + p)
    u = random_symmetric_series(d, rng, n_orbits=3 if d == 1 else 2, box_n=2, scale=0.1)
    u = u.add(QPSeries.delta(d, 0.05, (3, 1) if d == 1 else (2, 0, 0, 1)))
    region = Region.box_minus(N, orbit(jt))
    red = ReducedOperator(kernel_series(u, p), -0.7, lam, region, canonical_sites(region, d))
    assert red.kernel.support_radius() > N
    sites = [j for j in site_tuples(region, d) if is_canonical(j)]
    assert [tuple(map(int, s)) for s in red.sites] == sites
    M_def = assembly_oracle(sites, [symbol(j, lam) + 0.7 for j in sites], red.kernel,
                            region.contains, rep=canonical,
                            weights=[len(orbit(j)) for j in sites])
    _assert_matches_oracle(red.matrix(), M_def)


@pytest.mark.parametrize("d,lam,j0", [(1, GOOD_LAM, (5, -2)), (2, GOOD_LAM_D2, (3, 0, -1, 2))])
def test_linearized_matrix_matches_definition_translated_list(d, lam, j0):
    # an explicit site list off the origin: its bounding box is not symmetric
    rng = np.random.default_rng(13)
    u = random_symmetric_series(d, rng, n_orbits=3 if d == 1 else 2, box_n=2, scale=0.1)
    sites = [tuple(a + b for a, b in zip(j, j0)) for j in site_tuples(Region.full_box(2), d)]
    theta = (0.1,) * d
    T = assemble(u, 1.1, lam, theta, sites, p=1)
    assert [tuple(map(int, s)) for s in T.sites] == sites
    members = set(sites)
    M_def = assembly_oracle(sites, [theta_symbol(j, lam, theta) - 1.1 for j in sites],
                            T.kernel, members.__contains__)
    _assert_matches_oracle(T.to_dense(), M_def)
