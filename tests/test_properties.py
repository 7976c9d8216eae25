"""Property tests: the block assembly and series solve against their
entry-by-entry definitions, the array convolution and orbit expansion
against the sequential loops they replaced, the series storage invariant
after every series-producing layer, the block-wise Green's profile against
the dense all-pairs one, and the Newton iterates and increments on the
coupled set against the whole box, over random profiles, boxes, shifts and
configurations.  Each test draws from a fixed seed, with no example database,
so an edit to a test's body leaves its examples unchanged."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from helpers import (
    GOOD_LAM,
    GOOD_LAM_D2,
    assembly_oracle,
    canonical_sites,
    dense_greens_profile,
    odd_multiple,
    orbit_loop_from_canonical,
    profile_with_shells,
    site_tuples,
    sorted_loop_convolve,
)
from qpwave import solver
from qpwave.lattice import Region, canonical, is_canonical, orbit, symbol
from qpwave.linop import ReducedOperator, SingularOperator, assemble, kernel_series
from qpwave.series import QPSeries, convolve, truncate
from qpwave.solver import DivergedIncrement, NotConverged, ProblemConfig, residual


def _site(d, reach):
    return st.tuples(*[st.integers(-reach, reach)] * (2 * d))


def _series(d, reach, scale, max_orbits):
    """A symmetric series from canonical representatives of drawn sites."""
    entry = st.tuples(_site(d, reach), st.floats(-scale, scale, allow_nan=False))
    return st.lists(entry, min_size=1, max_size=max_orbits).map(
        lambda items: QPSeries.from_canonical(d, {canonical(j): v for j, v in items}))


@st.composite
def _instances(draw):
    d = draw(st.sampled_from([1, 2]))
    N = draw(st.integers(1, 6 if d == 1 else 2))
    p = draw(st.integers(1, 2))
    u = draw(_series(d, 2, 0.1, 3 if d == 1 else 2))
    jtilde = draw(_site(d, N).filter(lambda j: any(j)))
    j0 = draw(_site(d, 3))
    # right-hand side on about half the orbits of a box one wider than the
    # region's, the pinned orbit among them
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rhs = QPSeries.from_canonical(d, {
        j: float(rng.normal()) for j in site_tuples(Region.full_box(N + 1), d)
        if is_canonical(j) and (rng.random() < 0.5 or j == canonical(jtilde))})
    return d, N, p, u, jtilde, j0, rhs


@seed(0)
@settings(max_examples=50, deadline=None, database=None)
@given(_instances())
def test_table_assembly_and_series_solve_match_definition(inst):
    d, N, p, u, jtilde, j0, rhs = inst
    lam = GOOD_LAM if d == 1 else GOOD_LAM_D2
    E = -1.0  # below the spectrum of the symbol, so the small-kernel solve is regular

    region = Region.box_minus(N, orbit(jtilde))
    red = ReducedOperator(kernel_series(u, p), E, lam, region, canonical_sites(region, d))
    sites = [j for j in site_tuples(region, d) if is_canonical(j)]
    M_def = assembly_oracle(sites, [symbol(j, lam) - E for j in sites], red.kernel,
                            region.contains, rep=canonical,
                            weights=[len(orbit(j)) for j in sites])
    M = red.matrix()
    assert np.max(np.abs(M - M_def)) <= 1e-15 * np.max(np.abs(M_def))

    # solve_series reads exactly what a per-site rhs.get loop reads
    rhs_vec = np.array([rhs.get(j) for j in sites])
    w = red.solve(rhs_vec)
    expected = QPSeries.from_canonical(d, {j: float(x) for j, x in zip(sites, w) if x != 0.0})
    assert red.solve_series(rhs).coeffs == expected.coeffs

    # the same definition on the region's site list translated by j0
    shifted = [tuple(a + b for a, b in zip(j, j0)) for j in site_tuples(region, d)]
    T = assemble(u, E, lam, None, shifted, p)
    members = set(shifted)
    T_def = assembly_oracle(shifted, [symbol(j, lam) - E for j in shifted], T.kernel,
                            members.__contains__)
    assert np.max(np.abs(T.to_dense() - T_def)) <= 1e-15 * np.max(np.abs(T_def))


@st.composite
def _canon(draw, d, max_orbits):
    """Values on drawn canonical sites: small integers, so that sums cancel
    exactly, or full-precision normals, so that summation order shows in
    the last bits."""
    sites = draw(st.lists(_site(d, 3).map(canonical), max_size=max_orbits, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        values = rng.integers(-2, 3, len(sites)).astype(float)
    else:
        values = rng.normal(size=len(sites))
    return dict(zip(sites, values.tolist()))


@st.composite
def _factor_pairs(draw):
    """(A, B) with A drawn at least as large as B; either may be empty."""
    d = draw(st.sampled_from([1, 2, 3]))
    small = {1: 6, 2: 4, 3: 2}[d]
    A = QPSeries.from_canonical(d, draw(_canon(d, 2 * small)))
    B = QPSeries.from_canonical(d, draw(_canon(d, small)))
    return A, B


def _cancelling_pair():
    # (A * B)(1, 0) = A(0) B(1, 0) + A(1, 0) B(0) = -1 + 1: an exact zero
    A = QPSeries.from_canonical(1, {(0, 0): 1.0, (1, 0): 1.0})
    B = QPSeries.from_canonical(1, {(0, 0): 1.0, (1, 0): -1.0})
    return A, B


@seed(0)
@settings(max_examples=200, deadline=None, database=None)
@given(_factor_pairs())
@example(_cancelling_pair())
def test_convolve_matches_sorted_loop_bit_for_bit(pair):
    A, B = pair
    assert convolve(A, B).coeffs == sorted_loop_convolve(A, B)
    assert convolve(B, A).coeffs == sorted_loop_convolve(B, A)


def test_convolve_drops_exact_cancellations():
    A, B = _cancelling_pair()
    C = convolve(A, B)
    assert (1, 0) not in C.coeffs and (-1, 0) not in C.coeffs
    assert C.coeffs == {(0, 0): -1.0, (2, 0): -1.0, (-2, 0): -1.0}


@seed(0)
@settings(max_examples=100, deadline=None, database=None)
@given(st.sampled_from([1, 2, 3]).flatmap(lambda d: st.tuples(st.just(d), _canon(d, 8))))
def test_from_canonical_matches_orbit_loop(inst):
    d, canon = inst
    assert QPSeries.from_canonical(d, canon).coeffs == orbit_loop_from_canonical(canon)


def test_from_canonical_rejects_non_canonical_site():
    canon = {(0, 0, 1, 0): 1.0, (1, 0, -1, 0): 2.0}
    with pytest.raises(ValueError, match="not a canonical"):
        orbit_loop_from_canonical(canon)
    with pytest.raises(ValueError, match="not a canonical"):
        QPSeries.from_canonical(2, canon)


LAMS = {1: GOOD_LAM, 2: GOOD_LAM_D2, 3: (1.05, 0.723, 0.8, 1.31, 1.21, 0.57)}


def _assert_storage_invariant(S, d):
    """Distinct canonical sites in strictly increasing lexicographic order,
    a coeffs view that is their orbit expansion, and the l2 norm of that
    view, bit for bit."""
    assert S.d == d
    assert S.sites.dtype == np.int64 and S.vals.dtype == np.float64
    assert S.sites.shape == (len(S.vals), 2 * d)
    rows = list(map(tuple, S.sites.tolist()))
    assert all(map(is_canonical, rows))
    assert all(a < b for a, b in zip(rows, rows[1:]))
    coeffs = S.coeffs
    assert coeffs == orbit_loop_from_canonical(dict(zip(rows, S.vals.tolist())))
    assert S.support_size() == len(coeffs)
    assert S.l2_norm() == math.sqrt(math.fsum(v * v for v in coeffs.values()))


@st.composite
def _layer_inputs(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    A = draw(_canon(d, 6 if d < 3 else 3))
    B = draw(_canon(d, 6 if d < 3 else 3))
    c = draw(st.floats(-3.0, 3.0, allow_nan=False))
    N = draw(st.integers(1, {1: 4, 2: 2, 3: 1}[d]))
    drop_tol = draw(st.sampled_from([0.0, 1e-3, 0.5]))
    j = draw(_site(d, 3))
    return d, A, B, c, N, drop_tol, j


def _empty_inputs(d):
    return d, {}, {}, 2.0, 1, 0.0, (0,) * (2 * d)


@seed(0)
@settings(max_examples=100, deadline=None, database=None)
@given(_layer_inputs())
@example(_empty_inputs(1))
@example(_empty_inputs(2))
@example(_empty_inputs(3))
def test_every_layer_keeps_the_storage_invariant(inst):
    d, canon_a, canon_b, c, N, drop_tol, j = inst
    lam = LAMS[d]
    A, B = QPSeries.from_canonical(d, canon_a), QPSeries.from_canonical(d, canon_b)
    box = Region.full_box(N)
    u = A.scale(0.01)  # a small kernel keeps the reduced solve regular at E = -1
    region = Region.box_minus(N, orbit((1,) * (2 * d)))
    produced = [
        A, B, QPSeries.zero(d), QPSeries.delta(d, c, j), u,
        convolve(A, B), convolve(A, A), A.add(B), A.add(A.scale(-1.0)),
        truncate(A, box, drop_tol),
        residual(A, c, lam, 1), residual(A, c, lam, 1, box=box),
        ReducedOperator(kernel_series(u, 1), -1.0, lam, region,
                        canonical_sites(region, d)).solve_series(B),
    ]
    for S in produced:
        _assert_storage_invariant(S, d)


@st.composite
def _greens_instances(draw):
    """An operator on a box minus an orbit at theta = 0, at a drawn nonzero
    theta, or on the box's site list translated by j0, up to N = 12 at
    d = 1 and N = 2 at d = 2."""
    d = draw(st.sampled_from([1, 2]))
    N = draw(st.integers(1, 12 if d == 1 else 2))
    path = draw(st.sampled_from(["zero", "theta", "translated"]))
    u = draw(_series(d, 2, 0.3, 3 if d == 1 else 2))
    jtilde = draw(_site(d, N).filter(any))
    region = Region.box_minus(N, orbit(jtilde))
    theta = (0.0,) * d
    if path != "zero":
        thetas = st.tuples(*[st.floats(-1.0, 1.0)] * d)
        theta = draw(thetas.filter(any) if path == "theta" else thetas)
    if path == "translated":
        j0 = draw(_site(d, 3))
        region = [tuple(a + b for a, b in zip(j, j0)) for j in site_tuples(region, d)]
    return d, u, theta, region


def _zero_theta_greens_example(d, N):
    """Theta = 0 on the box minus the pinned orbit."""
    u = QPSeries.from_canonical(d, {(0,) * (2 * d): 0.1, (1,) * (2 * d): 0.05})
    return d, u, (0.0,) * d, Region.box_minus(N, orbit((1,) * (2 * d)))


@seed(0)
@settings(max_examples=60, deadline=None, database=None)
@given(_greens_instances())
@example(_zero_theta_greens_example(1, 12))
@example(_zero_theta_greens_example(2, 2))
def test_block_greens_profile_matches_dense_profile(inst):
    d, u, theta, region = inst
    lam = GOOD_LAM if d == 1 else GOOD_LAM_D2
    T = assemble(u, -1.0, lam, theta, region, 1)
    dense, dense_shells = dense_greens_profile(T)
    prof, shells = profile_with_shells(T)
    assert len(shells) == len(dense_shells)
    expected = np.array([dense_shells[s] for s in range(len(shells))])
    # block inverses against the whole matrix's inverse agree up to
    # rounding; unoccupied shells stay exactly zero
    assert np.allclose(shells, expected, rtol=1e-13, atol=0.0)
    # a backward-stable eigvalsh is off by about eps ||T|| in min|eig T|, so
    # the norm's relative error grows with the condition number kappa; the
    # block norms were within 1.8 eps kappa of the refined dense one on the
    # seeded draws
    kappa = abs(T.to_dense()).sum(axis=0).max() * dense.op_norm_inverse
    rel = max(1e-12, 8 * np.finfo(float).eps * kappa)
    assert prof.op_norm_inverse == pytest.approx(dense.op_norm_inverse, rel=rel)
    assert (prof.decay is None) == (dense.decay is None)
    if prof.decay is not None:
        assert prof.decay.rate == pytest.approx(dense.decay.rate, rel=1e-12)


@st.composite
def _newton_configs(draw):
    """A configuration with all seed blocks nonzero and random lambda, p and
    a, on boxes small enough for the whole-box oracle: N_max 8 at d = 1 and
    4 at d = 2, M = 2, at most 4 Newton steps.  At d = 2 the seed's entries
    are at most 1, so that 3 * jtilde_k fits the last box."""
    d = draw(st.sampled_from([1, 2]))
    reach = 2 if d == 1 else 1
    block = st.tuples(st.integers(-reach, reach), st.integers(-reach, reach)).filter(any)
    return ProblemConfig(
        d=d, p=draw(st.integers(1, 2)), a=draw(st.floats(1e-3, 0.1)),
        jtilde=sum(draw(st.lists(block, min_size=d, max_size=d)), ()),
        lam=draw(st.tuples(*[st.floats(0.51, 1.49)] * (2 * d))),
        M=2, N_max=8 if d == 1 else 4, max_steps=4)


def _assert_on_odd_multiples(u, jtilde):
    """Block k of every site is an odd multiple of canonical(jtilde_k)."""
    c = canonical(jtilde)
    for j in map(tuple, u.sites.tolist()):
        assert all(odd_multiple(j[k:k + 2], c[k:k + 2]) for k in range(0, len(j), 2)), j


def _whole_box_increment(u, E, cfg, N):
    """The Newton increment of the whole box-minus-orbit reduced system."""
    region = Region.box_minus(N, cfg.resonant_set())
    whole = ReducedOperator(kernel_series(u, cfg.p), E, cfg.lam, region,
                            canonical_sites(region, cfg.d))
    return whole.solve_series(residual(u, E, cfg.lam, cfg.p)).scale(-1.0)


def _assert_same_increment(delta, oracle):
    # the coupled block's LU and the whole box's dense LU round apart; on
    # the seeded draws 160 of the 176 increments agreed bit for bit and the
    # rest within 2.5e-16 of the largest entry
    assert np.array_equal(delta.sites, oracle.sites)
    scale = np.max(np.abs(oracle.vals), initial=0.0)
    assert np.max(np.abs(delta.vals - oracle.vals), initial=0.0) <= 1e-12 * scale


@seed(0)
@settings(max_examples=60, deadline=None, database=None)
@given(_newton_configs())
def test_newton_iterates_and_increments_live_on_the_coupled_set(cfg):
    # every iterate the solver forms, and its final one, lies on odd
    # multiples of the seed's blocks; each increment is the whole box's
    real, compared = solver.newton_step, []

    def checked(u, E, cfg, N, chain=None, F=None):
        _assert_on_odd_multiples(u, cfg.jtilde)
        delta, resid = real(u, E, cfg, N, chain, F)
        try:
            oracle = _whole_box_increment(u, E, cfg, N)
        except SingularOperator:
            return delta, resid  # resonant off the coupled set: no oracle
        _assert_same_increment(delta, oracle)
        compared.append(N)
        return delta, resid

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "newton_step", checked)
        try:
            rec = solver.solve(replace(cfg, precheck=False))
        except (NotConverged, DivergedIncrement) as exc:
            rec = exc.record
        except SingularOperator:
            rec = None  # resonant on the coupled set
    if rec is not None:
        _assert_on_odd_multiples(rec.u, cfg.jtilde)
    assume(compared)
