import math

import numpy as np
import pytest

from helpers import GOOD_LAM, brute_conv_power, brute_convolve, profile_values, random_symmetric_series, seed_series
from qpwave.lattice import Region, orbit
from qpwave.series import (
    DecayFit,
    InsufficientData,
    QPSeries,
    conv_power,
    convolve,
    decay_fit,
    evaluate,
    truncate,
)


def test_delta_is_convolution_identity():
    rng = np.random.default_rng(0)
    A = random_symmetric_series(1, rng, n_orbits=5, box_n=3)
    delta = QPSeries.delta(1, 1.0)
    C = convolve(delta, A)
    assert C.coeffs == pytest.approx(A.coeffs)


def test_pair_convolution_matrix_d2():
    # the seed profile at unit amplitude, squared: 1/4 at 0, 1/8 on the four
    # single-block doublings, 1/16 on the four corners
    jt = (1, 2, 2, -1)
    v = QPSeries.delta(2, 0.25, jt)
    sq = convolve(v, v)
    b1, b2 = (1, 2), (2, -1)
    expected = {(0, 0, 0, 0): 0.25}
    for s in (1, -1):
        expected[(2 * s * b1[0], 2 * s * b1[1], 0, 0)] = 0.125
        expected[(0, 0, 2 * s * b2[0], 2 * s * b2[1])] = 0.125
    for s1 in (1, -1):
        for s2 in (1, -1):
            expected[(2 * s1 * b1[0], 2 * s1 * b1[1], 2 * s2 * b2[0], 2 * s2 * b2[1])] = 0.0625
    assert set(sq.coeffs) == set(expected)
    for j, val in expected.items():
        assert sq.get(j) == pytest.approx(val, abs=1e-15)


def test_cube_of_seed_d1_closed_form():
    # (a/2)(delta_j + delta_-j) cubed: (a^3/8)(delta_3j + 3 delta_j + 3 delta_-j + delta_-3j)
    a = 0.37
    v = seed_series(1, a)
    cube = conv_power(v, 3)
    oracle = brute_conv_power(v.coeffs, 3)
    assert set(cube.coeffs) == set(oracle)
    for j, val in oracle.items():
        assert cube.get(j) == pytest.approx(val, rel=1e-14)
    assert cube.get((3, 3)) == pytest.approx(a**3 / 8, rel=1e-14)
    assert cube.get((1, 1)) == pytest.approx(3 * a**3 / 8, rel=1e-14)


def test_conv_power_single_factor():
    rng = np.random.default_rng(1)
    A = random_symmetric_series(1, rng)
    assert conv_power(A, 1).coeffs == A.coeffs


@pytest.mark.parametrize("d", [1, 2, 3])
def test_conv_power_seed_value_counts_sign_patterns(d):
    # value of the cubed seed at jtilde counts the sign patterns summing to +1
    # per block: 3^d * a^3 / 8^d
    a = 0.01
    v = seed_series(d, a)
    cube = conv_power(v, 3)
    jt = (1,) * (2 * d)
    oracle = brute_conv_power(v.coeffs, 3)
    assert cube.get(jt) == pytest.approx(oracle[jt], rel=1e-14)
    assert cube.get(jt) == pytest.approx(3**d * a**3 / 8**d, rel=1e-13)


def test_conv_power_associativity():
    rng = np.random.default_rng(2)
    A = random_symmetric_series(1, rng, n_orbits=4, box_n=2)
    p4 = conv_power(A, 4)
    p22 = convolve(conv_power(A, 2), conv_power(A, 2))
    assert set(p4.coeffs) == set(p22.coeffs)
    scale = max(abs(v) for v in p4.coeffs.values())
    for j in p4.coeffs:
        assert p4.get(j) == pytest.approx(p22.get(j), abs=1e-13 * scale)


def test_convolution_commutative_and_symmetric():
    rng = np.random.default_rng(3)
    A = random_symmetric_series(2, rng, n_orbits=3, box_n=2)
    B = random_symmetric_series(2, rng, n_orbits=3, box_n=2)
    AB = convolve(A, B)
    BA = convolve(B, A)
    assert set(AB.coeffs) == set(BA.coeffs)
    for j, v in AB.coeffs.items():
        assert BA.get(j) == pytest.approx(v, rel=1e-13, abs=1e-16)
        # exact symmetry by construction
        for member in orbit(j):
            assert AB.get(member) == v


def test_convolution_against_brute_oracle():
    rng = np.random.default_rng(4)
    for d in (1, 2):
        A = random_symmetric_series(d, rng, n_orbits=5, box_n=3)
        B = random_symmetric_series(d, rng, n_orbits=4, box_n=3)
        assert A.support_size() <= 50 and B.support_size() <= 50
        got = convolve(A, B)
        oracle = brute_convolve(A.coeffs, B.coeffs)
        oracle = {j: v for j, v in oracle.items() if v != 0.0}
        scale = max(abs(v) for v in oracle.values())
        assert set(got.coeffs) <= set(oracle)
        for j, v in oracle.items():
            assert got.get(j) == pytest.approx(v, rel=1e-14, abs=1e-14 * scale)


def test_evaluate_seed_at_origin():
    for d in (1, 2):
        v = seed_series(d, 0.01)
        lam = GOOD_LAM * d
        assert evaluate(v, lam, [0.0] * d) == pytest.approx(0.01, rel=1e-14)


def test_evaluate_constant_mode():
    A = QPSeries.delta(1, 0.7)
    for x in (0.0, 1.3, -2.7):
        assert evaluate(A, GOOD_LAM, [x]) == pytest.approx(0.7, rel=1e-15)


def test_evaluate_multiplicativity_under_convolution():
    rng = np.random.default_rng(5)
    A = random_symmetric_series(1, rng, n_orbits=3, box_n=2)
    B = random_symmetric_series(1, rng, n_orbits=3, box_n=2)
    C = convolve(A, B)
    for _ in range(20):
        x = [float(rng.uniform(-5, 5))]
        va, vb, vc = evaluate(A, GOOD_LAM, x), evaluate(B, GOOD_LAM, x), evaluate(C, GOOD_LAM, x)
        assert vc == pytest.approx(va * vb, rel=1e-10, abs=1e-12)


def test_parseval_against_quadrature_oracle():
    canon = {(0, 0): 0.1, (1, 1): 0.3, (2, -1): 0.2}
    A = QPSeries.from_canonical(1, canon)
    rng = np.random.default_rng(6)
    xs = rng.uniform(0.0, 2000.0, size=200_000)
    # cross-check the vectorized oracle against evaluate at a few points
    vals = profile_values(A, GOOD_LAM, xs)
    for i in range(10):
        assert vals[i] == pytest.approx(evaluate(A, GOOD_LAM, [xs[i]]), rel=1e-12)
    mean_sq = float(np.mean(vals**2))
    target = sum(v * v for v in A.coeffs.values())
    assert mean_sq == pytest.approx(target, abs=6e-3)


def test_truncate_noop_and_removal():
    v = seed_series(1, 0.01)
    assert truncate(v, Region.full_box(5), 0.0).coeffs == v.coeffs
    gone = truncate(v, Region.box_minus(5, orbit((1, 1))), 0.0)
    assert gone.support_size() == 0


def test_truncate_never_increases_l2():
    rng = np.random.default_rng(7)
    A = random_symmetric_series(1, rng, n_orbits=6, box_n=4)
    for N in (1, 2, 3):
        assert truncate(A, Region.full_box(N)).l2_norm() <= A.l2_norm() + 1e-15


def test_truncate_idempotent():
    rng = np.random.default_rng(8)
    A = random_symmetric_series(1, rng, n_orbits=6, box_n=4)
    once = truncate(A, Region.full_box(2), 1e-3)
    twice = truncate(once, Region.full_box(2), 1e-3)
    assert once.coeffs == twice.coeffs


def test_decay_fit_exact_exponential():
    coeffs = {}
    for j0 in range(0, 5):
        for j1 in range(-4 if j0 else 0, 5):
            coeffs[(j0, j1)] = math.exp(-2.0 * max(abs(j0), abs(j1)))
    A = QPSeries.from_canonical(1, coeffs)
    fit = decay_fit(A, min_distance=1)
    assert fit.rate == pytest.approx(2.0, abs=1e-10)
    assert fit.residual_rms < 1e-12


def test_decay_fit_insufficient_data():
    v = seed_series(1, 0.01)
    with pytest.raises(InsufficientData):
        decay_fit(v, min_distance=1)


def test_symmetry_validation_rejects_asymmetric_map():
    # a map is given on canonical representatives only, so an asymmetric
    # one cannot be written down
    with pytest.raises(ValueError, match="not a canonical"):
        QPSeries.from_canonical(1, {(1, 1): 1.0, (-1, -1): 2.0})


def test_non_finite_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"non-finite coefficient at \(1, 1\)"):
            QPSeries.from_canonical(1, {(0, 0): 1.0, (1, 1): bad})
