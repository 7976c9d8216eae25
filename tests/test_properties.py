"""Property tests: the table-driven assembly and series solve against their
entry-by-entry definitions, over random profiles, boxes and shifts."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import GOOD_LAM, GOOD_LAM_D2, assembly_oracle
from qpwave.lattice import Region, canonical, enumerate_region, is_canonical, orbit, symbol
from qpwave.linop import ReducedOperator, assemble, kernel_series
from qpwave.series import QPSeries


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
        j: float(rng.normal()) for j in enumerate_region(Region.full_box(N + 1), d)
        if is_canonical(j) and (rng.random() < 0.5 or j == canonical(jtilde))})
    return d, N, p, u, jtilde, j0, rhs


@settings(max_examples=50, deadline=None, derandomize=True)
@given(_instances())
def test_table_assembly_and_series_solve_match_definition(inst):
    d, N, p, u, jtilde, j0, rhs = inst
    lam = GOOD_LAM if d == 1 else GOOD_LAM_D2
    E = -1.0  # below the spectrum of the symbol, so the small-kernel solve is regular

    region = Region.box_minus(N, orbit(jtilde))
    red = ReducedOperator(kernel_series(u, p), E, lam, region)
    sites = [j for j in enumerate_region(region, d) if is_canonical(j)]
    M_def = assembly_oracle(sites, [symbol(j, lam) - E for j in sites], red.kernel,
                            region.contains, rep=canonical,
                            weights=[len(orbit(j)) for j in sites])
    M = red.matrix().toarray()
    assert np.max(np.abs(M - M_def)) <= 1e-15 * np.max(np.abs(M_def))

    # solve_series reads exactly what a per-site rhs.get loop reads
    rhs_vec = np.array([rhs.get(j) for j in sites])
    w = red.solve(rhs_vec)
    expected = QPSeries.from_canonical(d, {j: float(x) for j, x in zip(sites, w) if x != 0.0})
    assert red.solve_series(rhs).coeffs == expected.coeffs

    # the same definition on the region's site list translated by j0
    shifted = [tuple(a + b for a, b in zip(j, j0)) for j in enumerate_region(region, d)]
    T = assemble(u, E, lam, None, shifted, p)
    members = set(shifted)
    T_def = assembly_oracle(shifted, [symbol(j, lam) - E for j in shifted], T.kernel,
                            members.__contains__)
    assert np.max(np.abs(T.to_dense() - T_def)) <= 1e-15 * np.max(np.abs(T_def))
