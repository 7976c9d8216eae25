import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from helpers import contains, odd_multiple, site_tuples
from qpwave import lattice
from qpwave.lattice import (
    CodeOverflow,
    Region,
    SiteCode,
    block_inner,
    canonical,
    is_canonical,
    is_canonical_array,
    linf,
    orbit,
    symbol,
)


def test_block_inner_zero_index():
    assert block_inner((0, 0), (0.9, 1.1)) == 0.0


def test_block_inner_direct_arithmetic():
    assert block_inner((2, -1), (1.25, 0.75)) == pytest.approx(1.75, abs=0)


def test_block_inner_symmetry_resonance():
    # a frequency with equal components is resonant for (1, -1)
    assert block_inner((1, -1), (1.0, 1.0)) == 0.0


def test_symbol_zero_index():
    assert symbol((0, 0, 0, 0), (0.9, 1.1, 1.2, 0.8)) == 0.0


def test_symbol_direct():
    assert symbol((1, 1), (0.75, 1.25)) == pytest.approx(4.0, rel=1e-15)


def test_symbol_is_linear_eigenvalue():
    lam = (1.05, 0.723, 0.8, 1.3)
    jt = (1, 0, 0, 2)
    expect = block_inner((1, 0), (1.05, 0.723)) ** 2 + block_inner((0, 2), (0.8, 1.3)) ** 2
    assert symbol(jt, lam) == pytest.approx(expect, rel=1e-15)


def test_symbol_dimension_mismatch():
    with pytest.raises(ValueError):
        symbol((1, 0), (1.0, 1.0, 1.0, 1.0))


def test_orbit_of_zero_is_fixed_point():
    assert orbit((0, 0, 0, 0)) == frozenset({(0, 0, 0, 0)})


def test_orbit_two_nonzero_blocks():
    o = orbit((1, 0, 0, 2))
    assert len(o) == 4
    assert (-1, 0, 0, -2) in o and (1, 0, 0, -2) in o


def test_orbit_idempotent():
    j = (2, -1, 0, 3)
    o = orbit(j)
    for member in o:
        assert orbit(member) == o


def test_symbol_orbit_invariant():
    rng = np.random.default_rng(3)
    lam = (1.05, 0.723, 1.4, 0.6)
    for _ in range(20):
        j = tuple(int(c) for c in rng.integers(-5, 6, size=4))
        s = symbol(j, lam)
        for member in orbit(j):
            assert symbol(member, lam) == s


def test_canonical_consistency():
    rng = np.random.default_rng(5)
    for _ in range(50):
        j = tuple(int(c) for c in rng.integers(-4, 5, size=4))
        c = canonical(j)
        assert is_canonical(c)
        assert c in orbit(j)
        # one canonical representative per orbit
        assert sum(1 for m in orbit(j) if is_canonical(m)) == 1


def test_full_box_count():
    assert len(site_tuples(Region.full_box(1), 1)) == 9
    assert len(site_tuples(Region.full_box(2), 1)) == 25
    assert len(site_tuples(Region.full_box(1), 2)) == 81


def test_box_minus_s_count():
    S = orbit((1, 1))
    region = Region.box_minus(3, S)
    sites = site_tuples(region, 1)
    assert len(sites) == 49 - len(S)
    for s in S:
        assert s not in sites


def test_box_minus_s_validates_membership():
    with pytest.raises(ValueError):
        Region.box_minus(1, [(5, 0)])


def test_enumeration_is_lexicographic():
    sites = site_tuples(Region.full_box(2), 1)
    assert sites == sorted(sites)


def test_box_membership_is_linf():
    region = Region.full_box(3)
    for j in [(3, 3), (-3, 0), (0, -3)]:
        assert contains(region, j)
        assert linf(j) <= 3
    for j in [(4, 0), (0, -4), (4, 4)]:
        assert not contains(region, j)


def test_full_box_closed_under_orbit():
    sites = set(site_tuples(Region.full_box(2), 2))
    for j in sites:
        assert orbit(j) <= sites


def test_box_minus_membership_holds_at_any_scale():
    # no site code: at d=3 and N = 10^6 one in radix 2N + 1 would wrap
    N = 10**6
    region = Region.box_minus(N, orbit((1, 0, 0, 1, 1, 0)))
    pts = np.array([[1, 0, 0, 1, 1, 0], [-1, 0, 0, -1, 1, 0], [1, 0, 0, 1, 1, 1], [N] * 6, [N + 1] + [0] * 5])
    assert region.contains_array(pts).tolist() == [False, False, True, True, False]
    assert [contains(region, j) for j in pts.tolist()] == [False, False, True, True, False]


def test_encode_monotone_with_lex_order():
    pts = lattice.sites_array(Region.full_box(2), 1)
    codes = SiteCode([5, 5]).encode(pts)
    assert np.all(np.diff(codes) > 0)


@st.composite
def _rows(draw, d: int, n_max=40):
    """(bounds, rows): a bound per column (0 for some), and rows in those
    bounds that include each column's -bound and +bound.  Twice the widest
    bounds still span fewer than 2^63 codes at d = 3 (1201^6)."""
    bounds = np.array(draw(st.lists(st.sampled_from([0, 1, 2, 5, 300]), min_size=2 * d, max_size=2 * d)))
    n = draw(st.integers(0, n_max))
    cols = [draw(st.lists(st.integers(-int(b), int(b)), min_size=n, max_size=n)) for b in bounds]
    rows = np.array(cols, dtype=np.int64).T.reshape(n, 2 * d)
    return bounds, np.concatenate([rows, [-bounds, bounds], np.diag(bounds), -np.diag(bounds)])


_DIMS = st.sampled_from([1, 2, 3])


@seed(0)
@settings(max_examples=150, deadline=None, database=None)
@given(_DIMS.flatmap(_rows))
def test_code_order_is_lexsort_order_and_decode_inverts_encode(case):
    bounds, rows = case
    code = SiteCode(bounds)
    codes = code.encode(rows)
    assert codes.dtype == np.int64
    # injective, so a stable sort of the codes is the stable lexsort
    assert np.array_equal(np.argsort(codes, kind="stable"), np.lexsort(rows.T[::-1]))
    assert np.array_equal(code.decode(codes), rows)


@seed(0)
@settings(max_examples=150, deadline=None, database=None)
@given(_DIMS.flatmap(lambda d: st.tuples(_rows(d), _rows(d))))
def test_codes_and_block_codes_are_additive(pair):
    (bx, x), (by, y) = pair
    n = min(len(x), len(y))
    x, y, code = x[:n], y[:n], SiteCode(bx + by)  # x + y is in range
    assert np.array_equal(code.encode(x) + code.encode(y), code.encode(x + y))
    assert np.array_equal(code.block_codes(x) + code.block_codes(y), code.block_codes(x + y))
    assert np.array_equal(code.decode(code.encode(x) + code.encode(y)), x + y)


@seed(0)
@settings(max_examples=150, deadline=None, database=None)
@given(_DIMS.flatmap(_rows))
def test_block_codes_test_canonicity(case):
    bounds, rows = case
    want = [is_canonical(row) for row in map(tuple, rows.tolist())]
    assert (SiteCode(bounds).block_codes(rows) >= 0).all(axis=1).tolist() == want
    assert is_canonical_array(rows).tolist() == want


def _widest(d: int) -> int:
    """Largest b whose 2d radices 2b + 1 span fewer than 2^63 codes."""
    b = int((2**63) ** (1 / (2 * d)) / 2) + 2
    while (2 * b + 1) ** (2 * d) >= 2**63:
        b -= 1
    return b


@pytest.mark.parametrize("d", [1, 2, 3])
def test_codes_fill_int64_and_overflow_is_rejected(d):
    b = _widest(d)
    extremes = np.array([[-b] * (2 * d), [b] * (2 * d), [b, -b] * d], dtype=np.int64)
    code = SiteCode([b] * (2 * d))
    codes = code.encode(extremes)
    assert codes[1] == ((2 * b + 1) ** (2 * d) - 1) // 2 == -codes[0]
    assert np.array_equal(code.decode(codes), extremes)
    with pytest.raises(CodeOverflow):
        SiteCode([b + 1] * (2 * d))
    # a column bound of 0 costs a factor of 1, and of 1 a factor of 3
    wide = [0] * (2 * d - 1) + [2**61]
    rows = np.array([wide, [-w for w in wide]], dtype=np.int64)
    assert np.array_equal(SiteCode(wide).decode(SiteCode(wide).encode(rows)), rows)
    with pytest.raises(CodeOverflow):
        SiteCode([1] * (2 * d - 1) + [2**61])


def test_sites_array_matches_enumeration():
    region = Region.box_minus(2, orbit((1, 0)))
    arr = lattice.sites_array(region, 1)
    expected = [j for j in itertools.product(range(-2, 3), repeat=2) if contains(region, j)]
    assert [tuple(map(int, row)) for row in arr] == expected


@pytest.mark.parametrize("jtilde", [(1, 1), (-1, 2), (0, -1), (2, 2), (0, 0),
                                    (1, 0, 0, 1), (-2, 1, 1, -1), (0, 0, 0, 0)])
@pytest.mark.parametrize("N", [2, 3, 5])
def test_coupled_sites_match_box_enumeration(jtilde, N):
    d = len(jtilde) // 2
    c = canonical(jtilde)
    expected = [j for j in site_tuples(Region.box_minus(N, orbit(jtilde)), d)
                if is_canonical(j)
                and all(odd_multiple(j[k:k + 2], c[k:k + 2]) for k in range(0, 2 * d, 2))]
    got = lattice.coupled_sites(jtilde, N)
    assert got.dtype == np.int64 and got.shape == (len(expected), 2 * d)
    assert list(map(tuple, got.tolist())) == expected


@pytest.mark.parametrize("jtilde", [(1, 1), (1, 0, 0, 1), (0, 0), (0, 0, 0, 0)])
def test_coupled_sites_empty_at_first_scale(jtilde):
    # the next odd multiple, 3 * jtilde_k, is outside the box of scale 2
    assert lattice.coupled_sites(jtilde, 2).shape == (0, len(jtilde))


def test_canonicalize_array_matches_scalar():
    rng = np.random.default_rng(11)
    pts = rng.integers(-4, 5, size=(40, 4)).astype(np.int64)
    arr = lattice.canonicalize_array(pts)
    for row_in, row_out in zip(pts, arr):
        assert tuple(map(int, row_out)) == canonical(tuple(map(int, row_in)))


def test_orbit_sizes_array():
    pts = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 2]], dtype=np.int64)
    assert list(lattice.orbit_sizes_array(pts)) == [1, 2, 4]


def test_validate_frequency_bounds():
    with pytest.raises(ValueError):
        lattice.validate_frequency((0.5, 1.0))   # boundary excluded
    with pytest.raises(ValueError):
        lattice.validate_frequency((1.0, 1.5))
    assert lattice.validate_frequency((0.51, 1.49)) == (0.51, 1.49)


def test_region_is_its_scale_and_excluded_set():
    # a Region is (N, S), the whole box when S is empty
    assert [f.name for f in dataclasses.fields(Region)] == ["N", "S"]
    assert Region.full_box(3) == Region(3) == Region.box_minus(3, [])
    region = Region.box_minus(3, [(1, 1), (-1, 1), (1, 1)])
    assert region.S == ((-1, 1), (1, 1))
    pts = np.array(list(itertools.product(range(-4, 5), repeat=2)))
    for reg in (Region.full_box(3), region):
        assert reg.contains_array(pts).tolist() == [contains(reg, j) for j in pts.tolist()]


def _max_minor_gcd(vectors) -> int:
    """gcd of the k x k minors of integer rows in Z^k: the index of their
    span when it has full rank, 0 otherwise."""
    g = 0
    for rows in itertools.combinations(vectors, len(vectors[0])):
        g = np.gcd(g, int(round(np.linalg.det(np.array(rows, dtype=float)))))
    return int(g)


@pytest.mark.parametrize("seed", range(6))
def test_hermite_basis_spans_the_input(seed):
    rng = np.random.default_rng(seed)
    vectors = rng.integers(-6, 7, size=(5, 3))
    basis = lattice.hermite_basis(vectors)
    # row Hermite normal form
    pivots = [int(np.flatnonzero(row)[0]) for row in basis]
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert basis[i, c] > 0 and np.all(basis[:i, c] >= 0) and np.all(basis[:i, c] < basis[i, c])
    # the same lattice: every input is in the basis's span, and the index
    # (product of pivots) is the inputs' gcd of maximal minors
    labels = lattice.coset_labels(np.vstack([np.zeros((1, 3), dtype=np.int64), vectors]), basis)
    assert np.all(labels == 0)
    if len(basis) == 3:
        assert int(np.prod(np.diag(basis))) == _max_minor_gcd(vectors.tolist())


def test_coset_labels_and_bound_on_a_box():
    # (2, 0), (1, 3) and (0, 6) span the lattice of (x, y) with 6 | y - 3x
    basis = lattice.hermite_basis(np.array([[2, 0], [1, 3], [0, 6]]))
    assert basis.tolist() == [[1, 3], [0, 6]]
    pts = lattice.sites_array(Region.full_box(3), 1)
    labels = lattice.coset_labels(pts, basis)
    for i in range(len(pts)):
        diff = pts - pts[i]
        assert np.array_equal(labels == labels[i], (diff[:, 1] - 3 * diff[:, 0]) % 6 == 0)
    # labels count up in order of each coset's first row
    first = np.unique(labels, return_index=True)[1]
    assert np.all(np.diff(first) > 0)
    # 7 columns, and at most 2 rows of each column in one residue class mod 6
    assert lattice.coset_bound(basis, 7) == 14
    assert np.bincount(labels).max() <= 14
