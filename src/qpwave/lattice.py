"""Index arithmetic on the doubled lattice Z^(2d).

A lattice site j = (j_1, ..., j_d) consists of d integer pairs ("blocks");
it is stored flattened as a tuple of 2d ints, so the block dimension is
always recoverable as len(j) // 2.  A frequency vector lambda has the same
block layout with real pairs, each component restricted to (1/2, 3/2).

The per-block sign-flip group sigma_k in {+1, -1} acting as
j_k -> sigma_k * j_k is the symmetry group of even cosine profiles; orbits
under this action are the atomic units that coefficient maps and region
truncations must respect.

Norm convention: |j| is the l-infinity norm over all 2d flattened integer
coordinates, so the ball |j| <= N is exactly the cube [-N, N]^(2d).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# A lattice site / frequency, flattened to length 2d.
Index = tuple[int, ...]
Frequency = tuple[float, ...]

NORM_CONVENTION = "linf"


def block_count(j) -> int:
    if len(j) % 2 != 0:
        raise ValueError(f"flattened index must have even length, got {len(j)}")
    return len(j) // 2


def linf(j) -> int:
    """l-infinity norm over the flattened coordinates."""
    return max(abs(c) for c in j) if j else 0


def block_inner(j_k, lam_k) -> float:
    """Inner product of one integer block with one frequency block."""
    return j_k[0] * lam_k[0] + j_k[1] * lam_k[1]


def symbol(j: Index, lam: Frequency) -> float:
    """Dispersion symbol: sum over blocks of (j_k . lambda_k)^2."""
    if len(j) != len(lam):
        raise ValueError(f"dimension mismatch: index has {len(j)} coordinates, frequency {len(lam)}")
    s = 0.0
    for k in range(0, len(j), 2):
        v = j[k] * lam[k] + j[k + 1] * lam[k + 1]
        s += v * v
    return s


def nonzero_block_count(j: Index) -> int:
    """Number of blocks of j that are not the zero pair."""
    return sum(1 for k in range(0, len(j), 2) if j[k] != 0 or j[k + 1] != 0)


def orbit(j: Index) -> frozenset[Index]:
    """All per-block sign flips of j; size is 2**nonzero_block_count(j)."""
    d = block_count(j)
    out = set()
    for signs in itertools.product((1, -1), repeat=d):
        jj = []
        for k in range(d):
            jj.append(signs[k] * j[2 * k])
            jj.append(signs[k] * j[2 * k + 1])
        out.add(tuple(jj))
    return frozenset(out)


def canonical(j: Index) -> Index:
    """Deterministic orbit representative: first nonzero entry of each block positive."""
    out = list(j)
    for k in range(0, len(j), 2):
        a, b = j[k], j[k + 1]
        if a < 0 or (a == 0 and b < 0):
            out[k], out[k + 1] = -a, -b
    return tuple(out)


def is_canonical(j: Index) -> bool:
    for k in range(0, len(j), 2):
        a, b = j[k], j[k + 1]
        if a < 0 or (a == 0 and b < 0):
            return False
    return True


def validate_frequency(lam, d: int | None = None):
    """Check a flattened frequency vector: even length, components in (1/2, 3/2)."""
    if len(lam) % 2 != 0:
        raise ValueError("frequency must have an even number of components")
    if d is not None and len(lam) != 2 * d:
        raise ValueError(f"frequency has {len(lam)} components, expected {2 * d}")
    for c in lam:
        if not (0.5 < c < 1.5):
            raise ValueError(f"frequency component {c} outside the open interval (1/2, 3/2)")
    return tuple(float(c) for c in lam)


@dataclass(frozen=True)
class Region:
    """A finite index region: the cube of scale N minus an explicit set S
    (empty for the whole cube)."""

    N: int
    S: tuple[Index, ...] = ()

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("region scale N must be >= 1")
        for s in self.S:
            if linf(s) > self.N:
                raise ValueError(f"excluded site {s} lies outside the box of scale {self.N}")

    @staticmethod
    def full_box(N: int) -> "Region":
        return Region(N)

    @staticmethod
    def box_minus(N: int, S) -> "Region":
        return Region(N, S=tuple(sorted(set(map(tuple, S)))))

    def contains_array(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized membership for an (n, 2d) int array."""
        mask = np.all(np.abs(pts) <= self.N, axis=1)
        for s in self.S:
            mask &= np.any(pts != s, axis=1)
        return mask

    def is_orbit_closed(self) -> bool:
        """Whether membership is invariant under per-block sign flips."""
        return all(o in self.S for s in self.S for o in orbit(s))


def sites_array(region: Region, d: int) -> np.ndarray:
    """Region sites as an (n, 2d) int64 array in lexicographic order."""
    N = region.N
    grids = np.meshgrid(*([np.arange(-N, N + 1, dtype=np.int64)] * (2 * d)), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    mask = region.contains_array(pts)
    return pts[mask]


def coupled_sites(jtilde: Index, N: int) -> np.ndarray:
    """The canonical sites that the Newton system on the box of scale N
    minus orbit(jtilde) couples to its right-hand side, as an (n, 2d) int64
    array in lexicographic order.

    Block k of each site is an odd multiple m * canonical(jtilde_k), m >= 1,
    with |m * jtilde_k| <= N (the zero pair alone when jtilde_k is zero);
    the sites are every product of these blocks except canonical(jtilde).
    Every iterate lives on odd multiples and the kernel u^(*2p) on even
    ones, so these equations decouple exactly from the rest of the box.
    """
    c = canonical(jtilde)
    blocks = []
    for k in range(0, len(c), 2):
        b = np.array(c[k:k + 2], dtype=np.int64)
        top = N // int(np.abs(b).max()) if b.any() else 1  # largest m with |m b| <= N
        # b is canonical, so its multiples are in lexicographic order
        blocks.append(np.arange(1, top + 1, 2, dtype=np.int64)[:, None] * b)
    picks = np.meshgrid(*[np.arange(len(b)) for b in blocks], indexing="ij")
    sites = np.concatenate([b[i.ravel()] for b, i in zip(blocks, picks)], axis=1)
    return sites[np.any(sites != np.asarray(c, dtype=np.int64), axis=1)]


def hermite_basis(vectors: np.ndarray) -> np.ndarray:
    """Basis of the Z-span of integer rows, in row Hermite normal form: an
    (r, k) int64 array, r the rank, whose rows' first nonzero entries (the
    pivots) are positive and move right row by row, every entry above a
    pivot in [0, pivot).  Exact integer row operations (Euclid's algorithm
    on rows, then reduction above the pivots) keep the span."""
    k = np.shape(vectors)[1]
    rows: dict[int, list[int]] = {}  # pivot column -> basis row
    for v in np.asarray(vectors).tolist():
        for c in range(k):
            b = rows.get(c, [0] * k)
            while v[c]:
                q = b[c] // v[c]
                b, v = v, [x - q * y for x, y in zip(b, v)]
            if b[c]:
                rows[c] = b if b[c] > 0 else [-x for x in b]
    basis = [rows[c] for c in sorted(rows)]
    for j, c in enumerate(sorted(rows)):
        for i in range(j):
            q = basis[i][c] // basis[j][c]
            basis[i] = [x - q * y for x, y in zip(basis[i], basis[j])]
    return np.array(basis, dtype=np.int64).reshape(-1, k)


def lattice_reduce(pts: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates m (n, r) and remainders of integer rows against basis
    (hermite_basis), with pts = m @ basis + remainder: substitution row by
    row on the pivots leaves every pivot coordinate of the remainder in
    [0, pivot), so the remainder is the row's coset representative, zero
    exactly for the rows on the lattice."""
    rest = np.array(pts, dtype=np.int64)
    m = np.empty((len(rest), len(basis)), dtype=np.int64)
    for i, row in enumerate(basis):
        c = np.flatnonzero(row)[0]
        m[:, i] = rest[:, c] // row[c]
        rest -= m[:, i, None] * row
    return m, rest


def coset_labels(pts: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Label of each row's coset of the lattice spanned by basis
    (hermite_basis), counting up in order of each coset's first row: each
    row reduced to the representative with pivot coordinates in [0, pivot)."""
    rep = lattice_reduce(pts, basis)[1]
    _, first, inverse = np.unique(rep, axis=0, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse.ravel()]


def coset_bound(basis: np.ndarray, width: int) -> int:
    """Most sites one coset of the lattice spanned by basis (hermite_basis)
    has in a cube of width sites per side: a coset's site is fixed by its
    coordinates at the pivots, and once the earlier ones are fixed, the one
    at a pivot h takes at most ceil(width / h) values."""
    return math.prod(-(-width // int(row[row != 0][0])) for row in basis)


class CodeOverflow(Exception):
    """Coordinate bounds too wide for an int64 site code (SiteCode)."""


class SiteCode:
    """Injective int64 code of integer rows in [-bounds[c], bounds[c]] per
    column c: balanced digits in radix 2 bounds[c] + 1, first column most
    significant, so a bound of 0 costs a factor of 1.  Code order is
    lexicographic order (sorted site lists have sorted codes),
    encode(x) + encode(y) = encode(x + y) while x + y stays in range,
    decode inverts encode, and a row is canonical iff its block_codes are
    >= 0.  Raises CodeOverflow unless the radices' product is < 2^63."""

    __slots__ = ("radices", "places")

    def __init__(self, bounds):
        radices = [2 * b + 1 for b in np.asarray(bounds).tolist()]
        places = [1]
        for r in radices[:0:-1]:
            places.append(places[-1] * r)
        if places[-1] * radices[0] >= 2**63:
            raise CodeOverflow(f"coordinate bounds {[r // 2 for r in radices]} span over 2^63 site codes")
        self.radices = np.array(radices, dtype=np.int64)
        self.places = np.array(places[::-1], dtype=np.int64)  # encode of each unit row

    def encode(self, pts: np.ndarray) -> np.ndarray:
        return pts.astype(np.int64, copy=False) @ self.places

    def decode(self, codes: np.ndarray) -> np.ndarray:
        # codes + (span - 1) / 2 is the unbalanced code of rows + bounds
        span = int(self.radices[0] * self.places[0])
        return (codes[:, None] + span // 2) // self.places % self.radices - self.radices // 2

    def block_codes(self, pts: np.ndarray) -> np.ndarray:
        """(n, d) two-digit codes of each row's blocks, columns 2k and 2k+1
        coded alone: additive like encode."""
        return pts[:, 0::2] * self.radices[1::2] + pts[:, 1::2]


def extent(pts: np.ndarray) -> np.ndarray:
    """Largest |coordinate| per column (0 without rows): the narrowest code's bounds."""
    return np.abs(pts).max(axis=0, initial=0)


def _block_flips(pts: np.ndarray) -> np.ndarray:
    """(n, d) mask of the blocks not in canonical form: the first nonzero
    entry is negative."""
    a, b = pts[:, 0::2], pts[:, 1::2]
    return (a < 0) | ((a == 0) & (b < 0))


def canonicalize_array(pts: np.ndarray) -> np.ndarray:
    """Vectorized per-block canonical representative of each row."""
    return pts * np.repeat(np.where(_block_flips(pts), -1, 1), 2, axis=1)


def is_canonical_array(pts: np.ndarray) -> np.ndarray:
    """Vectorized is_canonical: True for rows that are their own representative."""
    return ~_block_flips(pts).any(axis=1)


def orbits_array(pts: np.ndarray) -> np.ndarray:
    """Every per-block sign flip of every row: (2**d * n, 2d), sign pattern
    major (rows k*n .. k*n + n - 1 are pattern k applied to pts).  Rows with
    zero blocks repeat members."""
    d = pts.shape[1] // 2
    flips = np.repeat(np.array(list(itertools.product((1, -1), repeat=d)), dtype=np.int64), 2, axis=1)
    return (flips[:, None, :] * pts[None, :, :]).reshape(-1, 2 * d)


def orbit_sizes_array(pts: np.ndarray) -> np.ndarray:
    """2**(number of nonzero blocks) per row."""
    n_nonzero = np.zeros(len(pts), dtype=np.int64)
    for k in range(0, pts.shape[1], 2):
        n_nonzero += (pts[:, k] != 0) | (pts[:, k + 1] != 0)
    return 2 ** n_nonzero


def symbol_array(pts: np.ndarray, lam: Frequency, theta=None) -> np.ndarray:
    """Vectorized symbol, optionally with per-block shifts theta (length d)."""
    inners = np.empty((len(pts), pts.shape[1] // 2))
    for k in range(inners.shape[1]):
        inners[:, k] = pts[:, 2 * k] * lam[2 * k] + pts[:, 2 * k + 1] * lam[2 * k + 1]
    if theta is not None:
        inners = inners + np.asarray(theta)
    return np.sum(inners * inners, axis=1)
