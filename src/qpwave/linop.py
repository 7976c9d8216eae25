"""Truncated linearized operators: assembly, application, inversion, profiling.

The operator acts on a finite site list as

    (T v)(j) = diag(j) v(j) - sum_j' kernel(j - j') v(j'),
    diag(j)  = sum_k ((j_k . lambda_k) + theta_k)^2 - E,

with kernel = (2p+1) * u^(*2p), the exact convolution power on its full
support (kernel_series); offsets that reach no site of the set add nothing.
Each operator takes its kernel ready-made.  theta enters only the diagonal;
the kernel is theta-independent.  Translating the site list by j0 is
exactly equivalent to shifting theta_k by j0_k . lambda_k, which
covariance_discrepancy measures.

Each site set has one sparse realization, assembled once from COO triplets
(the diagonal, plus one entry per site and kernel offset whose source lands
in the set) into a CSC matrix cached by matrix().  Two site sets occur:

* LinearizedOperator, the full matrix on an explicit site list, needed for
  theta-shifted diagnostics (the sign-flip symmetry is broken when
  theta != 0), for Green's-function decay profiles, and for the covariance
  identity; it is exactly symmetric;
* ReducedOperator, the matrix on a list of canonical orbit representatives
  of a region at theta = 0, where the symmetric subspace is invariant, used
  by the Newton solver; the kernel is summed over each source orbit and
  rows and columns are weighted by sqrt(orbit size) so it stays symmetric.
  The solver lists only the coupled set (lattice.coupled_sites), the one
  coset of the seed's lattice that its residual drives, so this is the
  coupled block of the box-minus-orbit system and never the whole box.
  Block k of every listed site is an odd multiple m * jtilde_k, which is
  why the profile the solver builds is periodic in each x_k, with
  frequencies m * omega_k, omega_k = jtilde_k . lambda_k.

The LinearizedOperator is assembled through a site table: an integer array
over the bounding box of its site list, in lattice.encode order, holding
each box site's row or -1.  Each kernel offset (each orbit member of the
kernel, in lexicographic order) costs a per-coordinate range test (is the
source site - offset in the box?), one integer shift of the site codes and
one gather from the table.  The ReducedOperator looks every (offset, site)
pair up at once, offset-major, so its COO entries come in the same order:
the source site - offset is canonicalized, encoded and searchsorted
against the list's sorted codes, and a hit is in the region because every
listed site is.  ReducedOperator.solve_series reads its right-hand side's
sites the same way; one inside the region but off the list raises, since
dropping it would hide a broken invariant.

Every inverse reads T through its diagonal blocks: the connected
components of its pattern (for every seed the solver accepts, the cosets of
the seed's lattice), gathered as dense matrices and stacked by size.  A
linear solve (a Newton step, solve_linear) is one batched LU solve per
block size plus at most four steps of iterative refinement on the same
blocks; the residual contract is enforced on every return, and its
violation, like an exactly singular block, is the resonance signal
SingularOperator.  The contract's norm estimate is that of the matrix
solved: for a Newton step, the coupled matrix, so a Newton step raises
SingularOperator only for a resonance on the coupled set.  The decoupled
cosets are measured by the diagnostics.  As T is symmetric, ||T^-1||_2 =
1 / min|eig T|, which inverse_norm takes over the blocks' eigvalsh
spectra; greens_profile inverts the blocks and folds each one's entries
into the per-distance maxima, so neither an n x n array nor a sparse
factor is formed.  The blocks are found on the sparse matrix, where every
stored entry is an edge however small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from . import lattice
from .lattice import Frequency, Index, Region
from .series import DecayFit, InsufficientData, QPSeries, conv_power, fit_shell_decay

# A solve whose floating-point residual floor exceeds this has no
# significant digits left; treat it as resonance.
SINGULAR_FLOOR = 1e-6

_EPS = np.finfo(float).eps

class SingularOperator(Exception):
    """A diagonal block is exactly singular or its inverse non-finite, or a
    solve could not reach its residual contract: a resonant lambda/E."""


def kernel_series(u: QPSeries, p: int) -> QPSeries:
    """The linearization's kernel (2p+1) * u^(*2p), on its full support."""
    return conv_power(u, 2 * p).scale(2.0 * p + 1.0)


class _SiteTable:
    """Row of every site of the box lo <= x <= hi (per coordinate), or -1.

    rows is indexed by box position in lexicographic order (lattice.encode
    order), so a site's code is linear in its coordinates and a shift by an
    offset is one integer subtraction.  Rows are int32, SciPy's index type
    for every matrix that fits in memory, so the assembled index lists need
    no down-cast copy.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo = lo
        self.hi = hi
        extent = hi - lo + 1
        self.weights = np.append(np.cumprod(extent[:0:-1])[::-1], 1).astype(np.int64)
        self.rows = np.full(int(np.prod(extent)), -1, dtype=np.int32)

    def codes(self, pts: np.ndarray) -> np.ndarray:
        """Box position of every row of pts; meaningless for rows outside the box."""
        return (pts - self.lo) @ self.weights

    def locate(self, coords: np.ndarray, codes: np.ndarray, off: np.ndarray):
        """(i, row of site i - off) for every site i whose shifted site has a
        row.  coords is (2d, m), one contiguous row per coordinate; codes are
        the sites' box positions."""
        inbox = np.ones(coords.shape[1], dtype=bool)
        for x, lo, hi, o in zip(coords, self.lo, self.hi, off):
            inbox &= (x >= lo + o) & (x <= hi + o)
        i = np.nonzero(inbox)[0]
        rows = self.rows[codes[i] - off @ self.weights]
        hit = rows >= 0
        return i[hit].astype(np.int32), rows[hit]


def _sparse_matrix(diag: np.ndarray, entries) -> sp.csc_matrix:
    """diag on the diagonal plus vals at (rows, cols) for every (rows, cols,
    vals) part of entries; entries sharing a position are summed."""
    n = len(diag)
    diagonal = np.arange(n, dtype=np.int32)
    rows, cols, vals = [diagonal], [diagonal], [np.asarray(diag, dtype=float)]
    for r, c, v in entries:
        rows.append(r)
        cols.append(c)
        vals.append(v)
    # concatenate one list at a time, so each list's parts are freed before the next
    vals = np.concatenate(vals)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()


def _table_entries(kernel: QPSeries, sites: np.ndarray, table: _SiteTable):
    """(i, row of sites[i] - off, -kernel(off)) for each kernel offset off in
    lexicographic order, over every site i whose source the table holds."""
    coords, codes = np.ascontiguousarray(sites.T), table.codes(sites)
    offsets, kvals = kernel.orbit_members()
    for off, val in zip(offsets, kvals.tolist()):
        r, c = table.locate(coords, codes, off)
        yield r, c, np.full(len(r), -val)


def _by_column(M: sp.csc_matrix, x: np.ndarray) -> np.ndarray:
    """x[column] for every stored entry of a CSC matrix."""
    return np.repeat(x, np.diff(M.indptr))


class LinearizedOperator:
    """Full realization on an explicit, lexicographically ordered site list."""

    def __init__(self, d, sites, diag, kernel, theta, E, lam, region=None):
        self.d = d
        self.sites = sites              # (n, 2d) int64, lex sorted
        self.diag = diag                # (n,) float
        self.kernel = kernel            # QPSeries
        self.theta = tuple(theta)
        self.E = E
        self.lam = tuple(lam)
        self.region = region            # Region when built from one, else None
        # rows of the sites themselves over their bounding box
        self._table = _SiteTable(sites.min(axis=0), sites.max(axis=0))
        self._table.rows[self._table.codes(sites)] = np.arange(len(sites))
        self._matrix = None

    @property
    def n(self) -> int:
        return len(self.sites)

    def site_index(self) -> dict[Index, int]:
        return {tuple(s): i for i, s in enumerate(self.sites)}

    def matrix(self) -> sp.csc_matrix:
        """The operator as a CSC matrix, assembled on first use."""
        if self._matrix is None:
            self._matrix = _sparse_matrix(self.diag, _table_entries(self.kernel, self.sites, self._table))
        return self._matrix

    def to_dense(self) -> np.ndarray:
        return self.matrix().toarray()


def assemble(u: QPSeries, E: float, lam: Frequency, theta, region, p: int) -> LinearizedOperator:
    """Build the linearized operator on a Region or an explicit site list."""
    d = u.d
    if len(lam) != 2 * d:
        raise ValueError("frequency dimension mismatch")
    if theta is None:
        theta = (0.0,) * d
    if len(theta) != d:
        raise ValueError(f"theta must have {d} components")
    if not all(map(math.isfinite, theta)):
        raise ValueError(f"theta must be finite, got {tuple(theta)!r}")
    if isinstance(region, Region):
        sites = lattice.sites_array(region, d)
        reg = region
    else:
        listed = sorted(map(tuple, region))
        if len(set(listed)) != len(listed):
            raise ValueError("explicit site list repeats a site")
        sites = np.asarray(listed, dtype=np.int64)
        reg = None
    diag = lattice.symbol_array(sites, lam, theta) - E
    return LinearizedOperator(d, sites, diag, kernel_series(u, p), theta, E, lam, region=reg)


def apply(T: LinearizedOperator, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product in the site-list ordering."""
    v = np.asarray(v, dtype=float)
    if v.shape != (T.n,):
        raise ValueError(f"vector has shape {v.shape}, operator expects ({T.n},)")
    return T.matrix() @ v


def _residual_contract(M_mul, w, rhs, tol, norm_est):
    """Relative residual, and the instance's floating-point floor.

    Raises SingularOperator when the floor itself is so large that the
    solution carries no significant digits: the hallmark of a resonant
    instance whose blocks are nearly singular but still factorize.
    """
    r = rhs - M_mul(w)
    b_norm = float(np.linalg.norm(rhs))
    if b_norm == 0.0:
        return r, 0.0, tol
    rel = float(np.linalg.norm(r)) / b_norm
    w_norm = float(np.linalg.norm(w))
    floor = 8.0 * _EPS * norm_est * w_norm / b_norm
    if floor > SINGULAR_FLOOR:
        raise SingularOperator(
            f"solution magnitude {w_norm:.3e} leaves no significant digits "
            f"(residual floor {floor:.3e}): resonant instance"
        )
    return r, rel, max(tol, floor)


def _solve(M: sp.csc_matrix, rhs: np.ndarray, tol: float) -> np.ndarray:
    """Solve M w = rhs through M's diagonal blocks, and iteratively refine.

    The blocks are found once; each pass is one batched LU solve per block
    size.  Raises SingularOperator when a block is exactly singular or the
    residual contract (tol, or the floating-point floor of the instance if
    larger) cannot be met.
    """
    if np.linalg.norm(rhs) == 0.0:
        return np.zeros(M.shape[0])
    blocks = _diagonal_blocks(M)
    norm_est = max(float(np.abs(A).sum(axis=2).max()) for _, A in blocks)

    def solve_once(b: np.ndarray) -> np.ndarray:
        x = np.empty_like(b)
        for rows, A in blocks:
            try:
                x[rows] = np.linalg.solve(A, b[rows, None])[..., 0]
            except np.linalg.LinAlgError as exc:
                raise SingularOperator(f"singular block of {A.shape[1]} sites: {exc}") from exc
        return x

    w = solve_once(rhs)
    if not np.all(np.isfinite(w)):
        raise SingularOperator("block solve produced a non-finite solution")
    r, rel, bound = _residual_contract(lambda x: M @ x, w, rhs, tol, norm_est)
    for _ in range(4):
        if rel <= bound:
            break
        dw = solve_once(r)
        if not np.all(np.isfinite(dw)):
            raise SingularOperator("refinement produced non-finite correction")
        w = w + dw
        r, new_rel, bound = _residual_contract(lambda x: M @ x, w, rhs, tol, norm_est)
        if new_rel >= rel:
            rel = new_rel
            break
        rel = new_rel
    if rel > bound:
        raise SingularOperator(
            f"residual contract violated: relative residual {rel:.3e} > {bound:.3e}"
        )
    return w


def solve_linear(T: LinearizedOperator, rhs: np.ndarray, tol: float = 1e-13) -> np.ndarray:
    """Solve T w = rhs on the operator's site list."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (T.n,):
        raise ValueError(f"rhs has shape {rhs.shape}, operator expects ({T.n},)")
    return _solve(T.matrix(), rhs, tol)


def _diagonal_blocks(M: sp.csc_matrix) -> list[tuple[np.ndarray, np.ndarray]]:
    """M's diagonal blocks, one per connected component of its pattern.

    Returns one (rows, blocks) pair per block size s, in increasing s: rows
    is (k, s), each block's row indices in increasing order, and blocks is
    the (k, s, s) stack of the dense submatrices M[rows[b]][:, rows[b]].
    Every stored entry of M lies in one block, so M is the direct sum of
    the blocks.  M stays sparse: csgraph reads a dense array's entries with
    |x| <= 1e-8 as absent, and Newton matrices couple through smaller ones.
    """
    _, labels = csgraph.connected_components(M, directed=False)
    size = np.bincount(labels)[labels]
    order = np.lexsort((labels, size))  # by block size, then block, then row
    block = np.empty(len(size), dtype=np.int64)
    pos = np.empty(len(size), dtype=np.int64)
    row, col = M.indices, _by_column(M, np.arange(len(size)))
    out = []
    for s in np.unique(size):
        rows = order[size[order] == s].reshape(-1, s)
        block[rows] = np.arange(len(rows))[:, None]
        pos[rows] = np.arange(s)
        hit = size[row] == s
        r, c = row[hit], col[hit]
        A = np.zeros((len(rows), s, s))
        A[block[r], pos[r], pos[c]] = M.data[hit]
        out.append((rows, A))
    return out


def _block_inverse_norm(blocks) -> float:
    """||M^-1||_2 = 1 / min|eig M| of a symmetric M from its diagonal
    blocks (_diagonal_blocks); inf when that minimum is exactly 0."""
    smallest = min(float(np.abs(np.linalg.eigvalsh(A)).min()) for _, A in blocks)
    return 1.0 / smallest if smallest > 0.0 else math.inf


def inverse_norm(M: sp.csc_matrix) -> float:
    """||M^-1||_2 = 1 / min|eig M| of a symmetric CSC matrix, from the
    eigenvalues of its diagonal blocks; inf when M is exactly singular."""
    return _block_inverse_norm(_diagonal_blocks(M))


@dataclass(frozen=True)
class GreensProfile:
    """Measured size and off-diagonal decay of an inverse operator.

    decay is None when the inverse has no off-diagonal mass beyond the
    threshold distance (e.g. a purely diagonal operator).
    """

    op_norm_inverse: float
    decay: DecayFit | None
    threshold_distance: int
    N: int

    def to_json_dict(self):
        return {
            "op_norm_inverse": self.op_norm_inverse,
            "beta": self.decay.rate if self.decay else None,
            "beta_prefactor": self.decay.prefactor if self.decay else None,
            "fit_rms": self.decay.residual_rms if self.decay else None,
            "N": self.N,
            "threshold_distance": self.threshold_distance,
        }


def greens_profile(T: LinearizedOperator) -> GreensProfile:
    """Profile G = T^-1: its operator norm, and an exponential fit to its
    shell maxima max{|G(x, y)| : |x - y| = s} over all site pairs, beyond
    one tenth of the box scale.

    G is block-diagonal like T, so each block of G is the dense inverse of
    a block of T (one batched inverse per block size) and G(x, y) = 0
    between blocks; the pair distances are formed within blocks only.  The
    norm comes from the eigenvalues of the same blocks.  A singular block,
    or one whose inverse has non-finite entries, raises SingularOperator.
    """
    blocks = _diagonal_blocks(T.matrix())
    # separations per coordinate, in the narrowest signed dtype that holds
    # the largest one
    rel = T.sites - T.sites.min(axis=0)
    extent = int(rel.max()) + 1
    coords = rel.T.astype(np.min_scalar_type(-extent))
    maxes = np.zeros(extent)
    for rows, A in blocks:
        try:
            G = np.linalg.inv(A)
        except np.linalg.LinAlgError as exc:
            raise SingularOperator(f"singular block of {A.shape[1]} sites: {exc}") from exc
        if not np.all(np.isfinite(G)):
            raise SingularOperator("block inverse has non-finite entries")
        dist = np.zeros(G.shape, dtype=coords.dtype)
        for x in coords:
            xb = x[rows]
            np.maximum(dist, np.abs(xb[:, :, None] - xb[:, None, :]), out=dist)
        np.maximum.at(maxes, dist.ravel(), np.abs(G).ravel())
    op_norm = _block_inverse_norm(blocks)

    if T.region is not None:
        N = T.region.N
    else:
        N = int(np.max(np.abs(T.sites)))
    threshold = math.ceil(N / 10)
    try:
        fit = fit_shell_decay(dict(enumerate(maxes.tolist())), threshold + 1)
    except InsufficientData:
        fit = None
    return GreensProfile(op_norm_inverse=float(op_norm), decay=fit,
                         threshold_distance=threshold, N=N)


def covariance_discrepancy(u: QPSeries, E: float, lam: Frequency, theta, j0: Index,
                           region: Region, p: int = 1) -> float:
    """Exactness of the lattice-translation / theta-shift identity.

    Builds the operator on the region translated by j0 at the given theta,
    and on the original region at theta shifted per block by j0_k . lambda_k,
    and returns the max absolute entry difference.  The kernel is shared by
    construction, so the discrepancy is purely the diagonal's floating-point
    associativity (and is independent of E, which cancels identically).
    """
    d = u.d
    if theta is None:
        theta = (0.0,) * d
    base_sites = lattice.sites_array(region, d)
    shifted_sites = base_sites + np.asarray(j0, dtype=np.int64)
    kernel = kernel_series(u, p)
    theta2 = tuple(
        theta[k] + lattice.block_inner((j0[2 * k], j0[2 * k + 1]), (lam[2 * k], lam[2 * k + 1]))
        for k in range(d)
    )
    diag1 = lattice.symbol_array(shifted_sites, lam, theta) - E
    diag2 = lattice.symbol_array(base_sites, lam, theta2) - E
    T1 = LinearizedOperator(d, shifted_sites, diag1, kernel, theta, E, lam)
    T2 = LinearizedOperator(d, base_sites, diag2, kernel, theta2, E, lam)
    return float(abs(T1.matrix() - T2.matrix()).max())


class ReducedOperator:
    """The operator restricted to the sign-flip-symmetric subspace at
    theta = 0, realized on a list of canonical orbit representatives.

    The reduced entry aggregates the kernel over the source orbit; rows and
    columns are weighted by sqrt(orbit size) so the realization stays
    symmetric.  Only valid on orbit-closed regions.  sites holds distinct
    canonical region sites in lexicographic order; the realization is the
    region's reduced operator restricted to them, which is its exact
    diagonal block when no kernel offset links them to the rest of the
    region (the Newton solver passes lattice.coupled_sites).  The region
    gives the box scale N and the membership of kernel sources.
    """

    def __init__(self, kernel: QPSeries, E: float, lam: Frequency, region: Region,
                 sites: np.ndarray):
        if not region.is_orbit_closed():
            raise ValueError("symmetry reduction needs an orbit-closed region")
        d = kernel.d
        sites = np.asarray(sites, dtype=np.int64).reshape(-1, 2 * d)
        if not (np.all(region.contains_array(sites))
                and np.all(lattice.is_canonical_array(sites))):
            raise ValueError("reduced sites must be canonical sites of the region")
        # encode order is lexicographic order, so sorted distinct sites have
        # strictly increasing codes
        self._codes = lattice.encode(sites, region.N)
        if np.any(np.diff(self._codes) <= 0):
            raise ValueError("reduced sites must be distinct and in lexicographic order")
        self.d = d
        self.E = E
        self.lam = tuple(lam)
        self.region = region
        self.sites = sites
        self.n = len(sites)
        self.weights = lattice.orbit_sizes_array(sites).astype(float)
        self.diag = lattice.symbol_array(sites, lam) - E
        self.kernel = kernel
        self._matrix = None

    def _rows(self, canon: np.ndarray) -> np.ndarray:
        """Row of each canonical site in the site list, -1 where it has none."""
        N = self.region.N
        codes = np.where(np.all(np.abs(canon) <= N, axis=1), lattice.encode(canon, N), -1)
        pos = np.searchsorted(self._codes, codes)
        hit = pos < self.n
        hit[hit] = self._codes[pos[hit]] == codes[hit]
        return np.where(hit, pos, -1)

    def _kernel_entries(self):
        """(i, row of the representative of sites[i] - off, -kernel(off)) for
        every kernel offset off and site i whose source has a row, in one
        lookup over all pairs, offset-major (offsets in lexicographic order)."""
        offsets, kvals = self.kernel.orbit_members()
        src = (self.sites[None, :, :] - offsets[:, None, :]).reshape(-1, 2 * self.d)
        rows = self._rows(lattice.canonicalize_array(src))
        hit = np.flatnonzero(rows >= 0)
        k, i = np.divmod(hit, self.n)
        return i, rows[hit], -kvals[k]

    def matrix(self) -> sp.csc_matrix:
        """Symmetrized reduced matrix (CSC), assembled on first use."""
        if self._matrix is None:
            M = _sparse_matrix(self.diag, [self._kernel_entries()])
            sq = np.sqrt(self.weights)
            M.data = M.data * sq[M.indices] / _by_column(M, sq)
            self._matrix = M
        return self._matrix

    def solve(self, rhs_canonical: np.ndarray, tol: float = 1e-13) -> np.ndarray:
        """Solve the reduced system for values on the listed sites.

        rhs_canonical holds the symmetric right-hand side's values at the
        listed sites; the returned vector is in the same coordinates.  An
        empty list has the empty solution, and no matrix is built.
        """
        rhs_canonical = np.asarray(rhs_canonical, dtype=float)
        if rhs_canonical.shape != (self.n,):
            raise ValueError("rhs shape mismatch with reduced site list")
        if self.n == 0:
            return np.zeros(0)
        sq = np.sqrt(self.weights)
        return _solve(self.matrix(), rhs_canonical * sq, tol) / sq

    def solve_series(self, rhs: QPSeries, tol: float = 1e-13) -> QPSeries:
        """Solve with a series right-hand side, returning a series.

        rhs sites outside the region are dropped; an rhs site inside the
        region but off the site list raises AssertionError, as it means the
        list does not hold the equations the right-hand side drives.  The
        nonzero solution rows are canonical and sorted, so they are a series
        as they stand.
        """
        inside = self.region.contains_array(rhs.sites)
        rows = self._rows(rhs.sites[inside])
        if np.any(rows < 0):
            raise AssertionError("right-hand side reaches a region site off the reduced site list")
        rhs_vec = np.zeros(self.n)
        rhs_vec[rows] = rhs.vals[inside]
        w = self.solve(rhs_vec, tol=tol)
        nz = np.nonzero(w)[0]
        return QPSeries(self.d, self.sites[nz], w[nz])
