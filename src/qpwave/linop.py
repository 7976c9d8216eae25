"""Truncated linearized operators: assembly, application, inversion, profiling.

The operator acts on a finite site list as

    (T v)(j) = diag(j) v(j) - sum_j' kernel(j - j') v(j'),
    diag(j)  = sum_k ((j_k . lambda_k) + theta_k)^2 - E,

with kernel = (2p+1) * u^(*2p), the exact convolution power on its full
support (kernel_series).  theta enters only the diagonal; translating the
site list by j0 is exactly a shift of theta_k by j0_k . lambda_k
(covariance_discrepancy).  Every kernel offset lies in the kernel's support
lattice (lattice.hermite_basis), so T is exactly block-diagonal over the
lattice's cosets on any site list and at any theta: coarser than the
components of T's pattern at worst, which keeps every block's LU, inverse
and spectrum exact.  Two site sets occur:

* LinearizedOperator, on an explicit site list (theta-shifted diagnostics,
  Green's-function profiles, the covariance identity): one dense block per
  coset.  assemble bounds the blocks' bytes from the lattice's pivots
  before it enumerates a region (OperatorTooLarge, BLOCK_BYTES_BUDGET);
* ReducedOperator, one dense block on canonical orbit representatives at
  theta = 0, where the symmetric subspace is invariant; rows and columns
  are weighted by sqrt(orbit size) so it stays symmetric.  The Newton
  solver lists the coupled set (lattice.coupled_sites), the one coset of
  the seed's lattice its residual drives; block k of each listed site is an
  odd multiple m * jtilde_k, so the profile carries only the frequencies
  m * omega_k, omega_k = jtilde_k . lambda_k.

Every consumer reads the block list.  A linear solve is one batched LU
solve per block size plus at most four refinement steps, under a residual
contract whose violation, like an exactly singular block, is the resonance
signal SingularOperator; its norm estimate is the solved matrix's, so a
Newton step reports a resonance of the coupled set only.  As T is
symmetric, ||T^-1||_2 = 1 / min|eig T| (inverse_norm); greens_profile
inverts the blocks and folds each into the per-distance maxima, so no
n x n array is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lattice
from .lattice import Frequency, Index, Region
from .series import DecayFit, InsufficientData, QPSeries, conv_power, fit_shell_decay

# A solve whose floating-point residual floor exceeds this has no
# significant digits left; treat it as resonance.
SINGULAR_FLOOR = 1e-6

# Most bytes the arrays sized by a box may take: an operator's dense
# diagonal blocks, the separation margin's site list or an evolution's
# grids (check_box_bytes).
# A Green's profile holds, besides the blocks, one block size's inverses
# and pair distances, so it still peaks near twice the blocks' bytes.
BLOCK_BYTES_BUDGET = 2**29

_EPS = np.finfo(float).eps


class OperatorTooLarge(Exception):
    """Too large for memory: an operator's diagonal blocks, a site list, an
    evolution's grids or a theta sweep's points may outgrow BLOCK_BYTES_BUDGET."""


class SingularOperator(Exception):
    """A diagonal block is exactly singular or its inverse non-finite, or a
    solve could not reach its residual contract: a resonant lambda/E."""


def kernel_series(u: QPSeries, p: int) -> QPSeries:
    """The linearization's kernel (2p+1) * u^(*2p), on its full support."""
    return conv_power(u, 2 * p).scale(2.0 * p + 1.0)


class _SiteLookup:
    """Row of any site in a list of distinct sites in lexicographic order
    (so in code order): one lattice.encode and one searchsorted."""

    def __init__(self, sites: np.ndarray):
        self.bound = int(np.abs(sites).max(initial=0))
        self.codes = lattice.encode(sites, self.bound)
        self.columns = np.ascontiguousarray(sites.T)
        # encode's place values: encode(x - y) = encode(x) - y @ place
        self.place = (2 * self.bound + 1) ** np.arange(sites.shape[1] - 1, -1, -1, dtype=np.int64)

    def _find(self, codes: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(self.codes, codes)
        hit = pos < len(self.codes)
        hit[hit] = self.codes[pos[hit]] == codes[hit]
        return np.where(hit, pos, -1)

    def rows(self, pts: np.ndarray) -> np.ndarray:
        """Row of each row of pts in the list, -1 where it has none."""
        inside = np.all(np.abs(pts) <= self.bound, axis=1)
        return self._find(np.where(inside, lattice.encode(pts, self.bound), -1))

    def shifted(self, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(i, row of site i - off) for every listed site i whose shifted
        site is listed."""
        inside = np.ones(len(self.codes), dtype=bool)
        for x, o in zip(self.columns, off.tolist()):
            inside &= (x >= o - self.bound) & (x <= o + self.bound)
        i = np.flatnonzero(inside)
        rows = self._find(self.codes[i] - int(off @ self.place))
        hit = rows >= 0
        return i[hit], rows[hit]


def _coset_blocks(sites: np.ndarray, diag: np.ndarray, kernel: QPSeries,
                  basis: np.ndarray) -> list:
    """One dense block per coset of the kernel's support lattice, whose
    lattice.hermite_basis is basis: one (rows, stack) pair per block size
    s, in increasing s, rows (k, s) holding each block's rows in increasing
    order (blocks ordered by first row) and stack the (k, s, s) blocks,
    views of one buffer.  An offset is a lattice vector, so a site's source
    site - offset lies in its own block."""
    offsets, kvals = kernel.orbit_members()
    labels = lattice.coset_labels(sites, basis)
    size = np.bincount(labels)[labels]
    order = np.lexsort((labels, size))  # by block size, then block, then row
    buf = np.zeros(int(size.sum()))
    row_start = np.empty(len(sites), dtype=np.int64)  # buffer index of a site's row
    pos = np.empty(len(sites), dtype=np.int64)        # its position in its block
    blocks, start = [], 0
    for s in np.unique(size):
        rows = order[size[order] == s].reshape(-1, s)
        pos[rows] = np.arange(s)
        row_start[rows] = start + s * np.arange(rows.size).reshape(rows.shape)
        blocks.append((rows, buf[start:start + rows.size * s].reshape(-1, s, s)))
        start += rows.size * s
    buf[row_start + pos] = diag
    lookup = _SiteLookup(sites)
    for off, val in zip(offsets, kvals.tolist()):
        i, src = lookup.shifted(off)
        buf[row_start[i] + pos[src]] -= val
    return blocks


def _apply_blocks(blocks, x: np.ndarray) -> np.ndarray:
    """The product of the direct sum of the blocks with x."""
    y = np.empty_like(x)
    for rows, A in blocks:
        y[rows] = (A @ x[rows, None])[..., 0]
    return y


class LinearizedOperator:
    """Full realization on an explicit, lexicographically ordered site list."""

    def __init__(self, sites, diag, kernel, basis, region=None):
        self.sites = sites              # (n, 2d) int64, lex sorted
        self.diag = diag                # (n,) float
        self.kernel = kernel            # QPSeries
        self.basis = basis              # hermite_basis of the kernel's support
        self.region = region            # Region when built from one, else None
        self._blocks = None

    @property
    def n(self) -> int:
        return len(self.sites)

    def site_index(self) -> dict[Index, int]:
        return {tuple(s): i for i, s in enumerate(self.sites)}

    def blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The diagonal blocks (_coset_blocks), built on first use."""
        if self._blocks is None:
            self._blocks = _coset_blocks(self.sites, self.diag, self.kernel, self.basis)
        return self._blocks

    def to_dense(self) -> np.ndarray:
        """The n x n matrix, the blocks scattered into zeros."""
        M = np.zeros((self.n, self.n))
        for rows, A in self.blocks():
            M[rows[:, :, None], rows[:, None, :]] = A
        return M


def check_box_bytes(need, N: int, what: str):
    """Raise OperatorTooLarge, naming the largest box scale that fits, when
    what on the box of scale N may need more than BLOCK_BYTES_BUDGET bytes;
    need(N) is that byte count and grows with N, so the search doubles from
    N = 1 and then bisects, a few dozen evaluations at any N."""
    if need(N) > BLOCK_BYTES_BUDGET:
        fits, over = 0, 1  # need(fits) fits (or fits = 0); need(over) may not
        while over < N and need(over) <= BLOCK_BYTES_BUDGET:
            fits, over = over, 2 * over
        over = min(over, N)
        while over - fits > 1:
            mid = (fits + over) // 2
            if need(mid) <= BLOCK_BYTES_BUDGET:
                fits = mid
            else:
                over = mid
        raise OperatorTooLarge(
            f"{what} on the box of scale {N} may need {need(N) / 2**20:.0f} MiB, above the "
            f"{BLOCK_BYTES_BUDGET / 2**20:.0f} MiB budget; "
            + (f"the largest box scale that fits is N = {fits}" if fits else "no box scale fits"))


def assemble(u: QPSeries, E: float, lam: Frequency, theta, region, p: int) -> LinearizedOperator:
    """Build the linearized operator on a Region or an explicit site list.

    Raises OperatorTooLarge, before any site is enumerated, when a Region's
    blocks may outgrow BLOCK_BYTES_BUDGET (check_box_bytes).
    """
    d = u.d
    if len(lam) != 2 * d:
        raise ValueError("frequency dimension mismatch")
    if theta is None:
        theta = (0.0,) * d
    if len(theta) != d:
        raise ValueError(f"theta must have {d} components")
    if not all(map(math.isfinite, theta)):
        raise ValueError(f"theta must be finite, got {tuple(theta)!r}")
    kernel = kernel_series(u, p)
    basis = lattice.hermite_basis(kernel.orbit_members()[0])
    if isinstance(region, Region):
        def need(N):  # each of the n sites lies in a block of at most coset_bound sites
            n = (2 * N + 1) ** (2 * d) - sum(lattice.linf(s) <= N for s in region.S)
            return 8 * n * min(n, lattice.coset_bound(basis, 2 * N + 1))

        check_box_bytes(need, region.N, "the diagonal blocks")
        sites = lattice.sites_array(region, d)
        reg = region
    else:
        listed = sorted(map(tuple, region))
        if len(set(listed)) != len(listed):
            raise ValueError("explicit site list repeats a site")
        sites = np.asarray(listed, dtype=np.int64)
        reg = None
    diag = lattice.symbol_array(sites, lam, theta) - E
    return LinearizedOperator(sites, diag, kernel, basis, region=reg)


def apply(T: LinearizedOperator, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product in the site-list ordering."""
    v = np.asarray(v, dtype=float)
    if v.shape != (T.n,):
        raise ValueError(f"vector has shape {v.shape}, operator expects ({T.n},)")
    return _apply_blocks(T.blocks(), v)


def _residual_contract(blocks, w, rhs, tol, norm_est):
    """Residual, relative residual and bound: tol, or the instance's
    floating-point floor if larger.

    Raises SingularOperator when the floor itself is so large that the
    solution carries no significant digits: the hallmark of a resonant
    instance whose blocks are nearly singular but still factorize.
    """
    r = rhs - _apply_blocks(blocks, w)
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


def _solve(blocks, rhs: np.ndarray, tol: float) -> np.ndarray:
    """Solve M w = rhs, M the direct sum of the blocks, by one batched LU
    solve per block size, and iteratively refine.  Raises SingularOperator
    when a block is exactly singular or the residual contract cannot be met.
    """
    if np.linalg.norm(rhs) == 0.0:
        return np.zeros(len(rhs))
    norm_est = max(float(np.abs(A).sum(axis=2).max()) for _, A in blocks)

    def solve_once(b: np.ndarray) -> np.ndarray:
        x = np.empty_like(b)
        for rows, A in blocks:
            try:
                x[rows] = np.linalg.solve(A, b[rows, None])[..., 0]
            except np.linalg.LinAlgError as exc:
                raise SingularOperator(f"singular block of {A.shape[1]} sites: {exc}") from exc
        if not np.all(np.isfinite(x)):
            raise SingularOperator("block solve produced non-finite values")
        return x

    w = solve_once(rhs)
    r, rel, bound = _residual_contract(blocks, w, rhs, tol, norm_est)
    for _ in range(4):
        if rel <= bound:
            break
        w = w + solve_once(r)
        r, new_rel, bound = _residual_contract(blocks, w, rhs, tol, norm_est)
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
    return _solve(T.blocks(), rhs, tol)


def inverse_norm(blocks) -> float:
    """||M^-1||_2 = 1 / min|eig M| of a symmetric M from its diagonal
    blocks, one batched eigvalsh per block size; inf when that minimum is
    exactly 0."""
    smallest = min(float(np.abs(np.linalg.eigvalsh(A)).min()) for _, A in blocks)
    return 1.0 / smallest if smallest > 0.0 else math.inf


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

    Each block of G is the inverse of a block of T (one batched inverse per
    block size), and G(x, y) = 0 between blocks, so pair distances are
    formed within blocks only.  A singular block, or one whose inverse has
    non-finite entries, raises SingularOperator.
    """
    blocks = T.blocks()
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
        np.maximum.at(maxes, dist.ravel(), np.abs(G, out=G).ravel())
    op_norm = inverse_norm(blocks)

    N = T.region.N if T.region is not None else int(np.max(np.abs(T.sites)))
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

    Assembles the operator on the region at theta shifted per block by
    j0_k . lambda_k, and on the region's sites translated by j0 at the given
    theta, and returns the max absolute entry difference over the diagonal
    blocks (entries between blocks are exactly 0 in both).  The kernel is
    the same in both, so the discrepancy is purely the diagonal's
    floating-point associativity (and is independent of E, which cancels
    identically).
    """
    theta = (0.0,) * u.d if theta is None else theta
    theta2 = tuple(theta[k] + lattice.block_inner(j0[2 * k:2 * k + 2], lam[2 * k:2 * k + 2])
                   for k in range(u.d))
    T2 = assemble(u, E, lam, theta2, region, p)
    T1 = assemble(u, E, lam, theta, T2.sites + np.asarray(j0, dtype=np.int64), p)
    # a translation keeps the sites' lexicographic order and their coset
    # partition, so the two block lists pair up row for row
    return max(float(np.abs(A1 - A2).max())
               for (_, A1), (_, A2) in zip(T1.blocks(), T2.blocks()))


class ReducedOperator:
    """The operator restricted to the sign-flip-symmetric subspace at
    theta = 0, on distinct canonical sites of an orbit-closed region, in
    lexicographic order: the region's reduced operator restricted to them,
    its exact diagonal block when no kernel offset links them to the rest
    of the region (the Newton solver passes lattice.coupled_sites).  The
    reduced entry aggregates the kernel over the source orbit; the region
    gives the membership of kernel sources.
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
        self._lookup = _SiteLookup(sites)
        if np.any(np.diff(self._lookup.codes) <= 0):
            raise ValueError("reduced sites must be distinct and in lexicographic order")
        self.d = d
        self.region = region
        self.sites = sites
        self.n = len(sites)
        self.weights = lattice.orbit_sizes_array(sites).astype(float)
        self.diag = lattice.symbol_array(sites, lam) - E
        self.kernel = kernel
        self._matrix = None

    def matrix(self) -> np.ndarray:
        """Symmetrized reduced matrix, assembled on first use: the diagonal,
        then -kernel(off) at (i, row of canonical(sites[i] - off)) for every
        offset off (in lexicographic order) and site i, summed in order."""
        if self._matrix is None:
            offsets, kvals = self.kernel.orbit_members()
            src = (self.sites[None, :, :] - offsets[:, None, :]).reshape(-1, 2 * self.d)
            rows = self._lookup.rows(lattice.canonicalize_array(src))
            hit = np.flatnonzero(rows >= 0)
            k, i = np.divmod(hit, self.n)
            M = np.diag(self.diag)
            np.add.at(M, (i, rows[hit]), -kvals[k])
            sq = np.sqrt(self.weights)
            self._matrix = M * sq[:, None] / sq[None, :]
        return self._matrix

    def blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The whole matrix as one diagonal block."""
        return [(np.arange(self.n)[None, :], self.matrix()[None])]

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
        return _solve(self.blocks(), rhs_canonical * sq, tol) / sq

    def solve_series(self, rhs: QPSeries, tol: float = 1e-13) -> QPSeries:
        """Solve with a series right-hand side, returning a series.

        rhs sites outside the region are dropped; an rhs site inside the
        region but off the site list raises AssertionError, as it means the
        list does not hold the equations the right-hand side drives.  The
        nonzero solution rows are canonical and sorted, so they are a series
        as they stand.
        """
        inside = self.region.contains_array(rhs.sites)
        rows = self._lookup.rows(rhs.sites[inside])
        if np.any(rows < 0):
            raise AssertionError("right-hand side reaches a region site off the reduced site list")
        rhs_vec = np.zeros(self.n)
        rhs_vec[rows] = rhs.vals[inside]
        w = self.solve(rhs_vec, tol=tol)
        nz = np.nonzero(w)[0]
        return QPSeries(self.d, self.sites[nz], w[nz])
