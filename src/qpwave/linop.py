"""Truncated linearized operators: assembly, application, inversion, profiling.

The operator acts on a finite site list as

    (T v)(j) = diag(j) v(j) - sum_j' kernel(j - j') v(j'),
    diag(j)  = sum_k ((j_k . lambda_k) + theta_k)^2 - E,

with kernel = (2p+1) * u^(*2p).  theta enters only the diagonal; the kernel
is theta-independent.  Translating the site list by j0 is exactly
equivalent to shifting theta_k by j0_k . lambda_k, which
covariance_discrepancy measures.

Each site set has one sparse realization, assembled once from COO triplets
(the diagonal, plus one entry per site and kernel offset whose source lands
in the set) into a CSC matrix cached by matrix().  Two site sets occur:

* LinearizedOperator, the full matrix on an explicit site list, needed for
  theta-shifted diagnostics (the sign-flip symmetry is broken when
  theta != 0), for Green's-function decay profiles, and for the covariance
  identity; it is exactly symmetric;
* ReducedOperator, the matrix on canonical orbit representatives at
  theta = 0, where the symmetric subspace is invariant, used by the Newton
  solver; the kernel is summed over each source orbit and rows and columns
  are weighted by sqrt(orbit size) so it stays symmetric.

Every linear solve is one SuperLU factorization of the diagonally scaled
matrix plus at most four steps of iterative refinement; the residual
contract is enforced on every return, and its violation, like an exactly
singular factor, is the resonance signal SingularOperator.  As T is
symmetric, ||T^-1||_2 = 1 / min|eig T|, which inverse_norm reads off as the
largest-magnitude eigenvalue of the factorized inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import lattice
from .lattice import Frequency, Index, Region
from .series import DecayFit, InsufficientData, QPSeries, conv_power, fit_shell_decay

# A solve whose floating-point residual floor exceeds this has no
# significant digits left; treat it as resonance.
SINGULAR_FLOOR = 1e-6

_EPS = np.finfo(float).eps


class SingularOperator(Exception):
    """The factorization found (numerical) rank deficiency, or the solve
    could not reach its residual contract: a resonant lambda/E."""


def _kernel_series(u: QPSeries, p: int, radius: int) -> QPSeries:
    """(2p+1) * u^(*2p), truncated to the difference box of the site list."""
    if p < 1:
        raise ValueError("nonlinearity exponent p must be >= 1")
    if u.support_size() == 0:
        return QPSeries.zero(u.d)
    box = Region.full_box(max(1, 2 * radius))
    return conv_power(u, 2 * p, box).scale(2.0 * p + 1.0)


def _lookup(codes: np.ndarray, sorted_codes: np.ndarray):
    """Positions of codes in sorted_codes, and which of them are present."""
    pos = np.minimum(np.searchsorted(sorted_codes, codes), len(sorted_codes) - 1)
    return pos, sorted_codes[pos] == codes


def _sparse_matrix(diag: np.ndarray, kernel: QPSeries, sites: np.ndarray, locate) -> sp.csc_matrix:
    """diag on the diagonal minus kernel(off) at every (row, col) that
    locate(sites - off) returns; entries sharing a position are summed."""
    n = len(diag)
    rows, cols, vals = [np.arange(n)], [np.arange(n)], [np.asarray(diag, dtype=float)]
    for off, val in kernel.items_sorted():
        r, c = locate(sites - np.asarray(off, dtype=np.int64))
        rows.append(r)
        cols.append(c)
        vals.append(np.full(len(r), -val))
    coo = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    return coo.tocsc()


def _coords(M: sp.csc_matrix):
    """Row and column index of every stored entry of a CSC matrix."""
    return M.indices, np.repeat(np.arange(M.shape[1]), np.diff(M.indptr))


class LinearizedOperator:
    """Full realization on an explicit, lexicographically ordered site list."""

    def __init__(self, d, p, sites, diag, kernel, theta, E, lam, region=None):
        self.d = d
        self.p = p
        self.sites = sites              # (n, 2d) int64, lex sorted
        self.diag = diag                # (n,) float
        self.kernel = kernel            # QPSeries
        self.theta = tuple(theta)
        self.E = E
        self.lam = tuple(lam)
        self.region = region            # Region when built from one, else None
        self._bound = int(np.max(np.abs(sites))) if len(sites) else 0
        self._codes = lattice.encode(sites, self._kernel_bound())
        self._matrix = None

    def _kernel_bound(self) -> int:
        kr = self.kernel.support_radius()
        return self._bound + kr + 1

    @property
    def n(self) -> int:
        return len(self.sites)

    def site_index(self) -> dict[Index, int]:
        return {tuple(s): i for i, s in enumerate(self.sites)}

    def _locate(self, src: np.ndarray):
        pos, hit = _lookup(lattice.encode(src, self._kernel_bound()), self._codes)
        return np.nonzero(hit)[0], pos[hit]

    def matrix(self) -> sp.csc_matrix:
        """The operator as a CSC matrix, assembled on first use."""
        if self._matrix is None:
            self._matrix = _sparse_matrix(self.diag, self.kernel, self.sites, self._locate)
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
    if isinstance(region, Region):
        sites = lattice.sites_array(region, d)
        reg = region
    else:
        sites = np.asarray(sorted(map(tuple, region)), dtype=np.int64)
        reg = None
    radius = int(np.max(np.abs(sites))) if len(sites) else 1
    kernel = _kernel_series(u, p, radius)
    diag = lattice.symbol_array(sites, lam, theta) - E
    return LinearizedOperator(d, p, sites, diag, kernel, theta, E, lam, region=reg)


def apply(T: LinearizedOperator, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product in the site-list ordering."""
    v = np.asarray(v, dtype=float)
    if v.shape != (T.n,):
        raise ValueError(f"vector has shape {v.shape}, operator expects ({T.n},)")
    return T.matrix() @ v


def _scaling(diag_of_matrix: np.ndarray) -> np.ndarray:
    mags = np.abs(diag_of_matrix)
    top = mags.max() if len(mags) else 1.0
    floor = max(top * 1e-12, 1e-150)
    return np.sqrt(np.maximum(mags, floor))


def _factorize(M: sp.csc_matrix):
    """b -> M^-1 b through the SuperLU factors of D^-1 M D^-1, where
    D = _scaling(diag M).  An exactly singular factor raises
    SingularOperator; near-singular ones surface as non-finite or
    contract-violating solves, which the callers check."""
    s = _scaling(M.diagonal())
    rows, cols = _coords(M)
    S = sp.csc_matrix((M.data / (s[rows] * s[cols]), M.indices, M.indptr), shape=M.shape)
    try:
        lu = spla.splu(S)
    except RuntimeError as exc:
        raise SingularOperator(f"factorization failed: {exc}") from exc

    def solve(b: np.ndarray) -> np.ndarray:
        sc = s.reshape((-1,) + (1,) * (b.ndim - 1))
        return lu.solve(b / sc) / sc

    return solve


def _residual_contract(M_mul, w, rhs, tol, norm_est):
    """Relative residual, and the instance's floating-point floor.

    Raises SingularOperator when the floor itself is so large that the
    solution carries no significant digits: the hallmark of a resonant
    instance that scaling made formally solvable.
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


def _solve_scaled(M: sp.csc_matrix, rhs: np.ndarray, tol: float) -> np.ndarray:
    """Factorize a diagonally scaled copy and iteratively refine.

    Raises SingularOperator when the factor is singular or the residual
    contract (tol, or the floating-point floor of the instance if larger)
    cannot be met.
    """
    if np.linalg.norm(rhs) == 0.0:
        return np.zeros(M.shape[0])
    solve_once = _factorize(M)
    norm_est = float(abs(M).sum(axis=1).max())

    w = solve_once(rhs)
    if not np.all(np.isfinite(w)):
        raise SingularOperator("factorization produced non-finite solution (zero pivot)")
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
    return _solve_scaled(T.matrix(), rhs, tol)


def inverse_norm(M: sp.csc_matrix) -> float:
    """||M^-1||_2 = 1 / min|eig M| of a symmetric matrix.

    The largest-magnitude eigenvalue of the factorized inverse, by Lanczos
    (ARPACK) from a fixed pseudo-random start; a start vector without
    antisymmetric components would miss the antisymmetric eigenvectors of
    sign-flip-symmetric operators.  inf when the factor is singular or
    yields non-finite solves.
    """
    n = M.shape[0]
    try:
        solve = _factorize(M)
    except SingularOperator:
        return math.inf
    if n == 1:
        return abs(float(solve(np.ones(1))[0]))

    def matvec(x):
        y = solve(x)
        if not np.all(np.isfinite(y)):
            raise SingularOperator("inverse has non-finite entries (zero pivot)")
        return y

    inverse = spla.LinearOperator((n, n), matvec=matvec, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        (mu,) = spla.eigsh(inverse, k=1, which="LM", v0=v0, return_eigenvectors=False)
    except SingularOperator:
        return math.inf
    return abs(float(mu))


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
    """Invert T (columns via the factorized solve) and profile the inverse:
    operator norm and exponential off-diagonal decay fit beyond one tenth
    of the box scale."""
    n = T.n
    M = T.matrix()
    G = _factorize(M)(np.eye(n))
    if not np.all(np.isfinite(G)):
        raise SingularOperator("inverse has non-finite entries (zero pivot)")

    op_norm = inverse_norm(M)

    if T.region is not None:
        N = T.region.N
    else:
        N = int(np.max(np.abs(T.sites)))
    threshold = math.ceil(N / 10)

    # shell maxima over l-infinity site separation
    dist = np.zeros((n, n), dtype=np.int64)
    for c in range(T.sites.shape[1]):
        np.maximum(dist, np.abs(T.sites[:, c][:, None] - T.sites[:, c][None, :]), out=dist)
    shell_max: dict[int, float] = {}
    absG = np.abs(G)
    flat_d = dist.ravel()
    flat_g = absG.ravel()
    maxes = np.zeros(int(flat_d.max()) + 1)
    np.maximum.at(maxes, flat_d, flat_g)
    for sdist, m in enumerate(maxes):
        shell_max[sdist] = float(m)

    try:
        fit = fit_shell_decay(shell_max, threshold + 1)
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
    radius = max(int(np.max(np.abs(base_sites))), int(np.max(np.abs(shifted_sites))))
    kernel = _kernel_series(u, p, radius)
    theta2 = tuple(
        theta[k] + lattice.block_inner((j0[2 * k], j0[2 * k + 1]), (lam[2 * k], lam[2 * k + 1]))
        for k in range(d)
    )
    diag1 = lattice.symbol_array(shifted_sites, lam, theta) - E
    diag2 = lattice.symbol_array(base_sites, lam, theta2) - E
    T1 = LinearizedOperator(d, p, shifted_sites, diag1, kernel, theta, E, lam)
    T2 = LinearizedOperator(d, p, base_sites, diag2, kernel, theta2, E, lam)
    return float(abs(T1.matrix() - T2.matrix()).max())


class ReducedOperator:
    """The operator restricted to the sign-flip-symmetric subspace at
    theta = 0, realized on canonical orbit representatives.

    The reduced entry aggregates the kernel over the source orbit; rows and
    columns are weighted by sqrt(orbit size) so the realization stays
    symmetric.  Only valid on orbit-closed regions.
    """

    def __init__(self, u: QPSeries, E: float, lam: Frequency, region: Region, p: int):
        if not region.is_orbit_closed():
            raise ValueError("symmetry reduction needs an orbit-closed region")
        d = u.d
        self.d = d
        self.p = p
        self.E = E
        self.lam = tuple(lam)
        self.region = region
        pts = lattice.sites_array(region, d)
        canon_mask = np.all(lattice.canonicalize_array(pts) == pts, axis=1)
        self.sites = pts[canon_mask]
        self.n = len(self.sites)
        self.weights = lattice.orbit_sizes_array(self.sites).astype(float)
        self.diag = lattice.symbol_array(self.sites, lam) - E
        self.kernel = _kernel_series(u, p, region.N)
        self._bound = region.N + self.kernel.support_radius() + 1
        self._codes = lattice.encode(self.sites, self._bound)
        self._matrix = None

    def site_list(self) -> list[Index]:
        return [tuple(map(int, s)) for s in self.sites]

    def _locate(self, src: np.ndarray):
        rows = np.nonzero(self.region.contains_array(src))[0]
        codes = lattice.encode(lattice.canonicalize_array(src[rows]), self._bound)
        pos, hit = _lookup(codes, self._codes)
        if not hit.all():
            # canonical representative of an in-region site is in-region
            # for orbit-closed regions; anything else is a bug
            raise AssertionError("canonical source site missing from region")
        return rows, pos

    def matrix(self) -> sp.csc_matrix:
        """Symmetrized reduced matrix (CSC), assembled on first use."""
        if self._matrix is None:
            M = _sparse_matrix(self.diag, self.kernel, self.sites, self._locate)
            sq = np.sqrt(self.weights)
            rows, cols = _coords(M)
            M.data = M.data * sq[rows] / sq[cols]
            self._matrix = M
        return self._matrix

    def solve(self, rhs_canonical: np.ndarray, tol: float = 1e-13) -> np.ndarray:
        """Solve the reduced system for values on canonical sites.

        rhs_canonical holds the symmetric right-hand side's values at the
        canonical sites; the returned vector is in the same coordinates.
        """
        rhs_canonical = np.asarray(rhs_canonical, dtype=float)
        if rhs_canonical.shape != (self.n,):
            raise ValueError("rhs shape mismatch with reduced site list")
        sq = np.sqrt(self.weights)
        return _solve_scaled(self.matrix(), rhs_canonical * sq, tol) / sq

    def solve_series(self, rhs: QPSeries, tol: float = 1e-13) -> QPSeries:
        """Solve with a symmetric series right-hand side, returning a series."""
        rhs_vec = np.array([rhs.get(tuple(map(int, s))) for s in self.sites])
        w = self.solve(rhs_vec, tol=tol)
        canon = {}
        for row, s in enumerate(self.sites):
            if w[row] != 0.0:
                canon[tuple(map(int, s))] = float(w[row])
        return QPSeries.from_canonical(self.d, canon)
