"""Shared oracles and generators for the test suite.

The brute-force convolutions here are deliberately independent of the
package's sparse accumulation path: plain nested loops over dictionary
items, no boxes, no symmetrization.  The sorted-loop oracles are the
package's earlier per-pair and per-site loops, kept to pin the array code
to them bit for bit; dense_greens_profile is a dense all-pairs Green's
profile from NumPy's inverse and eigh of the whole matrix, sharing no
code with the block-wise one it checks; full_box_evolve integrates the
flow on the dense [-N, N]^(2d) grid with 2d-dimensional FFTs, against
evolution on the affine coset that holds the state's support.  The
ComplexSeries helpers read and build the evolution state as a dict;
evaluate and decay_fit read a profile at a point and its decay.
"""

import itertools
import math

import numpy as np
import pytest

from qpwave import linop
from qpwave.dynamics import ComplexSeries
from qpwave.lattice import (Region, canonical, is_canonical, is_canonical_array, orbit,
                            sites_array, symbol_array)
from qpwave.linop import GreensProfile, SingularOperator
from qpwave.series import InsufficientData, QPSeries, fit_shell_decay

# Frequencies with healthy Diophantine and separation margins, used as the
# default "accepted" instances across tests.  GOOD_LAM clears the
# first-scale separation threshold 2*sqrt(a) up to a ~ 0.5; the d=2 one only
# up to a ~ 2e-3 (margins shrink fast with dimension).
GOOD_LAM = (1.111050100586316, 1.4225429688021372)
GOOD_JT = (1, 1)
GOOD_LAM_D2 = (1.4454299788962155, 1.1401582190443373,
               1.0719768142666535, 1.1866526052832143)
GOOD_JT_D2 = (1, 0, 0, 1)


def site_tuples(region, d: int) -> list[tuple[int, ...]]:
    """The region's sites as tuples, in sites_array's lexicographic order."""
    return list(map(tuple, sites_array(region, d).tolist()))


def canonical_sites(region, d: int) -> np.ndarray:
    """Every canonical site of the region, in lexicographic order: the site
    list of the region's whole reduced system."""
    pts = sites_array(region, d)
    return pts[is_canonical_array(pts)]


def odd_multiple(block, base) -> bool:
    """Whether an integer pair is m * base for an odd m >= 1; for a zero
    base, whether it is the zero pair."""
    if tuple(base) == (0, 0):
        return tuple(block) == (0, 0)
    m = block[0] // base[0] if base[0] else block[1] // base[1]
    return m >= 1 and m % 2 == 1 and tuple(block) == (m * base[0], m * base[1])


def brute_convolve(A: dict, B: dict) -> dict:
    out = {}
    for ja, va in A.items():
        for jb, vb in B.items():
            j = tuple(x + y for x, y in zip(ja, jb))
            out[j] = out.get(j, 0.0) + va * vb
    return out


def brute_conv_power(A: dict, m: int) -> dict:
    out = dict(A)
    for _ in range(m - 1):
        out = brute_convolve(out, A)
    return out


def loop_symmetrized(acc: dict) -> dict:
    """Each canonical site's accumulated value on its whole orbit, exact
    zeros dropped."""
    out = {}
    for j in sorted(acc):
        if not is_canonical(j):
            continue
        v = acc[j]
        if v == 0.0:
            continue
        for o in orbit(j):
            out[o] = v
    return out


def sorted_loop_convolve(A: QPSeries, B: QPSeries) -> dict:
    """Coefficients of A * B accumulated one pair at a time, (sorted A) x
    (sorted B) with the smaller factor outer, then symmetrized."""
    if A.support_size() > B.support_size():
        A, B = B, A
    acc = {}
    b_items = sorted(B.coeffs.items())
    for ja, va in sorted(A.coeffs.items()):
        for jb, vb in b_items:
            j = tuple(x + y for x, y in zip(ja, jb))
            acc[j] = acc.get(j, 0.0) + va * vb
    return loop_symmetrized(acc)


def orbit_loop_from_canonical(canon: dict) -> dict:
    """A map on canonical representatives expanded orbit by orbit."""
    out = {}
    for j, v in canon.items():
        if not is_canonical(j):
            raise ValueError(f"{j} is not a canonical representative")
        for o in orbit(j):
            out[o] = float(v)
    return out


def count_convolutions(monkeypatch) -> dict:
    """Count series.convolve calls, also through solver's bound name."""
    from qpwave import series, solver

    calls = {"n": 0}
    real = series.convolve

    def counted(A, B):
        calls["n"] += 1
        return real(A, B)

    monkeypatch.setattr(series, "convolve", counted)
    monkeypatch.setattr(solver, "convolve", counted)
    return calls


def seed_series(d: int, a: float) -> QPSeries:
    """The pinned seed profile with all-ones blocks."""
    return QPSeries.delta(d, a / 2**d, (1,) * (2 * d))


def random_symmetric_series(d: int, rng, n_orbits: int = 4, box_n: int = 4,
                            scale: float = 1.0) -> QPSeries:
    canon = {}
    tries = 0
    while len(canon) < n_orbits and tries < 200:
        tries += 1
        j = tuple(int(rng.integers(-box_n, box_n + 1)) for _ in range(2 * d))
        canon[canonical(j)] = float(rng.normal()) * scale
    return QPSeries.from_canonical(d, canon)


def evaluate(A: QPSeries, lam, x) -> float:
    """Value of the cosine profile at the physical point x (length d), one
    canonical site at a time: 2**m(j) * A(j) * prod_k cos((j_k . lambda_k) x_k)
    summed over canonical representatives, which equals the full
    exponential-basis sum because A is symmetric."""
    total = 0.0
    for j, v in zip(A.sites.tolist(), A.vals.tolist()):
        term = v
        for k in range(A.d):
            a, b = j[2 * k], j[2 * k + 1]
            if a == 0 and b == 0:
                continue
            term *= 2.0 * math.cos((a * lam[2 * k] + b * lam[2 * k + 1]) * x[k])
        total += term
    return total


def decay_fit(A: QPSeries, min_distance: int = 1):
    """Exponential decay fit (fit_shell_decay) of |A| against l-infinity
    distance from the origin."""
    shell_max: dict[int, float] = {}
    for s, m in zip(np.abs(A.sites).max(axis=1, initial=0).tolist(), np.abs(A.vals).tolist()):
        if m > shell_max.get(s, 0.0):
            shell_max[s] = m
    return fit_shell_decay(shell_max, min_distance)


def profile_values(series: QPSeries, lam, xs: np.ndarray) -> np.ndarray:
    """Vectorized cosine-sum evaluation over many points (d = 1 only)."""
    assert series.d == 1
    total = np.zeros_like(xs, dtype=float)
    for j, v in zip(series.sites.tolist(), series.vals.tolist()):
        if j == [0, 0]:
            total += v
        else:
            w = j[0] * lam[0] + j[1] * lam[1]
            total += 2.0 * v * np.cos(w * xs)
    return total


def assembly_oracle(sites, diag, kernel: QPSeries, contains, rep=None, weights=None) -> np.ndarray:
    """Dense operator matrix built entry by entry from its definition.

    diag on the diagonal; then, for every site and kernel offset whose
    source site - offset is contained, minus the kernel value at the row of
    rep(source) (the source itself when rep is None).  With weights, entry
    (i, k) is scaled by sqrt(w_i) / sqrt(w_k).
    """
    index = {tuple(map(int, s)): i for i, s in enumerate(sites)}
    M = np.diag(np.asarray(diag, dtype=float))
    kernel_items = sorted(kernel.coeffs.items())
    for i, s in enumerate(sites):
        for off, val in kernel_items:
            src = tuple(int(a) - b for a, b in zip(s, off))
            if contains(src):
                M[i, index[rep(src) if rep else src]] -= val
    if weights is not None:
        sq = np.sqrt(np.asarray(weights, dtype=float))
        M = M * sq[:, None] / sq[None, :]
    return M


def theta_symbol(j, lam, theta) -> float:
    """sum_k ((j_k . lambda_k) + theta_k)^2, one site at a time."""
    return sum((j[2 * k] * lam[2 * k] + j[2 * k + 1] * lam[2 * k + 1] + theta[k]) ** 2
               for k in range(len(theta)))


def dense_greens_profile(T) -> tuple[GreensProfile, dict[int, float]]:
    """The all-pairs Green's profile from the dense matrix alone, with its
    shell maxima: NumPy's inverse of T.to_dense(), an n x n distance
    matrix, one np.maximum.at fold, and the norm as 1 / min|eig| of the
    whole matrix."""
    n = T.n
    dense = T.to_dense()
    G = np.linalg.inv(dense)
    if not np.all(np.isfinite(G)):
        raise SingularOperator("inverse has non-finite entries")

    # 1 / min|eig T|, the eigenvalue refined by the Rayleigh quotient of its
    # unit eigenvector: eigh's own rounding of it, about eps ||T|| relative
    # to min|eig T|, reached 1.5e-12 on the property test's operators
    w, V = np.linalg.eigh(dense)
    v = V[:, np.argmin(np.abs(w))]
    op_norm = 1.0 / abs(v @ dense @ v)

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
                         threshold_distance=threshold, N=N), shell_max


def profile_with_shells(T) -> tuple[GreensProfile, np.ndarray]:
    """greens_profile(T) and the shell maxima it fitted, read from its call
    to fit_shell_decay."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linop, "fit_shell_decay",
                   lambda shells, lo: seen.append(shells) or fit_shell_decay(shells, lo))
        prof = linop.greens_profile(T)
    return prof, np.array([seen[0][s] for s in range(len(seen[0]))])


def complex_series(d: int, coeffs: dict) -> ComplexSeries:
    """The ComplexSeries with value coeffs[j] at each site j."""
    return ComplexSeries(d, list(coeffs), list(coeffs.values()))


def coeffs_of(C: ComplexSeries) -> dict:
    """{site: value} over C's sites."""
    return dict(zip(map(tuple, C.sites.tolist()), C.vals.tolist()))


def reality_defect(C: ComplexSeries) -> float:
    """max |C(-j) - conj(C(j))|; zero iff the represented field is real.

    This is a property of one time slice; the flow does not preserve it
    (free evolution rotates every mode's phase).
    """
    coeffs = coeffs_of(C)
    return max((abs(coeffs.get(tuple(-c for c in j), 0j) - v.conjugate()) for j, v in coeffs.items()),
               default=0.0)


def evenness_defect(C: ComplexSeries) -> float:
    """max |C(sigma j) - C(j)| over per-block sign flips: the even subspace
    is invariant under the flow, so this stays at rounding."""
    coeffs = coeffs_of(C)
    return max((abs(coeffs.get(member, 0j) - v) for j, v in coeffs.items() for member in orbit(j)),
               default=0.0)


def full_box_nonlinear(grid: np.ndarray, p: int, N_in: int, N_out: int) -> np.ndarray:
    """[C^(*(p+1)) * (Cbar)^(*p)] of a dense [-N_in, N_in]^(2d) grid, cropped
    to [-N_out, N_out]^(2d), on the alias-free period (2p+1) N_in + N_out + 1."""
    L = (2 * p + 1) * N_in + N_out + 1
    padded = np.zeros((L,) * grid.ndim, dtype=complex)
    padded[np.ix_(*[np.arange(-N_in, N_in + 1) % L] * grid.ndim)] = grid
    f = np.fft.ifftn(padded, norm="forward")
    prod = np.fft.fftn((f.real * f.real + f.imag * f.imag) ** p * f, norm="forward")
    return prod[np.ix_(*[np.arange(-N_out, N_out + 1) % L] * grid.ndim)]


def full_box_evolve(coeffs: dict, lam, p: int, T: float, dt: float, N: int, every: int, E: float):
    """Lawson RK4 of the truncated flow on the dense [-N, N]^(2d) grid:
    (final coefficients, rows of (mass, deviation from e^(-iEt) C0,
    out-of-box fraction) at the checkpoints)."""
    d = len(next(iter(coeffs))) // 2
    g = np.zeros((2 * N + 1,) * (2 * d), dtype=complex)
    for j, v in coeffs.items():
        if max(map(abs, j)) <= N:
            g[tuple(c + N for c in j)] = v
    omega = symbol_array(sites_array(Region.full_box(N), d), lam).reshape(g.shape)
    e_half = np.exp(-1j * omega * (dt / 2.0))
    e_full, g0, rows = e_half * e_half, g.copy(), []

    def nl(x):
        return 1j * full_box_nonlinear(x, p, N, N)

    def checkpoint(t, x):
        full = full_box_nonlinear(x, p, N, (2 * p + 1) * N)
        total = np.linalg.norm(full)
        full[(slice(2 * p * N, (2 * p + 2) * N + 1),) * x.ndim] = 0.0
        rows.append((np.linalg.norm(x), np.linalg.norm(x - np.exp(-1j * E * t) * g0) / np.linalg.norm(g0),
                     np.linalg.norm(full) / total))

    n_steps = int(round(T / dt))
    checkpoint(0.0, g)
    for step in range(1, n_steps + 1):
        n1 = nl(g)
        n2 = nl(e_half * (g + (dt / 2.0) * n1))
        n3 = nl(e_half * g + (dt / 2.0) * n2)
        n4 = nl(e_full * g + dt * (e_half * n3))
        g = e_full * g + (dt / 6.0) * (e_full * n1 + 2.0 * e_half * (n2 + n3) + n4)
        if step % every == 0 or step == n_steps:
            checkpoint(step * dt, g)
    final = {tuple(int(c) - N for c in pos): complex(g[tuple(pos)]) for pos in np.argwhere(g != 0)}
    return final, np.array(rows)
