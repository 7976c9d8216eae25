"""Sparse symmetric coefficient maps on Z^(2d) and their convolution algebra.

A QPSeries stores the exponential-basis coefficients of an even cosine
profile: a finite real map j -> value that is constant on every per-block
sign-flip orbit.  It holds only the orbits' canonical representatives, as
an (n, 2d) int64 array of distinct sites in lexicographic order plus their
values, so the symmetry invariant holds by construction.  Products of
profiles become discrete convolutions of their coefficient maps, which is
where all the nonlinear arithmetic of the solver happens.  The cosine
coefficient of the profile at a canonical site j is 2**m(j) times the
stored value, m(j) = number of nonzero blocks; that factor appears only in
physical-space evaluation.

One routine, QPSeries.orbit_members, expands a series to every orbit
member in lexicographic order; it alone feeds convolve, the kernel-offset
loops of operator assembly, the evolution state (dynamics.ComplexSeries
.from_profile) and the read-only coeffs view.  Convolutions are
computed by direct sparse accumulation on integer site arrays: every pair
of member sites, (sorted A) x (sorted B), whose sum is canonical
contributes its product, and each canonical value is a bincount in that
pair order, so it is the same floating-point sum as a sequential loop.
add shares that accumulator.  Every convolution value is the exact full
sum over all pairs of factor sites, on the product's whole support; the
only truncation is truncate().
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .lattice import Index, Region, canonical, is_canonical_array, orbit_sizes_array, orbits_array


class InsufficientData(Exception):
    """Raised when a decay fit has fewer than two occupied distances."""


class QPSeries:
    """Finite symmetric coefficient map on Z^(2d), held on canonical sites.

    sites is an (n, 2d) int64 array of distinct canonical representatives
    in lexicographic order, vals the (n,) values; the map carries vals[i]
    on the whole orbit of sites[i].  The constructor does not check its
    arrays: build series with zero, delta or from_canonical.  Immutable by
    convention: no method mutates sites or vals after construction, so
    instances can be shared freely.
    """

    __slots__ = ("d", "sites", "vals")

    def __init__(self, d: int, sites: np.ndarray, vals: np.ndarray):
        self.d = d
        self.sites = sites
        self.vals = vals

    @staticmethod
    def zero(d: int) -> "QPSeries":
        return QPSeries(d, np.zeros((0, 2 * d), dtype=np.int64), np.zeros(0))

    @staticmethod
    def delta(d: int, value: float = 1.0, j: Index | None = None) -> "QPSeries":
        """Series supported on the orbit of j (origin by default)."""
        if j is None:
            j = (0,) * (2 * d)
        site = np.array(canonical(j), dtype=np.int64).reshape(1, 2 * d)
        return QPSeries(d, site, np.array([float(value)]))

    @staticmethod
    def from_canonical(d: int, canon: dict[Index, float]) -> "QPSeries":
        """Series with value canon[j] on the orbit of each canonical site j;
        rejects other sites and non-finite values."""
        sites = np.array(list(canon), dtype=np.int64).reshape(-1, 2 * d)
        if sites.shape[0] != len(canon):
            raise ValueError(f"sites must have {2 * d} coordinates")
        vals = np.fromiter(canon.values(), dtype=float, count=len(canon))
        bad = ~is_canonical_array(sites)
        if np.any(bad):
            raise ValueError(f"{tuple(sites[np.argmax(bad)].tolist())} is not a canonical representative")
        bad = ~np.isfinite(vals)
        if np.any(bad):
            raise ValueError(f"non-finite coefficient at {tuple(sites[np.argmax(bad)].tolist())}")
        order, _ = _lex_distinct(sites)
        return QPSeries(d, sites[order], vals[order])

    def orbit_members(self) -> tuple[np.ndarray, np.ndarray]:
        """Every orbit member of every site with its value, members in
        lexicographic order."""
        members = orbits_array(self.sites)  # sign pattern major; zero blocks repeat members
        order, first = _lex_distinct(members)
        keep = order[first]
        return members[keep], self.vals[keep % len(self.vals)]

    @property
    def coeffs(self) -> MappingProxyType:
        """Read-only {site: value} map over every orbit member, a view for
        inspection: the package's own code reads orbit_members."""
        members, vals = self.orbit_members()
        return MappingProxyType(dict(zip(map(tuple, members.tolist()), vals.tolist())))

    def get(self, j: Index) -> float:
        hit = (self.sites == canonical(j)).all(axis=1).nonzero()[0]
        return float(self.vals[hit[0]]) if len(hit) else 0.0

    def support_size(self) -> int:
        """Number of orbit members, not of canonical sites."""
        return int(orbit_sizes_array(self.sites).sum())

    def support_radius(self) -> int:
        return int(np.abs(self.sites).max(initial=0))

    def l2_norm(self) -> float:
        # fsum is correctly rounded and 2^m * x is exact, so this equals the
        # fsum over every orbit member
        sq = orbit_sizes_array(self.sites) * (self.vals * self.vals)
        return math.sqrt(math.fsum(sq.tolist()))

    def linf_norm(self) -> float:
        return float(np.abs(self.vals).max(initial=0.0))

    def add(self, other: "QPSeries") -> "QPSeries":
        """Sum, added self then other at each site; exact zeros dropped."""
        if other.d != self.d:
            raise ValueError("dimension mismatch")
        return _accumulate(self.d, np.concatenate([self.sites, other.sites]),
                           np.concatenate([self.vals, other.vals]))

    def scale(self, c) -> "QPSeries":
        """c times the series; c is a number or one factor per site."""
        return QPSeries(self.d, self.sites, c * self.vals)

    def __repr__(self):
        return f"QPSeries(d={self.d}, support={self.support_size()}, l2={self.l2_norm():.3e})"


def _lex_distinct(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lexicographic order of an (n, k) int array's rows, and a mask over
    that order marking the first row of each distinct value."""
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    first = np.empty(len(rows), dtype=bool)
    first[:1] = True
    (rows[1:] != rows[:-1]).any(axis=1, out=first[1:])
    return order, first


def _accumulate(d: int, sites: np.ndarray, vals: np.ndarray) -> QPSeries:
    """Series whose value at each distinct row of sites (all canonical) is
    the sum of that row's vals in input order; exact zeros are dropped."""
    if len(sites) == 0:
        return QPSeries.zero(d)
    order, first = _lex_distinct(sites)
    group = np.empty(len(order), dtype=np.intp)
    group[order] = np.cumsum(first) - 1
    # bincount adds each bin's weights in input order, starting from 0.0
    acc = np.bincount(group, weights=vals)
    nz = acc != 0.0
    return QPSeries(d, sites[order[first][nz]], acc[nz])


def convolve(A: QPSeries, B: QPSeries) -> QPSeries:
    """Discrete convolution (A*B)(j) = sum_k A(k) B(j-k) on its full support.

    Each canonical value is accumulated over the member pairs (sorted A) x
    (sorted B) whose site sum it is, in that order, with the smaller factor
    outer.
    """
    if A.d != B.d:
        raise ValueError("dimension mismatch between convolution factors")
    (ja, va), (jb, vb) = A.orbit_members(), B.orbit_members()
    if len(ja) > len(jb):
        (ja, va), (jb, vb) = (jb, vb), (ja, va)
    sums = (ja[:, None, :] + jb[None, :, :]).reshape(-1, 2 * A.d)
    prods = (va[:, None] * vb[None, :]).ravel()
    keep = is_canonical_array(sums)
    return _accumulate(A.d, sums[keep], prods[keep])


def conv_power(A: QPSeries, m: int) -> QPSeries:
    """m-fold convolution power A * ... * A, multiplied left to right."""
    if m < 1:
        raise ValueError("convolution power needs m >= 1")
    out = A
    for _ in range(m - 1):
        out = convolve(out, A)
    return out


def evaluate(A: QPSeries, lam, x) -> float:
    """Value of the cosine profile at the physical point x (length d).

    Sums 2**m(j) * A(j) * prod_k cos((j_k . lambda_k) x_k) over canonical
    representatives, which equals the full exponential-basis sum because A
    is symmetric.
    """
    if len(lam) != 2 * A.d:
        raise ValueError("frequency dimension mismatch")
    if len(x) != A.d:
        raise ValueError(f"evaluation point must have {A.d} coordinates")
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


def truncate(A: QPSeries, box: Region, drop_tol: float = 0.0) -> QPSeries:
    """Keep orbits that lie inside box with magnitude >= drop_tol.

    Orbits are kept or dropped atomically so the symmetry invariant
    survives; for orbit-closed boxes this coincides with the per-entry rule.
    """
    if drop_tol < 0:
        raise ValueError("drop_tol must be >= 0")
    keep = (A.vals != 0.0) & ~(np.abs(A.vals) < drop_tol)
    sites, vals = A.sites[keep], A.vals[keep]
    inside = box.contains_array(orbits_array(sites)).reshape(2 ** A.d, -1).all(axis=0)
    return QPSeries(A.d, sites[inside], vals[inside])


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential decay fit of shell maxima.

    rate is the decay in e-folds per unit l-infinity distance (positive
    means decay, matching an exp(-rate * s) envelope), prefactor the fitted
    amplitude at distance zero, residual_rms the rms of the fit residuals
    in base-10 log units (decades).
    """

    rate: float
    prefactor: float
    residual_rms: float
    min_distance_used: int


def fit_shell_decay(shell_max: dict[int, float], min_distance: int) -> DecayFit:
    """Fit log(max over shell) against shell distance for s >= min_distance.

    Shells with zero maximum carry no information and are skipped.
    """
    pts = sorted((s, m) for s, m in shell_max.items() if s >= min_distance and m > 0.0)
    if len(pts) < 2:
        raise InsufficientData(
            f"need at least 2 occupied distances >= {min_distance}, got {len(pts)}"
        )
    s = np.array([p[0] for p in pts], dtype=float)
    y = np.log(np.array([p[1] for p in pts]))
    slope, intercept = np.polyfit(s, y, 1)
    resid = y - (slope * s + intercept)
    rms = float(np.sqrt(np.mean(resid * resid))) / math.log(10.0)
    return DecayFit(rate=float(-slope), prefactor=float(np.exp(intercept)),
                    residual_rms=rms, min_distance_used=int(min_distance))


def decay_fit(A: QPSeries, min_distance: int = 1) -> DecayFit:
    """Exponential decay fit of |A| against l-infinity distance from the origin."""
    shell_max: dict[int, float] = {}
    for s, m in zip(np.abs(A.sites).max(axis=1, initial=0).tolist(), np.abs(A.vals).tolist()):
        if m > shell_max.get(s, 0.0):
            shell_max[s] = m
    return fit_shell_decay(shell_max, min_distance)
