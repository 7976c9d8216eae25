"""Sparse symmetric coefficient maps on Z^(2d) and their convolution algebra.

A QPSeries stores the exponential-basis coefficients of an even cosine
profile: a finite real map j -> value that is constant on every per-block
sign-flip orbit.  Products of profiles become discrete convolutions of
their coefficient maps, which is where all the nonlinear arithmetic of the
solver happens.  The cosine coefficient of the profile at a canonical site
j is 2**m(j) times the stored value, m(j) = number of nonzero blocks; that
factor appears only in physical-space evaluation.

Convolutions are computed by direct sparse accumulation on integer site
arrays: every pair of factor sites whose sum is canonical contributes its
product, and each canonical value is a bincount in sorted pair order
((sorted A) x (sorted B)), so the result does not depend on dict order.
That value is then broadcast across its orbit so the symmetry invariant
holds to the last bit.
Every convolution value is the exact full sum over all pairs of factor
sites, on the product's whole support; the only truncation is truncate().
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import Index, Region, canonical, is_canonical, is_canonical_array, linf, orbit, orbits_array


class InsufficientData(Exception):
    """Raised when a decay fit has fewer than two occupied distances."""


class QPSeries:
    """Finite symmetric coefficient map on Z^(2d).

    Immutable by convention: no method mutates ``coeffs`` after
    construction, so instances can be shared freely.
    """

    __slots__ = ("d", "coeffs")

    def __init__(self, d: int, coeffs: dict[Index, float] | None = None, validate: bool = True):
        self.d = d
        self.coeffs = dict(coeffs) if coeffs else {}
        if validate:
            self._check()

    def _check(self):
        for j, v in self.coeffs.items():
            if len(j) != 2 * self.d:
                raise ValueError(f"site {j} has {len(j)} coordinates, expected {2 * self.d}")
            if not math.isfinite(v):
                raise ValueError(f"non-finite coefficient at {j}")
            c = canonical(j)
            if c != j and self.coeffs.get(c) != v:
                raise ValueError(f"symmetry violated between {j} and its representative {c}")

    @staticmethod
    def zero(d: int) -> "QPSeries":
        return QPSeries(d, {}, validate=False)

    @staticmethod
    def delta(d: int, value: float = 1.0, j: Index | None = None) -> "QPSeries":
        """Series supported on the orbit of j (origin by default)."""
        if j is None:
            j = (0,) * (2 * d)
        return QPSeries(d, {o: float(value) for o in orbit(j)}, validate=False)

    @staticmethod
    def from_canonical(d: int, canon: dict[Index, float]) -> "QPSeries":
        """Expand a map given on canonical representatives to full orbits."""
        sites, vals = _arrays(d, canon)
        bad = ~is_canonical_array(sites)
        if np.any(bad):
            raise ValueError(f"{tuple(sites[np.argmax(bad)].tolist())} is not a canonical representative")
        return from_canonical_arrays(d, sites, vals)

    def get(self, j: Index) -> float:
        return self.coeffs.get(j, 0.0)

    def items_sorted(self):
        return sorted(self.coeffs.items())

    def canonical_items(self):
        return sorted((j, v) for j, v in self.coeffs.items() if is_canonical(j))

    def support_size(self) -> int:
        return len(self.coeffs)

    def support_radius(self) -> int:
        return max((linf(j) for j in self.coeffs), default=0)

    def l2_norm(self) -> float:
        return math.sqrt(math.fsum(v * v for _, v in self.items_sorted()))

    def linf_norm(self) -> float:
        return max((abs(v) for v in self.coeffs.values()), default=0.0)

    def add(self, other: "QPSeries") -> "QPSeries":
        if other.d != self.d:
            raise ValueError("dimension mismatch")
        out = dict(self.coeffs)
        for j, v in other.items_sorted():
            out[j] = out.get(j, 0.0) + v
        return QPSeries(self.d, out, validate=False)

    def scale(self, c: float) -> "QPSeries":
        return QPSeries(self.d, {j: c * v for j, v in self.coeffs.items()}, validate=False)

    def __repr__(self):
        return f"QPSeries(d={self.d}, support={self.support_size()}, l2={self.l2_norm():.3e})"


def _arrays(d: int, coeffs: dict[Index, float]) -> tuple[np.ndarray, np.ndarray]:
    """Sites of a coefficient map as an (n, 2d) int64 array, values as floats,
    both in the map's own order."""
    sites = np.array(list(coeffs), dtype=np.int64).reshape(-1, 2 * d)
    if sites.shape[0] != len(coeffs):
        raise ValueError(f"sites must have {2 * d} coordinates")
    return sites, np.fromiter(coeffs.values(), dtype=float, count=len(coeffs))


def _sorted_arrays(A: QPSeries) -> tuple[np.ndarray, np.ndarray]:
    """A's sites and values in items_sorted() (lexicographic) order."""
    sites, vals = _arrays(A.d, A.coeffs)
    order = np.lexsort(sites.T[::-1])
    return sites[order], vals[order]


def from_canonical_arrays(d: int, sites: np.ndarray, vals: np.ndarray) -> QPSeries:
    """QPSeries carrying vals[i] on the whole orbit of sites[i].

    sites is an (n, 2d) int array of distinct canonical representatives;
    they are not checked (from_canonical checks its input).
    """
    members = orbits_array(sites).tolist()  # sign pattern major
    return QPSeries(d, dict(zip(map(tuple, members), vals.tolist() * 2 ** d)), validate=False)


def convolve(A: QPSeries, B: QPSeries) -> QPSeries:
    """Discrete convolution (A*B)(j) = sum_k A(k) B(j-k) on its full support.

    Each canonical value is accumulated over the pairs (sorted A) x (sorted
    B) whose site sum it is, in that order, with the smaller factor outer;
    the other orbit members take their representative's value.
    """
    if A.d != B.d:
        raise ValueError("dimension mismatch between convolution factors")
    if A.support_size() > B.support_size():
        A, B = B, A
    d = A.d
    ja, va = _sorted_arrays(A)
    jb, vb = _sorted_arrays(B)
    sums = (ja[:, None, :] + jb[None, :, :]).reshape(-1, 2 * d)
    prods = (va[:, None] * vb[None, :]).ravel()
    keep = is_canonical_array(sums)
    if not keep.any():
        return QPSeries.zero(d)
    sums, prods = sums[keep], prods[keep]
    lo = sums.min(axis=0)
    shape = tuple((sums.max(axis=0) - lo + 1).tolist())
    codes = np.ravel_multi_index(tuple((sums - lo).T), shape)
    uniq, inverse = np.unique(codes, return_inverse=True)
    # bincount adds each bin's weights in input order, starting from 0.0
    acc = np.bincount(inverse, weights=prods, minlength=len(uniq))
    nz = acc != 0.0
    sites = np.stack(np.unravel_index(uniq[nz], shape), axis=1) + lo
    return from_canonical_arrays(d, sites, acc[nz])


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
    for j, v in A.canonical_items():
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
    sites, vals = _arrays(A.d, A.coeffs)
    keep = is_canonical_array(sites) & (vals != 0.0) & ~(np.abs(vals) < drop_tol)
    sites, vals = sites[keep], vals[keep]
    inside = box.contains_array(orbits_array(sites)).reshape(2 ** A.d, -1).all(axis=0)
    return from_canonical_arrays(A.d, sites[inside], vals[inside])


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

    def to_json_dict(self):
        return {
            "rate": self.rate,
            "prefactor": self.prefactor,
            "residual_rms": self.residual_rms,
            "min_distance_used": self.min_distance_used,
        }


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
    for j, v in A.coeffs.items():
        s = linf(j)
        m = abs(v)
        if m > shell_max.get(s, 0.0):
            shell_max[s] = m
    return fit_shell_decay(shell_max, min_distance)
