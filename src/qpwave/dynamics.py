"""Desk-scale time evolution of the truncated equation on the index lattice.

The evolution state is a ComplexSeries, complex coefficients C(j) held as
arrays of sites and values; the flow is

    i dC(j)/dt = symbol(j, lambda) C(j) - [C^(*(p+1)) * (Cbar)^(*p)](j),

with Cbar(j) = conj(C(-j)) (the coefficients of the conjugate field); the
state lives on a fixed box and the nonlinear term is cropped to it.  The
linear part is diagonal in this basis, so the integrator is a Lawson
(integrating-factor) fourth-order Runge-Kutta scheme with exact linear
phases between stages; stiffness of the diagonal never limits the step.

The flow never leaves the affine coset s0 + L that holds the initial
state's support, L the lattice spanned by the differences of its sites: the
linear part is diagonal, and every site of the nonlinear term is a sum of
p+1 sites of the state minus p others, so s0 plus a signed sum of
differences.  So the state is stored on that coset's coordinates: with s0 a
support site of least |.|inf and H the row Hermite basis of the differences
(lattice.hermite_basis, r x 2d, r the rank), site j = s0 + m @ H for m in
Z^r.  An even seed's solution sits on the odd multiples of its blocks, so
r = d and H has even pivots; a generic support gives r = 2d.  The box's
coset points lie in the rectangle |m_i| <= h_i (_half_widths, in closed
form from H's pivots), and a mask keeps those inside the box.

The nonlinear term is pseudo-spectral.  The field is e^(i s0.x) times a
field h with coefficients on Z^r, and |e^(i s0.x) h|^(2p) e^(i s0.x) h =
e^(i s0.x) |h|^(2p) h, so in m the term is an inverse FFT on T^r, the
pointwise product |h|^(2p) h and a forward FFT, taken axis by axis on
buffers that one evaluator (_Spectral) allocates once per grid shape.  The
product of a state of half-widths h_in has half-widths (2p+1) h_in, so a
period L_i >= (2p+1) h_in_i + h_out_i + 1 on each axis keeps the crop at
h_out alias-free.  The grid goes into the zero-padded array unshifted, at
the corner: coordinate m at position m + h, as to_grid stores it.  That
multiplies h by e^(2 pi i h.x / L), which |.|^(2p)(.) carries through
exactly once, so the product's coefficient at m sits at (m + h) mod L and
each RK4 stage crops the corner [0, 2h] of every axis.

A constructed profile with eigenvalue E should evolve as the pure phase
rotation e^(-iEt) times itself; standing_wave_deviation measures how far a
stored solution drifts from that rotation.  The box truncation error is
reported, never hidden: at every checkpoint, t = 0 included, the fraction
of the nonlinear term's l2 mass that falls outside the box, read from its
whole unaliased spectrum (the crop at (2p+1) h).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lattice
from .lattice import Frequency, Region
from .linop import check_box_bytes
from .series import QPSeries
from .solver import SolutionRecord


def next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n, a length numpy.fft transforms fast."""
    best = 1 << max(n - 1, 0).bit_length()  # a power of two always qualifies
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _half_widths(coset, N: int) -> tuple[int, ...]:
    """Half-widths h of a rectangle |m_i| <= h_i of coordinates holding every
    point s0 + m @ H of the coset (ComplexSeries.coset) in the box of scale
    N: there |m @ H|inf <= N + |s0|inf, and at row i's pivot c, m @ H is
    m_i * pivot plus the earlier rows' entries there, so
    |m_i| * pivot <= N + |s0|inf + sum_k<i h_k |H[k, c]|."""
    s0, basis = coset
    half: list[int] = []
    for row in basis:
        c = np.flatnonzero(row)[0]
        reach = N + int(np.abs(s0).max()) + sum(h * abs(int(b)) for h, b in zip(half, basis[:, c]))
        half.append(reach // int(row[c]))
    return tuple(half)


def _coordinates(flat: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Centred coordinates m, (n, r), of C-order positions in a grid of odd
    side lengths; r = 0 (a single point) included."""
    m = np.empty((len(flat), len(shape)), dtype=np.int64)
    for i in reversed(range(len(shape))):
        flat, m[:, i] = np.divmod(flat, shape[i])
    return m - np.array([n // 2 for n in shape], dtype=np.int64)


def _positions(m: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """C-order positions of centred coordinates m: the inverse of _coordinates."""
    strides = np.array([math.prod(shape[i + 1:]) for i in range(len(shape))], dtype=np.int64)
    return (m + np.array([n // 2 for n in shape], dtype=np.int64)) @ strides


def _site_columns(coset, half):
    """Each coordinate c of the sites s0 + m @ H of the rectangle
    |m_i| <= half_i, as an int64 array of the rectangle's shape: one column
    at a time, so no (n, 2d) site array is formed."""
    s0, basis = coset
    r = len(half)
    axes = [np.arange(-h, h + 1, dtype=np.int64).reshape([-1 if k == i else 1 for k in range(r)])
            for i, h in enumerate(half)]
    for c in range(len(s0)):
        col = np.full(tuple(2 * h + 1 for h in half), s0[c], dtype=np.int64)
        for axis, b in zip(axes, basis[:, c].tolist()):
            if b:
                col += b * axis
        yield col


def _in_box(coset, half, region: Region) -> np.ndarray:
    """Mask of the rectangle |m_i| <= half_i: True where s0 + m @ H lies in
    region."""
    inside = np.ones(tuple(2 * h + 1 for h in half), dtype=bool)
    for col in _site_columns(coset, half):
        inside &= np.abs(col, out=col) <= region.N
    if region.S:  # the excluded sites that lie on the coset, in the rectangle
        s0, basis = coset
        m, rest = lattice.lattice_reduce(np.array(region.S, dtype=np.int64) - s0, basis)
        hit = ~rest.any(axis=1) & np.all(np.abs(m) <= np.array(half, dtype=np.int64), axis=1)
        inside.reshape(-1)[_positions(m[hit], inside.shape)] = False
    return inside


def _symbol_grid(coset, half, lam: Frequency) -> np.ndarray:
    """lattice.symbol at the sites of the rectangle |m_i| <= half_i, summed
    block by block from their columns."""
    cols = _site_columns(coset, half)
    inners = (next(cols) * lam[2 * k] + next(cols) * lam[2 * k + 1] for k in range(len(lam) // 2))
    return sum(inner * inner for inner in inners)


class StepUnstable(Exception):
    """The l2 norm grew by more than 10% within a single step."""


class ComplexSeries:
    """Finite complex coefficient map on Z^(2d); represents a complex field.

    sites is an (n, 2d) int64 array of distinct sites and vals the (n,)
    complex values, as in QPSeries but on every site rather than on orbit
    representatives.  The represented field is real iff C(-j) == conj(C(j)).
    """

    __slots__ = ("d", "sites", "vals")

    def __init__(self, d: int, sites, vals):
        self.d = d
        self.sites = np.asarray(sites, dtype=np.int64).reshape(-1, 2 * d)
        self.vals = np.asarray(vals, dtype=complex)

    @staticmethod
    def from_profile(u: QPSeries) -> "ComplexSeries":
        return ComplexSeries(u.d, *u.orbit_members())

    def support_radius(self) -> int:
        return int(np.abs(self.sites).max(initial=0))

    def coset(self) -> tuple[np.ndarray, np.ndarray]:
        """(s0, H): a site s0 of least |.|inf (the origin when there is none)
        and the row Hermite basis H of the sites' differences from it, so
        that every site is s0 + m @ H."""
        radii = np.abs(self.sites).max(axis=1)
        s0 = self.sites[np.argmin(radii)] if len(radii) else np.zeros(2 * self.d, dtype=np.int64)
        return s0, lattice.hermite_basis(self.sites - s0)

    def to_grid(self, coset, N: int) -> np.ndarray:
        """Dense complex array over the rectangle _half_widths(coset, N) of
        coordinates m, the site s0 + m @ H at position m + h; sites outside
        the box of scale N are dropped, and a site off the coset is a
        ValueError."""
        s0, basis = coset
        keep = np.abs(self.sites).max(axis=1, initial=0) <= N
        m, rest = lattice.lattice_reduce(self.sites[keep] - s0, basis)
        if rest.any():
            raise ValueError("a site lies off the coset")
        g = np.zeros(tuple(2 * h + 1 for h in _half_widths(coset, N)), dtype=complex)
        g.reshape(-1)[_positions(m, g.shape)] = self.vals[keep]
        return g

    @staticmethod
    def from_grid(grid: np.ndarray, coset, drop_tol: float = 0.0) -> "ComplexSeries":
        """The entries of a to_grid array above drop_tol in modulus, at their
        sites s0 + m @ H."""
        s0, basis = coset
        flat = np.flatnonzero(np.abs(grid) > drop_tol)
        return ComplexSeries(len(s0) // 2, s0 + _coordinates(flat, grid.shape) @ basis,
                             grid.reshape(-1)[flat])


def _periods(half_in, half_out, p: int) -> list[int]:
    """Alias-free FFT length per axis for the crop at half_out of the
    nonlinear term of a grid of half-widths half_in."""
    return [next_fast_len((2 * p + 1) * i + o + 1) for i, o in zip(half_in, half_out)]


class _Spectral:
    """The pseudo-spectral nonlinear term |h|^(2p) h of grids of half-widths
    half_in, cropped to half-widths half_out <= (2p+1) half_in (the term's
    reach), on buffers allocated once.

    Each axis has its alias-free period L (_periods) and an offset
    o = max(h_in, h_out): a grid's coordinate m sits at position m + o of a
    zero-padded array, so its field is e^(2 pi i o x / L) h and the product
    e^(2 pi i o x / L) |h|^(2p) h, whose coefficient at m sits at
    (m + o) mod L.  Grid and crop are then the basic slices [o - h_in,
    o + h_in] and [o - h_out, o + h_out]; for the stages (h_out = h_in) both
    are the corner [0, 2h].  The transforms run axis by axis into one work
    array, so the padding's zeros are written once and a call allocates no
    array."""

    def __init__(self, half_in, half_out, p: int):
        L = _periods(half_in, half_out, p)
        offset = [max(i, o) for i, o in zip(half_in, half_out)]
        self.place = tuple(slice(c - h, c + h + 1) for c, h in zip(offset, half_in))
        # the Ellipsis keeps a rank-0 crop a view, not a scalar
        self.crop = (*(slice(c - h, c + h + 1) for c, h in zip(offset, half_out)), ...)
        self.padded = np.zeros(L, dtype=complex)
        # rank 0 transforms no axis: its product is taken in place, and the
        # next call overwrites the whole (one-point) padded array
        self.field = np.empty(L, dtype=complex) if L else self.padded
        self.re, self.im = self.field.real, self.field.imag
        self.amp, self.tmp = np.empty(L), np.empty(L)
        self.p = p

    def __call__(self, grid: np.ndarray) -> np.ndarray:
        """The product's crop: a view that the next call overwrites."""
        self.padded[self.place] = grid
        f = self.padded
        for axis in reversed(range(f.ndim)):
            f = np.fft.ifft(f, axis=axis, norm="forward", out=self.field)
        amp = np.multiply(self.re, self.re, out=self.amp)
        amp += np.multiply(self.im, self.im, out=self.tmp)
        if self.p > 1:
            amp **= self.p
        np.multiply(self.re, amp, out=self.re)  # f *= amp would cast amp to a complex copy
        np.multiply(self.im, amp, out=self.im)
        for axis in reversed(range(f.ndim)):
            np.fft.fft(f, axis=axis, norm="forward", out=f)
        return f[self.crop]


def _evolve_bytes(coset, p: int, N: int) -> int:
    """Bytes evolve holds at its peak on the box of scale N, counted from
    its tracemalloc peaks: 16 bytes a point of thirteen grids of the state's
    rectangle (the state, its reference copy, the two phase arrays, the
    mask, four RK4 stages, a stage input, e_full times the state and a
    checkpoint's two deviation temporaries); 48 bytes a point of each
    _Spectral's periods (the padded and work grids and two real buffers);
    17 bytes a point of the rectangle of the whole spectrum (its in-box
    mask and the copy its norm takes); and 64 KiB for the small arrays and
    objects, which take about 16 KiB at N <= 4."""
    half = _half_widths(coset, N)
    wide = [(2 * p + 1) * h for h in half]
    periods = math.prod(_periods(half, half, p)) + math.prod(_periods(half, wide, p))
    return (16 * 13 * math.prod(2 * h + 1 for h in half) + 48 * periods
            + 17 * math.prod(2 * h + 1 for h in wide) + 2 ** 16)


def nonlinear_term(C: ComplexSeries, p: int, box: Region) -> ComplexSeries:
    """Coefficients of |U|^(2p) U for the field with coefficients C,
    truncated to box: the (p+1)-fold power of C convolved with the p-fold
    power of the conjugate-reflected series.

    Entries below the FFT rounding floor (relative 1e-13 of the peak) are
    dropped: the FFTs leave rounding at sites the exact sums do not reach.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    coset = C.coset()
    grid = C.to_grid(coset, C.support_radius())
    h_in = [n // 2 for n in grid.shape]
    # the term reaches (2p+1) h_in: a larger box would add only zeros
    half = [min(h, (2 * p + 1) * i) for h, i in zip(_half_widths(coset, box.N), h_in)]
    crop = _Spectral(h_in, half, p)(grid)
    crop[~_in_box(coset, half, box)] = 0.0
    return ComplexSeries.from_grid(crop, coset, drop_tol=1e-13 * float(np.max(np.abs(crop))))


@dataclass
class EvolveResult:
    """Checkpointed trajectory summary of one dense-grid evolution."""

    final: ComplexSeries
    times: np.ndarray
    mass: np.ndarray
    deviation: np.ndarray          # NaN when no phase reference was given
    out_of_box: np.ndarray
    mass_drift: float
    max_deviation: float
    max_out_of_box: float

    def to_json_dict(self):
        return {
            "mass_drift": self.mass_drift,
            "max_deviation": self.max_deviation,
            "max_out_of_box": self.max_out_of_box,
            "n_checkpoints": len(self.times),
        }


def evolve(C0: ComplexSeries, lam: Frequency, p: int, T: float, dt: float,
           box: Region, checkpoint_every: int = 10,
           phase_reference: float | None = None,
           nonlinear: bool = True) -> EvolveResult:
    """Integrate the truncated flow from C0 over [0, T] with step dt.

    phase_reference, when given, is an eigenvalue E; the deviation column
    then tracks ||C(t) - e^(-iEt) C0||_2 / ||C0||_2 at checkpoints.
    nonlinear=False drops the nonlinear term, leaving the exact phase
    rotation (a scheme sanity switch).  Raises StepUnstable when the l2
    norm grows more than 10% in one step.
    """
    if not (0 < dt <= T < math.inf and T / dt < math.inf):
        raise ValueError("need dt > 0, a finite T >= dt and a finite step count T / dt")
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    N, coset, full_box = box.N, C0.coset(), Region.full_box(box.N)
    check_box_bytes(lambda n: _evolve_bytes(coset, p, n), N, "the evolution grids")
    half = _half_widths(coset, N)
    state = C0.to_grid(coset, N)
    n_steps = int(round(T / dt))

    e_half = np.exp(-1j * _symbol_grid(coset, half, lam) * (dt / 2.0))
    e_full = e_half * e_half
    if nonlinear:
        wide = [(2 * p + 1) * h for h in half]
        stage, whole = _Spectral(half, half, p), _Spectral(half, wide, p)
        # the 1j of the flow and 0 at the rectangle's points outside the box,
        # so the state stays 0 there; neither factor rounds
        mask = np.where(_in_box(coset, half, full_box), 1j, 0j)
        wide_in_box = _in_box(coset, wide, full_box)
    # the four RK4 stages, a stage input and e_full * state
    n1, n2, n3, n4, u, v = (np.zeros_like(state) for _ in range(6))

    ref0 = state.copy() if phase_reference is not None else None
    mass0 = float(np.linalg.norm(state))
    times, masses, devs, oob = [], [], [], []

    def checkpoint(t, norm):
        times.append(t)
        masses.append(float(norm))
        if nonlinear:
            full = whole(state)  # the whole unaliased spectrum
            total = float(np.linalg.norm(full))
            full[wide_in_box] = 0.0
            oob.append(float(np.linalg.norm(full)) / total if total > 0.0 else 0.0)
        else:
            oob.append(0.0)
        if phase_reference is None:
            devs.append(math.nan)
        else:
            drift = state - np.exp(-1j * phase_reference * t) * ref0
            devs.append(float(np.linalg.norm(drift)) / mass0 if mass0 > 0 else 0.0)

    def nl(g, out):
        if nonlinear:
            np.multiply(stage(g), mask, out=out)

    prev_norm = mass0
    checkpoint(0.0, prev_norm)
    for step in range(1, n_steps + 1):
        nl(state, n1)
        np.multiply(n1, dt / 2.0, out=u)
        np.add(state, u, out=u)
        np.multiply(e_half, u, out=u)                # e_half (state + dt/2 n1)
        nl(u, n2)
        np.multiply(e_half, state, out=v)
        np.multiply(n2, dt / 2.0, out=u)
        np.add(v, u, out=u)                          # e_half state + dt/2 n2
        nl(u, n3)
        np.multiply(e_half, n3, out=u)
        np.multiply(u, dt, out=u)
        np.multiply(e_full, state, out=v)
        np.add(v, u, out=u)                          # e_full state + dt e_half n3
        nl(u, n4)
        np.multiply(e_full, n1, out=n1)
        np.add(n2, n3, out=n2)
        np.multiply(e_half, n2, out=n2)
        np.multiply(n2, 2.0, out=n2)
        np.add(n1, n2, out=n1)
        np.add(n1, n4, out=n1)
        np.multiply(n1, dt / 6.0, out=n1)
        np.add(v, n1, out=state)  # e_full state + dt/6 (e_full n1 + 2 e_half (n2 + n3) + n4)
        t = step * dt
        new_norm = np.linalg.norm(state)
        if new_norm > 1.1 * prev_norm:
            raise StepUnstable(f"l2 norm grew {new_norm / prev_norm:.3f}x in one step at t={t:.4g}")
        prev_norm = new_norm
        if step % checkpoint_every == 0 or step == n_steps:
            checkpoint(t, new_norm)

    masses_arr = np.array(masses)
    drift = float(np.max(np.abs(masses_arr - mass0)) / mass0) if mass0 > 0 else 0.0
    devs_arr = np.array(devs)
    max_dev = float(np.nanmax(devs_arr)) if phase_reference is not None else math.nan
    return EvolveResult(
        final=ComplexSeries.from_grid(state, coset),
        times=np.array(times), mass=masses_arr, deviation=devs_arr,
        out_of_box=np.array(oob), mass_drift=drift,
        max_deviation=max_dev, max_out_of_box=max(oob),
    )


def standing_wave_deviation(rec: SolutionRecord, T: float, dt: float,
                            box: Region | None = None, checkpoint_every: int = 10) -> float:
    """Evolve a stored solution and return the worst checkpoint deviation
    from the pure phase rotation e^(-iEt) times the stored profile."""
    if not rec.accepted:
        raise ValueError("standing_wave_deviation needs an accepted solution record")
    if box is None:
        box = Region.full_box(rec.config.N_max)
    res = evolve(ComplexSeries.from_profile(rec.u), rec.config.lam, rec.config.p, T, dt, box,
                 checkpoint_every=checkpoint_every, phase_reference=rec.E)
    return res.max_deviation
