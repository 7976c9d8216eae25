"""Desk-scale time evolution of the truncated equation on the index lattice.

The evolution state is a complex coefficient map C(j); the flow is

    i dC(j)/dt = symbol(j, lambda) C(j) - [C^(*(p+1)) * (Cbar)^(*p)](j),

with Cbar(j) = conj(C(-j)) (the coefficients of the conjugate field); the
state lives on a fixed box and the nonlinear term is cropped to it.  The
linear part is diagonal in this basis, so the integrator is a Lawson
(integrating-factor) fourth-order Runge-Kutta scheme with exact linear
phases between stages; stiffness of the diagonal never limits the step.

The flow never leaves the lattice spanned by the initial state's support:
the linear part is diagonal, and every site of the nonlinear term is a
signed sum of 2p+1 sites of the state.  So the state is stored on that
lattice's coordinates: with H its row Hermite basis (lattice.hermite_basis,
r x 2d, r the rank), site j = m @ H for m in Z^r.  An even seed's solution
has r = d; a generic full-rank support gives r = 2d and the whole box.  The
box's lattice points lie in the rectangle |m_i| <= h_i (_half_widths, in
closed form from H's pivots), and a mask keeps those inside the box.

The nonlinear term is pseudo-spectral.  In m the convolution is that of
Z^r, so the term is one inverse FFT on T^r, the pointwise product
|f|^(2p) f and one forward FFT.  The product of a state of half-widths
h_in has half-widths (2p+1) h_in, so a period
L_i >= (2p+1) h_in_i + h_out_i + 1 on each axis keeps the crop at h_out
alias-free (Orszag's padding rule).

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
from .lattice import Frequency, Index, Region
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


def _half_widths(basis: np.ndarray, N: int) -> tuple[int, ...]:
    """Half-widths h of a rectangle |m_i| <= h_i of coordinates holding every
    point of the box of scale N on the lattice spanned by basis
    (hermite_basis): at row i's pivot c, m @ basis is m_i * pivot plus the
    earlier rows' entries there, so |m_i| * pivot <= N + sum_k<i h_k |basis[k, c]|."""
    half: list[int] = []
    for row in basis:
        c = np.flatnonzero(row)[0]
        reach = N + sum(h * abs(int(b)) for h, b in zip(half, basis[:, c]))
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


def _grid_sites(basis: np.ndarray, half) -> np.ndarray:
    """Site m @ basis of every point of the rectangle |m_i| <= half_i, in
    C order: an (n, 2d) int64 array."""
    shape = tuple(2 * h + 1 for h in half)
    return _coordinates(np.arange(math.prod(shape)), shape) @ basis


def _in_box(basis: np.ndarray, half, N: int) -> np.ndarray:
    """Mask of the rectangle |m_i| <= half_i: True where m @ basis lies in
    the box of scale N."""
    inside = Region.full_box(N).contains_array(_grid_sites(basis, half))
    return inside.reshape(tuple(2 * h + 1 for h in half))


class StepUnstable(Exception):
    """The l2 norm grew by more than 10% within a single step."""


class ComplexSeries:
    """Finite complex coefficient map on Z^(2d); represents a complex field.

    The represented field is real iff coeffs(-j) == conj(coeffs(j)).
    """

    __slots__ = ("d", "coeffs")

    def __init__(self, d: int, coeffs: dict[Index, complex] | None = None):
        self.d = d
        self.coeffs = {j: complex(v) for j, v in (coeffs or {}).items()}
        for j in self.coeffs:
            if len(j) != 2 * d:
                raise ValueError(f"site {j} has {len(j)} coordinates, expected {2 * d}")

    @staticmethod
    def from_profile(u: QPSeries) -> "ComplexSeries":
        return ComplexSeries(u.d, {j: complex(v) for j, v in u.coeffs.items()})

    def get(self, j: Index) -> complex:
        return self.coeffs.get(j, 0j)

    def support_radius(self) -> int:
        return max((lattice.linf(j) for j in self.coeffs), default=0)

    def l2_norm(self) -> float:
        return math.sqrt(math.fsum(abs(v) ** 2 for _, v in sorted(self.coeffs.items())))

    def reality_defect(self) -> float:
        """max |C(-j) - conj(C(j))|; zero iff the represented field is real.

        This is a property of one time slice; the flow does not preserve it
        (free evolution rotates every mode's phase).
        """
        worst = 0.0
        for j, v in self.coeffs.items():
            neg = tuple(-c for c in j)
            worst = max(worst, abs(self.coeffs.get(neg, 0j) - v.conjugate()))
        return worst

    def evenness_defect(self) -> float:
        """max |C(sigma j) - C(j)| over per-block sign flips: the even
        subspace is invariant under the flow, so this stays at rounding."""
        worst = 0.0
        for j, v in self.coeffs.items():
            for member in lattice.orbit(j):
                worst = max(worst, abs(self.coeffs.get(member, 0j) - v))
        return worst

    def basis(self) -> np.ndarray:
        """Row Hermite basis of the lattice spanned by the support."""
        sites = np.array(list(self.coeffs), dtype=np.int64).reshape(-1, 2 * self.d)
        return lattice.hermite_basis(sites)

    def to_grid(self, basis: np.ndarray, N: int) -> np.ndarray:
        """Dense complex array over the rectangle _half_widths(basis, N) of
        coordinates m, the site m @ basis at position m + h; sites outside
        the box of scale N are dropped, and a site off the lattice spanned by
        basis is a ValueError."""
        kept = {j: v for j, v in self.coeffs.items() if lattice.linf(j) <= N}
        m, rest = lattice.lattice_reduce(np.array(list(kept), dtype=np.int64).reshape(-1, 2 * self.d),
                                         basis)
        if rest.any():
            raise ValueError("a site lies off the lattice spanned by the basis")
        g = np.zeros(tuple(2 * h + 1 for h in _half_widths(basis, N)), dtype=complex)
        g.reshape(-1)[_positions(m, g.shape)] = list(kept.values())
        return g

    @staticmethod
    def from_grid(grid: np.ndarray, basis: np.ndarray, drop_tol: float = 0.0) -> "ComplexSeries":
        """The entries of a to_grid array above drop_tol in modulus, at their
        sites m @ basis."""
        flat = np.flatnonzero(np.abs(grid) > drop_tol)
        sites = _coordinates(flat, grid.shape) @ basis
        return ComplexSeries(basis.shape[1] // 2,
                             dict(zip(map(tuple, sites.tolist()), grid.reshape(-1)[flat].tolist())))


def _periods(half_in, half_out, p: int) -> list[int]:
    """Alias-free FFT length per axis for the crop at half_out of the
    nonlinear term of a grid of half-widths half_in."""
    return [next_fast_len((2 * p + 1) * i + o + 1) for i, o in zip(half_in, half_out)]


def _fft_plan(half_in, half_out, p: int):
    """The alias-free periods for the crop at half_out of the nonlinear term
    of a grid of half-widths half_in, and the index arrays that place the
    grid on them and crop the product."""
    L = _periods(half_in, half_out, p)
    return (L, np.ix_(*[np.arange(-h, h + 1) % n for h, n in zip(half_in, L)]),
            np.ix_(*[np.arange(-h, h + 1) % n for h, n in zip(half_out, L)]))


def _nonlinear_grid(grid: np.ndarray, p: int, plan) -> np.ndarray:
    """[C^(*(p+1)) * (Cbar)^(*p)] of a to_grid array, pseudo-spectral on the
    periods of plan (_fft_plan) and cropped as it says."""
    L, place, crop = plan
    padded = np.zeros(L, dtype=complex)
    padded[place] = grid
    f = np.fft.ifftn(padded, norm="forward")
    del padded
    f *= (f.real * f.real + f.imag * f.imag) ** p
    return np.asarray(np.fft.fftn(f, norm="forward")[crop])


def _out_of_box_fraction(grid: np.ndarray, p: int, plan, inside: np.ndarray) -> float:
    """Fraction of the nonlinear term's l2 mass off the mask inside, the
    box's points on plan's crop at (2p+1) times grid's half-widths: that
    crop holds the whole unaliased spectrum."""
    full = _nonlinear_grid(grid, p, plan)
    total = float(np.linalg.norm(full))
    full[inside] = 0.0
    return float(np.linalg.norm(full)) / total if total > 0.0 else 0.0


def _evolve_bytes(basis: np.ndarray, p: int, N: int) -> int:
    """Bytes of the complex grids evolve may hold at once on the box of scale
    N: twelve of the state's rectangle (the state, its reference copy, two
    phase arrays, four RK4 stages, a stage input and the update's
    temporaries) and two of the out-of-box period (the padded grid and its
    FFT output), which is longer on every axis than a stage's period."""
    half = _half_widths(basis, N)
    wide = [(2 * p + 1) * h for h in half]
    return 16 * (12 * math.prod(2 * h + 1 for h in half) + 2 * math.prod(_periods(half, wide, p)))


def nonlinear_term(C: ComplexSeries, p: int, box: Region) -> ComplexSeries:
    """Coefficients of |U|^(2p) U for the field with coefficients C,
    truncated to box: the (p+1)-fold power of C convolved with the p-fold
    power of the conjugate-reflected series.

    Entries below the FFT rounding floor (relative 1e-13 of the peak) are
    dropped; the sparse-accumulation path would produce exact zeros there.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    basis = C.basis()
    half = _half_widths(basis, box.N)
    grid = C.to_grid(basis, max(C.support_radius(), 1))
    crop = _nonlinear_grid(grid, p, _fft_plan([n // 2 for n in grid.shape], half, p))
    crop[~_in_box(basis, half, box.N)] = 0.0
    floor = 1e-13 * float(np.max(np.abs(crop)))
    out = ComplexSeries.from_grid(crop, basis, drop_tol=floor)
    if box.kind != lattice.FULL_BOX:
        out = ComplexSeries(C.d, {j: v for j, v in out.coeffs.items() if box.contains(j)})
    return out


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
    N = box.N
    basis = C0.basis()
    check_box_bytes(lambda n: _evolve_bytes(basis, p, n), N, "the evolution grids")
    half = _half_widths(basis, N)
    state = C0.to_grid(basis, N)
    n_steps = int(round(T / dt))

    outside = ~_in_box(basis, half, N)
    omega = lattice.symbol_array(_grid_sites(basis, half), lam).reshape(state.shape)
    e_half = np.exp(-1j * omega * (dt / 2.0))
    e_full = e_half * e_half
    wide = [(2 * p + 1) * h for h in half]
    stage_plan, wide_plan = _fft_plan(half, half, p), _fft_plan(half, wide, p)
    wide_in_box = _in_box(basis, wide, N) if nonlinear else None

    ref0 = state.copy() if phase_reference is not None else None
    mass0 = float(np.linalg.norm(state))
    times, masses, devs, oob = [], [], [], []

    def checkpoint(t, g):
        times.append(t)
        masses.append(float(np.linalg.norm(g)))
        oob.append(_out_of_box_fraction(g, p, wide_plan, wide_in_box) if nonlinear else 0.0)
        if phase_reference is None:
            devs.append(math.nan)
        else:
            drift = g - np.exp(-1j * phase_reference * t) * ref0
            devs.append(float(np.linalg.norm(drift)) / mass0 if mass0 > 0 else 0.0)

    def nl(g):
        if not nonlinear:
            return np.zeros_like(g)
        crop = _nonlinear_grid(g, p, stage_plan)
        crop[outside] = 0.0  # so the state stays 0 at the rectangle's points outside the box
        return 1j * crop

    checkpoint(0.0, state)
    for step in range(1, n_steps + 1):
        prev_norm = np.linalg.norm(state)
        n1 = nl(state)
        u = e_half * (state + (dt / 2.0) * n1)
        n2 = nl(u)
        u = e_half * state + (dt / 2.0) * n2
        n3 = nl(u)
        u = e_full * state + dt * (e_half * n3)
        n4 = nl(u)
        state = e_full * state + (dt / 6.0) * (e_full * n1 + 2.0 * e_half * (n2 + n3) + n4)
        t = step * dt
        new_norm = np.linalg.norm(state)
        if new_norm > 1.1 * prev_norm:
            raise StepUnstable(f"l2 norm grew {new_norm / prev_norm:.3f}x in one step at t={t:.4g}")
        if step % checkpoint_every == 0 or step == n_steps:
            checkpoint(t, state)

    masses_arr = np.array(masses)
    drift = float(np.max(np.abs(masses_arr - mass0)) / mass0) if mass0 > 0 else 0.0
    devs_arr = np.array(devs)
    max_dev = float(np.nanmax(devs_arr)) if phase_reference is not None else math.nan
    return EvolveResult(
        final=ComplexSeries.from_grid(state, basis),
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
    C0 = ComplexSeries.from_profile(rec.u)
    if C0.support_radius() == 0 and not C0.coeffs:
        return 0.0
    res = evolve(C0, rec.config.lam, rec.config.p, T, dt, box,
                 checkpoint_every=checkpoint_every, phase_reference=rec.E)
    return res.max_deviation
