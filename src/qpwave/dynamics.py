"""Desk-scale time evolution of the truncated equation on the index lattice.

The evolution state is a complex coefficient map C(j); the flow is

    i dC(j)/dt = symbol(j, lambda) C(j) - [C^(*(p+1)) * (Cbar)^(*p)](j),

with Cbar(j) = conj(C(-j)) (the coefficients of the conjugate field); the
state lives on a fixed box and the nonlinear term is cropped to it.  The
linear part is diagonal in this basis, so the integrator is a Lawson
(integrating-factor) fourth-order Runge-Kutta scheme with exact linear
phases between stages; stiffness of the diagonal never limits the step.

The nonlinear term is pseudo-spectral.  The coefficients are those of a
hull function on the torus T^(2d), so the term is one inverse FFT, the
pointwise product |f|^(2p) f and one forward FFT.  The product of a state
of radius N_in has radius (2p+1) N_in, so a period
L >= (2p+1) N_in + N_out + 1 keeps the [-N_out, N_out] crop alias-free
(Orszag's padding rule).

A constructed profile with eigenvalue E should evolve as the pure phase
rotation e^(-iEt) times itself; standing_wave_deviation measures how far a
stored solution drifts from that rotation.  The box truncation error is
reported, never hidden: at every checkpoint, t = 0 included, the fraction
of the nonlinear term's l2 mass that falls outside the box, read from its
whole unaliased spectrum (the crop at N_out = (2p+1) N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from . import lattice
from .lattice import Frequency, Index, Region
from .linop import OperatorTooLarge
from .series import QPSeries
from .solver import SolutionRecord

# Dense-grid guard: (2N+1)^(2d) entries per state array; a larger grid is
# a domain rejection (linop.OperatorTooLarge), like an oversized operator.
MAX_GRID_SIZE = 1 << 23


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

    def to_grid(self, N: int) -> np.ndarray:
        """Dense complex array over [-N, N]^(2d), index j at position j + N;
        OperatorTooLarge above MAX_GRID_SIZE entries."""
        shape = (2 * N + 1,) * (2 * self.d)
        if np.prod(shape) > MAX_GRID_SIZE:
            raise OperatorTooLarge(f"grid of shape {shape} exceeds the dense-evolution guard "
                                   f"of {MAX_GRID_SIZE} entries")
        g = np.zeros(shape, dtype=complex)
        for j, v in self.coeffs.items():
            if lattice.linf(j) <= N:
                g[tuple(c + N for c in j)] = v
        return g

    @staticmethod
    def from_grid(d: int, grid: np.ndarray, N: int, drop_tol: float = 0.0) -> "ComplexSeries":
        out = {}
        for pos in np.argwhere(np.abs(grid) > drop_tol):
            j = tuple(int(c) - N for c in pos)
            out[j] = complex(grid[tuple(pos)])
        return ComplexSeries(d, out)


def _nonlinear_grid(grid: np.ndarray, p: int, N_in: int, N_out: int) -> np.ndarray:
    """[C^(*(p+1)) * (Cbar)^(*p)] of the [-N_in, N_in] grid, cropped to
    [-N_out, N_out]: pseudo-spectral on the alias-free period L."""
    ndim = grid.ndim
    L = scipy.fft.next_fast_len((2 * p + 1) * N_in + N_out + 1)
    padded = np.zeros((L,) * ndim, dtype=complex)
    padded[np.ix_(*[np.arange(-N_in, N_in + 1) % L] * ndim)] = grid
    f = scipy.fft.ifftn(padded, norm="forward")
    prod = scipy.fft.fftn((f.real * f.real + f.imag * f.imag) ** p * f, norm="forward")
    return prod[np.ix_(*[np.arange(-N_out, N_out + 1) % L] * ndim)]


def _out_of_box_fraction(grid: np.ndarray, p: int, N: int) -> float:
    """Fraction of the nonlinear term's l2 mass outside [-N, N]: the crop at
    (2p+1) N holds the whole unaliased spectrum."""
    full = _nonlinear_grid(grid, p, N, (2 * p + 1) * N)
    total = float(np.linalg.norm(full))
    full[(slice(2 * p * N, (2 * p + 2) * N + 1),) * grid.ndim] = 0.0
    return float(np.linalg.norm(full)) / total if total > 0.0 else 0.0


def nonlinear_term(C: ComplexSeries, p: int, box: Region) -> ComplexSeries:
    """Coefficients of |U|^(2p) U for the field with coefficients C,
    truncated to box: the (p+1)-fold power of C convolved with the p-fold
    power of the conjugate-reflected series.

    Entries below the FFT rounding floor (relative 1e-13 of the peak) are
    dropped; the sparse-accumulation path would produce exact zeros there.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    N_in = max(C.support_radius(), 1)
    crop = _nonlinear_grid(C.to_grid(N_in), p, N_in, box.N)
    floor = 1e-13 * float(np.max(np.abs(crop)))
    out = ComplexSeries.from_grid(C.d, crop, box.N, drop_tol=floor)
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
    if not (0 < dt <= T < math.inf):
        raise ValueError("need dt > 0 and a finite T >= dt")
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    d = C0.d
    N = box.N
    state = C0.to_grid(N)
    n_steps = int(round(T / dt))

    pts = lattice.sites_array(Region.full_box(N), d)
    omega = lattice.symbol_array(pts, lam).reshape(state.shape)
    e_half = np.exp(-1j * omega * (dt / 2.0))
    e_full = e_half * e_half

    ref0 = state.copy() if phase_reference is not None else None
    mass0 = float(np.linalg.norm(state))
    times, masses, devs, oob = [], [], [], []

    def checkpoint(t, g):
        times.append(t)
        masses.append(float(np.linalg.norm(g)))
        oob.append(_out_of_box_fraction(g, p, N) if nonlinear else 0.0)
        if phase_reference is None:
            devs.append(math.nan)
        else:
            drift = g - np.exp(-1j * phase_reference * t) * ref0
            devs.append(float(np.linalg.norm(drift)) / mass0 if mass0 > 0 else 0.0)

    def nl(g):
        return 1j * _nonlinear_grid(g, p, N, N) if nonlinear else np.zeros_like(g)

    checkpoint(0.0, state)
    for step in range(1, n_steps + 1):
        prev_norm = np.linalg.norm(state)
        n1 = nl(state)
        u2 = e_half * (state + (dt / 2.0) * n1)
        n2 = nl(u2)
        u3 = e_half * state + (dt / 2.0) * n2
        n3 = nl(u3)
        u4 = e_full * state + dt * (e_half * n3)
        n4 = nl(u4)
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
        final=ComplexSeries.from_grid(d, state, N, drop_tol=0.0),
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
