"""Constructive solver: amplitude-pinned eigenvalue update plus a multiscale
Newton iteration on the complementary sites.

The coefficient equation for a standing-wave profile u with eigenvalue E is

    F(u)(j) = (symbol(j, lambda) - E) u(j) - u^(*(2p+1))(j) = 0.

The equations on the resonant orbit S = orbit(jtilde) are solved for E with
the amplitudes there pinned to a / 2^d (the bifurcation parameter); the
remaining equations are solved for u by Newton steps whose linearizations
are truncated to growing boxes N_r = min(M^r, N_max) with the iterate's
support truncated alongside.  Each step reuses one convolution power for
both the eigenvalue update and the right-hand side, so the pinned equations
cancel to rounding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import lattice
from .lattice import Frequency, Index, Region, linf, nonzero_block_count, orbit, symbol
from .linop import ReducedOperator
from .series import QPSeries, conv_power, symmetrized, truncate


class MixedDegenerateIndex(Exception):
    """jtilde mixes zero and nonzero blocks; the pinned orbit would collapse."""


class SeparationFailure(Exception):
    """The quantitative non-resonance precheck failed for this frequency."""

    def __init__(self, margin: float, threshold: float):
        super().__init__(f"separation margin {margin:.6g} <= threshold {threshold:.6g}")
        self.margin = margin
        self.threshold = threshold


class NotConverged(Exception):
    """max_steps exhausted above tolerance; carries the partial record."""

    def __init__(self, record):
        super().__init__(
            f"not converged after {len(record.trace.steps)} steps, "
            f"residual {record.diagnostics.get('final_residual'):.3e}"
        )
        self.record = record


class DivergedIncrement(Exception):
    """Increment norm grew on two consecutive steps; carries the partial record."""

    def __init__(self, record):
        super().__init__("increment norm grew on two consecutive steps")
        self.record = record


def _check_jtilde(jtilde: Index, d: int):
    if len(jtilde) != 2 * d:
        raise ValueError(f"jtilde must have {2 * d} components")
    m = nonzero_block_count(jtilde)
    if m not in (0, d):
        raise MixedDegenerateIndex(
            f"jtilde {jtilde} has {m} nonzero blocks out of {d}; "
            "only fully nonzero or identically zero seeds are supported"
        )


@dataclass(frozen=True)
class ProblemConfig:
    """Everything needed to reproduce one solve."""

    d: int
    p: int
    a: float
    jtilde: Index
    lam: Frequency
    M: int = 3
    N_max: int | None = None
    max_steps: int = 12
    residual_tol: float = 1e-12
    drop_tol: float = 1e-16

    def __post_init__(self):
        if self.d < 1 or self.p < 1:
            raise ValueError("need d >= 1 and p >= 1")
        if self.a < 0:
            raise ValueError("a must be >= 0 (a solution for -a is the negation of one for a)")
        object.__setattr__(self, "jtilde", tuple(int(c) for c in self.jtilde))
        _check_jtilde(self.jtilde, self.d)
        object.__setattr__(self, "lam", lattice.validate_frequency(self.lam, self.d))
        if self.M < 2:
            raise ValueError("scale base M must be >= 2")
        if linf(self.jtilde) > self.M:
            raise ValueError("M must be >= |jtilde| so the seed orbit fits the first box")
        if self.N_max is None:
            object.__setattr__(self, "N_max", 30 if self.d == 1 else 8)
        if self.N_max < self.M:
            raise ValueError("N_max must be >= M")
        if self.max_steps < 1 or self.residual_tol <= 0 or self.drop_tol < 0:
            raise ValueError("bad iteration controls")

    @property
    def pin_value(self) -> float:
        return self.a / 2 ** nonzero_block_count(self.jtilde)

    def resonant_set(self) -> frozenset[Index]:
        return orbit(self.jtilde)

    def to_json_dict(self) -> dict:
        return {
            "d": self.d, "p": self.p, "a": self.a,
            "jtilde": list(self.jtilde), "lambda": list(self.lam),
            "M": self.M, "N_max": self.N_max, "max_steps": self.max_steps,
            "residual_tol": self.residual_tol, "drop_tol": self.drop_tol,
        }

    @staticmethod
    def from_json_dict(dd: dict) -> "ProblemConfig":
        return ProblemConfig(
            d=dd["d"], p=dd["p"], a=dd["a"], jtilde=tuple(dd["jtilde"]),
            lam=tuple(dd["lambda"]), M=dd["M"], N_max=dd["N_max"],
            max_steps=dd["max_steps"], residual_tol=dd["residual_tol"],
            drop_tol=dd["drop_tol"],
        )


@dataclass(frozen=True)
class TraceStep:
    r: int
    N: int
    incr_norm: float
    resid_norm: float
    E: float
    support: int
    seconds: float

    def to_json_dict(self):
        return {"r": self.r, "N": self.N, "incr_norm": self.incr_norm,
                "resid_norm": self.resid_norm, "E": self.E,
                "support": self.support, "seconds": self.seconds}


@dataclass
class NewtonTrace:
    steps: list[TraceStep] = field(default_factory=list)

    def append(self, step: TraceStep):
        if self.steps and step.N < self.steps[-1].N:
            raise ValueError("box scales must be nondecreasing along the trace")
        self.steps.append(step)

    def increment_norms(self):
        return [s.incr_norm for s in self.steps]

    def to_json_list(self):
        return [s.to_json_dict() for s in self.steps]

    @staticmethod
    def from_json_list(rows) -> "NewtonTrace":
        t = NewtonTrace()
        for row in rows:
            t.append(TraceStep(**row))
        return t


@dataclass
class SolutionRecord:
    config: ProblemConfig
    u: QPSeries
    E: float
    trace: NewtonTrace
    diagnostics: dict
    accepted: bool
    metadata: dict


def initial_guess(cfg: ProblemConfig) -> tuple[QPSeries, float]:
    """Seed pair: pinned amplitudes on the resonant orbit, linear eigenvalue."""
    _check_jtilde(cfg.jtilde, cfg.d)
    if cfg.a == 0.0:
        return QPSeries.zero(cfg.d), symbol(cfg.jtilde, cfg.lam)
    u0 = QPSeries(cfg.d, {j: cfg.pin_value for j in cfg.resonant_set()}, validate=False)
    return u0, symbol(cfg.jtilde, cfg.lam)


def _nonlinear_power(u: QPSeries, p: int, drop_tol: float = 0.0) -> QPSeries:
    """u^(*(2p+1)) on its full natural support (values are exact sums)."""
    return conv_power(u, 2 * p + 1, box=None, drop_tol=drop_tol)


def q_update(u: QPSeries, cfg: ProblemConfig, power: QPSeries | None = None) -> float:
    """Nonlinear eigenvalue from the pinned equations on the resonant orbit:
    E = symbol(jtilde) - (2^m / a) * u^(*(2p+1))(jtilde)."""
    if cfg.a == 0.0:
        return symbol(cfg.jtilde, cfg.lam)
    pin = cfg.pin_value
    got = u.get(cfg.jtilde)
    if got != pin:
        raise ValueError(f"amplitude at jtilde is {got!r}, expected pinned value {pin!r}")
    if power is None:
        power = _nonlinear_power(u, cfg.p)
    mult = 2 ** nonzero_block_count(cfg.jtilde)
    return symbol(cfg.jtilde, cfg.lam) - (mult / cfg.a) * power.get(cfg.jtilde)


def residual(u: QPSeries, E: float, lam: Frequency, p: int,
             box: Region | None = None, power: QPSeries | None = None) -> QPSeries:
    """F(u)(j) = (symbol(j) - E) u(j) - u^(*(2p+1))(j), restricted to box."""
    if power is None:
        power = _nonlinear_power(u, p)
    acc: dict[Index, float] = {}
    for j in set(u.coeffs) | set(power.coeffs):
        if box is not None and not box.contains(j):
            continue
        acc[j] = (symbol(j, lam) - E) * u.get(j) - power.get(j)
    return symmetrized(u.d, acc)


def newton_step(u: QPSeries, E: float, cfg: ProblemConfig, N: int) -> tuple[QPSeries, float]:
    """One truncated Newton increment on the box minus the resonant orbit.

    Returns (increment, residual norm before the step).  The increment is
    supported inside the box with the pinned orbit untouched.  Asserts that
    the pinned equations vanish for the supplied E, which they must when E
    came from q_update on the same iterate.
    """
    power = _nonlinear_power(u, cfg.p)
    F = residual(u, E, cfg.lam, cfg.p, box=None, power=power)
    if cfg.a > 0:
        q_resid = abs(F.get(cfg.jtilde))
        if q_resid > 1e-15 * cfg.a:
            raise AssertionError(
                f"pinned equations not solved: |F(jtilde)| = {q_resid:.3e} > 1e-15*a"
            )
    region = Region.box_minus(N, cfg.resonant_set())
    op = ReducedOperator(u, E, cfg.lam, region, cfg.p)
    w = op.solve_series(F)
    return w.scale(-1.0), F.l2_norm()


def _assert_iterate_invariants(u: QPSeries, cfg: ProblemConfig):
    pin = cfg.pin_value
    for s in cfg.resonant_set():
        if u.get(s) != pin:
            raise AssertionError(f"pinned amplitude at {s} drifted to {u.get(s)!r}")
    for j, v in u.coeffs.items():
        if u.coeffs.get(lattice.canonical(j)) != v:
            raise AssertionError(f"symmetry violated at {j}")


def solve(cfg: ProblemConfig, precheck: bool = True) -> SolutionRecord:
    """Run the full scheme; returns the record, accepted iff the residual on
    the final box met residual_tol.

    Raises SeparationFailure (resonant frequency rejected by the precheck,
    unless precheck=False), SingularOperator (resonance discovered at some
    scale), DivergedIncrement, or NotConverged; the last two carry the
    partial record.
    """
    diagnostics: dict = {}
    sep_margin = None
    if precheck and cfg.a > 0 and nonzero_block_count(cfg.jtilde) > 0:
        from .diagnostics import separation_margin  # deferred: diagnostics imports solver

        sep_margin, ok = separation_margin(cfg.lam, cfg.jtilde, cfg.M, cfg.a, cfg.p)
        diagnostics["separation_margin"] = sep_margin
        diagnostics["separation_N"] = cfg.M
        if not ok:
            raise SeparationFailure(sep_margin, 2.0 * cfg.a ** (cfg.p / 2.0))

    final_box = Region.full_box(cfg.N_max)
    trace = NewtonTrace()

    u, _ = initial_guess(cfg)
    power = _nonlinear_power(u, cfg.p)
    E = q_update(u, cfg, power=power)
    resid = residual(u, E, cfg.lam, cfg.p, box=final_box, power=power).l2_norm()
    accepted = resid <= cfg.residual_tol

    def make_record(accepted_flag: bool) -> SolutionRecord:
        diagnostics["final_residual"] = resid
        return SolutionRecord(
            config=cfg, u=u, E=E, trace=trace, diagnostics=dict(diagnostics),
            accepted=accepted_flag,
            metadata={
                "norm_convention": lattice.NORM_CONVENTION,
                "norms": "per-lambda l2 norms; no sup over lambda is computed",
            },
        )

    if accepted:
        return make_record(True)

    for r in range(1, cfg.max_steps + 1):
        t0 = time.perf_counter()
        N_r = min(cfg.M ** r, cfg.N_max)
        E_r = E  # q_update of the current iterate, computed when it was formed
        delta, _ = newton_step(u, E_r, cfg, N_r)
        u = truncate(u.add(delta), Region.full_box(N_r), cfg.drop_tol)
        _assert_iterate_invariants(u, cfg)
        power = _nonlinear_power(u, cfg.p)
        E = q_update(u, cfg, power=power)
        resid = residual(u, E, cfg.lam, cfg.p, box=final_box, power=power).l2_norm()
        trace.append(TraceStep(
            r=r, N=N_r, incr_norm=delta.l2_norm(), resid_norm=resid, E=E_r,
            support=u.support_size(), seconds=time.perf_counter() - t0,
        ))
        if resid <= cfg.residual_tol:
            return make_record(True)
        incs = trace.increment_norms()
        if len(incs) >= 3 and incs[-1] > incs[-2] > incs[-3]:
            raise DivergedIncrement(make_record(False))
    raise NotConverged(make_record(False))
