"""Constructive solver: amplitude-pinned eigenvalue update plus a multiscale
Newton iteration on the complementary sites.

The coefficient equation for a standing-wave profile u with eigenvalue E is

    F(u)(j) = (symbol(j, lambda) - E) u(j) - u^(*(2p+1))(j) = 0.

The equations on the resonant orbit S = orbit(jtilde) are solved for E with
the amplitudes there pinned to a / 2^d (the bifurcation parameter); the
remaining equations are solved for u by Newton steps whose linearizations
are truncated to growing boxes N_r = min(M^r, N_max) with the iterate's
support truncated alongside.  Each iterate's convolution chain is formed
once (powers): u^(*2p) times 2p+1 is the next step's kernel, and
u^(*(2p+1)) feeds both the eigenvalue update and the residual, so the
pinned equations cancel to rounding.  Iterates, residuals and increments
are QPSeries, held on canonical sites, so every array step here works on
canonical sites only and the symmetry invariant needs no check.

Each Newton step solves only the equations its residual drives.  For every
seed the solver accepts (all blocks of jtilde nonzero, or all zero), block
k of every site of every iterate is an odd multiple of jtilde_k, and the
kernel u^(*2p) lives on even multiples.  The box-minus-orbit system
therefore splits exactly over the cosets of the lattice
2Z jtilde_1 x ... x 2Z jtilde_d, and the residual touches one of them,
which lattice.coupled_sites enumerates in closed form (15 sites at d = 2,
N = 8, where the box minus the orbit has 21024 canonical sites); the
increment is exactly 0 on the others.  Consequences:

* the profile is periodic in each x_k: it carries only the frequencies
  m * omega_k, with m odd and omega_k = jtilde_k . lambda_k;
* SingularOperator from a Newton step reports a resonance of the coupled
  matrix only; the decoupled cosets are still profiled by
  linop.greens_profile;
* the solve's residual contract takes its norm estimate from the coupled
  matrix;
* the separation precheck (diagnostics.separation_margin) keeps its
  whole-box definition.
"""

from __future__ import annotations

import math
import time
import typing
from dataclasses import MISSING, dataclass, field, fields

from . import lattice
from .lattice import Frequency, Index, Region, linf, nonzero_block_count, orbit, symbol
from .linop import ReducedOperator
from .series import QPSeries, conv_power, convolve, truncate


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


_JSON_KEY = {"lam": "lambda"}  # the one field stored under another name


def _json_value(key: str, value, hint):
    """value as the type hint of its field (bool, int, float, a tuple of
    either number, or int | None, taken as int) when it has that JSON type:
    a bool is not a number, an int may stand for a float.  Raises
    ValueError naming key."""
    args = typing.get_args(hint)
    item, many = args[0] if args else hint, typing.get_origin(hint) is tuple
    values = value if many else [value]
    if isinstance(value, (list, tuple)) == many and all(
            isinstance(v, (int, item)) and isinstance(v, bool) == (item is bool) for v in values):
        try:
            typed = tuple(map(item, values))
            return typed if many else typed[0]
        except OverflowError:  # an int beyond the float range
            pass
    noun = {int: "integer", bool: "boolean"}.get(item, "number")
    want = f"a list of JSON {noun}s" if many else f"a JSON {noun}"
    raise ValueError(f"config key {key!r} must be {want}, got {value!r}")


@dataclass(frozen=True, kw_only=True)
class ProblemConfig:
    """Everything needed to reproduce one solve, and the one owner of the
    configuration's keys (its field names, lam stored as "lambda"),
    defaults and value types."""

    d: int = 1
    p: int = 1
    a: float = 0.01
    jtilde: Index
    lam: Frequency
    M: int = 3
    N_max: int | None = None  # 30 for d = 1, 8 otherwise
    max_steps: int = 12
    residual_tol: float = 1e-12
    drop_tol: float = 1e-16
    precheck: bool = True  # False skips the separation precheck (solve --force)

    def __post_init__(self):
        if self.d < 1 or self.p < 1:
            raise ValueError("need d >= 1 and p >= 1")
        if not 0 <= self.a < math.inf:
            raise ValueError("a must be finite and >= 0 (a solution for -a is the negation of one for a)")
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
        if (self.max_steps < 1 or not 0 < self.residual_tol < math.inf
                or not 0 <= self.drop_tol < math.inf):
            raise ValueError("bad iteration controls")

    @property
    def pin_value(self) -> float:
        return self.a / 2 ** nonzero_block_count(self.jtilde)

    def resonant_set(self) -> frozenset[Index]:
        return orbit(self.jtilde)

    def to_json_dict(self) -> dict:
        """The configuration's keys; precheck is written only when it is
        false, so a document without it ran the precheck."""
        doc = {_JSON_KEY.get(f.name, f.name): getattr(self, f.name) for f in fields(self)}
        doc["jtilde"], doc["lambda"] = list(self.jtilde), list(self.lam)
        if self.precheck:
            del doc["precheck"]
        return doc

    @classmethod
    def from_json_dict(cls, dd: dict) -> "ProblemConfig":
        """The configuration of a JSON object holding any subset of
        to_json_dict's keys that includes jtilde and lambda; the others take
        their defaults.  Raises ValueError on an unknown or missing key or a
        value of the wrong JSON type."""
        named = {_JSON_KEY.get(f.name, f.name): f for f in fields(cls)}
        unknown = sorted(set(dd) - set(named))
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        missing = [k for k, f in named.items() if f.default is MISSING and k not in dd]
        if missing:
            raise ValueError(f"missing config keys: {missing}")
        return cls(**{named[k].name: _json_value(k, v, _FIELD_HINTS[named[k].name])
                      for k, v in dd.items()})


_FIELD_HINTS = typing.get_type_hints(ProblemConfig)  # resolved once: each takes an eval


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
    if cfg.a == 0.0:
        return QPSeries.zero(cfg.d), symbol(cfg.jtilde, cfg.lam)
    return QPSeries.delta(cfg.d, cfg.pin_value, cfg.jtilde), symbol(cfg.jtilde, cfg.lam)


def powers(u: QPSeries, p: int) -> tuple[QPSeries, QPSeries]:
    """(u^(*2p), u^(*(2p+1))): the kernel's power and the nonlinear term,
    from one chain of convolutions."""
    half = conv_power(u, 2 * p)
    return half, convolve(half, u)


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
        power = powers(u, cfg.p)[1]
    mult = 2 ** nonzero_block_count(cfg.jtilde)
    return symbol(cfg.jtilde, cfg.lam) - (mult / cfg.a) * power.get(cfg.jtilde)


def residual(u: QPSeries, E: float, lam: Frequency, p: int,
             box: Region | None = None, power: QPSeries | None = None) -> QPSeries:
    """F(u)(j) = (symbol(j) - E) u(j) - u^(*(2p+1))(j), restricted to box;
    exact zeros are dropped."""
    if power is None:
        power = powers(u, p)[1]
    F = u.scale(lattice.symbol_array(u.sites, lam) - E).add(power.scale(-1.0))
    if box is None:
        return F
    inside = box.contains_array(F.sites)
    return QPSeries(F.d, F.sites[inside], F.vals[inside])


def newton_step(u: QPSeries, E: float, cfg: ProblemConfig, N: int,
                chain: tuple[QPSeries, QPSeries] | None = None) -> tuple[QPSeries, float]:
    """One truncated Newton increment on the box minus the resonant orbit.

    Returns (increment, residual norm before the step).  The system is
    solved on the coupled set (lattice.coupled_sites) only; the increment is
    exactly 0 on the rest of the box and on the pinned orbit.  chain is
    powers(u, cfg.p), formed here when not supplied.  Asserts that the
    pinned equations vanish for the supplied E, which they must when E came
    from q_update on the same iterate.
    """
    half, power = powers(u, cfg.p) if chain is None else chain
    F = residual(u, E, cfg.lam, cfg.p, box=None, power=power)
    if cfg.a > 0:
        q_resid = abs(F.get(cfg.jtilde))
        if q_resid > 1e-15 * cfg.a:
            raise AssertionError(
                f"pinned equations not solved: |F(jtilde)| = {q_resid:.3e} > 1e-15*a"
            )
    region = Region.box_minus(N, cfg.resonant_set())
    op = ReducedOperator(half.scale(2.0 * cfg.p + 1.0), E, cfg.lam, region,
                         lattice.coupled_sites(cfg.jtilde, N))
    w = op.solve_series(F)
    return w.scale(-1.0), F.l2_norm()


def _assert_iterate_invariants(u: QPSeries, cfg: ProblemConfig):
    # one value per orbit, so jtilde stands for the whole pinned orbit
    if u.get(cfg.jtilde) != cfg.pin_value:
        raise AssertionError(f"pinned amplitude at {cfg.jtilde} drifted to {u.get(cfg.jtilde)!r}")


def solve(cfg: ProblemConfig) -> SolutionRecord:
    """Run the full scheme; returns the record, accepted iff the residual on
    the final box met residual_tol.

    Raises SeparationFailure (resonant frequency rejected by the precheck,
    unless cfg.precheck is False), SingularOperator (resonance discovered at some
    scale), DivergedIncrement, or NotConverged; the last two carry the
    partial record.
    """
    diagnostics: dict = {}
    sep_margin = None
    if cfg.precheck and cfg.a > 0 and nonzero_block_count(cfg.jtilde) > 0:
        from .diagnostics import separation_margin  # deferred: diagnostics imports solver

        sep_margin, ok = separation_margin(cfg.lam, cfg.jtilde, cfg.M, cfg.a, cfg.p)
        diagnostics["separation_margin"] = sep_margin
        diagnostics["separation_N"] = cfg.M
        if not ok:
            raise SeparationFailure(sep_margin, 2.0 * cfg.a ** (cfg.p / 2.0))

    final_box = Region.full_box(cfg.N_max)
    trace = NewtonTrace()

    u, _ = initial_guess(cfg)
    chain = powers(u, cfg.p)
    E = q_update(u, cfg, power=chain[1])
    resid = residual(u, E, cfg.lam, cfg.p, box=final_box, power=chain[1]).l2_norm()
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
        delta, _ = newton_step(u, E_r, cfg, N_r, chain)
        u = truncate(u.add(delta), Region.full_box(N_r), cfg.drop_tol)
        _assert_iterate_invariants(u, cfg)
        chain = powers(u, cfg.p)
        E = q_update(u, cfg, power=chain[1])
        resid = residual(u, E, cfg.lam, cfg.p, box=final_box, power=chain[1]).l2_norm()
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
