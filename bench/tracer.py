"""In-memory spans around qpwave's public entry points, for the traced run.

Wrappers are installed only inside ``Tracer.installed()`` and replace each
function at the name its callers look up: ``conv_power`` is patched in
``qpwave.series``, ``qpwave.solver`` and ``qpwave.linop``, because the last
two bound the name at import time.  Methods are patched on their class.

Every span records its name, start, end, parent span, run id and op id;
counters computed from the call's arguments and result go into the span's
``attrs`` after its end time is taken.  Spans stay in memory until the
benchmark writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

import numpy as np


def _sites_attrs(attrs, args, kwargs, result):
    attrs["rows"] = len(result)


def _conv_attrs(attrs, args, kwargs, result):
    attrs["out_terms"] = result.support_size()


def _matrix_attrs(attrs, args, kwargs, result):
    op = args[0]
    attrs["N"] = op.region.N
    attrs["n"] = op.n
    if hasattr(result, "nnz"):
        attrs["nnz"] = int(result.nnz)
        attrs["storage"] = "csr"
    else:
        attrs["nnz"] = int(np.count_nonzero(result))
        attrs["storage"] = "dense"


def _greens_attrs(attrs, args, kwargs, result):
    attrs["n"] = args[0].n


def _solve_attrs(attrs, args, kwargs, result):
    attrs["accepted"] = bool(result.accepted)


def _sweep_attrs(attrs, args, kwargs, result):
    attrs["samples"] = result.n_samples
    attrs["accepted"] = result.n_accepted
    reasons: dict[str, int] = defaultdict(int)
    for s in result.samples:
        reasons[s.reason] += 1
    attrs["reasons"] = dict(reasons)


def _evolve_attrs(attrs, args, kwargs, result):
    T = kwargs.get("T", args[3] if len(args) > 3 else None)
    dt = kwargs.get("dt", args[4] if len(args) > 4 else None)
    attrs["rk4_steps"] = int(round(T / dt))


def patch_points(qp):
    """(owner, attribute, span name, counter hook) for every traced entry."""
    cli, solver, linop = qp.cli, qp.solver, qp.linop
    series, lattice, diagnostics, dynamics = qp.series, qp.lattice, qp.diagnostics, qp.dynamics
    Reduced, Linearized = linop.ReducedOperator, linop.LinearizedOperator
    return [
        (cli, "main", "cli.main", None),
        (cli, "store_solution", "cli.store_solution", None),
        (cli, "load_solution", "cli.load_solution", None),
        (solver, "solve", "solver.solve", _solve_attrs),
        (solver, "newton_step", "solver.newton_step", None),
        (solver, "residual", "solver.residual", None),
        (series, "conv_power", "series.conv_power", _conv_attrs),
        (solver, "conv_power", "series.conv_power", _conv_attrs),
        (linop, "conv_power", "series.conv_power", _conv_attrs),
        (lattice, "sites_array", "lattice.sites_array", _sites_attrs),
        (Reduced, "__init__", "linop.ReducedOperator.init", None),
        (Reduced, "matrix", "linop.ReducedOperator.matrix", _matrix_attrs),
        (Reduced, "solve_series", "linop.ReducedOperator.solve_series", None),
        (linop, "assemble", "linop.assemble", None),
        (Linearized, "to_dense", "linop.LinearizedOperator.to_dense", None),
        (linop, "greens_profile", "linop.greens_profile", _greens_attrs),
        (diagnostics, "diophantine_margin", "diagnostics.diophantine_margin", None),
        (diagnostics, "separation_margin", "diagnostics.separation_margin", None),
        (diagnostics, "theta_bad_fraction", "diagnostics.theta_bad_fraction", None),
        (diagnostics, "lambda_sweep", "diagnostics.lambda_sweep", _sweep_attrs),
        (dynamics, "evolve", "dynamics.evolve", _evolve_attrs),
    ]


class Tracer:
    """Collects spans; single-threaded, like the workloads it traces."""

    def __init__(self, qp, run_id: str):
        self.qp = qp
        self.run_id = run_id
        self.op_id: str | None = None
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {
                "id": len(tracer.spans), "name": name,
                "parent": tracer._stack[-1] if tracer._stack else None,
                "run": tracer.run_id, "op": tracer.op_id,
                "start": time.perf_counter() - tracer._t0, "end": None, "attrs": {},
            }
            tracer.spans.append(rec)
            tracer._stack.append(rec["id"])
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec["attrs"]["raised"] = type(exc).__name__
                raise
            finally:
                rec["end"] = time.perf_counter() - tracer._t0
                tracer._stack.pop()
            if hook is not None:
                hook(rec["attrs"], args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, op_id: str):
        """Patch every entry point for the duration of one op."""
        saved = []
        self.op_id = op_id
        try:
            for owner, attr, name, hook in patch_points(self.qp):
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self.op_id = None


def self_times(spans: list[dict]) -> list[float]:
    """Per-span duration minus the time covered by its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Calls, inclusive seconds and self seconds per span name."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for s, self_s in zip(spans, own):
        row = out.setdefault(s["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += s["end"] - s["start"]
        row["self_s"] += self_s
    return out
