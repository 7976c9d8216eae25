"""Batch command-line front end and canonical on-disk formats.

Subcommands: solve, sweep-lambda, greens, theta-sweep, bifurcation, evolve,
verify.  Every artifact embeds the effective configuration; writes are
atomic (temp file + rename); JSON floats use the shortest round-trip
decimal, so storing a loaded canonical file reproduces it byte for byte.
Flags laid over a --config file and a stored effective_config all go through
ProblemConfig.from_json_dict, so an artifact's effective_config reruns its solve;
solve --force records "precheck": false there, so the rerun skips it too.

Exit codes: 0 success, 1 usage error, 2 domain rejection (resonant
frequency, non-convergence, an unstable step, failed verification, a box
over the memory budget).  main alone maps the library's typed rejections
to exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
import tempfile

from . import diagnostics, dynamics, lattice, linop, solver
from .lattice import Region
from .series import QPSeries
from .solver import NewtonTrace, ProblemConfig, SolutionRecord

SCHEMA_VERSION = 1


class SchemaVersionMismatch(Exception):
    def __init__(self, found):
        super().__init__(f"unsupported schema version {found!r}, expected {SCHEMA_VERSION}")
        self.found = found


class CorruptFile(Exception):
    pass


# ---------------------------------------------------------------------------
# persistence

@contextlib.contextmanager
def _atomic_write(path: str):
    """A text handle on a temp file that replaces path when the block ends
    without an exception, and is deleted otherwise."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, obj):
    with _atomic_write(path) as fh:
        fh.write(json.dumps(obj, indent=1) + "\n")


# effective_config's keys that a solution document repeats at its top level
_TOP_CONFIG_KEYS = ("d", "p", "a", "M", "jtilde", "lambda")


def solution_to_json_dict(rec: SolutionRecord) -> dict:
    diag = dict(rec.diagnostics)
    diag["effective_config"] = cfg = rec.config.to_json_dict()
    diag["metadata"] = dict(rec.metadata)
    return {
        "schema": SCHEMA_VERSION,
        **{k: cfg[k] for k in _TOP_CONFIG_KEYS},
        "E": rec.E,
        "accepted": rec.accepted,
        "norm_convention": rec.metadata.get("norm_convention", lattice.NORM_CONVENTION),
        "coeffs": [{"j": j, "v": v} for j, v in zip(rec.u.sites.tolist(), rec.u.vals.tolist())],
        "trace": rec.trace.to_json_list(),
        "diagnostics": diag,
    }


def store_solution(rec: SolutionRecord, path: str):
    _write_json(path, solution_to_json_dict(rec))


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CorruptFile(f"{path}: {exc}") from exc


def load_solution(path: str) -> SolutionRecord:
    doc = _read_json(path)
    if not isinstance(doc, dict) or "schema" not in doc:
        raise CorruptFile(f"{path}: not a solution document")
    if doc["schema"] != SCHEMA_VERSION:
        raise SchemaVersionMismatch(doc["schema"])
    try:
        diag = doc["diagnostics"]
        cfg = ProblemConfig.from_json_dict(diag["effective_config"])
        canon = {tuple(int(c) for c in e["j"]): float(e["v"]) for e in doc["coeffs"]}
        u = QPSeries.from_canonical(cfg.d, canon)
        trace = NewtonTrace.from_json_list(doc["trace"])
        rec = SolutionRecord(
            config=cfg, u=u, E=float(doc["E"]), trace=trace,
            diagnostics=diag, accepted=bool(doc["accepted"]),
            metadata=dict(diag.get("metadata", {})),
        )
        top = solution_to_json_dict(rec)
        if any(doc[k] != top[k] for k in (*_TOP_CONFIG_KEYS, "norm_convention")):
            raise CorruptFile(f"{path}: top-level config disagrees with the embedded one")
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptFile(f"{path}: malformed field ({exc})") from exc
    return rec


def _write_csv(path: str, header, rows):
    """Write header and rows, floats as repr, one row at a time."""
    with _atomic_write(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(x) if isinstance(x, float) else x for x in row])


def store_trace_csv(rec: SolutionRecord, path: str):
    _write_csv(path, ["r", "N", "incr_norm", "resid_norm", "E", "support", "seconds"],
               [(s.r, s.N, s.incr_norm, s.resid_norm, s.E, s.support, s.seconds)
                for s in rec.trace.steps])


def _store_summary(path: str, result, cfg: ProblemConfig, **extra) -> dict:
    """Write result's JSON summary, then the effective configuration, then
    extra keys; returns the document."""
    doc = {**result.to_json_dict(), "effective_config": cfg.to_json_dict(), **extra}
    _write_json(path, doc)
    return doc


# ---------------------------------------------------------------------------
# argument plumbing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _ints_csv(text: str):
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}") from exc


def _floats_csv(text: str):
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc


def _add_problem_flags(p: _Parser):
    """The configuration's flags, stored under effective_config's keys."""
    flags = [
        p.add_argument("--d", type=int, help="number of blocks (default 1)"),
        p.add_argument("--p", type=int, help="nonlinearity exponent (default 1)"),
        p.add_argument("--a", type=float, help="bifurcation amplitude (default 0.01)"),
        p.add_argument("--jtilde", type=_ints_csv, help="seed index, 2d comma-separated ints, e.g. 1,0"),
        p.add_argument("--lambda", dest="lambda", type=_floats_csv,
                       help="frequency vector, 2d comma-separated floats in (0.5,1.5)"),
        p.add_argument("--M", type=int, help="scale base (default 3)"),
        p.add_argument("--n-max", dest="N_max", type=int,
                       help="largest box scale (default 30 for d=1, 8 otherwise)"),
        p.add_argument("--max-steps", type=int, help="iteration cap (default 12)"),
        p.add_argument("--residual-tol", type=float, help="acceptance tolerance (default 1e-12)"),
        p.add_argument("--drop-tol", type=float, help="coefficient drop tolerance (default 1e-16)"),
    ]
    p.add_argument("--config", help="JSON file with any of effective_config's keys; flags win")
    p.set_defaults(config_keys=[f.dest for f in flags])


def _build_config(args) -> ProblemConfig:
    vals = _read_json(args.config) if args.config else {}
    if not isinstance(vals, dict):
        raise ValueError(f"config file {args.config}: expected a JSON object")
    given = {k: getattr(args, k) for k in args.config_keys if getattr(args, k) is not None}
    return ProblemConfig.from_json_dict({**vals, **given})


# ---------------------------------------------------------------------------
# subcommands

def _cmd_solve(args) -> int:
    cfg = _build_config(args)
    try:
        rec = solver.solve(cfg)
    except (solver.NotConverged, solver.DivergedIncrement) as exc:
        # keep the partial record; main reports the rejection
        store_solution(exc.record, os.path.join(args.out, "solution.json"))
        store_trace_csv(exc.record, os.path.join(args.out, "trace.csv"))
        raise
    store_solution(rec, os.path.join(args.out, "solution.json"))
    store_trace_csv(rec, os.path.join(args.out, "trace.csv"))
    print(f"accepted: E={rec.E!r} residual={rec.diagnostics['final_residual']:.3e} "
          f"support={rec.u.support_size()} steps={len(rec.trace.steps)}")
    return 0


def _cmd_sweep_lambda(args) -> int:
    cfg = _build_config(args)
    report = diagnostics.lambda_sweep(cfg, args.n_samples, args.seed,
                                      sep_N=args.sep_n, greens_N=args.greens_n)
    _write_json(os.path.join(args.out, "report.json"), report.to_json_dict())
    lam_cols = [f"lambda_{i}" for i in range(2 * cfg.d)]
    _write_csv(
        os.path.join(args.out, "samples.csv"),
        ["seed_index", *lam_cols, "dio_margin", "sep_margin", "solved", "reason", "residual", "beta"],
        [(s.index, *s.lam,
          s.dio_margin, s.sep_margin if s.sep_margin is not None else "",
          s.solved, s.reason,
          s.residual if s.residual is not None else "",
          s.beta if s.beta is not None else "") for s in report.samples],
    )
    print(f"acceptance_fraction={report.acceptance_fraction!r} "
          f"theorem_bound={report.theorem_bound!r} ({report.n_accepted}/{report.n_samples})")
    return 0


def _cmd_greens(args) -> int:
    rec = load_solution(args.infile)
    theta = tuple(args.theta) if args.theta else None
    # the operator the Newton scheme inverts: box minus the pinned orbit
    region = Region.box_minus(args.N, lattice.orbit(rec.config.jtilde))
    T = linop.assemble(rec.u, rec.E, rec.config.lam, theta, region, rec.config.p)
    prof = linop.greens_profile(T)
    doc = _store_summary(os.path.join(args.out, "greens.json"), prof, rec.config, theta=theta)
    print(f"op_norm_inverse={prof.op_norm_inverse!r} beta={doc['beta']!r} "
          f"fit_rms={doc['fit_rms']!r}")
    return 0


def _cmd_theta_sweep(args) -> int:
    rec = load_solution(args.infile)
    Region.full_box(args.N)  # rejects N < 1 before the default threshold takes N ** sigma
    threshold = args.norm_threshold
    if threshold is None:
        try:
            threshold = math.exp(args.N ** args.sigma)
        except OverflowError:
            raise ValueError(f"the default threshold exp(N**sigma) = exp({args.N}**{args.sigma!r}) "
                             "overflows; give --norm-threshold instead") from None
    res = diagnostics.theta_bad_fraction(rec.u, rec.E, rec.config.lam, args.N,
                                         args.axis, args.grid_step, threshold,
                                         p=rec.config.p, jtilde=rec.config.jtilde)
    _store_summary(os.path.join(args.out, "theta_sweep.json"), res, rec.config)
    _write_csv(os.path.join(args.out, "theta_sweep.csv"),
               ["theta", "inv_norm", "bad"],
               ((float(t), float(v), bool(b)) for t, v, b in zip(res.thetas, res.inv_norms, res.bad)))
    print(f"bad_fraction={res.bad_fraction!r} threshold={threshold!r}")
    return 0


def _cmd_bifurcation(args) -> int:
    cfg = _build_config(args)
    scan = diagnostics.bifurcation_scan(cfg, args.a_values)
    _store_summary(os.path.join(args.out, "bifurcation.json"), scan, cfg)
    _write_csv(os.path.join(args.out, "bifurcation.csv"),
               ["a", "e_shift", "u_shift"],
               list(zip(scan.a_values, scan.e_shifts, scan.u_shifts)))
    print(f"slope_E={scan.slope_E!r} slope_u={scan.slope_u!r}")
    return 0


def _cmd_evolve(args) -> int:
    rec = load_solution(args.infile)
    if not rec.accepted:
        print("rejected: stored solution was not accepted", file=sys.stderr)
        return 2
    box = Region.full_box(args.N if args.N is not None else rec.config.N_max)
    C0 = dynamics.ComplexSeries.from_profile(rec.u)
    res = dynamics.evolve(C0, rec.config.lam, rec.config.p, args.T, args.dt, box,
                          checkpoint_every=args.checkpoint_every, phase_reference=rec.E)
    _store_summary(os.path.join(args.out, "evolve.json"), res, rec.config, T=args.T, dt=args.dt,
                   N=box.N, checkpoint_every=args.checkpoint_every)
    mass0 = res.mass[0] if len(res.mass) else 1.0
    _write_csv(os.path.join(args.out, "trajectory.csv"),
               ["t", "deviation", "mass_drift", "out_of_box_mass"],
               [(float(t), float(dev), float(abs(m - mass0) / mass0 if mass0 else 0.0), float(o))
                for t, dev, m, o in zip(res.times, res.deviation, res.mass, res.out_of_box)])
    print(f"max_deviation={res.max_deviation!r} mass_drift={res.mass_drift!r}")
    return 0


def _cmd_verify(args) -> int:
    try:
        rec = load_solution(args.infile)
    except (SchemaVersionMismatch, CorruptFile) as exc:
        print(f"verify failed: {exc}", file=sys.stderr)
        return 2
    cfg = rec.config
    problems = []
    _, power = solver.powers(rec.u, cfg.p)
    try:
        e_check = solver.q_update(rec.u, cfg, power=power)
        if abs(e_check - rec.E) > 1e-14 * (1.0 + abs(rec.E)):
            problems.append(f"stored E {rec.E!r} disagrees with recomputed {e_check!r}")
    except ValueError as exc:
        problems.append(str(exc))
    resid = solver.residual(rec.u, rec.E, cfg.lam, cfg.p,
                            box=Region.full_box(cfg.N_max), power=power).l2_norm()
    stored = rec.diagnostics.get("final_residual")
    if stored is None:
        problems.append("no stored residual norm")
    elif abs(resid - stored) > 1e-14 * (1.0 + stored):
        problems.append(f"stored residual {stored!r} disagrees with recomputed {resid!r}")
    if rec.accepted != (resid <= cfg.residual_tol):
        problems.append(f"accepted flag {rec.accepted} inconsistent with residual {resid!r} "
                        f"vs tolerance {cfg.residual_tol!r}")
    if problems:
        for msg in problems:
            print(f"verify failed: {msg}", file=sys.stderr)
        return 2
    print(f"verified: residual={resid!r} accepted={rec.accepted}")
    return 0


@functools.cache  # one tree per process: parse_args leaves it unchanged
def build_parser() -> _Parser:
    ap = _Parser(prog="qpwave", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Parser)

    ps = sub.add_parser("solve", help="construct one standing-wave solution")
    _add_problem_flags(ps)
    # --force lays "precheck": false over the configuration, so the artifact
    # records the skip and its effective_config reruns without the precheck
    ps.add_argument("--force", dest="precheck", action="store_false", default=None,
                    help="skip the separation precheck")
    ps.set_defaults(config_keys=[*ps.get_default("config_keys"), "precheck"])
    ps.add_argument("--out", required=True, help="output directory")
    ps.set_defaults(func=_cmd_solve)

    pw = sub.add_parser("sweep-lambda", help="frequency acceptance sweep")
    _add_problem_flags(pw)
    pw.add_argument("--n-samples", type=int, default=200, help="(default 200)")
    pw.add_argument("--seed", type=int, default=0, help="(default 0)")
    pw.add_argument("--sep-n", type=int, default=None,
                    help="box scale of the separation precheck (default: M)")
    pw.add_argument("--greens-n", type=int, default=diagnostics.GREENS_SCALE,
                    help="box scale of the per-sample decay fit (default 16)")
    pw.add_argument("--out", required=True)
    pw.set_defaults(func=_cmd_sweep_lambda)

    pg = sub.add_parser("greens", help="inverse-operator profile of a stored solution")
    pg.add_argument("--in", dest="infile", required=True)
    pg.add_argument("--N", type=int, default=diagnostics.GREENS_SCALE, help="box scale (default 16)")
    pg.add_argument("--theta", type=_floats_csv, default=None, help="d comma-separated shifts")
    pg.add_argument("--out", required=True)
    pg.set_defaults(func=_cmd_greens)

    pt = sub.add_parser("theta-sweep", help="bad-fraction sweep of one shift axis")
    pt.add_argument("--in", dest="infile", required=True)
    pt.add_argument("--N", type=int, default=12, help="box scale (default 12)")
    pt.add_argument("--axis", type=int, default=1, help="shift axis, 1-based (default 1)")
    pt.add_argument("--grid-step", type=float, default=0.05, help="(default 0.05)")
    pt.add_argument("--sigma", type=float, default=0.5,
                    help="norm threshold exponent: threshold = exp(N**sigma) (default 0.5)")
    pt.add_argument("--norm-threshold", type=float, default=None,
                    help="explicit norm threshold (overrides --sigma)")
    pt.add_argument("--out", required=True)
    pt.set_defaults(func=_cmd_theta_sweep)

    pb = sub.add_parser("bifurcation", help="amplitude scaling scan at fixed frequency")
    _add_problem_flags(pb)
    pb.add_argument("--a-values", type=_floats_csv, required=True,
                    help="comma-separated amplitudes, >= 4 spanning >= 1.5 decades")
    pb.add_argument("--out", required=True)
    pb.set_defaults(func=_cmd_bifurcation)

    pe = sub.add_parser("evolve", help="standing-wave evolution check of a stored solution")
    pe.add_argument("--in", dest="infile", required=True)
    pe.add_argument("--T", type=float, default=1.0, help="(default 1.0)")
    pe.add_argument("--dt", type=float, default=1e-3, help="(default 1e-3)")
    pe.add_argument("--N", type=int, default=None, help="evolution box (default: solver box)")
    pe.add_argument("--checkpoint-every", type=int, default=10, help="(default 10)")
    pe.add_argument("--out", required=True)
    pe.set_defaults(func=_cmd_evolve)

    pv = sub.add_parser("verify", help="recheck a stored solution from the file alone")
    pv.add_argument("--in", dest="infile", required=True)
    pv.set_defaults(func=_cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CorruptFile, SchemaVersionMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (solver.SeparationFailure, solver.MixedDegenerateIndex, solver.NotConverged,
            solver.DivergedIncrement, linop.SingularOperator, linop.OperatorTooLarge,
            dynamics.StepUnstable) as exc:
        # the one place a typed domain rejection becomes exit 2
        print(f"rejected: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
