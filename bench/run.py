"""Benchmark of the qpwave command line, one workload per process.

    python3 bench/run.py --workload construct-d2 --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 0

Each run imports qpwave from ``src/`` of the checkout it sits in, sets up
(imports, the stored d=1 solution, and a tiny warm-up of the workload's
command; SETUP_REPEATS times in fresh interpreters for ``setup_s``), then drives
``qpwave.cli.main(argv)`` in-process, op after op, until ``--seconds`` have
passed and at least one full pass over the workload's inputs is done.
Every output is then checked against the oracles in ``oracles.py``,
outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every op
twice, untraced and traced in alternating order, and prints the per-layer
metrics from the traced copies together with the tracing overhead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every output is correct.  Records (environment, traffic, per-op timings, spans) go to
``.bench_out/records/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5


class SetupFailed(Exception):
    pass


def import_qpwave():
    """Import qpwave from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import qpwave
        import qpwave.cli
    except ImportError as exc:
        raise SetupFailed(f"cannot import qpwave from {SRC}: {exc}") from exc
    if Path(qpwave.__file__).resolve().parent != (SRC / "qpwave").resolve():
        raise SetupFailed(f"qpwave was imported from {qpwave.__file__}, not from {SRC}")
    return qpwave


def call_cli(qp, argv, sink) -> int | None:
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return qp.cli.main(list(argv))


def prepare(qp, wl, work: Path):
    """Set-up proper: the stored input solution and the warm-up commands."""
    import workloads

    for argv in [workloads.stored_solution_argv(work)] + wl.warmup(work):
        sink = io.StringIO()
        rc = call_cli(qp, argv, sink)
        if rc != 0:
            raise SetupFailed(f"set-up command {argv[0]} exited {rc}: {sink.getvalue().strip()}")


def setup_child(workload: str, work: Path) -> int:
    """One timed set-up in a fresh interpreter; prints its seconds as JSON."""
    t0 = time.perf_counter()
    qp = import_qpwave()
    import workloads

    prepare(qp, workloads.WORKLOADS[workload], work)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def measure_setup(workload: str, work: Path, env: dict) -> list[float]:
    times = []
    for k in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--setup-child", str(work / f"setup{k}")],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if child.returncode != 0:
            raise SetupFailed(f"set-up child exited {child.returncode}: {child.stderr.strip()}")
        times.append(json.loads(child.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# ---------------------------------------------------------------------------
# environment record

def _blas_runtime() -> dict:
    """Thread count and build string of every OpenBLAS loaded in this process."""
    import ctypes

    out = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    except OSError:
        return out
    for lib in libs:
        handle = ctypes.CDLL(lib)
        info = {}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                get_threads = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(handle, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and "threads" not in info:
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    info["threads"] = get_threads()
                if get_config is not None and "config" not in info:
                    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                    info["config"] = get_config().decode()
        out[Path(lib).name] = info
    return out


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qpwave").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(qpwave_threads_env) -> dict:
    import numpy
    import scipy

    def blas_version(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):  # show_config layouts differ across versions
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "openblas_runtime": _blas_runtime(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "QPWAVE_THREADS": qpwave_threads_env,
        "sweep_workers": 1,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# the timed phase

def run_op(qp, op, tracer):
    for label, argv in op.commands:
        sink = io.StringIO()
        with tracer.installed(f"op{op.index}") if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                rc = call_cli(qp, argv, sink)
            except Exception:  # a traceback is a failed op, not a crashed benchmark
                rc = None
                op.errors.append(f"{label} raised: {traceback.format_exc(limit=3)}")
            op.seconds.append(time.perf_counter() - t0)
        op.rcs.append(rc)
        if rc != 0 and sink.getvalue().strip():
            op.errors.append(f"{label}: {sink.getvalue().strip().splitlines()[-1]}")


def timed_phase(qp, wl, seed: int, seconds: float, work: Path, tracer):
    from workloads import Op

    ops = []
    t_start = time.perf_counter()
    i = 0
    while i < wl.ops_per_pass or time.perf_counter() - t_start < seconds:
        pass_index, key = divmod(i, wl.ops_per_pass)
        # a traced run alternates which copy of an op goes first, so that
        # warm caches favour neither side of the overhead
        for traced in ((i % 2 == 1, i % 2 == 0) if tracer else (False,)):
            out = work / f"op{i:04d}{'-traced' if traced else ''}"
            op = Op(i, key, out, wl.commands(seed, pass_index, key, out, work), traced=traced)
            run_op(qp, op, tracer if traced else None)
            ops.append(op)
        i += 1
    return ops, time.perf_counter() - t_start


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.exists() else 0


# ---------------------------------------------------------------------------
# metrics

def pass_seconds(ops) -> float:
    """Wall time of one pass: per position in the pass, the median op time."""
    by_key = defaultdict(list)
    for op in ops:
        by_key[op.key].append(op.total_s)
    return sum(statistics.median(v) for v in by_key.values())


# Units of the end-to-end metrics; BENCHMARK.json lists the same names.
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "item_s_p50": "s",
                    "peak_rss_mb": "MB", "ok_frac": "ratio"}


def end_to_end(wl, ops, setup_s, peak_rss_mb, verdict) -> dict:
    return {
        "setup_s": setup_s,
        "wall_s": pass_seconds(ops),
        "items_per_s": sum(wl.items(op) for op in ops) / sum(op.total_s for op in ops),
        "item_s_p50": wl.item_s_p50(ops),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - verdict.failed / verdict.attempted,
    }


def item_tail(wl, ops) -> str:
    """The median item time and, when it lies above the median, the highest
    percentile with at least ten ops beyond it, with the op count."""
    v = sorted(wl.item_seconds(op) for op in ops)
    text = f"item time pooled over {len(v)} ops: p50 {statistics.median(v):.6g} s"
    if len(v) > 20:
        text += f", p{100 * (len(v) - 10) // len(v)} {v[len(v) - 11]:.6g} s"
    return text


# Units of the per-layer metrics; BENCHMARK.json lists the same names.
LAYER_UNITS = {
    "lattice.sites_array.s": "s", "lattice.sites_array.rows": "count",
    "series.conv_power.s": "s", "series.conv_power.calls": "count",
    "series.conv_power.out_terms": "count",
    "linop.reduced_build.s": "s", "linop.reduced_solve.s": "s",
    "linop.greens_profile.s": "s", "linop.assemble.s": "s", "linop.to_dense.s": "s",
    "diagnostics.theta_bad_fraction.self_s": "s", "diagnostics.margins.s": "s",
    "solver.solve.s": "s", "solver.newton_step.self_s": "s", "solver.residual.s": "s",
    "dynamics.evolve.s": "s", "dynamics.rk4_steps": "count",
    "cli.main.self_s": "s", "cli.store_solution.s": "s", "cli.load_solution.s": "s",
    "cli.bytes_written": "bytes",
    "linop.reduced_n": "count", "linop.reduced_nnz": "count", "linop.greens_n": "count",
    "diagnostics.accepted_ratio": "ratio", "solver.newton_steps_per_solve": "ratio",
    "solver.accepted_ratio": "ratio", "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
}


def per_layer(wl, traced_ops, plain_ops, spans) -> dict:
    """Per-layer metrics of the traced ops: times and counts per pass, sizes
    as the largest seen, ratios over the run, and the tracing overhead."""
    from tracer import self_times, summarize

    passes = len(traced_ops) / wl.ops_per_pass
    summary = summarize(spans)
    own = self_times(spans)

    def get(name, field="s"):
        return summary.get(name, {}).get(field, 0.0)

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name)

    def attr_max(name, key):
        return max((s["attrs"].get(key, 0) for s in spans if s["name"] == name), default=0)

    def ratio(num, den):
        return num / den if den else 0.0

    # the reduced matrix is built lazily inside solve_series; count that as build
    matrix_in_solve = sum(s["end"] - s["start"] for s in spans
                          if s["name"] == "linop.ReducedOperator.matrix"
                          and s["parent"] is not None
                          and spans[s["parent"]]["name"] == "linop.ReducedOperator.solve_series")
    theta_self = sum(t for s, t in zip(spans, own) if s["name"] == "diagnostics.theta_bad_fraction")
    solve_calls = get("solver.solve", "calls")
    traced_s, plain_s = pass_seconds(traced_ops), pass_seconds(plain_ops)
    per_pass = {
        "lattice.sites_array.s": get("lattice.sites_array"),
        "lattice.sites_array.rows": attr_sum("lattice.sites_array", "rows"),
        "series.conv_power.s": get("series.conv_power"),
        "series.conv_power.calls": get("series.conv_power", "calls"),
        "series.conv_power.out_terms": attr_sum("series.conv_power", "out_terms"),
        "linop.reduced_build.s": get("linop.ReducedOperator.init") + get("linop.ReducedOperator.matrix"),
        "linop.reduced_solve.s": get("linop.ReducedOperator.solve_series") - matrix_in_solve,
        "linop.greens_profile.s": get("linop.greens_profile"),
        "linop.assemble.s": get("linop.assemble"),
        "linop.to_dense.s": get("linop.LinearizedOperator.to_dense"),
        "diagnostics.theta_bad_fraction.self_s": theta_self,
        "diagnostics.margins.s": get("diagnostics.diophantine_margin") + get("diagnostics.separation_margin"),
        "solver.solve.s": get("solver.solve"),
        "solver.newton_step.self_s": get("solver.newton_step", "self_s"),
        "solver.residual.s": get("solver.residual"),
        "dynamics.evolve.s": get("dynamics.evolve"),
        "dynamics.rk4_steps": attr_sum("dynamics.evolve", "rk4_steps"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "cli.store_solution.s": get("cli.store_solution"),
        "cli.load_solution.s": get("cli.load_solution"),
        "cli.bytes_written": sum(dir_bytes(op.out) for op in traced_ops),
    }
    out = {name: value / passes for name, value in per_pass.items()}
    out.update({
        "linop.reduced_n": attr_max("linop.ReducedOperator.matrix", "n"),
        "linop.reduced_nnz": attr_max("linop.ReducedOperator.matrix", "nnz"),
        "linop.greens_n": attr_max("linop.greens_profile", "n"),
        "diagnostics.accepted_ratio": ratio(attr_sum("diagnostics.lambda_sweep", "accepted"),
                                            attr_sum("diagnostics.lambda_sweep", "samples")),
        "solver.newton_steps_per_solve": ratio(get("solver.newton_step", "calls"), solve_calls),
        "solver.accepted_ratio": ratio(sum(1 for s in spans if s["name"] == "solver.solve"
                                           and s["attrs"].get("accepted")), solve_calls),
        "trace.overhead_s": traced_s - plain_s,
        "trace.overhead_frac": ratio(traced_s - plain_s, plain_s),
    })
    return out


def traffic(wl, ops, spans) -> dict:
    """Sizes the run actually hit."""
    rec = {"ops": len(ops), "items_per_op": sorted({wl.items(op) for op in ops}),
           "bytes_per_op": sorted({dir_bytes(op.out) for op in ops})}
    rec.update(wl.traffic(ops))
    if spans:
        # distinct sizes per Newton scale: the kernel support, hence nnz, grows with p
        reduced = defaultdict(lambda: {"n": set(), "nnz": set(), "storage": set(), "builds": 0})
        for s in spans:
            if s["name"] == "linop.ReducedOperator.matrix":
                a, row = s["attrs"], reduced[s["attrs"]["N"]]
                for key in ("n", "nnz", "storage"):
                    row[key].add(a[key])
                row["builds"] += 1
        rec["reduced_by_N"] = {str(N): {k: sorted(v) if isinstance(v, set) else v
                                        for k, v in row.items()}
                               for N, row in sorted(reduced.items())}
        rec["greens_n"] = sorted({s["attrs"]["n"] for s in spans
                                  if s["name"] == "linop.greens_profile" and "n" in s["attrs"]})
        rec["sites_array_rows"] = sorted({s["attrs"]["rows"] for s in spans
                                          if s["name"] == "lattice.sites_array" and "rows" in s["attrs"]})
    return rec


# ---------------------------------------------------------------------------

def run_workload(args) -> int:
    qpwave_threads_env = os.environ.pop("QPWAVE_THREADS", None)  # 1 sweep worker
    t_import = time.perf_counter()
    qp = import_qpwave()
    import_s = time.perf_counter() - t_import
    import workloads
    from tracer import Tracer, summarize

    wl = workloads.WORKLOADS[args.workload]
    run_id = f"{wl.name}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    work = OUT / "work" / run_id
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)

    setup_times = [] if args.trace else measure_setup(wl.name, work, dict(os.environ))
    t_prep = time.perf_counter()
    prepare(qp, wl, work)
    prep_s = time.perf_counter() - t_prep

    tracer = Tracer(qp, run_id) if args.trace else None
    ops, timed_s = timed_phase(qp, wl, args.seed, args.seconds, work, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t_check = time.perf_counter()
    verdict = wl.check(ops, work)
    check_s = time.perf_counter() - t_check
    correct = verdict.failed == 0 and not verdict.problems

    plain = [op for op in ops if not op.traced]
    traced = [op for op in ops if op.traced]
    spans = tracer.spans if tracer else []
    if args.trace:
        metrics, units = per_layer(wl, traced, plain, spans), LAYER_UNITS
    else:
        metrics = end_to_end(wl, plain, statistics.median(setup_times), peak_rss_mb, verdict)
        units = END_TO_END_UNITS

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "run_id": run_id, "environment": environment(qpwave_threads_env),
        "setup": {"setup_s_children": setup_times, "import_s": import_s, "prepare_s": prep_s},
        "timed_s": timed_s, "check_s": check_s,
        "passes": len(plain) / wl.ops_per_pass, "item": wl.item,
        "ops": [{"index": op.index, "key": op.key, "traced": op.traced,
                 "commands": [argv for _, argv in op.commands],
                 "rcs": op.rcs, "seconds": op.seconds} for op in ops],
        "traffic": traffic(wl, plain + traced, spans),
        "attempted": verdict.attempted, "failed": verdict.failed,
        "problems": verdict.problems[:200], "metrics": metrics,
    }
    if args.trace:
        record["layers"] = summarize(spans)
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        (records / f"{run_id}-spans.json").write_text(json.dumps(spans) + "\n")
    if correct:
        shutil.rmtree(work)

    print(f"{wl.name} seed={args.seed} trace={args.trace}: {len(plain)} ops "
          f"({record['passes']:.2f} passes) in {timed_s:.2f} s; set-up {setup_times}; "
          f"checks {check_s:.2f} s; record {records / (run_id + '.json')}")
    env = record["environment"]
    print("  environment: " + ", ".join(f"{k}={env[k]}" for k in (
        "nproc", "python", "numpy", "scipy", "openblas_numpy", "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS", "QPWAVE_THREADS", "git_commit")))
    for line in verdict.problems[:20]:
        print(f"  problem: {line}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]:6s} {wl.aliases.get(name, '')}")
    print(f"  {'failed_frac':40s} {verdict.failed / verdict.attempted:>16.6g} ratio  "
          f"{verdict.failed} of {verdict.attempted} checked")
    print(f"  {item_tail(wl, plain)}")
    if args.trace:
        print("  self time per pass by span:")
        for name, row in sorted(record["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"    {name:40s} calls {row['calls'] / record['passes']:>9.1f}  "
                  f"self {row['self_s'] / record['passes']:>9.4f} s")
    result = {"correct": correct, "attempted": verdict.attempted, "failed": verdict.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        print(child.stdout.rstrip())
        if child.stderr.strip():
            print(child.stderr.rstrip(), file=sys.stderr)
        try:
            res = json.loads(child.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {child.returncode})", file=sys.stderr)
            return child.returncode or 1
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = v
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


WORKLOAD_NAMES = ("construct-d2", "survey-d1", "theta-d1", "evolve-d1")


def main(argv=None) -> int:
    # numpy is imported only after a set-up child has started its clock
    sys.path.insert(0, str(BENCH_DIR))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_child:
            return setup_child(args.workload, Path(args.setup_child))
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except SetupFailed as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
