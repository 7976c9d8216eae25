"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs one real pass of every workload through the command line, exactly as
``run.py`` does, and requires the workload's check to accept it.  Then it
plants one wrong output at a time in the files of that pass and requires the
same check to count a failed item whose problem names the planted fault: a
coefficient perturbed by 1e-8, a pinned amplitude off by one ulp, a command
that exited non-zero, a flipped stage outcome, a missing decay rate, one
flipped theta flag, an inverse norm 0.2 % off, a standing-wave deviation
above 1e-6 and a missing checkpoint.  Every file is restored before the next
fault.  Also checks that BENCHMARK.json names exactly the metrics run.py
reports.  Exits 0 only when every case behaves.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import sys
from pathlib import Path

import run


class Cases:
    def __init__(self):
        self.failures = 0

    def report(self, label: str, good: bool, detail: str):
        self.failures += not good
        print(f"{'ok  ' if good else 'FAIL'} {label}: {detail}", flush=True)

    def expect(self, label: str, verdict, reason: str | None):
        """reason None: the pass must be correct; otherwise at least one item
        must fail with a problem that mentions reason, so the planted fault
        is caught by the intended check."""
        hits = [p for p in verdict.problems if reason is not None and reason in p]
        if reason is None:
            good = verdict.failed == 0 and not verdict.problems
        else:
            good = verdict.failed >= 1 and bool(hits)
        shown = (hits or verdict.problems)[:1]
        self.report(label, good, f"{verdict.failed}/{verdict.attempted} items failed"
                    + (f" ({shown[0]})" if shown else ""))


def write_json(path: Path, doc: dict):
    path.write_text(json.dumps(doc, indent=1) + "\n")


def write_csv(path: Path, rows: list[dict]):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def planted(cases: Cases, wl, ops, work: Path, label: str, reason: str, edit, *paths: Path):
    """Run edit(*paths) on output files of the pass, run the workload's
    check, and restore the files."""
    originals = [path.read_bytes() for path in paths]
    try:
        edit(*paths)
        cases.expect(f"{wl.name} {label}", wl.check(ops, work), reason)
    finally:
        for path, data in zip(paths, originals):
            path.write_bytes(data)


def construct_faults(cases, wl, ops, work):
    import oracles

    path = ops[0].out / "solution.json"

    def coefficient(p):
        doc = oracles.read_json(p)
        free = next(e for e in doc["coeffs"] if tuple(e["j"]) != (1, 0, 0, 1))
        free["v"] += 1e-8
        write_json(p, doc)

    def pinned(p):
        doc = oracles.read_json(p)
        pin = next(e for e in doc["coeffs"] if tuple(e["j"]) == (1, 0, 0, 1))
        pin["v"] = math.nextafter(pin["v"], 1.0)
        write_json(p, doc)

    planted(cases, wl, ops, work, "coefficient + 1e-8", "recomputed residual", coefficient, path)
    planted(cases, wl, ops, work, "pinned amplitude + 1 ulp", "pinned amplitude", pinned, path)

    saved = list(ops[-1].rcs)
    ops[-1].rcs[-1] = 2
    cases.expect(f"{wl.name} verify exited 2", wl.check(ops, work), "verify exited 2")
    ops[-1].rcs[:] = saved


def survey_faults(cases, wl, ops, work):
    import oracles

    path = ops[0].out / "samples.csv"
    reasons = [r["reason"] for r in oracles.read_csv(path)]

    def relabel(src, dst):
        def edit(p):
            rows = oracles.read_csv(p)
            rows[reasons.index(src)]["reason"] = dst
            write_csv(p, rows)
        return edit

    def drop_beta(p):
        rows = oracles.read_csv(p)
        rows[reasons.index("accepted")]["beta"] = ""
        write_csv(p, rows)

    for src, dst in (("accepted", "separation"), ("separation", "accepted")):
        if src not in reasons:
            cases.report(f"{wl.name} stage outcome {src} -> {dst}", False,
                         f"the real pass has no {src!r} sample to relabel")
            continue
        planted(cases, wl, ops, work, f"stage outcome {src} -> {dst}", "stage outcome",
                relabel(src, dst), path)
    planted(cases, wl, ops, work, "accepted sample without beta", "beta", drop_beta, path)


def theta_faults(cases, wl, ops, work):
    import oracles

    path = ops[0].out / "theta_sweep.csv"

    def flip(p):
        rows = oracles.read_csv(p)
        rows[10]["bad"] = "False" if rows[10]["bad"] == "True" else "True"
        write_csv(p, rows)

    def norm_off(p):
        rows = oracles.read_csv(p)
        rows[40]["inv_norm"] = repr(float(rows[40]["inv_norm"]) * 1.002)
        write_csv(p, rows)

    planted(cases, wl, ops, work, "one flag flipped", "bad flag", flip, path)
    planted(cases, wl, ops, work, "inv_norm 0.2 % off", "inv_norm", norm_off, path)


def evolve_faults(cases, wl, ops, work):
    import oracles

    summary, trajectory = ops[0].out / "evolve.json", ops[0].out / "trajectory.csv"

    def deviation(summary_path, trajectory_path):
        doc = oracles.read_json(summary_path)
        doc["max_deviation"] = 2e-6
        write_json(summary_path, doc)
        rows = oracles.read_csv(trajectory_path)
        rows[-1]["deviation"] = "2e-06"
        write_csv(trajectory_path, rows)

    def drop_checkpoint(p):
        write_csv(p, oracles.read_csv(p)[:-1])

    planted(cases, wl, ops, work, "deviation 2e-6", "max_deviation", deviation,
            summary, trajectory)
    planted(cases, wl, ops, work, "one checkpoint missing", "checkpoints", drop_checkpoint,
            trajectory)


FAULTS = {"construct-d2": construct_faults, "survey-d1": survey_faults,
          "theta-d1": theta_faults, "evolve-d1": evolve_faults}


def benchmark_json_case(cases: Cases):
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if e2e != run.END_TO_END_UNITS:
        problems.append(f"end_to_end {e2e} != reported {run.END_TO_END_UNITS}")
    if layer != run.LAYER_UNITS:
        problems.append(f"per_layer differs from run.LAYER_UNITS: "
                        f"{sorted(set(layer.items()) ^ set(run.LAYER_UNITS.items()))}")
    names = [w["name"] for w in spec["workloads"]]
    if not names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS):
        problems.append(f"workloads {names} / run.py {run.WORKLOAD_NAMES} / workloads.py "
                        f"{list(workloads.WORKLOADS)} differ")
    cases.report("BENCHMARK.json matches the reported metrics", not problems,
                 "; ".join(problems) or "names and units agree")


def main() -> int:
    qp = run.import_qpwave()
    import workloads

    cases = Cases()
    benchmark_json_case(cases)
    tmp = run.OUT / "selftest"
    for wl in workloads.WORKLOADS.values():
        work = tmp / wl.name
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        run.prepare(qp, wl, work)
        ops, _ = run.timed_phase(qp, wl, 0, 0.0, work, None)
        cases.expect(f"{wl.name} real pass", wl.check(ops, work), None)
        FAULTS[wl.name](cases, wl, ops, work)
    shutil.rmtree(tmp)
    print(f"selftest: {cases.failures} case(s) misbehaved")
    return 1 if cases.failures else 0


if __name__ == "__main__":
    sys.exit(main())
