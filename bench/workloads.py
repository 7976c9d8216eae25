"""The four benchmark workloads: the CLI commands of each op and their checks.

An op is the unit a workload repeats: one solve+verify pair (construct-d2),
one 20-sample sweep-lambda command (survey-d1), one theta-sweep command
(theta-d1) or one evolve command (evolve-d1).  A pass is one sweep over the
workload's inputs: the 16 grid points of construct-d2, one op otherwise.
Failures are counted per checked unit: one solve+verify pair, one lambda sample,
one theta point, one evolve command.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

GOOD_LAM = (1.111050100586316, 1.4225429688021372)
GOOD_LAM_D2 = (1.4454299788962155, 1.1401582190443373, 1.0719768142666535, 1.1866526052832143)
OTHER_LAM_D2 = (1.05, 0.723, 0.8, 1.31)


def csv_floats(values) -> str:
    return ",".join(repr(float(x)) for x in values)


def stored_solution_argv(work: Path) -> list[str]:
    """The d=1 solution that theta-d1 and evolve-d1 read (made during set-up)."""
    return ["solve", "--d", "1", "--p", "1", "--a", "0.01", "--jtilde", "1,1",
            "--lambda", csv_floats(GOOD_LAM), "--out", str(work / "stored")]


@dataclass
class Op:
    index: int                   # position in the run
    key: int                     # position within a pass
    out: Path
    commands: list[tuple[str, list[str]]]
    rcs: list[int | None] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    traced: bool = False

    @property
    def total_s(self) -> float:
        return sum(self.seconds)

    def ok(self) -> bool:
        return len(self.rcs) == len(self.commands) and all(rc == 0 for rc in self.rcs)


@dataclass
class Verdict:
    attempted: int
    failed: int
    problems: list[str]


class Workload:
    name = ""
    item = ""                    # what items_per_s counts
    ops_per_pass = 1
    aliases: dict[str, str] = {}  # workload-specific names of the generic metrics

    def warmup(self, work: Path) -> list[list[str]]:
        """Tiny commands run during set-up so lazy initialisation is paid there."""
        raise NotImplementedError

    def commands(self, seed: int, pass_index: int, key: int, out: Path, work: Path):
        raise NotImplementedError

    def items(self, op: Op) -> int:
        raise NotImplementedError

    def item_seconds(self, op: Op) -> float:
        """Seconds per item of one op, for item_s_p50."""
        return op.total_s / self.items(op)

    def key_medians(self, ops: list[Op]) -> dict[int, float]:
        """Per position in the pass, the median item time of its ops."""
        by_key = defaultdict(list)
        for op in ops:
            by_key[op.key].append(self.item_seconds(op))
        return {key: statistics.median(v) for key, v in by_key.items()}

    def item_s_p50(self, ops: list[Op]) -> float:
        return statistics.median(self.key_medians(ops).values())

    def check(self, ops: list[Op], work: Path) -> Verdict:
        raise NotImplementedError

    def traffic(self, ops: list[Op]) -> dict:
        """Workload-specific sizes read back from the outputs."""
        return {}


def flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _problems_of_failed_commands(op: Op) -> list[str]:
    out = [f"{op.out.name}: {label} exited {rc!r}"
           for (label, _), rc in zip(op.commands, op.rcs) if rc != 0]
    return out + [f"{op.out.name}: {e}" for e in op.errors]


class ConstructD2(Workload):
    name = "construct-d2"
    item = "solve"
    aliases = {"items_per_s": "solves_per_s", "item_s_p50": "solve_s_p50"}
    GRID = [(lam, p, a) for lam in (GOOD_LAM_D2, OTHER_LAM_D2)
            for p in (1, 2) for a in (0.02, 0.03, 0.05, 0.08)]
    ops_per_pass = len(GRID)

    @staticmethod
    def solve_argv(lam, p, a, out: Path, n_max: int | None = None) -> list[str]:
        argv = ["solve", "--d", "2", "--M", "2", "--force", "--jtilde", "1,0,0,1",
                "--p", str(p), "--a", repr(a), "--lambda", csv_floats(lam), "--out", str(out)]
        return argv + (["--n-max", str(n_max)] if n_max else [])

    def warmup(self, work):
        out = work / "warmup"
        return [self.solve_argv(GOOD_LAM_D2, 1, 0.02, out, n_max=2),
                ["verify", "--in", str(out / "solution.json")]]

    def commands(self, seed, pass_index, key, out, work):
        lam, p, a = self.GRID[key]
        return [("solve", self.solve_argv(lam, p, a, out)),
                ("verify", ["verify", "--in", str(out / "solution.json")])]

    def items(self, op):
        return 1

    def item_seconds(self, op):
        return op.seconds[0] if op.seconds else math.nan

    def item_s_p50(self, ops):
        """Median solve time, stratified by p: the mean over p of the median
        over grid points of each point's median.  p=2 solves take about twice
        as long as p=1 ones, so the plain median of the 16 points falls in
        the gap between the two groups and follows their two extreme points."""
        by_p = defaultdict(list)
        for key, seconds in self.key_medians(ops).items():
            by_p[self.GRID[key][1]].append(seconds)
        return statistics.fmean(statistics.median(v) for v in by_p.values())

    def check(self, ops, work):
        problems, failed, seen = [], 0, {}
        for op in ops:
            bad = _problems_of_failed_commands(op)
            if op.ok():
                lam, p, a = self.GRID[op.key]
                doc = oracles.read_json(op.out / "solution.json")
                expect = {"d": 2, "p": p, "a": a, "M": 2, "jtilde": (1, 0, 0, 1), "lambda": lam}
                # reruns of one grid point write the same payload; check it once
                payload = repr((op.key, doc["E"], doc["coeffs"], doc["accepted"]))
                if payload not in seen:
                    seen[payload] = oracles.check_solution(doc, expect)
                bad += [f"{op.out.name}: {m}" for m in seen[payload]]
            failed += bool(bad)
            problems += bad
        return Verdict(len(ops), failed, problems)

    def traffic(self, ops):
        scales = set()
        for op in ops:
            if op.ok():
                doc = oracles.read_json(op.out / "solution.json")
                scales.add(tuple(step["N"] for step in doc["trace"]))
        return {"newton_scales": sorted(scales)}


class SurveyD1(Workload):
    name = "survey-d1"
    item = "sample"
    aliases = {"items_per_s": "samples_per_s"}
    N_SAMPLES = 20
    A = 0.01

    def sweep_argv(self, seed, out: Path, n_samples: int, greens_n: int) -> list[str]:
        return ["sweep-lambda", "--d", "1", "--p", "1", "--a", repr(self.A), "--jtilde", "1,1",
                "--lambda", csv_floats(GOOD_LAM), "--greens-n", str(greens_n),
                "--n-samples", str(n_samples), "--seed", str(seed), "--out", str(out)]

    @staticmethod
    def cli_seed(seed: int, pass_index: int) -> int:
        """The sweep's own sampling seed for one pass of a benchmark run."""
        digest = hashlib.sha256(f"survey-d1/{seed}/{pass_index}".encode()).digest()
        return int.from_bytes(digest[:4], "little")

    def warmup(self, work):
        return [self.sweep_argv(0, work / "warmup", n_samples=2, greens_n=4)]

    def commands(self, seed, pass_index, key, out, work):
        cli_seed = self.cli_seed(seed, pass_index)
        return [("sweep", self.sweep_argv(cli_seed, out, self.N_SAMPLES, 16))]

    def items(self, op):
        return self.N_SAMPLES

    def check(self, ops, work):
        problems, failed, n_all, n_acc = [], 0, 0, 0
        for op in ops:
            n_all += self.N_SAMPLES
            if not op.ok():
                failed += self.N_SAMPLES
                problems += _problems_of_failed_commands(op)
                continue
            seed = int(flag(op.commands[0][1], "--seed"))
            expect = {"n_samples": self.N_SAMPLES, "seed": seed, "a": self.A, "p": 1,
                      "jtilde": (1, 1), "sep_N": 3, "dio_min": 1e-6}
            rows = oracles.read_csv(op.out / "samples.csv")
            per_sample = oracles.check_sweep(oracles.read_json(op.out / "report.json"), rows, expect)
            n_acc += sum(1 for r in rows if r["reason"] == "accepted")
            for i, sample_problems in enumerate(per_sample):
                failed += bool(sample_problems)
                problems += [f"{op.out.name} sample {i}: {m}" for m in sample_problems]
        # The acceptance bound is a statement about the measure of admissible
        # frequencies, so it is checked on all samples of the run together.
        bound = 1.0 - self.A ** (1 / 6.0)
        if n_all and n_acc / n_all < bound:
            problems.append(f"acceptance fraction {n_acc}/{n_all} below theorem bound {bound!r}")
            failed = n_all
        return Verdict(n_all, failed, problems)

    def traffic(self, ops):
        reasons: dict[str, int] = {}
        for op in ops:
            if op.ok():
                for row in oracles.read_csv(op.out / "samples.csv"):
                    reasons[row["reason"]] = reasons.get(row["reason"], 0) + 1
        return {"samples_by_reason": dict(sorted(reasons.items()))}


class _StoredSolutionWorkload(Workload):
    """Workloads that read the d=1 solution made during set-up."""

    @staticmethod
    def stored(work: Path) -> str:
        return str(work / "stored" / "solution.json")


class ThetaD1(_StoredSolutionWorkload):
    name = "theta-d1"
    item = "theta point"
    aliases = {"items_per_s": "theta_points_per_s"}
    N, STEP = 12, 0.05

    def warmup(self, work):
        return [["theta-sweep", "--in", self.stored(work), "--N", "2", "--grid-step", "1",
                 "--out", str(work / "warmup")]]

    def commands(self, seed, pass_index, key, out, work):
        return [("theta", ["theta-sweep", "--in", self.stored(work), "--N", str(self.N),
                           "--grid-step", repr(self.STEP), "--out", str(out)])]

    def thetas(self):
        return np.arange(-2.0, 2.0 + self.STEP / 2, self.STEP)

    def items(self, op):
        return len(self.thetas())

    def check(self, ops, work):
        thetas = self.thetas()
        expect = {"thetas": thetas, "threshold": math.exp(self.N ** 0.5)}
        ref = None
        problems, failed, checked = [], 0, {}
        for op in ops:
            if not op.ok():
                failed += len(thetas)
                problems += _problems_of_failed_commands(op)
                continue
            files = ((op.out / "theta_sweep.json").read_bytes(),
                     (op.out / "theta_sweep.csv").read_bytes())
            # byte-identical reruns get the verdict of the first copy
            if files not in checked:
                if ref is None:
                    ref = oracles.theta_reference(oracles.read_json(Path(self.stored(work))),
                                                  self.N, thetas)
                checked[files] = oracles.check_theta(
                    oracles.read_json(op.out / "theta_sweep.json"),
                    oracles.read_csv(op.out / "theta_sweep.csv"), expect, ref)
            for i, point_problems in enumerate(checked[files]):
                failed += bool(point_problems)
                problems += [f"{op.out.name} point {i}: {m}" for m in point_problems]
        return Verdict(len(ops) * len(thetas), failed, problems)

    def traffic(self, ops):
        return {"theta_points": sorted({len(oracles.read_csv(op.out / "theta_sweep.csv"))
                                        for op in ops if op.ok()})}


class EvolveD1(_StoredSolutionWorkload):
    name = "evolve-d1"
    item = "RK4 step"
    aliases = {"items_per_s": "rk4_steps_per_s"}
    T, DT, EVERY = 0.5, 0.001, 10

    def warmup(self, work):
        return [["evolve", "--in", self.stored(work), "--T", "0.002", "--dt", "0.001",
                 "--N", "4", "--out", str(work / "warmup")]]

    def commands(self, seed, pass_index, key, out, work):
        return [("evolve", ["evolve", "--in", self.stored(work), "--T", repr(self.T),
                            "--dt", repr(self.DT), "--checkpoint-every", str(self.EVERY),
                            "--out", str(out)])]

    def items(self, op):
        return int(round(self.T / self.DT))

    def check(self, ops, work):
        expect = {"T": self.T, "dt": self.DT, "checkpoint_every": self.EVERY}
        problems, failed = [], 0
        for op in ops:
            bad = _problems_of_failed_commands(op)
            if op.ok():
                bad += [f"{op.out.name}: {m}" for m in oracles.check_evolve(
                    oracles.read_json(op.out / "evolve.json"),
                    oracles.read_csv(op.out / "trajectory.csv"), expect)]
            failed += bool(bad)
            problems += bad
        return Verdict(len(ops), failed, problems)

    def traffic(self, ops):
        return {"rk4_steps": self.items(ops[0]) if ops else 0,
                "checkpoints": sorted({oracles.read_json(op.out / "evolve.json")["n_checkpoints"]
                                       for op in ops if op.ok()})}


WORKLOADS = {w.name: w for w in (ConstructD2(), SurveyD1(), ThetaD1(), EvolveD1())}
