import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from helpers import GOOD_JT, GOOD_LAM, GOOD_LAM_D2, count_convolutions
from qpwave import cli, diagnostics, dynamics, lattice, linop, solver
from qpwave.cli import CorruptFile, SchemaVersionMismatch, load_solution, store_solution
from qpwave.solver import ProblemConfig, solve

LAM_STR = ",".join(repr(x) for x in GOOD_LAM)
JT_STR = ",".join(str(c) for c in GOOD_JT)


def solve_args(out, extra=()):
    return ["solve", "--d", "1", "--p", "1", "--a", "0.01",
            "--jtilde", JT_STR, "--lambda", LAM_STR, "--out", str(out), *extra]


@pytest.mark.parametrize("module", ["qpwave", "qpwave.cli"])
def test_module_entry_points_run_without_warnings(module):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-W", "error", "-m", module, "--help"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: qpwave")


def test_solve_writes_artifacts_and_verifies(tmp_path):
    assert cli.main(solve_args(tmp_path)) == 0
    sol = tmp_path / "solution.json"
    trace = tmp_path / "trace.csv"
    assert sol.exists() and trace.exists()
    doc = json.loads(sol.read_text())
    assert doc["schema"] == 1 and doc["accepted"] is True
    assert doc["norm_convention"] == "linf"
    assert list(doc)[:10] == ["schema", "d", "p", "a", "M", "jtilde", "lambda",
                              "E", "accepted", "norm_convention"]
    header = trace.read_text().splitlines()[0]
    assert header == "r,N,incr_norm,resid_norm,E,support,seconds"
    assert cli.main(["verify", "--in", str(sol)]) == 0


@pytest.mark.parametrize("p", ["1", "2"])
def test_verify_forms_one_convolution_chain(tmp_path, monkeypatch, p):
    assert cli.main(solve_args(tmp_path, ["--p", p])) == 0
    calls = count_convolutions(monkeypatch)
    assert cli.main(["verify", "--in", str(tmp_path / "solution.json")]) == 0
    assert calls["n"] == 2 * int(p)


@pytest.mark.parametrize("argv", [
    # the default d = 3 solve (N_max 8)
    ["--d", "3", "--M", "2", "--jtilde", "1,0,0,1,1,0",
     "--lambda", "1.05,0.723,0.8,1.31,1.21,0.57", "--force"],
    # a zero seed: the constant branch, accepted before any Newton step
    ["--d", "1", "--a", "0.25", "--jtilde", "0,0", "--lambda", LAM_STR],
], ids=["d3-default", "zero-seed"])
def test_solve_and_verify(tmp_path, capsys, argv):
    assert cli.main(["solve", *argv, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("accepted:")
    assert cli.main(["verify", "--in", str(tmp_path / "solution.json")]) == 0
    assert json.loads((tmp_path / "solution.json").read_text())["accepted"] is True


def test_solve_rejects_planted_resonance(tmp_path, capsys):
    code = cli.main(["solve", "--d", "1", "--p", "1", "--a", "0.01",
                     "--jtilde", "1,0", "--lambda", "1.0,1.0",
                     "--out", str(tmp_path)])
    assert code == 2
    assert "separation margin 0" in capsys.readouterr().err


def test_solve_too_wide_for_a_site_code_is_a_domain_rejection(tmp_path, capsys):
    # the first u^(*3) spans radices 1801 and 1795 in each block: over int64
    code = cli.main(["solve", "--d", "3", "--M", "300", "--n-max", "300", "--force",
                     "--jtilde", "300,299,300,299,300,299",
                     "--lambda", "1.05,0.723,0.8,1.31,1.21,0.57", "--out", str(tmp_path)])
    assert code == 2
    assert "span over 2^63 site codes" in capsys.readouterr().err


def test_store_load_roundtrip_byte_identical(tmp_path):
    cfg = ProblemConfig(d=1, p=1, a=0.01, jtilde=GOOD_JT, lam=GOOD_LAM)
    rec = solve(cfg)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    store_solution(rec, str(p1))
    rec2 = load_solution(str(p1))
    store_solution(rec2, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_solve_deterministic_modulo_timing(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(solve_args(out1)) == 0
    assert cli.main(solve_args(out2)) == 0
    d1 = json.loads((out1 / "solution.json").read_text())
    d2 = json.loads((out2 / "solution.json").read_text())
    for d in (d1, d2):
        for row in d["trace"]:
            row["seconds"] = 0.0
    assert json.dumps(d1) == json.dumps(d2)


def test_schema_version_mismatch(tmp_path):
    cfg = ProblemConfig(d=1, p=1, a=0.01, jtilde=GOOD_JT, lam=GOOD_LAM)
    rec = solve(cfg)
    path = tmp_path / "sol.json"
    store_solution(rec, str(path))
    doc = json.loads(path.read_text())
    doc["schema"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaVersionMismatch) as info:
        load_solution(str(path))
    assert info.value.found == 99
    assert cli.main(["verify", "--in", str(path)]) == 2


def test_corrupt_file_detected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(CorruptFile):
        load_solution(str(path))
    assert cli.main(["verify", "--in", str(path)]) == 2


def test_verify_flags_inconsistent_residual(tmp_path, capsys):
    cfg = ProblemConfig(d=1, p=1, a=0.01, jtilde=GOOD_JT, lam=GOOD_LAM)
    rec = solve(cfg)
    path = tmp_path / "sol.json"
    store_solution(rec, str(path))
    doc = json.loads(path.read_text())
    pinned = json.loads(json.dumps(doc))
    doc["coeffs"][1]["v"] *= 1.001  # perturb one non-pinned coefficient
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", "--in", str(path)]) == 2
    # and the pinned one, which q_update reports
    (entry,) = [e for e in pinned["coeffs"] if e["j"] == list(GOOD_JT)]
    entry["v"] *= 1.001
    path.write_text(json.dumps(pinned))
    capsys.readouterr()
    assert cli.main(["verify", "--in", str(path)]) == 2
    assert "amplitude at jtilde" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_stored_coefficient_is_corrupt(tmp_path, capsys, bad):
    run = tmp_path / "run"
    assert cli.main(solve_args(run)) == 0
    path = run / "solution.json"
    doc = json.loads(path.read_text())
    doc["coeffs"][1]["v"] = float(bad)  # json writes the bare NaN / Infinity token
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptFile, match="non-finite coefficient"):
        load_solution(str(path))
    for command, extra in (("evolve", ["--T", "0.002"]), ("greens", ["--N", "4"])):
        capsys.readouterr()
        assert cli.main([command, "--in", str(path), *extra, "--out", str(tmp_path / command)]) == 1
        assert "non-finite coefficient" in capsys.readouterr().err
        assert not (tmp_path / command).exists()
    assert cli.main(["verify", "--in", str(path)]) == 2


@pytest.mark.parametrize("flag", ["--a", "--residual-tol", "--drop-tol"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_solve_rejects_non_finite_controls(tmp_path, capsys, flag, value):
    assert cli.main(solve_args(tmp_path, [flag, value])) == 1
    message = "a must be finite" if flag == "--a" else "bad iteration controls"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "solution.json").exists()


def test_usage_errors_exit_one(tmp_path):
    assert cli.main(["solve", "--bogus-flag", "1"]) == 1
    assert cli.main(["no-such-command"]) == 1
    # missing required frequency
    assert cli.main(["solve", "--d", "1", "--out", str(tmp_path)]) == 1


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    for sub in ("solve", "sweep-lambda", "greens", "theta-sweep",
                "bifurcation", "evolve", "verify"):
        assert sub in out


def test_config_file_composition(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "d": 1, "p": 1, "a": 0.05, "jtilde": [1, 1], "lambda": list(GOOD_LAM),
    }))
    out = tmp_path / "run"
    # the flag overrides the file's amplitude
    code = cli.main(["solve", "--config", str(cfg_file), "--a", "0.01",
                     "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "solution.json").read_text())
    assert doc["a"] == 0.01


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"d": 1, "bogus": 7}))
    assert cli.main(["solve", "--config", str(cfg_file), "--out", str(tmp_path)]) == 1


def test_sweep_lambda_command(tmp_path):
    out = tmp_path / "sweep"
    code = cli.main(["sweep-lambda", "--d", "1", "--p", "1", "--a", "0.01",
                     "--jtilde", JT_STR, "--lambda", LAM_STR,
                     "--n-samples", "6", "--seed", "4", "--greens-n", "6",
                     "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["n_samples"] == 6
    lines = (out / "samples.csv").read_text().splitlines()
    assert lines[0].startswith("seed_index,lambda_0,lambda_1,dio_margin,sep_margin,solved,reason")
    assert len(lines) == 7


def test_sweep_lambda_byte_identical_reruns(tmp_path):
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert cli.main(["sweep-lambda", "--d", "1", "--p", "1", "--a", "0.01",
                         "--jtilde", JT_STR, "--lambda", LAM_STR,
                         "--n-samples", "5", "--seed", "9", "--greens-n", "6",
                         "--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    assert (outs[0] / "samples.csv").read_bytes() == (outs[1] / "samples.csv").read_bytes()


def test_greens_command(tmp_path):
    run = tmp_path / "run"
    assert cli.main(solve_args(run)) == 0
    out = tmp_path / "greens"
    code = cli.main(["greens", "--in", str(run / "solution.json"), "--N", "8",
                     "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "greens.json").read_text())
    assert doc["op_norm_inverse"] > 0
    assert doc["N"] == 8 and doc["threshold_distance"] == 1
    assert doc["beta"] is None or doc["beta"] > 0
    assert doc["theta"] is None


def test_greens_command_without_decay(tmp_path, capsys):
    # a = 0 leaves a zero profile, so the inverse is diagonal and has no
    # off-diagonal decay to fit
    run = tmp_path / "run"
    assert cli.main(["solve", "--d", "1", "--p", "1", "--a", "0",
                     "--jtilde", JT_STR, "--lambda", LAM_STR, "--out", str(run)]) == 0
    out = tmp_path / "greens"
    capsys.readouterr()
    code = cli.main(["greens", "--in", str(run / "solution.json"), "--N", "6",
                     "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "greens.json").read_text())
    assert doc["beta"] is None and doc["fit_rms"] is None
    assert doc["theta"] is None
    assert "beta=None fit_rms=None" in capsys.readouterr().out


def test_theta_sweep_command(tmp_path):
    run = tmp_path / "run"
    assert cli.main(solve_args(run)) == 0
    out = tmp_path / "theta"
    code = cli.main(["theta-sweep", "--in", str(run / "solution.json"),
                     "--N", "6", "--grid-step", "0.25", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "theta_sweep.json").read_text())
    assert 0.0 <= doc["bad_fraction"] <= 1.0
    lines = (out / "theta_sweep.csv").read_text().splitlines()
    assert lines[0] == "theta,inv_norm,bad"
    assert len(lines) == 18  # 17 grid points in [-2, 2] at step 0.25


def test_greens_rejects_a_box_over_the_block_budget(tmp_path, capsys):
    # the default d = 3 solution at N = 40 (81^6 sites) is a domain
    # rejection, not an allocation: its kernel lives on a rank-3 lattice
    # with pivots 2, so a block has up to 41^3 sites
    run = tmp_path / "run"
    assert cli.main(["solve", "--d", "3", "--M", "2", "--jtilde", "1,0,0,1,1,0",
                     "--lambda", "1.05,0.723,0.8,1.31,1.21,0.57", "--force",
                     "--out", str(run)]) == 0
    capsys.readouterr()
    code = cli.main(["greens", "--in", str(run / "solution.json"), "--N", "40",
                     "--out", str(tmp_path / "greens")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("rejected:") and "largest box scale that fits is N = 4" in err
    assert not (tmp_path / "greens").exists()


def test_theta_sweep_rejects_a_box_over_the_block_budget(tmp_path, capsys, monkeypatch):
    run = tmp_path / "run"
    assert cli.main(solve_args(run)) == 0
    monkeypatch.setattr(linop, "BLOCK_BYTES_BUDGET", 2**10)
    capsys.readouterr()
    code = cli.main(["theta-sweep", "--in", str(run / "solution.json"), "--N", "6",
                     "--out", str(tmp_path / "theta")])
    assert code == 2
    assert capsys.readouterr().err.startswith("rejected:")
    assert not (tmp_path / "theta").exists()


def test_bifurcation_command(tmp_path):
    out = tmp_path / "bif"
    code = cli.main(["bifurcation", "--d", "1", "--p", "1",
                     "--jtilde", JT_STR, "--lambda", LAM_STR,
                     "--a-values", "0.001,0.0032,0.01,0.032",
                     "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "bifurcation.json").read_text())
    assert abs(doc["slope_E"] - 2.0) < 0.05
    lines = (out / "bifurcation.csv").read_text().splitlines()
    assert lines[0] == "a,e_shift,u_shift"


def test_evolve_command(tmp_path):
    run = tmp_path / "run"
    assert cli.main(solve_args(run)) == 0
    out = tmp_path / "evolve"
    code = cli.main(["evolve", "--in", str(run / "solution.json"),
                     "--T", "0.05", "--dt", "0.001", "--N", "10",
                     "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "evolve.json").read_text())
    assert doc["max_deviation"] <= 1e-6
    assert (doc["N"], doc["checkpoint_every"]) == (10, 10)
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,deviation,mass_drift,out_of_box_mass"


def test_theta_sweep_rejects_bad_box_scale(tmp_path, capsys):
    run = tmp_path / "run"
    assert cli.main(solve_args(run)) == 0
    for N in ("0", "-1"):
        capsys.readouterr()
        code = cli.main(["theta-sweep", "--in", str(run / "solution.json"),
                         "--N", N, "--out", str(tmp_path / "theta")])
        assert code == 1
        assert "region scale N must be >= 1" in capsys.readouterr().err


def test_theta_sweep_rejects_overflowing_default_threshold(tmp_path, capsys):
    run = tmp_path / "run"
    assert cli.main(solve_args(run)) == 0
    capsys.readouterr()
    code = cli.main(["theta-sweep", "--in", str(run / "solution.json"),
                     "--N", "12", "--sigma", "10", "--out", str(tmp_path / "theta")])
    assert code == 1
    err = capsys.readouterr().err
    assert "exp(N**sigma)" in err and "overflows" in err and "--norm-threshold" in err
    assert not (tmp_path / "theta" / "theta_sweep.json").exists()


def test_evolve_rejects_bad_arguments(tmp_path, capsys):
    run = tmp_path / "run"
    assert cli.main(solve_args(run)) == 0
    base = ["evolve", "--in", str(run / "solution.json"), "--out", str(tmp_path / "evolve")]
    cases = [(["--N", "0"], "region scale N must be >= 1"),
             (["--checkpoint-every", "0", "--T", "0.002"], "checkpoint_every must be >= 1"),
             (["--T", "nan"], "dt > 0")]
    for extra, message in cases:
        capsys.readouterr()
        assert cli.main(base + extra) == 1
        assert message in capsys.readouterr().err
    assert not (tmp_path / "evolve" / "evolve.json").exists()


def test_theta_sweep_rejects_bad_norm_threshold(tmp_path, capsys):
    run = tmp_path / "run"
    assert cli.main(solve_args(run)) == 0
    for value in ("nan", "0", "-1"):
        capsys.readouterr()
        code = cli.main(["theta-sweep", "--in", str(run / "solution.json"), "--N", "2",
                         "--norm-threshold", value, "--out", str(tmp_path / "theta")])
        assert code == 1
        assert "norm_threshold must be positive" in capsys.readouterr().err
    assert not (tmp_path / "theta").exists()


def test_sweep_lambda_rejects_bad_greens_scale_before_sampling(tmp_path, capsys):
    # both samples fail the separation check, so no Green's profile is ever
    # reached: the scale must be checked before the first sample
    out = tmp_path / "sweep"
    code = cli.main(["sweep-lambda", "--d", "1", "--p", "1", "--a", "0.01",
                     "--jtilde", JT_STR, "--lambda", LAM_STR,
                     "--n-samples", "2", "--seed", "0", "--greens-n", "0",
                     "--out", str(out)])
    assert code == 1
    assert "region scale N must be >= 1" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_theta_and_grid_step_are_usage_errors(tmp_path, capsys, value):
    run = tmp_path / "run"
    assert cli.main(solve_args(run)) == 0
    capsys.readouterr()
    assert cli.main(["greens", "--in", str(run / "solution.json"), "--N", "4",
                     "--theta", value, "--out", str(tmp_path / "greens")]) == 1
    assert "theta must be finite" in capsys.readouterr().err
    assert cli.main(["theta-sweep", "--in", str(run / "solution.json"), "--N", "2",
                     "--grid-step", value, "--out", str(tmp_path / "theta")]) == 1
    assert "grid_step must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "greens").exists() and not (tmp_path / "theta").exists()


D3_SOLVE = ["solve", "--d", "3", "--M", "2", "--jtilde", "1,0,0,1,1,0",
            "--lambda", "1.05,0.723,0.8,1.31,1.21,0.57", "--force"]

# every typed rejection main maps to exit 2, built from the stored record
REJECTIONS = {
    "SeparationFailure": lambda rec: solver.SeparationFailure(0.1, 0.2),
    "MixedDegenerateIndex": lambda rec: solver.MixedDegenerateIndex("planted"),
    "NotConverged": solver.NotConverged,
    "DivergedIncrement": solver.DivergedIncrement,
    "SingularOperator": lambda rec: linop.SingularOperator("planted"),
    "OperatorTooLarge": lambda rec: linop.OperatorTooLarge("planted"),
    "StepUnstable": lambda rec: dynamics.StepUnstable("planted"),
}

# the library call each command makes, and the command's arguments
PROBLEM = solve_args("")[1:-2]
COMMANDS = {
    "solve": (solver, "solve", lambda sol: PROBLEM),
    "sweep-lambda": (diagnostics, "lambda_sweep", lambda sol: [*PROBLEM, "--n-samples", "2"]),
    "greens": (linop, "greens_profile", lambda sol: ["--in", sol, "--N", "4"]),
    "theta-sweep": (diagnostics, "theta_bad_fraction", lambda sol: ["--in", sol, "--N", "2"]),
    "bifurcation": (diagnostics, "bifurcation_scan",
                    lambda sol: [*PROBLEM, "--a-values", "0.001,0.0032,0.01,0.032"]),
    "evolve": (dynamics, "evolve", lambda sol: ["--in", sol, "--T", "0.002"]),
}


@pytest.fixture(scope="module")
def stored_solution(tmp_path_factory):
    run = tmp_path_factory.mktemp("stored")
    assert cli.main(solve_args(run)) == 0
    return str(run / "solution.json")


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("rejection", sorted(REJECTIONS))
def test_main_maps_every_typed_rejection_to_exit_two(tmp_path, capsys, monkeypatch,
                                                     stored_solution, command, rejection):
    exc = REJECTIONS[rejection](load_solution(stored_solution))

    def planted(*args, **kwargs):
        raise exc

    module, name, argv = COMMANDS[command]
    monkeypatch.setattr(module, name, planted)
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main([command, *argv(stored_solution), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"rejected: {exc}\n"
    partial = command == "solve" and rejection in ("NotConverged", "DivergedIncrement")
    written = sorted(os.listdir(out)) if out.exists() else []
    assert written == (["solution.json", "trace.csv"] if partial else [])


def test_greens_rejects_a_huge_box_scale_quickly(tmp_path, capsys, stored_solution):
    # the largest fitting scale is searched upward from N = 1, so the cost
    # follows the answer (N = 255), not the requested scale
    start = time.perf_counter()
    code = cli.main(["greens", "--in", stored_solution, "--N", "10000000",
                     "--out", str(tmp_path / "greens")])
    assert time.perf_counter() - start < 5.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("rejected:") and "largest box scale that fits is N = 255" in err
    assert not (tmp_path / "greens").exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--d", "2", "--M", "60", "--n-max", "60"],
    ["sweep-lambda", "--d", "2", "--sep-n", "60", "--n-samples", "3"],
])
def test_separation_box_over_the_budget_is_rejected_before_enumeration(tmp_path, capsys,
                                                                        monkeypatch, argv):
    monkeypatch.setattr(lattice, "sites_array", lambda region, d: pytest.fail("enumerated"))
    out = tmp_path / "out"
    code = cli.main([*argv, "--jtilde", "1,0,0,1", "--lambda", "1.05,0.723,0.8,1.31",
                     "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("rejected: the site list") and "fits is N = 31" in err
    assert not out.exists()


def test_evolve_runs_the_default_d3_solution(tmp_path, capsys):
    # the d = 3 state sits on a rank-3 coset, so its 17^6 box is a 9^3 grid
    run = tmp_path / "run"
    assert cli.main([*D3_SOLVE, "--out", str(run)]) == 0
    out = tmp_path / "evolve"
    assert cli.main(["evolve", "--in", str(run / "solution.json"), "--T", "0.01",
                     "--out", str(out)]) == 0
    doc = json.loads((out / "evolve.json").read_text())
    assert doc["max_deviation"] <= 1e-6
    assert (doc["N"], doc["checkpoint_every"]) == (8, 10)


def test_evolve_rejects_grids_over_the_budget(tmp_path, capsys):
    run = tmp_path / "run"
    assert cli.main([*D3_SOLVE, "--out", str(run)]) == 0
    capsys.readouterr()
    code = cli.main(["evolve", "--in", str(run / "solution.json"), "--N", "1000",
                     "--out", str(tmp_path / "evolve")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("rejected:") and "the evolution grids" in err
    assert not (tmp_path / "evolve").exists()


def test_evolve_rejects_a_huge_box_scale_quickly(tmp_path, capsys, stored_solution):
    # the largest fitting scale is found by doubling and bisection, so the
    # rejection costs a few dozen byte counts, not one per scale
    start = time.perf_counter()
    code = cli.main(["evolve", "--in", stored_solution, "--N", "10000000",
                     "--out", str(tmp_path / "evolve")])
    assert time.perf_counter() - start < 5.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("rejected: the evolution grids")
    fits = int(err.split("the largest box scale that fits is N = ")[1])
    coset = dynamics.ComplexSeries.from_profile(load_solution(stored_solution).u).coset()
    assert (dynamics._evolve_bytes(coset, 1, fits) <= linop.BLOCK_BYTES_BUDGET
            < dynamics._evolve_bytes(coset, 1, fits + 1))
    assert not (tmp_path / "evolve").exists()


D2_P2_SOLVE = ["solve", "--d", "2", "--M", "2", "--force", "--jtilde", "1,0,0,1", "--p", "2",
               "--a", "0.05", "--lambda", ",".join(map(repr, GOOD_LAM_D2))]
# the separation precheck rejects this point (margin 0.25901 <= 0.447214):
# only the recorded skip lets its effective_config rerun
D2_P1_FORCED_SOLVE = ["solve", "--d", "2", "--M", "2", "--force", "--jtilde", "1,0,0,1", "--p", "1",
                      "--a", "0.05", "--lambda", ",".join(map(repr, GOOD_LAM_D2))]


@pytest.mark.parametrize("argv", [solve_args("")[:-2], D2_P2_SOLVE, D2_P1_FORCED_SOLVE],
                         ids=["d1", "d2-p2", "d2-p1-forced"])
def test_effective_config_reruns_its_solve(tmp_path, argv):
    first, again = tmp_path / "first", tmp_path / "again"
    assert cli.main([*argv, "--out", str(first)]) == 0
    doc = json.loads((first / "solution.json").read_text())
    config = doc["diagnostics"]["effective_config"]
    forced = "--force" in argv  # recorded only when the precheck was skipped
    assert list(config) == ["d", "p", "a", "jtilde", "lambda", "M", "N_max", "max_steps",
                            "residual_tol", "drop_tol", *(["precheck"] if forced else [])]
    assert config.get("precheck", True) is not forced
    assert load_solution(str(first / "solution.json")).config.precheck is not forced
    cfg_file = tmp_path / "effective_config.json"
    cfg_file.write_text(json.dumps(config))
    assert cli.main(["solve", "--config", str(cfg_file), "--out", str(again)]) == 0
    rerun = json.loads((again / "solution.json").read_text())
    assert rerun["coeffs"] == doc["coeffs"] and rerun["E"] == doc["E"]
    assert rerun["diagnostics"]["effective_config"] == config


BASE_CONFIG = {"jtilde": list(GOOD_JT), "lambda": list(GOOD_LAM)}


@pytest.mark.parametrize("config, key", [
    ({**BASE_CONFIG, "d": "1"}, "'d'"),
    ({**BASE_CONFIG, "p": True}, "'p'"),
    ({**BASE_CONFIG, "jtilde": 5}, "'jtilde'"),
    ({**BASE_CONFIG, "jtilde": [1, 1.5]}, "'jtilde'"),
    ({**BASE_CONFIG, "lambda": [GOOD_LAM[0], "1.4"]}, "'lambda'"),
    ([1, 2], "JSON object"),
    ({**BASE_CONFIG, "bogus": 7}, "'bogus'"),
    ({**BASE_CONFIG, "n_max": 8}, "'n_max'"),  # the key is N_max, as in effective_config
    ({"jtilde": list(GOOD_JT)}, "'lambda'"),
    ({**BASE_CONFIG, "precheck": 0}, "'precheck'"),
], ids=["string-d", "bool-p", "scalar-jtilde", "float-in-jtilde", "string-in-lambda",
        "array-file", "unknown-key", "n_max", "missing-lambda", "int-precheck"])
def test_bad_config_file_is_one_usage_error(tmp_path, capsys, config, key):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(config))
    capsys.readouterr()
    assert cli.main(["solve", "--config", str(cfg_file), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
    assert not (tmp_path / "run").exists()


def test_stored_config_of_the_wrong_type_is_corrupt(tmp_path, capsys, stored_solution):
    doc = json.loads(open(stored_solution).read())
    doc["diagnostics"]["effective_config"]["p"] = "1"
    path = tmp_path / "solution.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptFile, match="config key 'p'"):
        load_solution(str(path))
    assert cli.main(["verify", "--in", str(path)]) == 2


SOLUTION_KEYS = ["schema", "d", "p", "a", "M", "jtilde", "lambda", "E", "accepted",
                 "norm_convention", "coeffs", "trace", "diagnostics"]


@pytest.mark.parametrize("key", SOLUTION_KEYS)
def test_a_missing_top_level_key_is_a_corrupt_file(tmp_path, capsys, stored_solution, key):
    doc = json.loads(open(stored_solution).read())
    assert list(doc) == SOLUTION_KEYS
    del doc[key]
    path = tmp_path / "solution.json"
    path.write_text(json.dumps(doc))
    for command, extra, code, prefix in (
            ("verify", [], 2, "verify failed:"),
            ("greens", ["--N", "4", "--out", str(tmp_path / "greens")], 1, "error:"),
            ("evolve", ["--T", "0.002", "--out", str(tmp_path / "evolve")], 1, "error:")):
        capsys.readouterr()
        assert cli.main([command, "--in", str(path), *extra]) == code
        assert capsys.readouterr().err.startswith(prefix)
    assert not (tmp_path / "greens").exists() and not (tmp_path / "evolve").exists()


def test_theta_sweep_rejects_a_tiny_grid_step_quickly(tmp_path, capsys, stored_solution):
    start = time.perf_counter()
    code = cli.main(["theta-sweep", "--in", stored_solution, "--N", "1",
                     "--grid-step", "1e-9", "--out", str(tmp_path / "theta")])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("rejected:") and "the smallest grid step that fits is " in err
    assert not (tmp_path / "theta").exists()


def test_theta_grid_bound_names_the_smallest_step_that_fits(tmp_path, capsys, monkeypatch,
                                                            stored_solution):
    # a budget of 50 points: the named step runs, a step 1 % finer does not
    monkeypatch.setattr(linop, "BLOCK_BYTES_BUDGET", 50 * diagnostics.THETA_POINT_BYTES)
    base = ["theta-sweep", "--in", stored_solution, "--N", "1", "--out", str(tmp_path / "theta")]
    assert cli.main([*base, "--grid-step", "0.01"]) == 2
    step = float(capsys.readouterr().err.split("the smallest grid step that fits is ")[1])
    assert cli.main([*base, "--grid-step", repr(step)]) == 0
    assert len((tmp_path / "theta" / "theta_sweep.csv").read_text().splitlines()) == 1 + 49
    assert cli.main([*base, "--grid-step", repr(0.99 * step)]) == 2


def test_evolve_rejects_an_overflowing_step_count(tmp_path, capsys, stored_solution):
    capsys.readouterr()
    code = cli.main(["evolve", "--in", stored_solution, "--T", "1e300", "--dt", "1e-300",
                     "--out", str(tmp_path / "evolve")])
    assert code == 1
    assert "finite step count" in capsys.readouterr().err
    assert not (tmp_path / "evolve").exists()
