import json
import os

import numpy as np
import pytest

from helpers import GOOD_JT, GOOD_LAM
from qpwave import cli
from qpwave.cli import CorruptFile, SchemaVersionMismatch, load_solution, store_solution
from qpwave.solver import ProblemConfig, solve

LAM_STR = ",".join(repr(x) for x in GOOD_LAM)
JT_STR = ",".join(str(c) for c in GOOD_JT)


def solve_args(out, extra=()):
    return ["solve", "--d", "1", "--p", "1", "--a", "0.01",
            "--jtilde", JT_STR, "--lambda", LAM_STR, "--out", str(out), *extra]


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


def test_solve_rejects_planted_resonance(tmp_path, capsys):
    code = cli.main(["solve", "--d", "1", "--p", "1", "--a", "0.01",
                     "--jtilde", "1,0", "--lambda", "1.0,1.0",
                     "--out", str(tmp_path)])
    assert code == 2
    assert "separation margin 0" in capsys.readouterr().err


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


def test_verify_flags_inconsistent_residual(tmp_path):
    cfg = ProblemConfig(d=1, p=1, a=0.01, jtilde=GOOD_JT, lam=GOOD_LAM)
    rec = solve(cfg)
    path = tmp_path / "sol.json"
    store_solution(rec, str(path))
    doc = json.loads(path.read_text())
    doc["coeffs"][1]["v"] *= 1.001  # perturb one non-pinned coefficient
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", "--in", str(path)]) == 2


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


def test_sweep_lambda_threads_env(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "serial", tmp_path / "par"
    args = ["sweep-lambda", "--d", "1", "--p", "1", "--a", "0.01",
            "--jtilde", JT_STR, "--lambda", LAM_STR,
            "--n-samples", "4", "--seed", "2", "--greens-n", "6"]
    monkeypatch.setenv("QPWAVE_THREADS", "1")
    assert cli.main(args + ["--out", str(out1)]) == 0
    monkeypatch.setenv("QPWAVE_THREADS", "3")
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


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
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,deviation,mass_drift,out_of_box_mass"
