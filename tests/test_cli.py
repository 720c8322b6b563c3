import json
import os

import numpy as np
import pytest

from conftest import (
    CHAIN_A_F,
    CHAIN_A_G,
    CHAIN_A_KERNEL,
    CHAIN_B_COORDS,
    CHAIN_B_KERNEL,
    chain_b_generator_rows,
)
from ergostop import markov, montecarlo
from ergostop.cli import run
from ergostop.errors import ParseError
from ergostop.modelio import load_model_file
from ergostop.report import emit_report, write_csv


def write_chain_a(tmp_path, name="chain_a.json", f=None, g=None):
    payload = {
        "states": ["0", "1"],
        "kernel": CHAIN_A_KERNEL,
        "dt": 1.0,
        "f": list(f if f is not None else CHAIN_A_F),
        "g": list(g if g is not None else CHAIN_A_G),
    }
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def write_chain_b_generator(tmp_path, dt=0.5):
    payload = {
        "states": [str(i) for i in range(5)],
        "generator": chain_b_generator_rows().tolist(),
        "dt": dt,
        "coords": CHAIN_B_COORDS,
        "f": [2.0, 1.0, -1.0, -3.0, -4.0],
        "g": [0.0, 1.0, 3.0, 1.0, 0.0],
    }
    path = tmp_path / "chain_b_gen.json"
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    lines = open(path).read().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_load_model_file_roundtrip(tmp_path):
    mf = load_model_file(write_chain_a(tmp_path))
    assert mf.model.n_states == 2
    np.testing.assert_allclose(mf.f, CHAIN_A_F)
    np.testing.assert_allclose(mf.g, CHAIN_A_G)


def test_load_model_file_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_model_file(str(path))


def test_load_model_file_rejects_both_matrices(tmp_path):
    path = tmp_path / "both.json"
    path.write_text(json.dumps({
        "states": ["a"], "kernel": [[1.0]], "generator": [[0.0]], "dt": 1.0,
    }))
    with pytest.raises(ParseError):
        load_model_file(str(path))


def test_solve_command(tmp_path, capsys):
    model = write_chain_a(tmp_path)
    out = str(tmp_path / "out")
    code = run(["solve", "--model", model, "--horizon", "3", "--out", out])
    assert code == 0
    header, rows = read_csv(os.path.join(out, "surface.csv"))
    assert header == ["state", "k", "w_k", "stop_flag"]
    values = {(r[0], int(r[1])): float(r[2]) for r in rows}
    assert values[("0", 3)] == pytest.approx(7.84)
    assert values[("1", 3)] == pytest.approx(5.0)
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["command"] == "solve"
    assert len(manifest["model_digest"]) == 64


def test_solve_outputs_are_byte_identical(tmp_path):
    model = write_chain_a(tmp_path)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert run(["solve", "--model", model, "--horizon", "5", "--out", out1]) == 0
    assert run(["solve", "--model", model, "--horizon", "5", "--out", out2]) == 0
    for name in ("surface.csv", "diagnostics.json"):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b


def test_solve_infinite_command(tmp_path):
    model = write_chain_a(tmp_path)
    out = str(tmp_path / "out")
    code = run([
        "solve-infinite", "--model", model, "--out", out, "--eps", "6.0",
    ])
    assert code == 0
    header, rows = read_csv(os.path.join(out, "values.csv"))
    assert header == ["state", "w", "stop", "gamma", "Z", "expected_tau", "stop_eps"]
    by_state = {r[0]: r for r in rows}
    assert float(by_state["0"][1]) == pytest.approx(10.0)
    assert by_state["0"][2] == "0" and by_state["1"][2] == "1"
    assert by_state["0"][6] == "0"  # eps = 6 does not reach state 0
    cert = json.load(open(os.path.join(out, "certification.json")))
    assert cert["certified"] is True


def test_solve_infinite_drift_verdict_exit_2(tmp_path):
    model = write_chain_a(tmp_path, f=[1.0, 1.0])
    out = str(tmp_path / "out")
    code = run(["solve-infinite", "--model", model, "--out", out])
    assert code == 2
    verdict = json.load(open(os.path.join(out, "verdict.json")))
    assert verdict["verdict"] == "DriftNotNegative"


@pytest.mark.parametrize(
    "module, name, value, argv",
    [
        (montecarlo, "_MAX_BLOCKS", 1,
         ["simulate", "--region", "1", "--horizons", "4,8", "--paths", "200"]),
        (markov, "STATIONARY_TOL", -1.0, ["solve-infinite"]),
    ],
    ids=["simulation-step-budget", "stationary-residual"],
)
def test_numerical_failure_exit_3(tmp_path, monkeypatch, capsys, module, name, value, argv):
    # state 0 holds with probability 0.99: most paths need more than 64 steps
    path = tmp_path / "sticky.json"
    path.write_text(json.dumps({
        "states": ["0", "1"], "kernel": [[0.99, 0.01], [0.2, 0.8]], "dt": 1.0,
        "f": [-1.0, -4.0], "g": [0.0, 5.0],
    }))
    monkeypatch.setattr(module, name, value)
    out = str(tmp_path / "out")
    assert run([*argv, "--model", str(path), "--out", out]) == 3
    verdict = json.load(open(os.path.join(out, "verdict.json")))
    assert verdict["verdict"] == "NumericalFailure"
    assert "NumericalFailure" in capsys.readouterr().err


def test_singular_solve_exit_3(tmp_path, monkeypatch, capsys):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    out = str(tmp_path / "out")
    assert run(["solve-infinite", "--model", write_chain_a(tmp_path), "--out", out]) == 3
    verdict = json.load(open(os.path.join(out, "verdict.json")))
    assert verdict["verdict"] == "NumericalFailure"
    assert "Singular matrix" in verdict["message"]
    assert "NumericalFailure" in capsys.readouterr().err


def test_unwritable_out_exit_1(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "sub")
    assert run(["solve-infinite", "--model", write_chain_a(tmp_path), "--out", out]) == 1
    assert "IoError" in capsys.readouterr().err


def test_input_error_exit_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[]")
    assert run(["solve", "--model", str(path), "--horizon", "2"]) == 1
    missing = str(tmp_path / "nope.json")
    assert run(["solve", "--model", missing, "--horizon", "2"]) == 1


def test_horizon_must_sit_on_grid(tmp_path):
    model = write_chain_a(tmp_path)
    assert run(["solve", "--model", model, "--horizon", "2.5"]) == 1


def test_dt_override_conflicts_with_kernel_model(tmp_path):
    model = write_chain_a(tmp_path)
    assert run(["solve", "--model", model, "--horizon", "2", "--dt", "0.5"]) == 1


def test_dt_override_allowed_for_generator_model(tmp_path):
    model = write_chain_b_generator(tmp_path, dt=0.4)
    out = str(tmp_path / "out")
    code = run([
        "solve-infinite", "--model", model, "--dt", "0.2", "--out", out,
    ])
    assert code == 0
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["config"]["dt"] == 0.2


def test_oracle_check_command(tmp_path):
    model = write_chain_a(tmp_path)
    out = str(tmp_path / "out")
    assert run(["oracle-check", "--model", model, "--out", out]) == 0
    rec = json.load(open(os.path.join(out, "oracle_check.json")))
    assert rec["agree"] is True
    assert rec["max_diff"] <= 1e-8


def test_diagnose_poisson(tmp_path):
    model = write_chain_a(tmp_path)
    out = str(tmp_path / "out")
    assert run(["diagnose", "--check", "poisson", "--model", model, "--out", out]) == 0
    header, rows = read_csv(os.path.join(out, "zero_potential.csv"))
    q = {r[0]: float(r[1]) for r in rows}
    assert q["0"] == pytest.approx(20 / 3)
    rec = json.load(open(os.path.join(out, "poisson.json")))
    assert rec["residual"] <= 1e-10


def test_diagnose_tv(tmp_path):
    model = write_chain_a(tmp_path)
    out = str(tmp_path / "out")
    assert run([
        "diagnose", "--check", "tv", "--model", model, "--max-time", "10",
        "--out", out,
    ]) == 0
    fit = json.load(open(os.path.join(out, "ergodic_fit.json")))
    assert fit["a2_plausible"] is True
    assert abs(fit["tail_ratio"] - 0.4) < 1e-6


def test_diagnose_dynkin(tmp_path):
    model = write_chain_a(tmp_path)
    out = str(tmp_path / "out")
    assert run([
        "diagnose", "--check", "dynkin", "--model", model, "--region", "1",
        "--start", "0", "--cap", "50", "--paths", "20000", "--seed", "3",
        "--out", out,
    ]) == 0
    rec = json.load(open(os.path.join(out, "dynkin.json")))
    assert rec["verdict"] == "PASS"
    assert rec["reference"] == pytest.approx(20 / 3)


def test_simulate_command(tmp_path):
    model = write_chain_a(tmp_path)
    out = str(tmp_path / "out")
    assert run([
        "simulate", "--model", model, "--region", "1", "--start", "0",
        "--horizons", "4,8,16", "--paths", "5000", "--seed", "5", "--out", out,
    ]) == 0
    verdicts = json.load(open(os.path.join(out, "verdicts.json")))
    assert verdicts["truncation_verdict"] == "PASS"
    header, rows = read_csv(os.path.join(out, "estimates.csv"))
    assert header[0] == "horizon" and len(rows) == 3


def test_compactify_command(tmp_path):
    path = tmp_path / "chain_b.json"
    path.write_text(json.dumps({
        "states": [str(i) for i in range(5)],
        "kernel": CHAIN_B_KERNEL,
        "dt": 1.0,
        "coords": CHAIN_B_COORDS,
        "f": [-3.0, -3.0, -3.0, 1.0, 1.0],
    }))
    out = str(tmp_path / "out")
    assert run(["compactify", "--model", str(path), "--out", out]) == 0
    rec = json.load(open(os.path.join(out, "summary.json")))
    assert rec["mu_f_bar"] <= rec["mu_f"] / 2


def test_emit_report_empty_table(tmp_path):
    paths = emit_report({"empty": (("a", "b"), [])}, str(tmp_path), "csv")
    content = open(paths[0]).read()
    assert content == "a,b\n"


def test_report_minus_infinity_token(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ("v",), [(-np.inf,)])
    assert open(path).read().splitlines()[1] == "-inf"
    paths = emit_report({"rec": {"v": -np.inf}}, str(tmp_path), "json")
    assert json.load(open(paths[0]))["v"] == "-inf"


def test_report_seventeen_digit_roundtrip(tmp_path):
    value = 1 / 3 + 1e-16
    path = tmp_path / "r.csv"
    write_csv(str(path), ("v",), [(value,)])
    back = float(open(path).read().splitlines()[1])
    assert back == value


def test_json_format_tables(tmp_path):
    model = write_chain_a(tmp_path)
    out = str(tmp_path / "out")
    assert run([
        "solve", "--model", model, "--horizon", "2", "--out", out,
        "--format", "json",
    ]) == 0
    rows = json.load(open(os.path.join(out, "surface.json")))
    assert rows[0]["state"] == "0" and "w_k" in rows[0]
