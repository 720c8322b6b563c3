import json
import os
from pathlib import Path

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


def read_json(path):
    return json.loads(Path(path).read_text())


def read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
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


@pytest.mark.parametrize(
    "states",
    [["a", "a"], [1, "1"], [1, 1.0], ["a,b", "c"], ["x\ny", "z"], ["x\ry", "z"],
     [[1, 2], "c"], [{"a": 1}, "c"], [None, "c"], [True, "c"]],
    ids=["duplicate", "duplicate-int-str", "duplicate-int-float", "comma",
         "newline", "carriage-return", "list", "object", "null", "bool"],
)
def test_load_model_file_rejects_state_names_that_break_tables(tmp_path, states):
    path = tmp_path / "names.json"
    path.write_text(json.dumps({
        "states": states, "kernel": CHAIN_A_KERNEL, "dt": 1.0,
        "f": list(CHAIN_A_F), "g": list(CHAIN_A_G),
    }))
    with pytest.raises(ParseError):
        load_model_file(str(path))
    out = str(tmp_path / "out")
    assert run(["solve-infinite", "--model", str(path), "--out", out]) == 1
    assert not os.path.exists(out)


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
    manifest = read_json(os.path.join(out, "manifest.json"))
    assert manifest["command"] == "solve"
    assert len(manifest["model_digest"]) == 64


def test_solve_outputs_are_byte_identical(tmp_path):
    model = write_chain_a(tmp_path)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert run(["solve", "--model", model, "--horizon", "5", "--out", out1]) == 0
    assert run(["solve", "--model", model, "--horizon", "5", "--out", out2]) == 0
    for name in ("surface.csv", "diagnostics.json"):
        a = Path(out1, name).read_bytes()
        b = Path(out2, name).read_bytes()
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
    cert = read_json(os.path.join(out, "certification.json"))
    assert cert["certified"] is True


def test_solve_infinite_drift_verdict_exit_2(tmp_path):
    model = write_chain_a(tmp_path, f=[1.0, 1.0])
    out = str(tmp_path / "out")
    code = run(["solve-infinite", "--model", model, "--out", out])
    assert code == 2
    verdict = read_json(os.path.join(out, "verdict.json"))
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
    verdict = read_json(os.path.join(out, "verdict.json"))
    assert verdict["verdict"] == "NumericalFailure"
    assert "NumericalFailure" in capsys.readouterr().err


def test_singular_solve_exit_3(tmp_path, monkeypatch, capsys):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    out = str(tmp_path / "out")
    assert run(["solve-infinite", "--model", write_chain_a(tmp_path), "--out", out]) == 3
    verdict = read_json(os.path.join(out, "verdict.json"))
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
    manifest = read_json(os.path.join(out, "manifest.json"))
    assert manifest["config"]["dt"] == 0.2


def test_oracle_check_command(tmp_path):
    model = write_chain_a(tmp_path)
    out = str(tmp_path / "out")
    assert run(["oracle-check", "--model", model, "--out", out]) == 0
    rec = read_json(os.path.join(out, "oracle_check.json"))
    assert rec["agree"] is True
    assert rec["max_diff"] <= 1e-8


def test_diagnose_poisson(tmp_path):
    model = write_chain_a(tmp_path)
    out = str(tmp_path / "out")
    assert run(["diagnose", "--check", "poisson", "--model", model, "--out", out]) == 0
    header, rows = read_csv(os.path.join(out, "zero_potential.csv"))
    q = {r[0]: float(r[1]) for r in rows}
    assert q["0"] == pytest.approx(20 / 3)
    rec = read_json(os.path.join(out, "poisson.json"))
    assert rec["residual"] <= 1e-10


def test_diagnose_tv(tmp_path):
    model = write_chain_a(tmp_path)
    out = str(tmp_path / "out")
    assert run([
        "diagnose", "--check", "tv", "--model", model, "--max-time", "10",
        "--out", out,
    ]) == 0
    fit = read_json(os.path.join(out, "ergodic_fit.json"))
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
    rec = read_json(os.path.join(out, "dynkin.json"))
    assert rec["verdict"] == "PASS"
    assert rec["reference"] == pytest.approx(20 / 3)


def test_simulate_command(tmp_path):
    model = write_chain_a(tmp_path)
    out = str(tmp_path / "out")
    assert run([
        "simulate", "--model", model, "--region", "1", "--start", "0",
        "--horizons", "4,8,16", "--paths", "5000", "--seed", "5", "--out", out,
    ]) == 0
    verdicts = read_json(os.path.join(out, "verdicts.json"))
    assert verdicts["truncation_verdict"] == "PASS"
    header, rows = read_csv(os.path.join(out, "estimates.csv"))
    assert header[0] == "horizon" and len(rows) == 3


@pytest.mark.parametrize("seed, code", [("-1", 1), ("4294967295", 0)])
def test_simulate_seed_domain(tmp_path, capsys, seed, code):
    # the truncation gap draws from seed + 1, here 2**32: two entropy words
    model = write_chain_a(tmp_path)
    assert run([
        "simulate", "--model", model, "--region", "1", "--horizons", "4,8",
        "--paths", "50", "--seed", seed, "--out", str(tmp_path / "out"),
    ]) == code
    if code:
        assert "non-negative" in capsys.readouterr().err


def write_named_chain_a(tmp_path, states):
    path = tmp_path / "named.json"
    path.write_text(json.dumps({
        "states": states, "kernel": CHAIN_A_KERNEL, "dt": 1.0,
        "f": list(CHAIN_A_F), "g": list(CHAIN_A_G),
    }))
    return str(path)


@pytest.mark.parametrize("token", ["0.1", "0.10000000000000001", "1"])
def test_state_tokens_match_str_or_table_text(tmp_path, token):
    model = write_named_chain_a(tmp_path, [0.1, "b"])
    out = tmp_path / "out"
    assert run(["diagnose", "--check", "tv", "--model", model, "--probe", token,
                "--max-time", "2", "--out", str(out)]) == 0
    expected = "b" if token == "1" else "0.10000000000000001"
    _, rows = read_csv(out / "tv_curve.csv")
    assert {row[0] for row in rows} == {expected}


def test_state_token_naming_two_states_is_refused(tmp_path, capsys):
    # 1.0 is written "1" in tables, but str(1.0) is the name of the other state
    model = write_named_chain_a(tmp_path, [1.0, "1.0"])
    argv = ["diagnose", "--check", "tv", "--model", model, "--max-time", "2"]
    assert run([*argv, "--probe", "1.0", "--out", str(tmp_path / "a")]) == 1
    assert "ParseError" in capsys.readouterr().err
    assert run([*argv, "--probe", "1", "--out", str(tmp_path / "b")]) == 0
    _, rows = read_csv(tmp_path / "b" / "tv_curve.csv")
    assert {row[0] for row in rows} == {"1"}


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
    rec = read_json(os.path.join(out, "summary.json"))
    assert rec["mu_f_bar"] <= rec["mu_f"] / 2


def test_emit_report_empty_table(tmp_path):
    paths = emit_report({"empty": (("a", "b"), [])}, str(tmp_path), "csv")
    content = Path(paths[0]).read_text()
    assert content == "a,b\n"


def test_report_minus_infinity_token(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ("v",), [(-np.inf,)])
    assert Path(path).read_text().splitlines()[1] == "-inf"
    paths = emit_report({"rec": {"v": -np.inf}}, str(tmp_path), "json")
    assert read_json(paths[0])["v"] == "-inf"


def test_report_seventeen_digit_roundtrip(tmp_path):
    value = 1 / 3 + 1e-16
    path = tmp_path / "r.csv"
    write_csv(str(path), ("v",), [(value,)])
    back = float(Path(path).read_text().splitlines()[1])
    assert back == value


def test_json_format_tables(tmp_path):
    model = write_chain_a(tmp_path)
    out = str(tmp_path / "out")
    assert run([
        "solve", "--model", model, "--horizon", "2", "--out", out,
        "--format", "json",
    ]) == 0
    rows = read_json(os.path.join(out, "surface.json"))
    assert rows[0]["state"] == "0" and "w_k" in rows[0]
