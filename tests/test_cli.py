import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    CHAIN_A_F,
    CHAIN_A_G,
    CHAIN_A_KERNEL,
    CHAIN_B_COORDS,
    CHAIN_B_F,
    CHAIN_B_G,
    CHAIN_B_KERNEL,
    chain_b_generator_rows,
)
from ergostop import build_dtmc, cli, ergodicity, infinite_horizon, markov, montecarlo
from ergostop.cli import run
from ergostop.errors import ParseError
from ergostop.modelio import load_model_file
from ergostop.report import emit_report, write_table
from oracles import exhaustive_finite_horizon, taboo_power_gap


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


@pytest.mark.parametrize(
    "field, value",
    [("dt", True), ("kernel", [[True, 0.0], [0.2, 0.8]]),
     ("generator", [[-1.0, True], [1.0, -1.0]]), ("coords", [[0.0], [True]]),
     ("f", [True, -4.0]), ("g", [0.0, False]), ("f", ["2", -4.0])],
    ids=["dt", "kernel", "generator", "coords", "f", "g", "f-string"],
)
def test_load_model_file_refuses_non_numbers_in_numeric_fields(tmp_path, capsys, field, value):
    payload = {"states": ["0", "1"], "kernel": CHAIN_A_KERNEL, "dt": 1.0,
               "f": list(CHAIN_A_F), "g": list(CHAIN_A_G), field: value}
    if field == "generator":
        del payload["kernel"]
    path = tmp_path / "bools.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ParseError, match=f"'{field}' holds a value that is not a number"):
        load_model_file(str(path))
    out = str(tmp_path / "out")
    assert run(["solve-infinite", "--model", str(path), "--out", out]) == 1
    assert "ParseError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "depth, message",
    [(600, "dimension"), (100_000, "arrays nest too deeply")],
    ids=["numeric-check", "json-load"],
)
def test_deeply_nested_arrays_are_refused(tmp_path, capsys, depth, message):
    # json.load raises RecursionError on the deeper; the shallower passes it
    # and the numeric check, and numpy refuses its 600 dimensions
    path = tmp_path / "deep.json"
    path.write_text('{"states": ["0", "1"], "dt": 1.0, "kernel": '
                    + "[" * depth + "]" * depth + "}")
    with pytest.raises(ParseError, match=message):
        load_model_file(str(path))
    assert run(["solve-infinite", "--model", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "ParseError" in capsys.readouterr().err


def test_coords_with_more_than_two_dimensions_are_refused(tmp_path, capsys):
    path = tmp_path / "cube.json"
    path.write_text(json.dumps({
        "states": ["0", "1"], "kernel": CHAIN_A_KERNEL, "dt": 1.0,
        "coords": [[[0.0]], [[1.0]]], "f": list(CHAIN_A_F), "g": list(CHAIN_A_G),
    }))
    with pytest.raises(ParseError, match="coords"):
        load_model_file(str(path))
    assert run(["compactify", "--model", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "ParseError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, text",
    [("kernel", "[[NaN, 0.4], [0.2, 0.8]]"), ("dt", "Infinity"), ("dt", "NaN"),
     ("generator", "[[-1.0, 1.0], [NaN, -1.0]]"), ("coords", "[[0.0], [NaN]]"),
     ("f", "[-Infinity, -4.0]"), ("g", "[0.0, NaN]")],
    ids=["kernel", "dt-inf", "dt-nan", "generator", "coords", "f", "g"],
)
def test_non_finite_json_tokens_are_refused(tmp_path, capsys, field, text):
    # Python's json module reads NaN and Infinity as numbers unless told not to
    payload = {"states": ["0", "1"], "kernel": CHAIN_A_KERNEL, "dt": 1.0,
               "f": list(CHAIN_A_F), "g": list(CHAIN_A_G), field: "TOKEN"}
    if field == "generator":
        del payload["kernel"]
    path = tmp_path / "tokens.json"
    path.write_text(json.dumps(payload).replace('"TOKEN"', text))
    with pytest.raises(ParseError, match="is not a JSON number"):
        load_model_file(str(path))
    out = str(tmp_path / "out")
    for command in (["solve", "--horizon", "2"], ["solve-infinite"]):
        assert run([*command, "--model", str(path), "--out", out]) == 1
        assert "ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["dt", "kernel", "generator", "coords", "f", "g"])
def test_overflowing_number_literals_are_refused(tmp_path, capsys, field):
    # 1e999 is a valid JSON number that Python reads as inf
    payload = {"states": ["0", "1"], "kernel": [[0.6, 0.4], [0.2, 0.8]], "dt": 1.0,
               "coords": [[0.0], [1.0]], "f": list(CHAIN_A_F), "g": list(CHAIN_A_G)}
    if field == "generator":
        payload["generator"] = [[-1.0, 1.0], [1.0, -1.0]]
        del payload["kernel"]
    text = re.sub(r"-?\d+\.\d+", "1e999", json.dumps(payload[field]), count=1)
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({**payload, field: "TOKEN"}).replace('"TOKEN"', text))
    with pytest.raises(ParseError, match="finite"):
        load_model_file(str(path))
    for command in ("solve-infinite", "compactify"):
        assert run([command, "--model", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "ParseError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["solve", "--horizon", "4", "--truncate", "nan"], ["solve-infinite", "--eps", "nan"]],
    ids=["truncate", "eps"],
)
def test_nan_levels_are_refused(tmp_path, capsys, argv):
    out = str(tmp_path / "out")
    assert run([*argv, "--model", write_chain_a(tmp_path), "--out", out]) == 1
    assert "must be >= 0" in capsys.readouterr().err


def test_ragged_reward_field_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps({"states": ["0", "1"], "kernel": CHAIN_A_KERNEL,
                                "dt": 1.0, "f": [1, [2]], "g": list(CHAIN_A_G)}))
    with pytest.raises(ParseError, match="'f' must have one number per state"):
        load_model_file(str(path))
    assert run(["solve-infinite", "--model", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "ParseError" in err and str(path) in err and "'f'" in err


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


def test_solve_infinite_bound_violation_exit_2(tmp_path, monkeypatch):
    # gamma = 0 puts Z(0) = (3 - 0 + 1) / 0.5 = 8 below E^0[tau*] = 24 on chain B
    path = tmp_path / "chain_b.json"
    path.write_text(json.dumps({
        "states": [str(i) for i in range(5)], "kernel": CHAIN_B_KERNEL, "dt": 1.0,
        "f": [2.0, 1.0, -1.0, -3.0, -4.0], "g": [0.0, 1.0, 3.0, 1.0, 0.0],
    }))
    monkeypatch.setattr(infinite_horizon, "_gamma", lambda model, *args: np.zeros(5))
    out = str(tmp_path / "out")
    assert run(["solve-infinite", "--model", str(path), "--out", out]) == 2
    verdict = read_json(os.path.join(out, "verdict.json"))
    assert verdict["verdict"] == "BoundViolated"
    assert "expected_tau[0] = 24" in verdict["message"]
    assert not os.path.exists(os.path.join(out, "values.csv"))


@pytest.mark.parametrize(
    "module, name, value, argv",
    [
        (markov, "STATIONARY_TOL", -1.0, ["solve-infinite"]),
        (markov, "REL_TOL", -1.0, ["diagnose", "--check", "poisson"]),
    ],
    ids=["stationary-residual", "poisson-residual"],
)
def test_numerical_failure_exit_3(tmp_path, monkeypatch, capsys, module, name, value, argv):
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


def test_periodic_poisson_is_a_verdict_exit_2(tmp_path):
    path = tmp_path / "flip.json"
    path.write_text(json.dumps({
        "states": ["0", "1"], "kernel": [[0.0, 1.0], [1.0, 0.0]], "dt": 1.0,
        "f": [1.0, -3.0],
    }))
    out = str(tmp_path / "out")
    assert run(["diagnose", "--check", "poisson", "--model", str(path), "--out", out]) == 2
    assert read_json(os.path.join(out, "verdict.json"))["verdict"] == "SingularSystem"


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--horizon", "nan"], "time nan is not finite"),
        (["diagnose", "--check", "tv", "--max-time", "inf"], "time inf is not finite"),
        (["simulate", "--region", "1", "--horizons", "8,nan"], "time nan is not finite"),
        (["simulate", "--region", "1", "--horizons", "1e30"], "time 1e+30 has too many steps"),
    ],
    ids=["solve-nan", "tv-inf", "simulate-nan", "simulate-1e30"],
)
def test_times_off_the_int64_grid_exit_1(tmp_path, capsys, argv, message):
    out = str(tmp_path / "out")
    assert run([*argv, "--model", write_chain_a(tmp_path), "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Warning" not in err


@pytest.mark.parametrize(
    "module, argv",
    [
        (cli, ["simulate", "--region", "1", "--horizons", "4,8"]),
        (ergodicity, ["diagnose", "--check", "dynkin", "--region", "1", "--cap", "8"]),
    ],
    ids=["simulate", "dynkin"],
)
def test_out_of_memory_exit_1(tmp_path, monkeypatch, capsys, module, argv):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 37.3 GiB for an array")

    monkeypatch.setattr(module, "estimate_functional", exhausted)
    out = str(tmp_path / "out")
    assert run([*argv, "--model", write_chain_a(tmp_path), "--out", out]) == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 37.3 GiB for an array\n"


def test_simulate_refuses_an_unreachable_region_before_sampling(tmp_path, monkeypatch):
    # two closed pairs: from state 0 the chain never reaches state 2
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps({
        "states": ["0", "1", "2", "3"], "dt": 1.0,
        "kernel": [[0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5], [0, 0, 0.5, 0.5]],
        "f": [-1.0, -1.0, -1.0, -1.0], "g": [0.0, 0.0, 1.0, 0.0],
    }))

    def sampled(*args, **kwargs):
        raise AssertionError("paths sampled for an unreachable region")

    monkeypatch.setattr(montecarlo, "simulate_block", sampled)
    out = str(tmp_path / "out")
    assert run(["simulate", "--model", str(path), "--region", "2", "--start", "0",
                "--horizons", "1000,200000", "--paths", "2000", "--out", out]) == 2
    verdict = read_json(os.path.join(out, "verdict.json"))
    assert verdict["verdict"] == "UnreachableRegion"
    assert verdict["message"] == ("region is missed with positive probability from start; "
                                  "the hitting time is not integrable")
    assert not os.path.exists(os.path.join(out, "estimates.csv"))


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


def _write_walk(tmp_path, n):
    """The benchmark corpus's lazy reflecting walk with its rewards."""
    P = 0.5 * np.eye(n)
    for x in range(n):
        P[x, max(x - 1, 0)] += 0.25
        P[x, min(x + 1, n - 1)] += 0.25
    x = np.arange(n)
    path = tmp_path / f"walk-{n}.json"
    path.write_text(json.dumps({
        "states": [str(i) for i in x], "kernel": P.tolist(), "dt": 1.0,
        "f": np.where(x < n // 2, -1.2, 0.3).tolist(), "g": (5.0 * np.sin(x / 7.0)).tolist(),
    }))
    return str(path)


def test_oracle_check_refuses_too_many_states_before_solving(tmp_path, monkeypatch,
                                                             capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the solver must not run on a model the oracle refuses")

    monkeypatch.setattr(cli, "solve_infinite_horizon", refuse)
    out = tmp_path / "out"
    assert run(["oracle-check", "--model", _write_walk(tmp_path, 21), "--out", str(out)]) == 1
    assert "TooManyStates" in capsys.readouterr().err
    assert not (out / "oracle_check.json").exists()


def _write_one_state(tmp_path):
    path = tmp_path / "one-state.json"
    path.write_text(json.dumps({
        "states": ["s"], "kernel": [[1.0]], "dt": 1.0, "f": [-1.0], "g": [2.0],
    }))
    return str(path)


@pytest.mark.parametrize("write", [lambda tmp: _write_walk(tmp, 14), _write_one_state],
                         ids=["walk-14", "one-state"])
def test_oracle_check_beyond_one_block_and_on_one_state(tmp_path, write):
    # walk-14's middle size group, C(14, 7) = 3432 regions, spans several
    # blocks; on one state only the stop-everywhere region exists, unsolved
    out = str(tmp_path / "out")
    assert run(["oracle-check", "--model", write(tmp_path), "--out", out]) == 0
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


@pytest.mark.parametrize(
    "flag, value", [("--max-time", "0"), ("--probe", "")], ids=["max-time-0", "empty-probe"]
)
def test_diagnose_tv_refuses_an_empty_window_or_probe_list(tmp_path, capsys, flag, value):
    # a given value is used even when it is falsy: no silent default
    model = write_chain_a(tmp_path)
    out = str(tmp_path / "out")
    assert run(["diagnose", "--check", "tv", "--model", model, flag, value, "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("probe", ["0,0", "b,1", "1,b,0"], ids=["index-twice", "name-and-index", "three"])
def test_diagnose_tv_refuses_a_probe_named_twice(tmp_path, capsys, probe):
    # one state probed twice would write its TV rows twice and fit two K
    model = tmp_path / "chain_a.json"
    model.write_text(json.dumps({"states": ["a", "b"], "kernel": CHAIN_A_KERNEL, "dt": 1.0}))
    out = tmp_path / "out"
    argv = ["diagnose", "--check", "tv", "--model", str(model), "--probe", probe,
            "--out", str(out)]
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("error: ParseError: ")
    assert not out.exists()


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


def test_simulate_chain_b_truncation_gap_is_exact(tmp_path):
    # region {3, 4} from state 0: the gap columns are the dense taboo-power
    # values, whatever the seed and path count
    path = tmp_path / "chain_b.json"
    path.write_text(json.dumps({
        "states": [str(i) for i in range(5)], "kernel": CHAIN_B_KERNEL, "dt": 1.0,
        "f": list(CHAIN_B_F), "g": list(CHAIN_B_G),
    }))
    out = str(tmp_path / "out")
    assert run([
        "simulate", "--model", str(path), "--region", "3,4", "--start", "0",
        "--horizons", "32,64,128,256", "--paths", "2000", "--seed", "9", "--out", out,
    ]) == 0
    assert read_json(os.path.join(out, "verdicts.json"))["truncation_verdict"] == "PASS"
    header, rows = read_csv(os.path.join(out, "estimates.csv"))
    table = dict(zip(header, np.array(rows, dtype=float).T))
    kernel, mask = np.array(CHAIN_B_KERNEL), np.arange(5) >= 3
    steps = [32, 64, 128, 256]
    capped, gminus = taboo_power_gap(kernel, 1.0, CHAIN_B_F, CHAIN_B_G, mask, steps)
    # the uncapped value from the full-size system (I - diag(~R) P) v = ~R f + R g
    system = np.eye(5) - ~mask[:, None] * kernel
    value = np.linalg.solve(system, np.where(mask, CHAIN_B_G, CHAIN_B_F))
    tol = 1e-12 * (np.abs(CHAIN_B_F).max() * steps[-1] + np.abs(value).max())
    np.testing.assert_allclose(table["gminus_term"], gminus[:, 0], rtol=0.0, atol=tol)
    np.testing.assert_allclose(table["cap_gap"], np.abs(capped[:, 0] - value[0]), rtol=0.0, atol=tol)


@pytest.mark.parametrize("seed, code", [("-1", 1), ("4294967295", 0)])
def test_simulate_seed_domain(tmp_path, capsys, seed, code):
    # the largest seed the streams take
    model = write_chain_a(tmp_path)
    assert run([
        "simulate", "--model", model, "--region", "1", "--horizons", "4,8",
        "--paths", "50", "--seed", seed, "--out", str(tmp_path / "out"),
    ]) == code
    if code:
        assert "non-negative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--horizon", "2"], "required: --model"),
        (["solve", "--model", "{model}", "--horizon", "abc"], "argument --horizon"),
        (["frobnicate", "--model", "{model}"], "invalid choice: 'frobnicate'"),
        ([], "required: command"),
        *[(["simulate", "--model", "{model}", "--region", "1", "--start", start,
            "--horizons", "4", "--seed", "-1"],
           "argument --seed: expected a non-negative integer, got -1") for start in "10"],
        *[(["diagnose", "--check", "dynkin", "--model", "{model}", "--region", "1",
            "--start", start, "--seed", "-5"], "argument --seed") for start in "10"],
        (["--help"], None),
        (["--version"], None),
    ],
    ids=["no-model", "horizon-abc", "unknown-command", "no-command",
         "simulate-seed-in-region", "simulate-seed", "dynkin-seed-in-region", "dynkin-seed",
         "help", "version"],
)
def test_malformed_command_line_exit_1(tmp_path, monkeypatch, capsys, argv, message):
    model = write_chain_a(tmp_path)
    monkeypatch.chdir(tmp_path)
    code = run([arg.format(model=model) for arg in argv])
    if message is None:
        assert code == 0 and capsys.readouterr().out
    else:
        assert code == 1 and message in capsys.readouterr().err
        assert not (tmp_path / "ergostop-out").exists()


@pytest.mark.parametrize(
    "start, cap, paths",
    [("1", "8", "0"), ("1", "8", "-3"), ("0", "0", "0"), ("0", "0", "-3"), ("0", "8", "0")],
    ids=["in-region-0", "in-region-negative", "cap-0-0", "cap-0-negative", "sampled-0"],
)
def test_dynkin_refuses_a_path_count_below_one(tmp_path, capsys, start, cap, paths):
    # the exact shortcut (start in the region, or cap 0) refuses it too
    out = tmp_path / "out"
    assert run([
        "diagnose", "--check", "dynkin", "--model", write_chain_a(tmp_path), "--region", "1",
        "--start", start, "--cap", cap, "--paths", paths, "--out", str(out),
    ]) == 1
    assert "n_paths must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--region", "1", "--horizons", "4", "--start", "0,1"],
        ["diagnose", "--check", "dynkin", "--region", "1", "--start", "0,1"],
        ["compactify", "--center", "0,1"],
    ],
    ids=["simulate-start", "dynkin-start", "compactify-center"],
)
def test_flag_naming_several_states_is_refused(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run([*argv, "--model", write_chain_a(tmp_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "ParseError" in err and f"{argv[-2]} takes one state, got '0,1'" in err
    assert not out.exists()


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


@pytest.mark.parametrize(
    "argv, passes",
    [(["solve-infinite"], 1), (["oracle-check"], 1), (["diagnose", "--check", "poisson"], 1),
     (["diagnose", "--check", "tv"], 1),
     (["diagnose", "--check", "dynkin", "--region", "1", "--paths", "50"], 1),
     (["compactify"], 1), (["solve", "--horizon", "4"], 0),
     (["simulate", "--region", "1", "--horizons", "4,8", "--paths", "50"], 0)],
    ids=["solve-infinite", "oracle-check", "poisson", "tv", "dynkin", "compactify",
         "solve", "simulate"],
)
def test_one_graph_pass_per_command(tmp_path, monkeypatch, argv, passes):
    # the model caches its classes and period, so no command searches twice
    calls = []
    structure = markov.chain_structure

    def counted(kernel):
        calls.append(1)
        return structure(kernel)

    monkeypatch.setattr(markov, "chain_structure", counted)
    path = tmp_path / "chain_a.json"
    path.write_text(json.dumps({
        "states": ["0", "1"], "kernel": CHAIN_A_KERNEL, "dt": 1.0,
        "coords": [[0.0], [1.0]], "f": list(CHAIN_A_F), "g": list(CHAIN_A_G),
    }))
    assert run([*argv, "--model", str(path), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == passes


def test_emit_report_empty_table(tmp_path):
    paths = emit_report({"empty": (("a", "b"), [])}, str(tmp_path), "csv")
    content = Path(paths[0]).read_text()
    assert content == "a,b\n"


def test_report_minus_infinity_token(tmp_path):
    path = tmp_path / "t.csv"
    write_table(str(path), ("v",), [(-np.inf,)])
    assert Path(path).read_text().splitlines()[1] == "-inf"
    paths = emit_report({"rec": {"v": -np.inf}}, str(tmp_path), "json")
    assert read_json(paths[0])["v"] == "-inf"


def test_report_seventeen_digit_roundtrip(tmp_path):
    value = 1 / 3 + 1e-16
    path = tmp_path / "r.csv"
    write_table(str(path), ("v",), [(value,)])
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


# Two absorbing states 0 and 2: two recurrent classes, no unique invariant law.
TWO_CLASSES = {
    "states": ["0", "1", "2"],
    "kernel": [[1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]],
    "dt": 1.0,
    "f": [-1.0, 2.0, -0.5],
    "g": [3.0, 0.0, 1.0],
}


def test_solve_runs_on_two_recurrent_classes(tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps(TWO_CLASSES))
    out = str(tmp_path / "out")
    assert run(["solve", "--model", str(path), "--horizon", "4", "--out", out]) == 0
    _, rows = read_csv(os.path.join(out, "surface.csv"))
    surface = np.array([float(r[2]) for r in rows]).reshape(5, 3)
    model = build_dtmc(TWO_CLASSES["states"], TWO_CLASSES["kernel"])
    for k in range(5):
        w, _ = exhaustive_finite_horizon(model, TWO_CLASSES["f"], TWO_CLASSES["g"], k)
        np.testing.assert_array_equal(surface[k], w)


def test_simulate_runs_on_two_recurrent_classes(tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps(TWO_CLASSES))
    out = str(tmp_path / "out")
    assert run(["simulate", "--model", str(path), "--region", "0,2", "--start", "1",
                "--horizons", "1,2", "--paths", "200", "--out", out]) == 0
    verdicts = read_json(os.path.join(out, "verdicts.json"))
    assert verdicts["functional_verdict"] == verdicts["truncation_verdict"] == "PASS"
