#!/usr/bin/env python3
"""Benchmark of the ergostop CLI: three closed-loop workloads run in-process.

Usage, from the repository root:

    python3 bench/run_bench.py --workload certify --seed 1 --seconds 10 --trace 0
    python3 bench/run_bench.py --workload all --seed 1

Each command goes through ``ergostop.cli.run(argv)`` on model files written
at set-up from the seed. Short passes repeat until ``--seconds`` have
elapsed (at least five); each command's best time over the passes is
reported, and exact outputs are compared byte for byte between passes.
``--trace 1`` alternates untraced and traced passes and reports the per-layer
self times of the fastest traced pass instead of the end-to-end metrics. The last line of standard
output is one JSON object; a results file with the environment record goes
to ``.bench_work/results/``. See bench/README.md.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: the plain single-threaded baseline. Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("certify", "horizon", "simulate")
# Five passes at least. The host's speed varies by tens of percent from second
# to second, and only slows a command down, so each command's best time over
# the passes is far steadier than its median or its time in any one pass.
MIN_PASSES = 5
# Fresh-interpreter import samples taken between the first passes (setup_s).
IMPORT_SAMPLES = 6
# No further pass starts once the run is predicted to end later than this,
# which keeps a run inside its time limit if the machine is slow.
DEADLINE_S = 150.0


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "ergostop", "cli.py")):
        sys.exit(f"run_bench: no ergostop sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import ergostop.cli
    if not os.path.abspath(ergostop.__file__).startswith(SRC + os.sep):
        sys.exit(f"run_bench: imported ergostop from {ergostop.__file__}, not {SRC}")


# -- the workloads -----------------------------------------------------------

CORPUS = {
    "certify": ("walk-30", "walk-100", "rand-50", "rand-200", "walk-12", "rand-12"),
    "horizon": ("walk-400", "walk-50", "walk-300"),
    "simulate": ("chain-a", "chain-b", "walk-200"),
}
# Models of the companion commands, written for every workload.
COMPANION_MODELS = ("walk-100", "walk-14", "chain-a", "chain-b")


class Op:
    """One CLI command of a pass, with the checks its outputs must meet."""

    def __init__(self, metric, argv, exact, check=None):
        self.metric = metric          # the cmd.* metric its time is charged to
        self.argv = argv              # without --out
        self.exact = exact            # exact-solver outputs: compared across passes
        self.check = check            # out_dir -> error text or None
        model = os.path.basename(argv[argv.index("--model") + 1])[: -len(".json")]
        self.label = f"{metric} {model}"


def _indices(states) -> str:
    return ",".join(str(i) for i in states)


def plan(workload: str, models: dict, refs: dict, seed: int) -> list[Op]:
    """The commands of one pass: the workload's own, then companions for
    every per-command metric the workload does not exercise, so every metric
    is measured on every workload."""
    import numpy as np
    cli_seeds = [int(s) for s in np.random.default_rng([seed, 1]).integers(0, 2**31 - 1, 4)]

    def m(name):
        return ["--model", models[name]]

    ops = []
    if workload == "certify":
        for name in ("walk-30", "walk-100", "rand-50", "rand-200"):
            ops.append(Op("cmd.solve_infinite_s", ["solve-infinite", *m(name)], True,
                          check_certified))
        for name in ("walk-12", "rand-12"):
            ops.append(Op("cmd.oracle_check_s", ["oracle-check", *m(name)], True,
                          check_oracle))
    elif workload == "horizon":
        ops += [
            Op("cmd.solve_s", ["solve", *m("walk-400"), "--horizon", "256"], True,
               check_supermartingale),
            Op("cmd.diagnose_poisson_s", ["diagnose", *m("walk-400"), "--check", "poisson"],
               True, check_poisson),
            Op("cmd.solve_truncate_s",
               ["solve", *m("walk-50"), "--horizon", "32", "--truncate", "2"], True,
               check_supermartingale),
            Op("cmd.diagnose_tv_s",
               ["diagnose", *m("walk-300"), "--check", "tv", "--max-time", "64"], True),
        ]
    elif workload == "simulate":
        for name, paths, horizons, s in (("chain-a", 20_000, "8,16,32,64", cli_seeds[0]),
                                         ("chain-b", 5_000, "32,64,128,256", cli_seeds[1])):
            region, w = refs[name]
            ops.append(Op("cmd.simulate_s",
                          ["simulate", *m(name), "--region", _indices(region), "--start", "0",
                           "--horizons", horizons, "--paths", str(paths), "--seed", str(s)],
                          False, simulate_check(w[0])))
        region_a, _ = refs["chain-a"]
        ops += [
            Op("cmd.diagnose_dynkin_s",
               ["diagnose", *m("chain-a"), "--check", "dynkin", "--region", _indices(region_a),
                "--start", "0", "--cap", "64", "--paths", "20000", "--seed", str(cli_seeds[2])],
               False, check_dynkin),
            Op("cmd.diagnose_dynkin_s",
               ["diagnose", *m("walk-200"), "--check", "dynkin", "--region",
                _indices(range(40)), "--start", "40", "--cap", "128", "--paths", "5000",
                "--seed", str(cli_seeds[3])],
               False, check_dynkin),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    covered = {op.metric for op in ops}
    return ops + [op for op in companions(models, refs, cli_seeds[0])
                  if op.metric not in covered]


def companions(models: dict, refs: dict, cli_seed: int) -> list[Op]:
    """Small instances of every command. They measure each command's fixed
    cost on workloads built to stress something else; the Monte Carlo ones
    start inside the stop region (simulate) or cap tau at zero (dynkin), so
    their verdicts are exact, not statistical."""
    region_a, w_a = refs["chain-a"]
    start_a = int(region_a[0])
    return [
        Op("cmd.solve_infinite_s", ["solve-infinite", "--model", models["chain-b"]], True,
           check_certified),
        Op("cmd.oracle_check_s", ["oracle-check", "--model", models["chain-b"]], True,
           check_oracle),
        Op("cmd.solve_s", ["solve", "--model", models["walk-100"], "--horizon", "64"], True,
           check_supermartingale),
        Op("cmd.solve_truncate_s",
           ["solve", "--model", models["walk-14"], "--horizon", "16", "--truncate", "2"], True,
           check_supermartingale),
        Op("cmd.diagnose_poisson_s",
           ["diagnose", "--model", models["walk-100"], "--check", "poisson"], True,
           check_poisson),
        Op("cmd.diagnose_tv_s",
           ["diagnose", "--model", models["walk-100"], "--check", "tv", "--max-time", "32"],
           True),
        Op("cmd.simulate_s",
           ["simulate", "--model", models["chain-a"], "--region", _indices(region_a),
            "--start", str(start_a), "--horizons", "8,16,32,64", "--paths", "500",
            "--seed", str(cli_seed)],
           False, simulate_check(w_a[start_a])),
        Op("cmd.diagnose_dynkin_s",
           ["diagnose", "--model", models["walk-100"], "--check", "dynkin", "--region",
            _indices(range(20)), "--start", "20", "--cap", "0", "--paths", "2000",
            "--seed", str(cli_seed)],
           False, check_dynkin),
    ]


CMD_METRICS = ("cmd.solve_infinite_s", "cmd.oracle_check_s", "cmd.solve_s",
               "cmd.solve_truncate_s", "cmd.diagnose_poisson_s", "cmd.diagnose_tv_s",
               "cmd.simulate_s", "cmd.diagnose_dynkin_s")


# -- output checks -----------------------------------------------------------

def _json(out, name):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def _csv(out, name):
    with open(os.path.join(out, name)) as fh:
        header, *rows = [line.rstrip("\n").split(",") for line in fh]
    return [dict(zip(header, row)) for row in rows]


def check_certified(out):
    cert = _json(out, "certification.json")
    if cert["certified"] is not True:
        return "not certified"
    if not float(cert["fixed_point_residual"]) <= 1e-9:
        return f"fixed_point_residual {cert['fixed_point_residual']} > 1e-9"
    for row in _csv(out, "values.csv"):
        if float(row["expected_tau"]) > float(row["Z"]) + 1e-9:
            return f"expected_tau {row['expected_tau']} > Z {row['Z']} at {row['state']}"
    return None


def check_oracle(out):
    return None if _json(out, "oracle_check.json")["agree"] is True else "oracle disagrees"


def check_supermartingale(out):
    return None if _json(out, "diagnostics.json")["ok"] is True else "supermartingale not ok"


def check_poisson(out):
    residual = float(_json(out, "poisson.json")["residual"])
    return None if residual <= 1e-10 else f"Poisson residual {residual} > 1e-10"


def check_dynkin(out):
    verdict = _json(out, "dynkin.json")["verdict"]
    return None if verdict == "PASS" else f"dynkin verdict {verdict}"


def simulate_check(w_start: float):
    """Both verdicts PASS, and the estimates at the two largest horizons lie
    within 3 standard errors of the certified value at the start state."""
    def check(out):
        verdicts = _json(out, "verdicts.json")
        for key in ("functional_verdict", "truncation_verdict"):
            if verdicts[key] != "PASS":
                return f"{key} {verdicts[key]}"
        for row in _csv(out, "estimates.csv")[-2:]:
            est, se = float(row["estimate"]), float(row["std_error"])
            if abs(est - w_start) > 3.0 * se:
                return f"estimate {est} at horizon {row['horizon']} is {w_start} +- >3 SE {se}"
        return None
    return check


def _output_digests(out) -> dict:
    """SHA-256 of every output file except the manifest, which holds timing."""
    digests = {}
    for name in sorted(os.listdir(out)):
        if name != "manifest.json":
            with open(os.path.join(out, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _output_bytes(out) -> int:
    return sum(os.path.getsize(os.path.join(out, name))
               for name in os.listdir(out) if name != "manifest.json")


# -- set-up, passes, metrics --------------------------------------------------

def set_up(workload: str, seed: int, models_dir: str):
    """Write the corpus and solve the exact references the checks need."""
    import numpy as np
    import corpus
    from ergostop import build_dtmc, make_rewards, solve_infinite_horizon

    models = corpus.build_corpus(seed, COMPANION_MODELS + CORPUS[workload], models_dir)
    refs = {}
    for name, spec in (("chain-a", corpus.CHAIN_A), ("chain-b", corpus.CHAIN_B)):
        model = build_dtmc(spec["states"], spec["kernel"], dt=spec["dt"])
        sol = solve_infinite_horizon(model, make_rewards(model, spec["f"], spec["g"]))
        if not sol.certified:
            raise RuntimeError(f"reference solve of {name} not certified")
        refs[name] = (np.flatnonzero(sol.region).tolist(), sol.w.tolist())
    return models, refs


def import_sample() -> float:
    """Seconds a fresh interpreter takes for the imports this process made
    before its first set-up: the standard modules, numpy and the program."""
    code = ("import time; t0 = time.perf_counter(); import sys; "
            f"sys.path[:0] = [{SRC!r}, {BENCH_DIR!r}]; "
            "import argparse, json, numpy, ergostop.cli; print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    return float(proc.stdout)


def run_op(op: Op, out_dir: str):
    """Run one command through ergostop.cli.run; returns (seconds, error)."""
    from ergostop import cli
    argv = [*op.argv, "--out", out_dir]
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.run(argv)
    except Exception as exc:  # an escaping exception is a failed operation
        return time.perf_counter() - t0, f"exception {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if code != 0:
        return seconds, f"exit code {code}: {sink.getvalue().strip()[-300:]}"
    return seconds, None


def run_pass(ops: list[Op], pass_dir: str) -> dict:
    """Run every op once in a closed loop; checks come after the timed loop."""
    gc.collect()
    times, errors = [], []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        seconds, error = run_op(op, os.path.join(pass_dir, str(i)))
        times.append(seconds)
        errors.append(error)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "times": times, "errors": errors}


def verify_pass(ops, pass_dir, result, first_digests) -> None:
    """Fill in each op's check result, comparing exact outputs with pass 1."""
    result["bytes"] = 0
    result["certifications"] = []
    for i, op in enumerate(ops):
        out = os.path.join(pass_dir, str(i))
        if result["errors"][i] is not None:
            continue
        try:
            error = op.check(out) if op.check else None
            if error is None and op.exact:
                digests = _output_digests(out)
                first = first_digests.setdefault(i, digests)
                if digests != first:
                    error = "exact outputs differ from the first pass: " + ", ".join(
                        k for k in sorted(set(first) | set(digests))
                        if first.get(k) != digests.get(k))
            result["bytes"] += _output_bytes(out)
            if op.argv[0] == "solve-infinite":
                result["certifications"].append(_json(out, "certification.json"))
        except (OSError, ValueError, KeyError) as exc:
            error = f"unreadable output: {type(exc).__name__}: {exc}"
        result["errors"][i] = error
    shutil.rmtree(pass_dir, ignore_errors=True)


def cmd_totals(ops, best) -> dict:
    """Per-command metric: the sum of its commands' best times in a pass."""
    totals = dict.fromkeys(CMD_METRICS, 0.0)
    for op, seconds in zip(ops, best):
        totals[op.metric] += seconds
    return totals


def certification_counts(result) -> dict:
    from ergostop import infinite_horizon
    cap = getattr(infinite_horizon, "MAX_VALUE_ITER", None)
    certs = result["certifications"]
    return {
        "infinite_horizon.vi_sweeps": sum(int(c["iterations"]) for c in certs),
        "infinite_horizon.vi_capped": sum(int(c["iterations"]) == cap for c in certs),
        "infinite_horizon.residual_max": max(
            (float(c["fixed_point_residual"]) for c in certs), default=0.0),
    }


def environment(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception as exc:  # the record must not stop the run
        blas = f"unavailable: {exc}"
    src_digest = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(os.path.join(SRC, "ergostop"))):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src_digest.update(name.encode() + fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "git_sha": _git_sha(),
        "src_sha256": src_digest.hexdigest(),
    }


def _git_sha():
    """HEAD of the checkout, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


# printed in the table beside the declared metrics
EXTRA_UNITS = {"ops_failed_frac": "1", "ops": "count"}


def run_workload(args) -> dict:
    imports = [time.perf_counter() - T_START]
    run_dir = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    setups = []

    def timed_set_up():
        t0 = time.perf_counter()
        models_refs = set_up(args.workload, args.seed, os.path.join(run_dir, "models"))
        setups.append(time.perf_counter() - t0)
        return models_refs

    try:
        models, refs = timed_set_up()
        ops = plan(args.workload, models, refs, args.seed)

        passes, first_digests = [], {}
        t_loop = time.perf_counter()
        while True:
            # a traced run alternates untraced and traced passes
            traced = args.trace == 1 and len(passes) % 2 == 1
            pass_dir = os.path.join(run_dir, f"pass{len(passes)}")
            if traced:
                from layertrace import Tracer
                with Tracer() as tracer:
                    result = run_pass(ops, pass_dir)
                result["layers"] = tracer.metrics()
                result["missing_functions"] = tracer.missing
            else:
                result = run_pass(ops, pass_dir)
            result["traced"] = traced
            verify_pass(ops, pass_dir, result, first_digests)
            passes.append(result)
            # Set-up and the imports are repeated between passes, set-up
            # rewriting the same files, so their samples are spread over the
            # run like the passes are: back-to-back samples would all see the
            # host's speed of the same moment.
            timed_set_up()
            if len(imports) < IMPORT_SAMPLES:
                imports.append(import_sample())
            if args.trace == 1 and not traced:
                continue
            if time.perf_counter() - T_START + result["wall_s"] > DEADLINE_S:
                break
            if len(passes) >= MIN_PASSES and time.perf_counter() - t_loop >= args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(len(p["errors"]) for p in passes)
    failures = [{"pass": k, "op": ops[i].label, "error": e}
                for k, p in enumerate(passes) for i, e in enumerate(p["errors"]) if e]
    untraced = [p for p in passes if not p["traced"]]
    best = [min(p["times"][i] for p in untraced) for i in range(len(ops))]
    e2e = {
        "setup_s": min(imports) + min(setups),
        # a pass runs its commands back to back, each at its best time here
        "wall_s": sum(best),
        **cmd_totals(ops, best),
        "ops_failed_frac": len(failures) / attempted,
        "ops": attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = {
        "environment": environment(args),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "end_to_end": e2e,
        "passes": [{"wall_s": p["wall_s"], "traced": p["traced"],
                    "ops": [{"label": op.label, "metric": op.metric, "seconds": s,
                             "error": e} for op, s, e in zip(ops, p["times"], p["errors"])]}
                   for p in passes],
        "setup_runs_s": setups,
        "import_runs_s": imports,
    }
    if args.trace == 1:
        # the layers of the fastest traced pass, against the fastest untraced one
        traced = min((p for p in passes if p["traced"]), key=lambda p: p["wall_s"])
        layer = dict(traced["layers"])
        layer.update(certification_counts(traced))
        layer["report.bytes"] = traced["bytes"]
        self_total = sum(v for k, v in traced["layers"].items() if k.endswith(".self_s"))
        layer["traced_wall_s"] = traced["wall_s"]
        layer["unattributed_s"] = traced["wall_s"] - self_total
        layer["trace_overhead_s"] = traced["wall_s"] - min(p["wall_s"] for p in untraced)
        record["per_layer"] = layer
        record["missing_functions"] = traced["missing_functions"]
    return record


def load_units() -> dict:
    """Units of every metric BENCHMARK.json declares, plus EXTRA_UNITS."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {**EXTRA_UNITS, **{m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}}


def print_table(title: str, values: dict, units: dict) -> None:
    print(f"== {title}")
    for name, value in values.items():
        print(f"  {name:40s} {value:>16.6g} {units.get(name, '')}")


def result_line(record: dict, trace: int, units: dict) -> dict:
    source = record["per_layer"] if trace else record["end_to_end"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in source.items() if name not in EXTRA_UNITS},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if args.workload == "all":
        return run_all(args)
    _import_program()
    record = run_workload(args)
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
    units = load_units()
    for failure in record["failures"]:
        print(f"FAILED pass {failure['pass']} {failure['op']}: {failure['error']}")
    print_table(f"{args.workload} end to end"
                + (" (untraced pass of the traced run)" if args.trace else ""),
                record["end_to_end"], units)
    if args.trace:
        print_table(f"{args.workload} per layer (traced pass)", record["per_layer"], units)
        if record["missing_functions"]:
            print("stage functions not found:", ", ".join(record["missing_functions"]))
    print(f"results: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result_line(record, args.trace, units)))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is per workload."""
    lines = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in lines.values()),
        "attempted": sum(r["attempted"] for r in lines.values()),
        "failed": sum(r["failed"] for r in lines.values()),
        "metrics": {f"{w}/{name}": m for w, r in lines.items()
                    for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
