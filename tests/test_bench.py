"""One pass of every benchmark workload, so the harness cannot rot unnoticed.

Runs the plan of ``bench/run_bench.py`` at workload seed 0 through the
harness's own set-up and command runner and applies its output checks; no
timing is asserted.
"""

import importlib.util
import os
from unittest import mock

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="module")
def run_bench():
    spec = importlib.util.spec_from_file_location(
        "run_bench", os.path.join(BENCH_DIR, "run_bench.py")
    )
    module = importlib.util.module_from_spec(spec)
    # the harness pins BLAS threads in os.environ on import
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["certify", "horizon", "simulate"])
def test_benchmark_workload_pass(run_bench, workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)  # set_up imports bench/corpus.py
    models, refs = run_bench.set_up(workload, 0, str(tmp_path / "models"))
    ops = run_bench.plan(workload, models, refs, 0)
    for i, op in enumerate(ops):
        out = str(tmp_path / str(i))
        _, error = run_bench.run_op(op, out)
        assert error is None, op.label
        assert op.check is None or op.check(out) is None, op.label
