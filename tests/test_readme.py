import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_runs_and_gives_its_commented_values():
    text = README.read_text()
    section = text[text.index("## Quickstart"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(block, "README.md Quickstart", "exec"), scope)
    model, sol, q, oracle = (scope[name] for name in ("model", "sol", "q", "oracle"))
    np.testing.assert_allclose(model.invariant.weights, [1 / 3, 2 / 3], atol=1e-14)
    np.testing.assert_allclose(sol.w, [10.0, 5.0], atol=1e-12)
    np.testing.assert_array_equal(sol.region, [False, True])
    assert sol.certified
    np.testing.assert_allclose(sol.expected_tau, [2.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(sol.Z, [13.5, 1.0], atol=1e-12)
    np.testing.assert_allclose(q, [20 / 3, -10 / 3], atol=1e-12)
    np.testing.assert_allclose(oracle.w, sol.w, atol=1e-12)
