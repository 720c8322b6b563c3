"""Deterministic model corpus for the benchmark, written as CLI model files.

The walks and chains A and B are fixed; the ``rand-n`` kernels, their
rewards and every ``--seed`` handed to the CLI derive from the workload seed.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# Chains A and B of the test suite (tests/conftest.py).
CHAIN_A = {
    "states": ["0", "1"],
    "kernel": [[0.6, 0.4], [0.2, 0.8]],
    "dt": 1.0,
    "f": [2.0, -4.0],
    "g": [0.0, 5.0],
}
CHAIN_B = {
    "states": [str(i) for i in range(5)],
    "kernel": [
        [0.75, 0.25, 0.0, 0.0, 0.0],
        [0.25, 0.50, 0.25, 0.0, 0.0],
        [0.0, 0.25, 0.50, 0.25, 0.0],
        [0.0, 0.0, 0.25, 0.50, 0.25],
        [0.0, 0.0, 0.0, 0.25, 0.75],
    ],
    "dt": 1.0,
    "coords": [[0.0], [1.0], [2.0], [3.0], [4.0]],
    "f": [2.0, 1.0, -1.0, -3.0, -4.0],
    "g": [0.0, 1.0, 3.0, 1.0, 0.0],
}


def walk(n: int) -> dict:
    """Lazy reflecting walk: hold 1/2, step +-1 with 1/4 each (the blocked
    step holds at the ends); f = -1.2 on the left half, +0.3 on the right
    half, g = 5 sin(x / 7). The invariant law is uniform, so mu(f) = -0.45."""
    P = np.zeros((n, n))
    for x in range(n):
        P[x, x] = 0.5
        P[x, max(x - 1, 0)] += 0.25
        P[x, min(x + 1, n - 1)] += 0.25
    return {
        "states": [str(x) for x in range(n)],
        "kernel": P.tolist(),
        "dt": 1.0,
        "coords": [[float(x)] for x in range(n)],
        "f": [-1.2 if x < n // 2 else 0.3 for x in range(n)],
        "g": [5.0 * math.sin(x / 7.0) for x in range(n)],
    }


def random_model(rng: np.random.Generator, n: int) -> dict:
    """Strictly positive dense kernel with rewards conditioned on mu(f) < 0,
    drawn in the order of ``random_chain`` then ``random_rewards`` in
    tests/conftest.py."""
    P = rng.gamma(1.0, size=(n, n)) + 1e-3
    P /= P.sum(axis=1, keepdims=True)
    mix = 0.05 + 0.1 * rng.random()
    P = (1.0 - mix) * P + mix / n
    dt = float(rng.choice((0.5, 1.0, 2.0)))
    P /= P.sum(axis=1)[:, None]          # the renormalization build_dtmc applies
    mu = _stationary(P)
    f = rng.normal(0.0, 2.0, n)
    margin = 0.3 + 1.7 * rng.random()
    f = f - float(mu @ f) - margin
    g = rng.normal(0.0, 3.0, n)
    return {
        "states": [str(x) for x in range(n)],
        "kernel": P.tolist(),
        "dt": dt,
        "f": f.tolist(),
        "g": g.tolist(),
    }


def _stationary(P: np.ndarray) -> np.ndarray:
    n = P.shape[0]
    A = P.T - np.eye(n)
    A[0, :] = 1.0
    b = np.zeros(n)
    b[0] = 1.0
    mu = np.linalg.solve(A, b)
    return mu / mu.sum()


def build_corpus(seed: int, names, out_dir: str) -> dict:
    """Write the named models ("walk-100", "rand-50", "chain-a", ...) to
    ``out_dir``; returns name -> path. The rand models are drawn in sorted
    name order from one generator keyed by ``seed``."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, 0x5EED])
    paths = {}
    for name in sorted(set(names)):
        kind, _, size = name.partition("-")
        if kind == "walk":
            model = walk(int(size))
        elif kind == "rand":
            model = random_model(rng, int(size))
        elif name == "chain-a":
            model = CHAIN_A
        elif name == "chain-b":
            model = CHAIN_B
        else:
            raise ValueError(f"unknown corpus model {name!r}")
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(model, fh)
        paths[name] = path
    return paths
