"""Running-max tails and taboo probabilities against the augmented-chain oracle.

The solver reads P^x{max_{k<=T} m(X_k) >= c} as an exit probability of the
sublevel set {m < c}; the oracle steps the states x levels augmented chain
forward from each start. The two share no code.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ergostop import (
    b_family_diagnostics,
    build_dtmc,
    expected_running_max,
    truncation_gap_bound,
)
from ergostop.cli import run
from ergostop.rewards import RewardSpec
from oracles import augmented_b3_tail, augmented_zeta_tail, submatrix_survival

RTOL = 1e-12


def _random_kernel(rng, n):
    """Dense or sparse rows; some draws carry absorbing states, so many are
    reducible."""
    P = rng.gamma(1.0, size=(n, n)) * (rng.random((n, n)) < rng.random())
    P[np.arange(n), rng.integers(0, n, n)] += 0.05
    for a in np.flatnonzero(rng.random(n) < 0.15):
        P[a] = 0.0
        P[a, a] = 1.0
    return P / P.sum(axis=1, keepdims=True)


def _random_g(rng, n):
    """Half the draws take few values (tied levels, zeros among them)."""
    if rng.random() < 0.5:
        return rng.integers(-3, 4, n) * 1.5
    return rng.normal(0.0, 3.0, n)


def _thresholds(g_abs):
    levels = np.unique(g_abs)
    mid = 0.5 * (levels[0] + levels[-1])
    return [-np.inf, 0.0, mid, float(levels[-1]), float(levels[-1]) + 1.0]


def _check_against_oracle(P, g, T):
    n = len(g)
    model = build_dtmc(list(range(n)), P)
    rewards = RewardSpec(f=np.zeros(n), g=np.asarray(g, dtype=float), mu_f=0.0)
    g_abs = np.abs(rewards.g)
    thresholds = _thresholds(g_abs)
    ref = np.array(
        [augmented_zeta_tail(model.kernel, g_abs, x, T, thresholds) for x in range(n)]
    )
    for j, c in enumerate(thresholds):
        got = truncation_gap_bound(model, rewards, T, c)
        np.testing.assert_allclose(got, ref[:, j], rtol=RTOL, atol=0)
    np.testing.assert_allclose(
        expected_running_max(model, g_abs, T), ref[:, 0], rtol=RTOL, atol=0
    )


def test_running_max_matches_augmented_chain():
    rng = np.random.default_rng(808)
    for _ in range(120):
        n = int(rng.integers(1, 31))
        _check_against_oracle(
            _random_kernel(rng, n), _random_g(rng, n), int(rng.integers(0, 12))
        )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_running_max_identity_property(data):
    n = data.draw(st.integers(1, 12))
    weights = np.array(
        data.draw(st.lists(st.integers(0, 4), min_size=n * n, max_size=n * n)),
        dtype=float,
    ).reshape(n, n)
    weights[weights.sum(axis=1) == 0, 0] = 1.0
    g = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    T = data.draw(st.integers(0, 8))
    _check_against_oracle(weights / weights.sum(axis=1, keepdims=True), g, T)


def test_b_family_matches_augmented_chain():
    rng = np.random.default_rng(809)
    for _ in range(40):
        n = int(rng.integers(1, 21))
        P = _random_kernel(rng, n)
        coords = rng.integers(-3, 4, size=(n, int(rng.integers(1, 3)))).astype(float)
        model = build_dtmc(list(range(n)), P, coords=coords.tolist())
        g = _random_g(rng, n)
        rewards = RewardSpec(f=np.zeros(n), g=g, mu_f=0.0)
        T = int(rng.integers(0, 8))
        order = rng.permutation(n)
        cuts = np.sort(rng.choice(np.arange(1, n + 1), int(rng.integers(1, 4))))
        nested = [np.isin(np.arange(n), order[:c]) for c in np.append(cuts, n)]
        probe = nested[0] & (rng.random(n) < 0.7)
        probe[order[0]] = True
        rep = b_family_diagnostics(model, rewards, T, nested, probe)

        g_abs = np.abs(g)
        rows = np.flatnonzero(probe)
        zeta = np.array([
            augmented_zeta_tail(model.kernel, g_abs, y, T, rep.thresholds)
            for y in rows
        ]).max(axis=0)
        np.testing.assert_allclose(rep.zeta_tail, zeta, rtol=RTOL, atol=0)
        norms = np.linalg.norm(model.coords, axis=1)
        b3 = np.array([
            augmented_b3_tail(model.kernel, norms, g_abs, y, T) for y in rows
        ]).max(axis=0)
        np.testing.assert_allclose(rep.b3_tail, b3, rtol=RTOL, atol=0)

        # b1 and b2 come from taboo survivals; the reference takes
        # differences of survivals and 1 - survival, which cancel to about
        # one ulp of 1, so an absolute slack of that size is allowed
        slack = 1e-14 * max(float(g_abs.max()), 1.0)
        gam = [submatrix_survival(model.kernel, m, T) for m in nested]
        inc = [np.max((b - a)[probe]) for a, b in zip([np.zeros(n)] + gam, gam)]
        b1 = np.maximum(inc, 0.0) * [g_abs[m].max() for m in nested]
        np.testing.assert_allclose(rep.b1_terms, b1, rtol=RTOL, atol=slack)
        b2 = [
            g_abs[s].max() * (1.0 - submatrix_survival(model.kernel, ~s, T))[probe].max()
            for s in rep.shell_sets
        ]
        np.testing.assert_allclose(rep.b2_terms, b2, rtol=RTOL, atol=slack)


def _walk(n):
    """Lazy reflecting walk with g = 5 sin(x / 7), so |g| takes about n levels."""
    P = np.zeros((n, n))
    for x in range(n):
        P[x, x] = 0.5
        P[x, max(x - 1, 0)] += 0.25
        P[x, min(x + 1, n - 1)] += 0.25
    return {
        "states": [str(x) for x in range(n)],
        "kernel": P.tolist(),
        "dt": 1.0,
        "f": [-1.2 if x < n // 2 else 0.3 for x in range(n)],
        "g": [5.0 * np.sin(x / 7.0) for x in range(n)],
    }


def test_walk_500_truncated_solve_bounds_the_gap(tmp_path):
    path = tmp_path / "walk500.json"
    path.write_text(json.dumps(_walk(500)))
    argv = ["solve", "--model", str(path), "--horizon", "8"]
    assert run([*argv, "--out", str(tmp_path / "plain")]) == 0
    assert run([*argv, "--truncate", "2", "--out", str(tmp_path / "cut")]) == 0

    def final_surface(out):
        table = np.loadtxt(tmp_path / out / "surface.csv", delimiter=",", skiprows=1)
        return table[table[:, 1] == 8, 2]

    gap = np.abs(final_surface("plain") - final_surface("cut"))
    diag = json.loads((tmp_path / "cut" / "diagnostics.json").read_text())
    bounds = np.array(diag["truncation_gap_bounds"])
    assert bounds.shape == (500,)
    assert (gap <= bounds + 1e-12).all()
    assert gap.max() > 0.0
