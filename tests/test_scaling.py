"""Scaling f and g by 2^k is exact in floating point, so every solver output
that is linear in the rewards must scale bit for bit and every verdict must
stay the same. Only Z is exempt: its ``+ 1`` makes it affine, not linear.

The solvers measure each tolerance against the size of its own equation
(``markov.residual_tol``); an absolute tolerance would make the verdicts
depend on the units of the rewards.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_chain, random_rewards
from ergostop import (
    brute_force_region_oracle,
    build_dtmc,
    check_supermartingale,
    make_rewards,
    solve_finite_horizon,
    solve_infinite_horizon,
    zero_potential,
)

KS = (-40, -30, -20, -10, -1, 1, 10, 20, 30, 40)


def walk(n):
    """Lazy reflecting walk: hold 1/2, step +-1 with 1/4 each (the blocked
    step holds at the ends); f = -1.2 on the left half, 0.3 on the right,
    g = 5 sin(x / 7). Its invariant law is uniform, so mu(f) = -0.45."""
    x = np.arange(n)
    P = np.zeros((n, n))
    P[x, x] = 0.5
    np.add.at(P, (x, np.maximum(x - 1, 0)), 0.25)
    np.add.at(P, (x, np.minimum(x + 1, n - 1)), 0.25)
    model = build_dtmc(list(range(n)), P)
    return model, np.where(x < n // 2, -1.2, 0.3), 5.0 * np.sin(x / 7.0)


def dense(n, seed):
    rng = np.random.default_rng(seed)
    model = random_chain(rng, n)
    rewards = random_rewards(model, rng)
    return model, rewards.f, rewards.g


def _outputs(model, f, g, k):
    rewards = make_rewards(model, np.ldexp(f, k), np.ldexp(g, k))
    sol = solve_infinite_horizon(model, rewards)
    q = zero_potential(model, rewards.f).q
    fh = solve_finite_horizon(model, rewards, 64)
    ok = check_supermartingale(model, rewards, fh).ok
    return sol, q, fh, ok


@pytest.mark.parametrize("build", [lambda: walk(200), lambda: dense(200, 11)],
                         ids=["walk-200", "dense-200"])
def test_outputs_scale_exactly_with_the_rewards(build):
    model, f, g = build()
    sol, q, fh, ok = _outputs(model, f, g, 0)
    assert sol.certified and ok
    for k in KS:
        sol_k, q_k, fh_k, ok_k = _outputs(model, f, g, k)
        np.testing.assert_array_equal(sol_k.w, np.ldexp(sol.w, k), err_msg=f"w, k={k}")
        np.testing.assert_array_equal(sol_k.gamma, np.ldexp(sol.gamma, k), err_msg=f"k={k}")
        np.testing.assert_array_equal(sol_k.region, sol.region, err_msg=f"region, k={k}")
        np.testing.assert_array_equal(sol_k.expected_tau, sol.expected_tau, err_msg=f"k={k}")
        assert sol_k.certified == sol.certified, k
        assert sol_k.tie == np.ldexp(sol.tie, k), k
        np.testing.assert_array_equal(q_k, np.ldexp(q, k), err_msg=f"q, k={k}")
        np.testing.assert_array_equal(fh_k.surface, np.ldexp(fh.surface, k), err_msg=f"k={k}")
        np.testing.assert_array_equal(fh_k.rule, fh.rule, err_msg=f"rule, k={k}")
        assert ok_k == ok, k


@st.composite
def small_problems(draw):
    """A random irreducible chain of 2-12 states, dense or sparse, with
    rewards of negative invariant mean, and a scale exponent k."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = rng.gamma(1.0, size=(n, n))
    if draw(st.booleans()):
        P *= rng.random((n, n)) < 0.3
        P[np.arange(n), (np.arange(n) + 1) % n] += 0.5   # a cycle keeps it irreducible
    model = build_dtmc(list(range(n)), P / P.sum(axis=1, keepdims=True),
                       dt=float(rng.choice((0.5, 1.0, 2.0))))
    rewards = random_rewards(model, rng)
    return model, rewards.f, rewards.g, draw(st.integers(-40, 40))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(small_problems())
def test_small_chains_scale_exactly_and_match_the_oracle(problem):
    model, f, g, k = problem
    base = make_rewards(model, f, g)
    scaled = make_rewards(model, np.ldexp(f, k), np.ldexp(g, k))
    sol = solve_infinite_horizon(model, base)
    sol_k = solve_infinite_horizon(model, scaled)
    np.testing.assert_array_equal(sol_k.w, np.ldexp(sol.w, k))
    np.testing.assert_array_equal(sol_k.gamma, np.ldexp(sol.gamma, k))
    np.testing.assert_array_equal(sol_k.region, sol.region)
    np.testing.assert_array_equal(sol_k.expected_tau, sol.expected_tau)
    assert sol_k.certified == sol.certified
    for rewards, s in ((base, sol), (scaled, sol_k)):
        oracle = brute_force_region_oracle(model, rewards)
        assert np.max(np.abs(s.w - oracle.w)) <= s.tie
        np.testing.assert_array_equal(s.region, oracle.minimal_time_region)
