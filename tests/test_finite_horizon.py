import numpy as np
import pytest

from conftest import random_chain, random_rewards
from ergostop import (
    b_family_diagnostics,
    build_dtmc,
    check_supermartingale,
    expected_running_max,
    make_rewards,
    solve_finite_horizon,
    solve_truncated,
    stationary_distribution,
    stopped_potential_exact,
    survival_probability,
    truncation_gap_bound,
)
from ergostop.errors import BadNesting
from oracles import exhaustive_finite_horizon, rule_forward_reach


def test_strictly_losing_running_reward_stops_immediately(chain_a):
    rewards = make_rewards(chain_a, [-1.0, -1.0], [0.0, 0.0])
    sol = solve_finite_horizon(chain_a, rewards, 5)
    np.testing.assert_allclose(sol.surface, 0.0, atol=0)
    assert sol.rule.all()


def test_zero_horizon_surface_is_terminal_reward(chain_a, chain_a_rewards):
    sol = solve_finite_horizon(chain_a, chain_a_rewards, 0)
    np.testing.assert_allclose(sol.surface[0], chain_a_rewards.g)
    assert sol.rule[0].all()


def test_chain_a_horizon_three_matches_enumeration(chain_a, chain_a_rewards):
    sol = solve_finite_horizon(chain_a, chain_a_rewards, 3)
    w, _ = exhaustive_finite_horizon(chain_a, chain_a_rewards.f, chain_a_rewards.g, 3)
    np.testing.assert_allclose(sol.surface[3], w, atol=1e-12)
    np.testing.assert_allclose(sol.surface[3], [7.84, 5.0], atol=1e-12)


def test_oracle_equivalence_on_corpus():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        T = int(rng.integers(0, 5))
        m = random_chain(rng, n)
        rw = random_rewards(m, rng)
        sol = solve_finite_horizon(m, rw, T)
        w, _ = exhaustive_finite_horizon(m, rw.f, rw.g, T)
        np.testing.assert_allclose(sol.surface[T], w, atol=1e-9)


def test_dynamic_programming_consistency(chain_b, chain_b_rewards):
    long = solve_finite_horizon(chain_b, chain_b_rewards, 12)
    short = solve_finite_horizon(chain_b, chain_b_rewards, 5)
    np.testing.assert_array_equal(long.surface[:6], short.surface)


def test_surface_dominates_terminal_reward(chain_b, chain_b_rewards):
    sol = solve_finite_horizon(chain_b, chain_b_rewards, 10)
    assert (sol.surface >= chain_b_rewards.g[None, :] - 1e-12).all()


def test_reported_rule_realizes_smallest_optimal_stopping_time():
    # against the set of all optimal grid rules: wherever an optimal rule
    # stops at a reachable (time, state) pair, the reported rule stops too
    rng = np.random.default_rng(23)
    for _ in range(12):
        n, T = 2, int(rng.integers(1, 4))
        m = random_chain(rng, n)
        rw = random_rewards(m, rng)
        sol = solve_finite_horizon(m, rw, T)
        w, per_rule = exhaustive_finite_horizon(m, rw.f, rw.g, T)
        optimal_codes = np.flatnonzero((per_rule >= w[None, :] - 1e-9).all(axis=1))
        # reported rule with k remaining = decision at time T - k
        reported = sol.rule[::-1]
        for code in optimal_codes:
            bits = np.array(
                [(code >> (j * n + x)) & 1 for j in range(T) for x in range(n)],
                dtype=bool,
            ).reshape(T, n)
            for start in range(n):
                reached = rule_forward_reach(m, bits, start, T)
                stops = bits & reached[:T]
                assert not np.any(stops & ~reported[:T])


def test_enlarging_tie_tolerance_only_enlarges_stop_sets(chain_b, chain_b_rewards):
    sol = solve_finite_horizon(chain_b, chain_b_rewards, 8)
    for k in range(9):
        loose = chain_b_rewards.g >= sol.surface[k] - 1e-3
        assert not np.any(sol.rule[k] & ~loose)


def test_truncation_inactive_when_level_exceeds_reward(chain_a, chain_a_rewards):
    plain = solve_finite_horizon(chain_a, chain_a_rewards, 6)
    clamped = solve_truncated(chain_a, chain_a_rewards, 6, n=5.0)
    np.testing.assert_array_equal(plain.surface, clamped.surface)
    assert clamped.truncation_level == 5.0


def test_truncation_level_zero(chain_a, chain_a_rewards):
    zeroed = solve_truncated(chain_a, chain_a_rewards, 4, n=0.0)
    ref = solve_finite_horizon(
        chain_a, make_rewards(chain_a, chain_a_rewards.f, [0.0, 0.0]), 4
    )
    np.testing.assert_array_equal(zeroed.surface, ref.surface)


def test_truncation_level_nan_is_refused(chain_a, chain_a_rewards):
    with pytest.raises(ValueError, match="truncation level"):
        solve_truncated(chain_a, chain_a_rewards, 4, n=float("nan"))


def test_chain_a_truncation_sandwich(chain_a, chain_a_rewards):
    T = 6
    plain = solve_finite_horizon(chain_a, chain_a_rewards, T)
    clamped = solve_truncated(chain_a, chain_a_rewards, T, n=3.0)
    assert (clamped.surface[T] <= plain.surface[T] + 1e-12).all()
    for x in range(2):
        bound = truncation_gap_bound(chain_a, chain_a_rewards, T, 3.0)[x]
        assert abs(plain.surface[T, x] - clamped.surface[T, x]) <= bound + 1e-12


def test_truncation_gap_bound_examples(chain_a, chain_a_rewards):
    assert truncation_gap_bound(chain_a, chain_a_rewards, 5, 5.0)[0] == 0.0
    # zero horizon: |g(start)| 1{|g(start)| > n}
    assert truncation_gap_bound(chain_a, chain_a_rewards, 0, 3.0)[1] == 5.0
    assert truncation_gap_bound(chain_a, chain_a_rewards, 0, 3.0)[0] == 0.0
    # two-step path enumeration oracle: 5 * (1 - 0.6^2) = 3.2
    assert truncation_gap_bound(chain_a, chain_a_rewards, 2, 3.0)[0] == pytest.approx(
        3.2, abs=1e-12
    )


def test_truncation_sandwich_on_corpus():
    rng = np.random.default_rng(29)
    for _ in range(25):
        m = random_chain(rng, int(rng.integers(2, 6)))
        rw = random_rewards(m, rng)
        T = int(rng.integers(1, 6))
        plain = solve_finite_horizon(m, rw, T)
        levels = np.quantile(np.abs(rw.g), [0.0, 0.4, 0.8, 1.0])
        for n in levels:
            clamped = solve_truncated(m, rw, T, float(n))
            for x in range(m.n_states):
                bound = truncation_gap_bound(m, rw, T, float(n))[x]
                gap = abs(plain.surface[T, x] - clamped.surface[T, x])
                assert gap <= bound + 1e-9


def test_supermartingale_strictly_losing(chain_a):
    rewards = make_rewards(chain_a, [-1.0, -1.0], [0.0, 0.0])
    sol = solve_finite_horizon(chain_a, rewards, 4)
    rep = check_supermartingale(chain_a, rewards, sol)
    assert rep.ok
    assert rep.max_residual == pytest.approx(-1.0)  # continuing always loses dt
    assert rep.max_continuation_gap == 0.0


def test_supermartingale_chain_a(chain_a, chain_a_rewards):
    sol = solve_finite_horizon(chain_a, chain_a_rewards, 3)
    rep = check_supermartingale(chain_a, chain_a_rewards, sol)
    assert rep.ok and rep.max_continuation_gap <= 1e-10


def test_supermartingale_fails_closed_on_a_nan_residual(chain_a, chain_a_rewards):
    sol = solve_finite_horizon(chain_a, chain_a_rewards, 3)
    sol.surface[2, 0] = np.nan
    rep = check_supermartingale(chain_a, chain_a_rewards, sol)
    assert not rep.ok
    assert np.isnan(rep.max_residual)


def test_supermartingale_on_corpus():
    rng = np.random.default_rng(41)
    for _ in range(20):
        m = random_chain(rng, int(rng.integers(2, 7)))
        rw = random_rewards(m, rng)
        sol = solve_finite_horizon(m, rw, int(rng.integers(1, 8)))
        rep = check_supermartingale(m, rw, sol)
        assert rep.ok


def test_value_magnitude_bound(chain_b, chain_b_rewards):
    # |w_k(x)| <= ||f|| T + max_x E^x[zeta_T]
    T = 9
    sol = solve_finite_horizon(chain_b, chain_b_rewards, T)
    zeta = max(
        expected_running_max(chain_b, np.abs(chain_b_rewards.g), T)[x]
        for x in range(chain_b.n_states)
    )
    bound = np.abs(chain_b_rewards.f).max() * T * chain_b.dt + zeta
    assert np.abs(sol.surface).max() <= bound + 1e-12


def test_survival_probability_chain_a(chain_a):
    inside = np.array([True, False])
    gamma2 = survival_probability(chain_a, inside, 2)
    assert gamma2[0] == pytest.approx(0.36, abs=1e-15)
    assert gamma2[1] == 0.0


def test_b_family_single_set(chain_a, chain_a_rewards):
    rep = b_family_diagnostics(
        chain_a, chain_a_rewards, 2, nested_sets=[[0, 1]], probe_ball=[0, 1]
    )
    assert rep.b1_sum == pytest.approx(5.0)  # first shell carries max |g|
    assert rep.b2_sum == 0.0
    # a(n) vanishes once n clears max |g|
    assert rep.a[rep.thresholds >= 5.0].max() == 0.0


def test_b_family_chain_a_taboo(chain_a, chain_a_rewards):
    rep = b_family_diagnostics(
        chain_a, chain_a_rewards, 2, nested_sets=[[0], [0, 1]], probe_ball=[0]
    )
    assert len(rep.shell_sets) == 1
    # all tails nonincreasing in the threshold
    assert (np.diff(rep.zeta_tail) <= 1e-12).all()
    assert (np.diff(rep.a) <= 1e-12).all()
    # zeta tail at n just below 5 equals the two-step visit mass: 3.2
    idx = np.searchsorted(rep.thresholds, 0.0)
    assert rep.zeta_tail[idx] == pytest.approx(3.2, abs=1e-12)


def test_b_family_bad_nesting(chain_a, chain_a_rewards):
    with pytest.raises(BadNesting):
        b_family_diagnostics(chain_a, chain_a_rewards, 2, [[1], [0]], [1])
    with pytest.raises(BadNesting):
        b_family_diagnostics(chain_a, chain_a_rewards, 2, [[0]], [0])
    with pytest.raises(BadNesting):
        b_family_diagnostics(chain_a, chain_a_rewards, 2, [[0], [0, 1]], [1])


def test_b_family_with_coords(chain_b, chain_b_rewards):
    rep = b_family_diagnostics(
        chain_b,
        chain_b_rewards,
        4,
        nested_sets=[[0, 1], [0, 1, 2, 3], [0, 1, 2, 3, 4]],
        probe_ball=[0, 1],
    )
    assert rep.b is not None and rep.b3_tail is not None
    # b nonincreasing in R
    assert (np.diff(rep.b, axis=1) <= 1e-12).all()
    assert (np.diff(rep.b3_tail) <= 1e-12).all()


@pytest.mark.parametrize(
    "call",
    [
        lambda m, r: survival_probability(m, [1, 2, 3], -2),
        lambda m, r: expected_running_max(m, r.g, -5),
        lambda m, r: truncation_gap_bound(m, r, -5, 1.0),
        lambda m, r: b_family_diagnostics(m, r, -5, [[2], list(range(5))], [2]),
        lambda m, r: stopped_potential_exact(
            m, r.f, stationary_distribution(m), r.g, [0], -3, 4
        ),
    ],
    ids=["survival", "running-max", "gap-bound", "b-family", "stopped-potential"],
)
def test_negative_step_count_is_refused(chain_b, chain_b_rewards, call):
    with pytest.raises(ValueError, match=">= 0"):
        call(chain_b, chain_b_rewards)
