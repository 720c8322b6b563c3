"""Acceptance suite: one test per criterion, each printing a PASS line with
its stated tolerance once the assertions clear. Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines."""

import numpy as np
import pytest

from conftest import (
    CHAIN_A_F,
    CHAIN_A_G,
    CHAIN_B_COORDS,
    CHAIN_B_F,
    CHAIN_B_G,
    chain_b_from_generator,
    random_chain,
    random_rewards,
)
from ergostop import (
    brute_force_region_oracle,
    build_dtmc,
    check_condition_S,
    check_supermartingale,
    compactify_running_reward,
    estimate_functional,
    make_rewards,
    region_value,
    solve_finite_horizon,
    solve_infinite_horizon,
    solve_truncated,
    stationary_distribution,
    stopped_potential_exact,
    stopping_rule_eps,
    stopping_time_bound,
    terminal_truncation_gap,
    truncation_gap_bound,
    verify_dynkin_identity,
    zero_potential,
)
from oracles import exhaustive_finite_horizon, series_zero_potential


def _corpus(seed, count, max_states, **reward_kwargs):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        model = random_chain(rng, int(rng.integers(2, max_states + 1)))
        yield model, random_rewards(model, rng, **reward_kwargs), rng


def test_criterion_1_zero_potential():
    count = 0
    for model, rewards, _ in _corpus(101, 110, 8):
        mu = stationary_distribution(model)
        zp = zero_potential(model, rewards.f, mu)
        assert zp.residual <= 1e-10
        assert zp.centred <= 1e-10
        count += 1
    assert count >= 100
    chain_a = build_dtmc([0, 1], [[0.6, 0.4], [0.2, 0.8]], dt=1.0)
    mu = stationary_distribution(chain_a)
    zp = zero_potential(chain_a, CHAIN_A_F, mu)
    oracle = series_zero_potential(chain_a, CHAIN_A_F, mu, k_max=200)
    assert np.max(np.abs(zp.q - oracle)) <= 1e-9
    print(f"criterion 1: PASS ({count} chains, residual/centred <= 1e-10, "
          "series oracle match 1e-9)")


def test_criterion_2_dynkin_identity():
    chain_a = build_dtmc([0, 1], [[0.6, 0.4], [0.2, 0.8]], dt=1.0)
    mu = stationary_distribution(chain_a)
    zp = zero_potential(chain_a, CHAIN_A_F, mu)
    report = verify_dynkin_identity(
        chain_a, zp, CHAIN_A_F, mu, [1], cap_steps=50, start=0,
        n_paths=100_000, seed=202,
    )
    assert report.verdict == "PASS"
    assert abs(report.estimate - report.reference) <= 3 * report.std_error
    exact = stopped_potential_exact(chain_a, CHAIN_A_F, mu, zp.q, [1], 50, 0)
    assert abs(exact - zp.q[0]) <= 1e-9
    print(f"criterion 2: PASS (MC z = {report.z_score:+.2f} within 3 se, "
          f"exact stopped identity gap {abs(exact - zp.q[0]):.2e} <= 1e-9)")


def test_criterion_3_finite_horizon_oracle():
    rng = np.random.default_rng(303)
    count = 0
    worst = 0.0
    while count < 200:
        n = int(rng.integers(2, 5))
        T = int(rng.integers(0, 5))
        model = random_chain(rng, n)
        rewards = random_rewards(model, rng)
        sol = solve_finite_horizon(model, rewards, T)
        w, _ = exhaustive_finite_horizon(model, rewards.f, rewards.g, T)
        worst = max(worst, float(np.max(np.abs(sol.surface[T] - w))))
        assert worst <= 1e-9
        count += 1
    print(f"criterion 3: PASS ({count} instances, max |backward - enumeration| "
          f"= {worst:.2e} <= 1e-9)")


def test_criterion_4_truncation_bound():
    count = 0
    for model, rewards, rng in _corpus(404, 50, 6):
        T = int(rng.integers(1, 6))
        plain = solve_finite_horizon(model, rewards, T)
        for n in np.quantile(np.abs(rewards.g), [0.0, 0.3, 0.6, 0.9, 1.0]):
            clamped = solve_truncated(model, rewards, T, float(n))
            for x in range(model.n_states):
                gap = abs(plain.surface[T, x] - clamped.surface[T, x])
                bound = truncation_gap_bound(model, rewards, T, float(n))[x]
                assert gap <= bound + 1e-9
        count += 1
    assert count >= 50

    # tightness when a single spike state exceeds the clamp level
    rng = np.random.default_rng(405)
    ratios = []
    for _ in range(20):
        n_states = int(rng.integers(2, 6))
        model = random_chain(rng, n_states, dt_choices=(1.0,))
        spike = int(rng.integers(0, n_states))
        g = rng.uniform(-2.0, 2.0, n_states)
        g[spike] = rng.uniform(80.0, 120.0)
        f = rng.uniform(-2.0, 2.0, n_states)
        mu = stationary_distribution(model)
        rewards = make_rewards(model, f, g, mu)
        T = int(rng.integers(1, 4))
        level = 5.0
        plain = solve_finite_horizon(model, rewards, T)
        clamped = solve_truncated(model, rewards, T, level)
        gap = abs(plain.surface[T, spike] - clamped.surface[T, spike])
        bound = truncation_gap_bound(model, rewards, T, level)[spike]
        assert bound <= 10.0 * gap
        ratios.append(bound / gap)
    print(f"criterion 4: PASS ({count} sandwich instances; spike tightness "
          f"ratios max {max(ratios):.2f} <= 10)")


def test_criterion_5_supermartingale_residuals():
    worst_fh = -np.inf
    worst_cont = 0.0
    worst_inf = -np.inf
    worst_inf_cont = 0.0
    for model, rewards, rng in _corpus(505, 60, 8):
        T = int(rng.integers(1, 8))
        fh = solve_finite_horizon(model, rewards, T)
        rep = check_supermartingale(model, rewards, fh)
        assert rep.max_residual <= 1e-10
        assert rep.max_continuation_gap <= 1e-10
        worst_fh = max(worst_fh, rep.max_residual)
        worst_cont = max(worst_cont, rep.max_continuation_gap)
        sol = solve_infinite_horizon(model, rewards)
        assert sol.certified
        resid = model.dt * rewards.f + model.kernel @ sol.w - sol.w
        assert resid.max() <= 1e-10
        worst_inf = max(worst_inf, float(resid.max()))
        cont = ~sol.region
        if cont.any():
            gap = float(np.abs(resid[cont]).max())
            assert gap <= 1e-10
            worst_inf_cont = max(worst_inf_cont, gap)
    print("criterion 5: PASS (finite residual <= 1e-10, continuation gap "
          f"{worst_cont:.1e}; infinite residual <= 1e-10, continuation gap "
          f"{worst_inf_cont:.1e})")


def test_criterion_6_infinite_horizon_optimality():
    count = 0
    worst = 0.0
    for model, rewards, _ in _corpus(606, 105, 8):
        sol = solve_infinite_horizon(model, rewards)
        assert sol.certified
        oracle = brute_force_region_oracle(model, rewards)
        diff = float(np.max(np.abs(sol.w - oracle.w)))
        assert diff <= 1e-8
        assert (sol.region == oracle.minimal_time_region).all()
        worst = max(worst, diff)
        for eps in (0.0, 0.01, 0.1, 1.0):
            reg = stopping_rule_eps(sol, eps)
            val = region_value(model, rewards, reg)
            assert (val >= sol.w - eps - 1e-8).all()
        count += 1
    assert count >= 100
    print(f"criterion 6: PASS ({count} instances, max |w - oracle| = "
          f"{worst:.2e} <= 1e-8, eps-optimality on {{0, 0.01, 0.1, 1}})")


def test_criterion_7_stopping_time_bound():
    count = 0
    for model, rewards, _ in _corpus(707, 60, 8):
        sol = solve_infinite_horizon(model, rewards)
        for delta in (0.25, 0.5, 1.0):
            rep = stopping_time_bound(model, rewards, sol, delta * rewards.mu_f)
            assert (rep.expected_tau <= rep.Z + 1e-9).all()
        count += 1
    chain_a = build_dtmc([0, 1], [[0.6, 0.4], [0.2, 0.8]], dt=1.0)
    rewards = make_rewards(chain_a, CHAIN_A_F, CHAIN_A_G)
    sol = solve_infinite_horizon(chain_a, rewards)
    rep = stopping_time_bound(chain_a, rewards, sol, -1.0)
    np.testing.assert_allclose(rep.expected_tau, [2.5, 0.0], atol=1e-10)
    np.testing.assert_allclose(rep.Z, [13.5, 1.0], atol=1e-10)
    print(f"criterion 7: PASS ({count} instances x deltas {{1/4, 1/2, 1}}; "
          "reference chain expected_tau (2.5, 0), Z (13.5, 1))")


def test_criterion_8_grid_refinement():
    values = {}
    for dt in (0.4, 0.2, 0.1, 0.05):
        model = chain_b_from_generator(dt)
        rewards = make_rewards(model, CHAIN_B_F, CHAIN_B_G)
        sol = solve_infinite_horizon(model, rewards)
        assert sol.certified
        values[dt] = sol.w
    diffs = [
        float(np.max(np.abs(values[a] - values[b])))
        for a, b in ((0.4, 0.2), (0.2, 0.1), (0.1, 0.05))
    ]
    assert diffs[1] < diffs[0] and diffs[2] < diffs[1]
    ratios = [diffs[1] / diffs[0], diffs[2] / diffs[1]]
    for r in ratios:
        assert 0.3 <= r <= 0.8
    print(f"criterion 8: PASS (diffs {[f'{d:.4f}' for d in diffs]}, ratios "
          f"{[f'{r:.3f}' for r in ratios]} within [0.3, 0.8])")


def test_criterion_9_compactified_reward():
    model = build_dtmc(
        range(5),
        [
            [0.75, 0.25, 0.0, 0.0, 0.0],
            [0.25, 0.50, 0.25, 0.0, 0.0],
            [0.0, 0.25, 0.50, 0.25, 0.0],
            [0.0, 0.0, 0.25, 0.50, 0.25],
            [0.0, 0.0, 0.0, 0.25, 0.75],
        ],
        coords=CHAIN_B_COORDS,
    )
    mu = stationary_distribution(model)
    f = np.array([-3.0, -3.0, -3.0, 1.0, 1.0])
    mu_f = float(mu.weights @ f)
    comp = compactify_running_reward(model, f, mu, center=0)
    dist = np.abs(np.arange(5) - 0)
    outside = dist > comp.N + 1
    assert (comp.f_bar >= f).all()
    assert comp.mu_f_bar <= mu_f / 2.0
    assert not np.any((comp.f_bar <= comp.mu_f_bar) & outside)
    assert (comp.f_bar[outside] >= 0.0).all()
    print(f"criterion 9: PASS (N = {comp.N}, mu(f_bar) = {comp.mu_f_bar:.3f} "
          f"<= mu(f)/2 = {mu_f / 2:.3f}, sublevel set confined)")


def test_criterion_10_condition_s_identity():
    worst = 0.0
    count = 0
    for model, rewards, rng in _corpus(1010, 40, 7):
        mu = stationary_distribution(model)
        zp = zero_potential(model, rewards.f, mu)
        for delta in (0.25, 0.5, 1.0):
            rep = check_condition_S(model, rewards, zp, delta)
            assert rep.identity_gap <= 1e-8
            worst = max(worst, rep.identity_gap)
        count += 1
    print(f"criterion 10: PASS ({count} instances x deltas, max identity gap "
          f"= {worst:.2e} <= 1e-8)")


def test_criterion_11_monte_carlo_functional():
    chain_a = build_dtmc([0, 1], [[0.6, 0.4], [0.2, 0.8]], dt=1.0)
    rewards_a = make_rewards(chain_a, CHAIN_A_F, CHAIN_A_G)
    sol_a = solve_infinite_horizon(chain_a, rewards_a)
    est_a = estimate_functional(
        chain_a, rewards_a, sol_a.region, start=0, horizons=[8, 16, 32, 64],
        n_paths=100_000, seed=1111,
    )
    for i in (-2, -1):
        assert abs(est_a.estimates[i] - sol_a.w[0]) <= 3 * est_a.std_errors[i]
    gap_a = terminal_truncation_gap(
        chain_a, rewards_a, sol_a.region, start=0, horizons=[8, 16, 32, 64],
        std_errors=est_a.std_errors,
    )
    assert gap_a.verdict == "PASS"

    model_b = build_dtmc(
        range(5),
        [
            [0.75, 0.25, 0.0, 0.0, 0.0],
            [0.25, 0.50, 0.25, 0.0, 0.0],
            [0.0, 0.25, 0.50, 0.25, 0.0],
            [0.0, 0.0, 0.25, 0.50, 0.25],
            [0.0, 0.0, 0.0, 0.25, 0.75],
        ],
        dt=1.0,
        coords=CHAIN_B_COORDS,
    )
    rewards_b = make_rewards(model_b, CHAIN_B_F, CHAIN_B_G)
    sol_b = solve_infinite_horizon(model_b, rewards_b)
    est_b = estimate_functional(
        model_b, rewards_b, sol_b.region, start=0, horizons=[32, 64, 128, 256],
        n_paths=20_000, seed=1113,
    )
    for i in (-2, -1):
        assert abs(est_b.estimates[i] - sol_b.w[0]) <= 3 * est_b.std_errors[i]
    gap_b = terminal_truncation_gap(
        model_b, rewards_b, sol_b.region, start=0, horizons=[32, 64, 128, 256],
        std_errors=est_b.std_errors,
    )
    assert gap_b.verdict == "PASS"
    print("criterion 11: PASS (both chains bracket w within 3 se at the two "
          "largest horizons; truncation-gap verdicts PASS)")
