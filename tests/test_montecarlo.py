import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CHAIN_A_F, CHAIN_A_G, CHAIN_B_F
from ergostop import (
    Distribution,
    RewardSpec,
    build_dtmc,
    estimate_functional,
    make_rewards,
    region_value,
    solve_infinite_horizon,
    stationary_distribution,
    terminal_truncation_gap,
    verify_dynkin_identity,
    zero_potential,
)
from ergostop.errors import UnreachableRegion
from ergostop.finite_horizon import _running_max_tail
from ergostop.markov import residual_tol, surely_hits
from oracles import argmax_functional, taboo_power_gap


def test_stop_everywhere_is_exact(chain_a, chain_a_rewards):
    est = estimate_functional(
        chain_a, chain_a_rewards, [0, 1], start=0, horizons=[2, 4, 8],
        n_paths=500, seed=1,
    )
    np.testing.assert_allclose(est.estimates, CHAIN_A_G[0])
    np.testing.assert_allclose(est.std_errors, 0.0)
    assert est.verdict == "PASS"
    assert est.liminf_window <= est.limsup_window


def test_chain_a_functional_brackets_value(chain_a, chain_a_rewards):
    sol = solve_infinite_horizon(chain_a, chain_a_rewards)
    est = estimate_functional(
        chain_a, chain_a_rewards, sol.region, start=0,
        horizons=[8, 16, 32, 64], n_paths=100_000, seed=7,
    )
    for i in (-2, -1):
        assert abs(est.estimates[i] - sol.w[0]) <= 3 * est.std_errors[i]
    assert est.verdict == "PASS"


def test_unreachable_region_diverges_linearly():
    m = build_dtmc([0, 1], np.eye(2))
    rw = make_rewards(m, [-1.0, -1.0], [0.0, 5.0], mu=Distribution(np.array([0.5, 0.5])))
    est = estimate_functional(
        m, rw, [1], start=0, horizons=[4, 8, 16, 32], n_paths=50, seed=3,
    )
    # deterministic path: estimate(T) = -T + g(0)
    np.testing.assert_allclose(est.estimates, [-4.0, -8.0, -16.0, -32.0])
    np.testing.assert_allclose(est.std_errors, 0.0)
    assert est.verdict == "MinusInfinityTrend"


def zeta_tail(model, g, steps, thresholds):
    """Exact E^0[zeta_T 1{zeta_T > c}] per threshold c, zeta_T the running max of g+."""
    return _running_max_tail(model, np.maximum(g, 0.0), steps, thresholds)[0]


def chain_a_zeta_tail(steps):
    # from state 0, zeta_T = max g+ = 5 once state 1 is visited, else 0
    return 5.0 * (1.0 - 0.6**steps)


def test_zeta_tail_trivial_cases(chain_a):
    np.testing.assert_array_equal(zeta_tail(chain_a, CHAIN_A_G, 16, [6.0, 10.0]), 0.0)
    tail = zeta_tail(chain_a, [-1.0, -2.0], 16, [0.0, 1.0, 6.0, 10.0])
    np.testing.assert_array_equal(tail, 0.0)


def test_zeta_tail_chain_a(chain_a):
    tail = zeta_tail(chain_a, CHAIN_A_G, 64, [0.0, 3.0, 6.0, 10.0])
    exact = chain_a_zeta_tail(64)
    tol = residual_tol(CHAIN_A_G, exact)
    np.testing.assert_allclose(tail[:2], exact, rtol=0.0, atol=tol)
    np.testing.assert_array_equal(tail[2:], 0.0)
    assert (np.diff(tail) <= 0.0).all() and tail.max() <= CHAIN_A_G.max()


def test_zeta_tail_approaches_exact_from_below(chain_a):
    tails = []
    for steps in (2, 8, 32):
        tail = zeta_tail(chain_a, CHAIN_A_G, steps, [0.0])[0]
        exact = chain_a_zeta_tail(steps)
        assert abs(tail - exact) <= residual_tol(CHAIN_A_G, exact)
        tails.append(tail)
    assert tails[0] < tails[1] < tails[2] < CHAIN_A_G.max()


def test_terminal_gap_nonnegative_g(chain_a, chain_a_rewards):
    # g >= 0: the g- term is 0 exactly; the cap gap is 0.6^T |g(0) - w(0)|,
    # w(0) = f(0) / 0.4 + g(1) = 10
    horizons = [4, 8, 16]
    rep = terminal_truncation_gap(chain_a, chain_a_rewards, [1], 0, horizons, [0.01] * 3)
    np.testing.assert_array_equal(rep.gminus_terms, 0.0)
    exact = 10.0 * 0.6 ** np.array(horizons)
    np.testing.assert_allclose(rep.gaps, exact, rtol=0.0, atol=residual_tol(10.0, exact))
    assert rep.verdict == "PASS"


def test_terminal_gap_stop_everywhere(chain_a, chain_a_rewards):
    # tau = 0: both numbers are 0 exactly, whatever the standard errors
    rep = terminal_truncation_gap(chain_a, chain_a_rewards, [0, 1], 1, [2, 4], [0.0, 0.0])
    np.testing.assert_array_equal(rep.gaps, 0.0)
    np.testing.assert_array_equal(rep.gminus_terms, 0.0)
    assert rep.verdict == "PASS"


def test_terminal_gap_negative_terminal_variant(chain_a):
    # variant g = (-4, 5): the g- term is 4 P(tau > T) = 4 * 0.6^T and the cap
    # gap 0.6^T |g(0) - w(0)| = 14 * 0.6^T, both in closed form
    rw = make_rewards(chain_a, CHAIN_A_F, [-4.0, 5.0])
    horizons = [0, 2, 4, 8, 16, 32]
    rep = terminal_truncation_gap(chain_a, rw, [1], 0, horizons, [0.01] * 6)
    tail = 0.6 ** np.array(horizons)
    tol = residual_tol(CHAIN_A_F, rw.g, 10.0)
    np.testing.assert_allclose(rep.gminus_terms, 4.0 * tail, rtol=0.0, atol=tol)
    np.testing.assert_allclose(rep.gaps, 14.0 * tail, rtol=0.0, atol=tol)
    assert rep.verdict == "PASS"


def test_terminal_gap_verdict_reads_the_largest_horizon_standard_error(chain_a):
    # at T = 32 the gap 14 * 0.6^32 = 1.1e-6 beats the residual tolerance:
    # it passes only within 3 standard errors of the functional estimate
    rw = make_rewards(chain_a, CHAIN_A_F, [-4.0, 5.0])
    gap = 14.0 * 0.6**32
    for se, verdict in ((gap / 2.9, "PASS"), (gap / 3.1, "FAIL"), (0.0, "FAIL")):
        rep = terminal_truncation_gap(chain_a, rw, [1], 0, [16, 32], [1.0, se])
        assert rep.verdict == verdict
    # at zero spread only the residual tolerance is left: 14 * 0.6^40 = 1.9e-8
    # stays above it, 14 * 0.6^64 = 8.8e-14 falls below
    assert terminal_truncation_gap(chain_a, rw, [1], 0, [16, 40], [0.0, 0.0]).verdict == "FAIL"
    assert terminal_truncation_gap(chain_a, rw, [1], 0, [16, 64], [0.0, 0.0]).verdict == "PASS"


def test_terminal_gap_unreachable_region_raises():
    m = build_dtmc([0, 1], [[1.0, 0.0], [0.5, 0.5]])
    rw = make_rewards(m, [-1.0, -1.0], [0.0, 0.0], mu=Distribution(np.array([1.0, 0.0])))
    with pytest.raises(UnreachableRegion):
        terminal_truncation_gap(m, rw, [1], start=0, horizons=[4], std_errors=[0.1])


def test_terminal_gap_region_passed_through_is_hit():
    # 0 -> 1 -> 2 with 2 absorbing: region {1} is hit from 0 at step 1 surely
    m = build_dtmc([0, 1, 2], [[0, 1, 0], [0, 0, 1], [0, 0, 1]])
    rw = make_rewards(m, [-1.0, 2.0, -3.0], [4.0, 6.0, 1.0])
    rep = terminal_truncation_gap(m, rw, [1], 0, [0, 1, 2], [0.0, 0.0, 0.0])
    assert rep.verdict == "PASS"
    assert rep.gaps.tolist() == [1.0, 0.0, 0.0]
    np.testing.assert_array_equal(rep.gminus_terms, 0.0)


def test_terminal_gap_needs_one_standard_error_per_horizon(chain_a, chain_a_rewards):
    with pytest.raises(ValueError, match="one standard error per horizon"):
        terminal_truncation_gap(chain_a, chain_a_rewards, [1], 0, [4, 8], [0.1])


def test_reproducibility_under_seed(chain_a, chain_a_rewards):
    kwargs = dict(region=[1], start=0, horizons=[4, 8], n_paths=3000)
    a = estimate_functional(chain_a, chain_a_rewards, seed=31, **kwargs)
    b = estimate_functional(chain_a, chain_a_rewards, seed=31, **kwargs)
    c = estimate_functional(chain_a, chain_a_rewards, seed=32, **kwargs)
    np.testing.assert_array_equal(a.estimates, b.estimates)
    assert (a.estimates != c.estimates).any()


def test_liminf_limsup_windows_coincide_for_integrable_tau(chain_a, chain_a_rewards):
    sol = solve_infinite_horizon(chain_a, chain_a_rewards)
    est = estimate_functional(
        chain_a, chain_a_rewards, sol.region, start=0,
        horizons=[16, 24, 32, 48, 64], n_paths=50_000, seed=37,
    )
    spread = est.limsup_window - est.liminf_window
    assert spread <= 3 * (est.std_errors[-2:].max() * 2)


@pytest.mark.parametrize("sampler", [estimate_functional, terminal_truncation_gap])
def test_negative_horizon_rejected(chain_a, chain_a_rewards, sampler):
    # after the horizons the functional takes (n_paths, seed), the gap the
    # standard errors
    rest = (10, 1) if sampler is estimate_functional else ([0.1, 0.1],)
    with pytest.raises(ValueError, match="horizons"):
        sampler(chain_a, chain_a_rewards, [1], 0, [-2, 4], *rest)


def test_path_count_must_be_positive(chain_a, chain_a_rewards):
    for n_paths in (0, -3):
        with pytest.raises(ValueError, match="n_paths must be >= 1"):
            estimate_functional(chain_a, chain_a_rewards, [1], 0, [2, 4], n_paths, 1)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.booleans(), st.booleans(),
       st.integers(1, 40))
def test_hitting_rule_sampler_matches_the_readout_references(seed, n, cyclic, inside, n_paths):
    rng = np.random.default_rng(seed)
    # sparse rows, irreducible when cyclic, often with a heavy self-loop so
    # that paths outlive the block edges 64 and 128
    P = (0.2 + rng.random((n, n))) * (rng.random((n, n)) < 0.5)
    succ = (np.arange(n) + 1) % n if cyclic else rng.integers(0, n, n)
    P[np.arange(n), succ] += 0.2 + rng.random(n)
    P[np.arange(n), np.arange(n)] += rng.choice([0.0, 10.0, 100.0])
    P /= P.sum(axis=1, keepdims=True)
    dt = float(rng.choice([0.5, 1.0, 2.0]))
    m = build_dtmc(list(range(n)), P, dt=dt)
    mask = rng.random(n) < 0.4
    pool = np.flatnonzero(mask == inside)
    start = int(rng.choice(pool)) if len(pool) else 0
    steps = np.unique(np.r_[0, 64, 128, rng.integers(1, 200, 3)])
    rewards = RewardSpec(f=rng.normal(0.0, 2.0, n), g=rng.normal(0.0, 3.0, n))
    sample_seed = int(rng.integers(2**31))
    args = (m, rewards, mask, start, steps * dt, n_paths, sample_seed)
    refs = (m, rewards, mask, start, steps, n_paths, sample_seed)

    est = estimate_functional(*args)
    ref_est, ref_se = argmax_functional(*refs)
    assert est.estimates.tolist() == ref_est.tolist()
    assert est.std_errors.tolist() == ref_se.tolist()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_exact_truncation_gap_matches_the_taboo_power_oracle(seed, walk, inside):
    rng = np.random.default_rng(seed)
    if walk:
        # a lazy walk wide enough that kernel products gather over supports
        n = int(rng.integers(96, 129))
        x = np.arange(n)
        P = np.zeros((n, n))
        np.add.at(P, (x, np.maximum(x - 1, 0)), 0.25 + rng.random(n))
        np.add.at(P, (x, np.minimum(x + 1, n - 1)), 0.25 + rng.random(n))
        P[x, x] += rng.random(n)
    else:
        n = int(rng.integers(1, 9))
        P = (0.2 + rng.random((n, n))) * (rng.random((n, n)) < 0.5)
        P[np.arange(n), rng.integers(0, n, n)] += 0.2 + rng.random(n)
    P /= P.sum(axis=1, keepdims=True)
    dt = float(rng.choice([0.5, 1.0, 2.0]))
    m = build_dtmc(list(range(n)), P, dt=dt)
    assert m.supports.gather == walk
    mask = rng.random(n) < (0.1 if walk else 0.4)
    pool = np.flatnonzero(mask == inside)
    start = int(rng.choice(pool)) if len(pool) else 0
    steps = np.unique(np.r_[0, rng.integers(1, 80, 3)])
    rewards = RewardSpec(f=rng.normal(0.0, 2.0, n), g=rng.normal(0.0, 3.0, n))
    se = rng.random(len(steps))
    args = (m, rewards, mask, start, steps * dt, se)
    if not surely_hits(m.kernel, mask)[start]:
        with pytest.raises(UnreachableRegion):
            terminal_truncation_gap(*args)
        return
    rep = terminal_truncation_gap(*args)
    capped, gminus = taboo_power_gap(m.kernel, dt, rewards.f, rewards.g, mask, steps)
    w = region_value(m, rewards, mask)[start]
    scale = residual_tol(steps[-1] * dt * rewards.f, rewards.g, w)
    np.testing.assert_allclose(rep.gminus_terms, gminus[:, start], rtol=0.0, atol=scale)
    gaps = np.abs(capped[:, start] - w)
    np.testing.assert_allclose(rep.gaps, gaps, rtol=0.0, atol=scale)
    if mask[start]:
        assert rep.gaps.tolist() == rep.gminus_terms.tolist() == [0.0] * len(steps)
    noise = 3.0 * se[-1]
    margin = min(abs(gminus[-1, start] - noise), abs(gaps[-1] - noise))
    if margin > scale:
        passed = gminus[-1, start] <= noise and gaps[-1] <= noise
        assert (rep.verdict == "PASS") == passed


def _peak(sample, model, rewards, region, start, top, n_paths):
    """tracemalloc peak of one sampler run at horizons top/8, top/4, top/2, top."""
    tracemalloc.start()
    try:
        horizons = [top // 8, top // 4, top // 2, top]
        sample(model, rewards, region, start, horizons, n_paths, 3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_functional_peak_memory_is_about_one_paths_array(chain_b, chain_b_rewards):
    # paths step in place: the peak stays within the old bound of 1.5x one
    # int64 state per path and step at horizon 256, and does not grow with it
    n_paths = 5000
    peak = partial(_peak, model=chain_b, rewards=chain_b_rewards, region=[0], start=4,
                   n_paths=n_paths)
    assert peak(estimate_functional, top=256) <= 1.5 * n_paths * (256 + 1) * 8
    assert peak(estimate_functional, top=4096) <= 1.25 * peak(estimate_functional, top=256)


def test_functional_peak_memory_on_a_slow_walk_does_not_grow_with_the_horizon():
    # from state 40 of a 200-state lazy walk many paths stay out of 0..39
    # for thousands of steps; each draw holds at most 64 steps of uniforms
    n = 200
    x = np.arange(n)
    P = 0.5 * np.eye(n)
    P[x, np.maximum(x - 1, 0)] += 0.25
    P[x, np.minimum(x + 1, n - 1)] += 0.25
    model = build_dtmc(range(n), P)
    rewards = make_rewards(model, np.where(x < n // 2, -1.2, 0.3), 5.0 * np.sin(x / 7.0))
    peak = partial(_peak, estimate_functional, model, rewards, range(40), 40, n_paths=5000)
    assert peak(top=2048) <= 1.25 * peak(top=128)


# Pinned samples. They move only if the stream layout, the stepping or the
# order of the sums changes; any such change moves every seeded verdict too.

def test_golden_functional_chain_a(chain_a, chain_a_rewards):
    est = estimate_functional(chain_a, chain_a_rewards, [1], 0, [4, 8, 16], 40, 2024)
    assert est.estimates.tolist() == [8.5, 8.85, 8.85]
    assert est.std_errors.tolist() == [
        0.3080126537527231, 0.38154544038282395, 0.38154544038282395,
    ]


def test_golden_dynkin_past_one_block(chain_b):
    # from state 4 some paths are still out of region {0} after 64 steps
    mu = stationary_distribution(chain_b)
    zp = zero_potential(chain_b, CHAIN_B_F, mu)
    rep = verify_dynkin_identity(chain_b, zp, CHAIN_B_F, mu, [0], 100, 4, 30, 5)
    assert rep.estimate == -17.033333333333335
    assert rep.std_error == 7.579385735177052
    assert rep.z_score == 1.9746543043988576


def test_golden_truncation_gap_across_blocks(chain_b):
    # g < 0 off the region: the exact g- term and cap gap from state 4, which
    # the sampled readout matched within its standard errors
    rw = make_rewards(chain_b, CHAIN_B_F, [0.0, -1.0, -2.0, -3.0, -4.0])
    rep = terminal_truncation_gap(chain_b, rw, [0], 4, [32, 64, 128, 256], [1.0] * 4)
    assert rep.gminus_terms.tolist() == [
        1.3416034361958575, 0.5036243264043962, 0.07097304603775823, 0.0014095060394765464,
    ]
    assert rep.gaps.tolist() == [
        35.92003430943159, 13.484164617177242, 1.9002502238105827, 0.03773846997566846,
    ]
    assert rep.verdict == "PASS"
