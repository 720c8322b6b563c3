import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CHAIN_A_F, CHAIN_A_G, CHAIN_A_KERNEL, random_chain, random_rewards
from ergostop import (
    RewardSpec,
    brute_force_region_oracle,
    build_dtmc,
    check_condition_S,
    compactify_running_reward,
    expected_hitting_time,
    gamma_value,
    make_rewards,
    region_value,
    solve_finite_horizon,
    solve_infinite_horizon,
    stopping_rule_eps,
    stopping_time_bound,
    zero_potential,
)
from ergostop import infinite_horizon, markov
from ergostop.markov import residual_tol, surely_hits
from ergostop.errors import (
    DimensionMismatch,
    DriftNotNegative,
    NoCoords,
    NotIrreducible,
    TooManyStates,
)
from oracles import full_system_region_values, loop_ball_radius, reference_policy_iteration


def walk(n, g=None):
    """Lazy reflecting walk, slow to mix: hold 1/2, step +-1 with 1/4 each;
    f = -1.2 on the left half, 0.3 on the right, g = 5 sin(x / 7) unless given."""
    P = 0.5 * np.eye(n)
    for x in range(n):
        P[x, max(x - 1, 0)] += 0.25
        P[x, min(x + 1, n - 1)] += 0.25
    m = build_dtmc(range(n), P)
    x = np.arange(n)
    g = 5.0 * np.sin(x / 7.0) if g is None else g(x)
    return m, make_rewards(m, np.where(x < n // 2, -1.2, 0.3), g)


def test_solve_strictly_losing(chain_a):
    rw = make_rewards(chain_a, [-1.0, -1.0], [0.0, 0.0])
    sol = solve_infinite_horizon(chain_a, rw)
    assert sol.certified
    np.testing.assert_allclose(sol.w, 0.0, atol=1e-12)
    assert sol.region.all()
    np.testing.assert_allclose(sol.expected_tau, 0.0)


def test_solve_chain_a(chain_a, chain_a_rewards):
    sol = solve_infinite_horizon(chain_a, chain_a_rewards)
    assert sol.certified
    np.testing.assert_allclose(sol.w, [10.0, 5.0], atol=1e-10)
    assert list(sol.region) == [False, True]
    oracle = brute_force_region_oracle(chain_a, chain_a_rewards)
    np.testing.assert_allclose(sol.w, oracle.w, atol=1e-10)


def test_solve_chain_a_zero_terminal(chain_a):
    # positive running reward at state 0 makes lingering profitable
    rw = make_rewards(chain_a, CHAIN_A_F, [0.0, 0.0])
    sol = solve_infinite_horizon(chain_a, rw)
    oracle = brute_force_region_oracle(chain_a, rw)
    np.testing.assert_allclose(sol.w, oracle.w, atol=1e-10)
    np.testing.assert_allclose(sol.w, [5.0, 0.0], atol=1e-10)
    assert (sol.region == oracle.minimal_time_region).all()


def test_solve_refuses_nonnegative_drift(chain_a):
    rw = make_rewards(chain_a, [2.0, 2.0], CHAIN_A_G)
    with pytest.raises(DriftNotNegative):
        solve_infinite_horizon(chain_a, rw)


def test_solve_refuses_reducible():
    m = build_dtmc([0, 1], [[0.5, 0.5], [0.0, 1.0]])
    rw = make_rewards(m, [-1.0, -1.0], [0.0, 0.0])
    with pytest.raises(NotIrreducible):
        solve_infinite_horizon(m, rw)


def test_region_value_examples(chain_a, chain_a_rewards):
    np.testing.assert_allclose(
        region_value(chain_a, chain_a_rewards, [0, 1]), CHAIN_A_G
    )
    np.testing.assert_allclose(
        region_value(chain_a, chain_a_rewards, [1]), [10.0, 5.0], atol=1e-12
    )


def test_region_value_unreachable_is_minus_infinity():
    m = build_dtmc([0, 1], [[0.5, 0.5], [0.0, 1.0]])
    rw = make_rewards(m, [1.0, -1.0], [0.0, 0.0])
    v = region_value(m, rw, [0])
    assert v[1] == -np.inf
    assert np.isfinite(v[0])


def test_hitting_rule_counts_paths_through_region_as_hits():
    # 0 -> 1 -> 2 with 2 absorbing: from 0 the region {1} is entered after one
    # step surely, even though every path then runs on to a state that cannot
    # return to the region
    m = build_dtmc([0, 1, 2], [[0, 1, 0], [0, 0, 1], [0, 0, 1]], dt=0.5)
    rw = make_rewards(m, [-1.0, 2.0, -3.0], [4.0, 6.0, 1.0])
    np.testing.assert_allclose(
        region_value(m, rw, [1]), [0.5 * -1.0 + 6.0, 6.0, -np.inf], atol=1e-12
    )
    np.testing.assert_allclose(expected_hitting_time(m, [1]), [0.5, 0.0, np.inf])
    assert not np.signbit(expected_hitting_time(m, [1])[1])


def test_region_value_empty_region(chain_a, chain_a_rewards):
    v = region_value(chain_a, chain_a_rewards, np.zeros(2, dtype=bool))
    assert (v == -np.inf).all()


def test_oracle_trivial_cases(chain_a):
    rw = make_rewards(chain_a, [-1.0, -1.0], [0.0, 0.0])
    oracle = brute_force_region_oracle(chain_a, rw)
    assert oracle.minimal_time_region.all()
    single = build_dtmc(["s"], [[1.0]])
    rw1 = make_rewards(single, [-1.0], [7.0])
    o1 = brute_force_region_oracle(single, rw1)
    np.testing.assert_allclose(o1.w, [7.0])
    assert o1.minimal_time_region[0]


def test_oracle_state_cap():
    m = build_dtmc(range(21), np.full((21, 21), 1 / 21))
    rw = make_rewards(m, -np.ones(21), np.zeros(21))
    with pytest.raises(TooManyStates):
        brute_force_region_oracle(m, rw)


def test_oracle_state_cap_comes_before_the_irreducibility_check():
    # only the order is new beside test_oracle_state_cap: this chain is reducible
    big = build_dtmc(range(21), np.eye(21))
    with pytest.raises(TooManyStates):
        brute_force_region_oracle(big, make_rewards(big, -np.ones(21), np.zeros(21)))


def test_certified_matches_oracle_on_corpus():
    rng = np.random.default_rng(61)
    for _ in range(40):
        m = random_chain(rng, int(rng.integers(2, 9)))
        rw = random_rewards(m, rng)
        sol = solve_infinite_horizon(m, rw)
        assert sol.certified
        oracle = brute_force_region_oracle(m, rw)
        np.testing.assert_allclose(sol.w, oracle.w, atol=1e-8)
        assert (sol.region == oracle.minimal_time_region).all()


def _banded_walk(rng, n):
    # lazy walk with random hold and step weights, reflected at the ends
    P = np.zeros((n, n))
    for x in range(n):
        left, hold, right = rng.random(3) + 0.05
        P[x, max(x - 1, 0)] += left
        P[x, x] += hold
        P[x, min(x + 1, n - 1)] += right
    return build_dtmc(range(n), P / P.sum(axis=1, keepdims=True))


def test_certified_matches_oracle_on_13_to_16_states():
    rng = np.random.default_rng(1316)
    models = [random_chain(rng, n) for n in (13, 14, 15)]
    models += [_banded_walk(rng, n) for n in (13, 16)]
    for m in models:
        rw = random_rewards(m, rng, g_scale=6.0)
        sol = solve_infinite_horizon(m, rw)
        assert sol.certified
        oracle = brute_force_region_oracle(m, rw)
        assert np.max(np.abs(sol.w - oracle.w)) <= residual_tol(sol.w, oracle.w)
        np.testing.assert_array_equal(sol.region, oracle.minimal_time_region)


def _same_oracle_result(a, b):
    np.testing.assert_array_equal(a.w, b.w)
    np.testing.assert_array_equal(np.array(a.optimal_regions), np.array(b.optimal_regions))
    np.testing.assert_array_equal(a.minimal_time_region, b.minimal_time_region)


def test_oracle_block_size_does_not_change_the_result(monkeypatch):
    rng = np.random.default_rng(3)
    for n in (1, 4, 7):
        m = random_chain(rng, n)
        rw = random_rewards(m, rng)
        ref = brute_force_region_oracle(m, rw)
        with monkeypatch.context() as mp:
            mp.setattr(infinite_horizon, "ORACLE_BLOCK", 3)
            _same_oracle_result(brute_force_region_oracle(m, rw), ref)


def test_oracle_shares_no_evaluation_code_with_the_solver(monkeypatch, chain_b,
                                                          chain_b_rewards):
    models = [(chain_b, chain_b_rewards), walk(12)]
    refs = [brute_force_region_oracle(m, rw) for m, rw in models]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle must not call the solver's evaluation")

    for name in ("_policy_value", "_certified_solve", "region_value", "surely_hits"):
        monkeypatch.setattr(infinite_horizon, name, refuse)
    monkeypatch.setattr(markov, "surely_hits", refuse)
    for (m, rw), ref in zip(models, refs):
        _same_oracle_result(brute_force_region_oracle(m, rw), ref)


def test_oracle_state_cap_is_the_module_constant(monkeypatch, chain_b, chain_b_rewards):
    monkeypatch.setattr(infinite_horizon, "ORACLE_MAX_STATES", 4)
    with pytest.raises(TooManyStates, match="beyond 4"):
        brute_force_region_oracle(chain_b, chain_b_rewards)


def _assert_reduced_systems_match_the_full_system(m, rw):
    """Each region's value on its continuation set agrees with the full-size
    system within ``residual_tol``, and the oracle reads the same optimal
    regions from either."""
    run_dt = m.dt * rw.f
    masks, values = infinite_horizon._region_values(m.kernel, m.dt, rw.f, rw.g)
    ref_masks, ref_values = full_system_region_values(m.kernel, m.dt, rw.f, rw.g)
    np.testing.assert_array_equal(masks, ref_masks)
    np.testing.assert_array_equal(values[masks], np.broadcast_to(rw.g, masks.shape)[masks])
    for mask, got, ref in zip(masks, values, ref_values):
        assert np.max(np.abs(got - ref)) <= residual_tol(rw.g, run_dt, ref), mask
    got = brute_force_region_oracle(m, rw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(infinite_horizon, "_region_values", full_system_region_values)
        ref = brute_force_region_oracle(m, rw)
    np.testing.assert_array_equal(np.array(got.optimal_regions), np.array(ref.optimal_regions))
    np.testing.assert_array_equal(got.minimal_time_region, ref.minimal_time_region)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.booleans())
def test_reduced_region_systems_match_the_full_system(seed, n, banded):
    rng = np.random.default_rng(seed)
    m = _banded_walk(rng, n) if banded else random_chain(rng, n)
    _assert_reduced_systems_match_the_full_system(m, random_rewards(m, rng, g_scale=6.0))


def test_reduced_region_systems_match_the_full_system_on_the_bench_models(
        chain_b, chain_b_rewards):
    # rand-12 is drawn as the benchmark corpus draws it at workload seed 0
    rng = np.random.default_rng([0, 0x5EED])
    rand = random_chain(rng, 12)
    for m, rw in ((chain_b, chain_b_rewards), walk(12), walk(14),
                  (rand, random_rewards(rand, rng))):
        _assert_reduced_systems_match_the_full_system(m, rw)


def test_oracle_refuses_reducible_chains():
    m = build_dtmc([0, 1], [[0.5, 0.5], [0.0, 1.0]])
    with pytest.raises(NotIrreducible):
        brute_force_region_oracle(m, make_rewards(m, [1.0, -1.0], [0.0, 0.0]))


def test_certified_equals_long_horizon_limit_dense_150():
    # a fast-mixing dense chain: the horizon-200 surface has converged
    rng = np.random.default_rng(150)
    m = random_chain(rng, 150)
    rw = random_rewards(m, rng)
    sol = solve_infinite_horizon(m, rw)
    assert sol.certified
    assert sol.iterations <= m.n_states + 1
    fh = solve_finite_horizon(m, rw, 200)
    np.testing.assert_allclose(fh.surface[200], sol.w, rtol=0, atol=1e-9)


@pytest.mark.parametrize(
    "n, g", [(120, None), (500, None), (250, lambda x: x.astype(float))],
    ids=["120", "500", "250-g-linear"],
)
def test_certified_dominates_horizon_surface_walk(n, g):
    # g = x is unbounded as n grows: the paper's setting
    m, rw = walk(n, g)
    sol = solve_infinite_horizon(m, rw)
    assert sol.certified
    assert sol.iterations <= n + 1
    fh = solve_finite_horizon(m, rw, 2000)
    assert (fh.surface <= sol.w + 1e-9).all()
    assert (sol.expected_tau <= sol.Z).all()


def _one_class_chain(rng, n):
    """Random chain of n >= 2 states: one recurrent class of 1..n-1 states,
    irreducible through a cycle, and transient states that each step with
    positive probability into the class or to an earlier transient state;
    the states are shuffled."""
    r = int(rng.integers(1, n))
    P = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
    P[:r, r:] = 0.0
    P[np.arange(r), (np.arange(r) + 1) % r] += 0.1 + rng.random(r)
    for j in range(r, n):
        P[j, rng.integers(0, j)] += 0.1 + rng.random()
    P /= P.sum(axis=1, keepdims=True)
    perm = rng.permutation(n)
    return build_dtmc(range(n), P[np.ix_(perm, perm)], dt=float(rng.choice([0.5, 1.0, 2.0])))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.booleans())
def test_rounds_solve_on_the_continuation_set_as_the_reference(seed, n, boundary):
    # mu(run) < 0, or mu(run) = 0 up to rounding: the boundary gamma meets at d = mu(f)
    rng = np.random.default_rng(seed)
    m = _one_class_chain(rng, n)
    f = rng.normal(0.0, 2.0, n)
    f = f - float(m.invariant.weights @ f) - (0.0 if boundary else 0.1 + rng.random())
    g = rng.normal(0.0, 3.0, n)
    real = infinite_horizon._policy_value
    rounds = []

    def spy(kernel, dt, run, term, region, solve_on):
        rounds.append((region.copy(), solve_on.copy()))
        return real(kernel, dt, run, term, region, solve_on)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(infinite_horizon, "_policy_value", spy)
        w, region, _, _, certified, n_rounds = infinite_horizon._certified_solve(
            m.kernel, m.dt, f, g
        )
    assert len(rounds) == n_rounds
    for stop, solve_on in rounds:
        np.testing.assert_array_equal(solve_on, surely_hits(m.kernel, stop) > stop)
    ref_w, ref_region, _, _, ref_certified, ref_rounds = reference_policy_iteration(
        m.kernel, m.dt, f, g
    )
    assert w.tobytes() == ref_w.tobytes()
    np.testing.assert_array_equal(region, ref_region)
    assert (certified, n_rounds) == (ref_certified, ref_rounds)


@pytest.fixture
def graph_searches(monkeypatch):
    """Count the calls of ``surely_hits`` made from the solver module."""
    calls = []

    def counted(kernel, region):
        calls.append(1)
        return surely_hits(kernel, region)

    monkeypatch.setattr(infinite_horizon, "surely_hits", counted)
    return calls


@pytest.mark.parametrize("n", [30, 100])
def test_one_graph_search_per_solve_whatever_the_rounds(graph_searches, n):
    m, rw = walk(n)
    sol = solve_infinite_horizon(m, rw)
    assert sol.iterations > 2
    assert len(graph_searches) == 1


def test_gamma_and_condition_s_search_no_graph(graph_searches, chain_b, chain_b_rewards):
    gamma_value(chain_b, chain_b_rewards.f, chain_b.invariant.weights @ chain_b_rewards.f)
    check_condition_S(chain_b, chain_b_rewards, zero_potential(chain_b, chain_b_rewards.f),
                      0.5)
    assert graph_searches == []


def test_condition_s_refuses_two_recurrent_classes():
    # states 0 and 2 absorb, so a round's region may miss a recurrent class
    m = build_dtmc(range(3), [[1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]])
    rw = make_rewards(m, [-1.0] * 3, [0.0, 1.0, 0.0])
    with pytest.raises(NotIrreducible):
        check_condition_S(m, rw, np.zeros(3), 0.5)


def test_monotone_horizon_sweep(chain_b, chain_b_rewards):
    sol = solve_infinite_horizon(chain_b, chain_b_rewards)
    gaps = []
    prev = None
    for T in (8, 16, 32, 64, 128, 256, 512, 1024):
        fh = solve_finite_horizon(chain_b, chain_b_rewards, T)
        top = fh.surface[T]
        assert (top <= sol.w + 1e-10).all()
        if prev is not None:
            assert (top >= prev - 1e-12).all()
        prev = top
        gaps.append(float(np.max(sol.w - top)))
    assert all(b < a for a, b in zip(gaps, gaps[1:]) if a > 1e-12)
    assert gaps[-1] <= 1e-4


def test_supermartingale_inequalities(chain_a, chain_a_rewards):
    sol = solve_infinite_horizon(chain_a, chain_a_rewards)
    resid = chain_a.dt * chain_a_rewards.f + chain_a.kernel @ sol.w - sol.w
    assert (resid <= 1e-10).all()
    cont = ~sol.region
    assert np.abs(resid[cont]).max() <= 1e-10


def test_eps_rule_examples(chain_a, chain_a_rewards):
    sol = solve_infinite_horizon(chain_a, chain_a_rewards)
    np.testing.assert_array_equal(stopping_rule_eps(sol, 0.0), sol.region)
    assert stopping_rule_eps(sol, 10.0).all()
    # eps = 6 does not reach state 0: w(0) - g(0) = 10 > 6
    np.testing.assert_array_equal(stopping_rule_eps(sol, 6.0), [False, True])


def test_eps_rule_refuses_nan(chain_a, chain_a_rewards):
    sol = solve_infinite_horizon(chain_a, chain_a_rewards)
    with pytest.raises(ValueError, match="eps must be >= 0"):
        stopping_rule_eps(sol, float("nan"))


def test_eps_rule_monotone_and_eps_optimal():
    rng = np.random.default_rng(71)
    for _ in range(10):
        m = random_chain(rng, int(rng.integers(2, 7)))
        rw = random_rewards(m, rng)
        sol = solve_infinite_horizon(m, rw)
        prev = None
        for eps in (0.0, 0.01, 0.1, 1.0):
            reg = stopping_rule_eps(sol, eps)
            if prev is not None:
                assert not np.any(prev & ~reg)  # monotone in eps
            val = region_value(m, rw, reg)
            assert (val >= sol.w - eps - 1e-8).all()
            prev = reg


def test_gamma_value_guard(chain_a):
    with pytest.raises(DriftNotNegative):
        gamma_value(chain_a, np.array([-1.0, -1.0]), -2.0)


def test_gamma_value_trivial(chain_a):
    gamma = gamma_value(chain_a, np.array([-1.0, -1.0]), -0.5)
    np.testing.assert_allclose(gamma, 0.0, atol=1e-12)


def test_gamma_value_chain_a(chain_a):
    gamma = gamma_value(chain_a, CHAIN_A_F, -1.0)
    np.testing.assert_allclose(gamma, [7.5, 0.0], atol=1e-10)


def test_gamma_value_boundary_delta_one(chain_a):
    # d = mu(f): centred drift, still finite; equals q - min q
    gamma = gamma_value(chain_a, CHAIN_A_F, -2.0)
    q = zero_potential(chain_a, CHAIN_A_F).q
    np.testing.assert_allclose(gamma, q - q.min(), atol=1e-8)


def test_gamma_state_dependent_d(chain_a):
    gamma = gamma_value(chain_a, CHAIN_A_F, np.array([-1.0, -0.5]))
    ref_1 = gamma_value(chain_a, CHAIN_A_F, -1.0)
    ref_2 = gamma_value(chain_a, CHAIN_A_F, -0.5)
    assert gamma[0] == ref_1[0] and gamma[1] == ref_2[1]


def test_stopping_time_bound_chain_a(chain_a, chain_a_rewards):
    sol = solve_infinite_horizon(chain_a, chain_a_rewards)
    rep = stopping_time_bound(chain_a, chain_a_rewards, sol, -1.0)
    np.testing.assert_allclose(rep.Z, [13.5, 1.0], atol=1e-10)
    np.testing.assert_allclose(rep.expected_tau, [2.5, 0.0], atol=1e-10)
    assert rep.ok


def test_stopping_time_bound_stop_everywhere(chain_a):
    rw = make_rewards(chain_a, [-1.0, -1.0], [0.0, 0.0])
    sol = solve_infinite_horizon(chain_a, rw)
    rep = stopping_time_bound(chain_a, rw, sol, -0.5)
    np.testing.assert_allclose(rep.expected_tau, 0.0)
    assert (rep.Z > 0).all()


def test_stopping_time_bound_single_state():
    m = build_dtmc(["s"], [[1.0]])
    rw = make_rewards(m, [-1.0], [7.0])
    sol = solve_infinite_horizon(m, rw)
    rep = stopping_time_bound(m, rw, sol, -0.25)
    assert rep.expected_tau[0] == 0.0
    assert rep.Z[0] >= 1 / 0.25 - 1e-12


def test_bound_on_corpus_all_deltas():
    rng = np.random.default_rng(83)
    for _ in range(15):
        m = random_chain(rng, int(rng.integers(2, 8)))
        rw = random_rewards(m, rng)
        sol = solve_infinite_horizon(m, rw)
        for delta in (0.25, 0.5, 1.0):
            rep = stopping_time_bound(m, rw, sol, delta * (m.invariant.weights @ rw.f))
            assert (rep.expected_tau <= rep.Z + 1e-9).all()


def test_expected_hitting_time_chain_a(chain_a):
    t = expected_hitting_time(chain_a, [1])
    np.testing.assert_allclose(t, [2.5, 0.0], atol=1e-12)


def test_condition_s_constant_f(chain_a):
    f = np.array([-1.0, -1.0])
    rw = make_rewards(chain_a, f, CHAIN_A_G)
    zp = zero_potential(chain_a, f)
    rep = check_condition_S(chain_a, rw, zp, delta=0.5)
    np.testing.assert_allclose(rep.bar_gamma, 0.0, atol=1e-10)
    assert rep.identity_gap <= 1e-10
    assert rep.holds


def test_condition_s_chain_a(chain_a, chain_a_rewards):
    zp = zero_potential(chain_a, CHAIN_A_F)
    rep = check_condition_S(chain_a, chain_a_rewards, zp, delta=0.5)
    assert rep.identity_gap <= 1e-8
    assert rep.holds
    np.testing.assert_allclose(rep.bar_gamma, [5 / 6, 10 / 3], atol=1e-8)


def test_condition_s_delta_one(chain_a, chain_a_rewards):
    zp = zero_potential(chain_a, CHAIN_A_F)
    rep = check_condition_S(chain_a, chain_a_rewards, zp, delta=1.0)
    assert rep.identity_gap <= 1e-8
    # zero running reward, terminal -q: the value is the constant -min q
    np.testing.assert_allclose(rep.bar_gamma, -zp.q.min(), atol=1e-8)


def test_condition_s_identity_on_corpus():
    rng = np.random.default_rng(97)
    for _ in range(10):
        m = random_chain(rng, int(rng.integers(2, 7)))
        rw = random_rewards(m, rng)
        zp = zero_potential(m, rw.f)
        for delta in (0.25, 0.5, 1.0):
            rep = check_condition_S(m, rw, zp, delta)
            assert rep.identity_gap <= 1e-8


def test_the_drift_is_read_from_the_invariant_law_of_the_model(chain_a, chain_a_rewards):
    # mu(f) = -2 on chain A; the default d is delta * mu(f) read from the model
    mu_f = float(chain_a.invariant.weights @ CHAIN_A_F)
    assert mu_f == pytest.approx(-2.0, abs=1e-12)
    zp = zero_potential(chain_a, CHAIN_A_F)
    ref = solve_infinite_horizon(chain_a, chain_a_rewards)
    np.testing.assert_array_equal(ref.d, infinite_horizon.DEFAULT_DELTA * mu_f)
    for bare in (make_rewards(chain_a, CHAIN_A_F, CHAIN_A_G), RewardSpec(CHAIN_A_F, CHAIN_A_G)):
        sol = solve_infinite_horizon(chain_a, bare)
        np.testing.assert_array_equal(sol.w, ref.w)
        np.testing.assert_array_equal(sol.Z, ref.Z)
        np.testing.assert_array_equal(
            stopping_time_bound(chain_a, bare, sol, -1.0).Z,
            stopping_time_bound(chain_a, chain_a_rewards, ref, -1.0).Z,
        )
        np.testing.assert_array_equal(
            check_condition_S(chain_a, bare, zp, 0.5).bar_gamma,
            check_condition_S(chain_a, chain_a_rewards, zp, 0.5).bar_gamma,
        )


def test_a_d_above_the_invariant_drift_is_refused(chain_a, chain_a_rewards):
    # mu(f - d) = -2 + 5 = 3 > 0: the auxiliary value gamma is infinite
    with pytest.raises(DriftNotNegative, match=r"mu\(f - d\) = 2\.99"):
        solve_infinite_horizon(chain_a, chain_a_rewards, d=-5.0)


def test_condition_s_and_compactify_refuse_vectors_of_the_wrong_length(chain_b, chain_b_rewards):
    with pytest.raises(DimensionMismatch, match="q must have shape"):
        check_condition_S(chain_b, chain_b_rewards, np.zeros(4), 0.5)
    with pytest.raises(DimensionMismatch, match="f must have shape"):
        compactify_running_reward(chain_b, [-1.0] * 4)


def test_compactify_needs_coords(chain_a):
    with pytest.raises(NoCoords):
        compactify_running_reward(chain_a, CHAIN_A_F)


def test_compactify_support_inside_first_ball(chain_b):
    f = np.array([-2.0, -1.0, 0.0, 0.0, 0.0])
    comp = compactify_running_reward(chain_b, f, center=0)
    assert comp.N == 1
    np.testing.assert_allclose(comp.f_bar[:2], f[:2])
    np.testing.assert_allclose(comp.f_bar[2:], 0.0)


def test_compactify_nonnegative_outside_keeps_f(chain_b):
    f = np.array([-9.0, -2.0, 0.5, 0.5, 0.5])
    comp = compactify_running_reward(chain_b, f, center=0)
    assert comp.N == 1
    outside = np.arange(5) > comp.N
    # flattening cannot lower f where it is already nonnegative
    np.testing.assert_allclose(comp.f_bar[outside], f[outside])
    assert (comp.f_bar >= f).all()


def test_compactify_radius_matches_the_integer_scan():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        coords = rng.random((n, int(rng.integers(1, 4)))) * rng.uniform(0.5, 12.0)
        if rng.random() < 0.5:  # distances that land on integers
            coords = np.round(coords)
        model = build_dtmc(range(n), random_chain(rng, n).kernel, coords=coords)
        mu = model.invariant
        f = rng.normal(0.0, 2.0, n)
        f = f - float(mu.weights @ f) - 0.3
        center = int(rng.integers(n))
        comp = compactify_running_reward(model, f, center=center)
        assert comp.N == loop_ball_radius(coords, center, f, mu.weights)


def test_compactify_time_does_not_grow_with_the_coordinates_scale():
    # an integer scan would try a billion radii here
    model = build_dtmc([0, 1], CHAIN_A_KERNEL, coords=[[0.0], [1e9]])
    t0 = time.perf_counter()
    comp = compactify_running_reward(model, CHAIN_A_F)
    assert time.perf_counter() - t0 < 1.0
    assert comp.N == 1e9


def test_compactify_fractional_cutoff():
    m = build_dtmc(
        range(5),
        [
            [0.75, 0.25, 0.0, 0.0, 0.0],
            [0.25, 0.50, 0.25, 0.0, 0.0],
            [0.0, 0.25, 0.50, 0.25, 0.0],
            [0.0, 0.0, 0.25, 0.50, 0.25],
            [0.0, 0.0, 0.0, 0.25, 0.75],
        ],
        coords=[[0.0], [0.5], [1.0], [1.75], [2.5]],
    )
    f = np.array([-4.0, 2.0, -1.0, 0.5, -0.5])
    comp = compactify_running_reward(m, f, center=0)
    assert comp.N == 2
    # state 4 sits 0.75 beyond the ball: z = 0.25 softens its negative reward
    assert comp.z[4] == pytest.approx(0.25)
    assert comp.f_bar[4] == pytest.approx(-0.125)
    assert comp.mu_f_bar <= (m.invariant.weights @ f) / 2 + 1e-12
