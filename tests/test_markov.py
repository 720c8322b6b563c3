import math
from functools import partial

import numpy as np
import pytest

from conftest import CHAIN_A_F, CHAIN_A_G, CHAIN_A_KERNEL, random_chain
from ergostop import (
    Distribution,
    apply_transition,
    b_family_diagnostics,
    build_dtmc,
    build_from_generator,
    compactify_running_reward,
    estimate_functional,
    make_rewards,
    markov,
    region_value,
    stationary_distribution,
    stopped_potential_exact,
    survival_probability,
    terminal_truncation_gap,
    tv_distance_curve,
    verify_dynkin_identity,
    zero_potential,
)
from ergostop.errors import (
    BadGenerator,
    DimensionMismatch,
    EmptyStateSpace,
    NegativeEntry,
    NonStochasticRow,
    NotIrreducible,
)
from ergostop.markov import (
    adjacency,
    chain_structure,
    reaches,
    simulate_block,
    stream_keys,
    stream_uniforms,
    support_step,
    surely_hits,
)
from oracles import (
    bfs_chain_period,
    bfs_levels,
    closure_recurrent_classes,
    hitting_probability,
    loop_simulate_block,
    path_stream,
    simulate_table,
    transitive_closure,
)


def test_build_dtmc_chain_a(chain_a):
    assert chain_a.n_states == 2
    assert chain_a.source == "direct"
    np.testing.assert_allclose(chain_a.kernel.sum(axis=1), 1.0, atol=1e-15)


def test_build_dtmc_rejects_nonstochastic_row():
    with pytest.raises(NonStochasticRow):
        build_dtmc([0, 1], [[0.5, 0.6], [0.2, 0.8]])


def test_build_dtmc_rejects_negative_entry():
    with pytest.raises(NegativeEntry):
        build_dtmc([0, 1], [[1.1, -0.1], [0.2, 0.8]])


@pytest.mark.parametrize(
    "build, message",
    [(lambda: build_dtmc([0, 1], [[math.nan, 0.4], [0.2, 0.8]]), "kernel has an entry"),
     (lambda: build_dtmc([0, 1], CHAIN_A_KERNEL, dt=math.inf), "dt must be finite"),
     (lambda: build_dtmc([0, 1], CHAIN_A_KERNEL, dt=math.nan), "dt must be finite"),
     (lambda: build_from_generator([0, 1], [[-1, 1], [math.nan, -1]], dt=1.0),
      "generator has an entry"),
     (lambda: build_from_generator([0, 1], [[-1, 1], [1, -1]], dt=math.inf),
      "dt must be finite"),
     (lambda: build_from_generator([0, 1], [[-1, 1], [1, -1]], dt=math.nan),
      "dt must be finite"),
     (lambda: build_dtmc([0, 1], CHAIN_A_KERNEL, coords=[[0.0], [math.inf]]),
      "coords have an entry")],
    ids=["kernel", "dt-inf", "dt-nan", "generator", "generator-dt-inf", "generator-dt-nan",
         "coords"],
)
def test_builders_refuse_non_finite_entries_dt_and_coords(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "build",
    [lambda: build_dtmc([0, 1], CHAIN_A_KERNEL),
     lambda: build_from_generator([0, 1], [[-1, 1], [1, -1]], dt=0.5)],
    ids=["dtmc", "generator"],
)
def test_built_kernel_is_read_only(build):
    # the model caches its graph structure and supports from the kernel
    model = build()
    with pytest.raises(ValueError, match="read-only"):
        model.kernel[0, 0] = 0.5


@pytest.mark.parametrize(
    "build",
    [partial(build_dtmc, [0, 1], CHAIN_A_KERNEL),
     partial(build_from_generator, [0, 1], [[-1, 1], [1, -1]], 0.5)],
    ids=["dtmc", "generator"],
)
def test_builders_refuse_coords_with_more_than_two_dimensions(build):
    with pytest.raises(DimensionMismatch, match="coords"):
        build(coords=[[[0.0]], [[1.0]]])


def test_build_dtmc_rejects_empty():
    with pytest.raises(EmptyStateSpace):
        build_dtmc([], [])


def test_single_absorbing_state_is_valid():
    m = build_dtmc(["only"], [[1.0]], dt=1.0)
    assert m.n_states == 1


def test_generator_small_dt_approaches_identity():
    m = build_from_generator([0, 1], [[-1, 1], [1, -1]], dt=1e-8)
    np.testing.assert_allclose(m.kernel, np.eye(2), atol=1e-7)
    assert m.source == "generator"


def test_generator_two_state_closed_form():
    # scalar series oracle: off-diagonal (1 - e^{-2 dt}) / 2 = 3/8 at dt = ln 2
    m = build_from_generator([0, 1], [[-1, 1], [1, -1]], dt=math.log(2))
    np.testing.assert_allclose(m.kernel[0, 1], 0.375, atol=1e-13)
    np.testing.assert_allclose(m.kernel[1, 0], 0.375, atol=1e-13)


def test_zero_generator_gives_identity():
    m = build_from_generator([0, 1, 2], np.zeros((3, 3)), dt=2.5)
    np.testing.assert_allclose(m.kernel, np.eye(3), atol=0)


def test_generator_past_the_poisson_underflow_is_the_stationary_law():
    # rate * dt = 746: exp(-746) underflows to 0.0, so one series cannot start
    m = build_from_generator([0, 1], np.array([[-1, 1], [2, -2]]) * 373, dt=1.0)
    np.testing.assert_allclose(m.kernel.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(m.kernel, [[2 / 3, 1 / 3]] * 2, rtol=0, atol=1e-12)


def test_generator_past_a_poisson_mean_of_700_squares_the_half_step_kernel():
    # a slow mode keeps the rate * dt = 1400 kernel away from its limit
    gen = [[-1400.0, 1400.0, 0.0], [1.0, -1.002, 0.002], [0.0, 0.001, -0.001]]
    half = build_from_generator(range(3), gen, dt=0.5).kernel
    square = half @ half
    square /= square.sum(axis=1)[:, None]
    np.testing.assert_array_equal(build_from_generator(range(3), gen, dt=1.0).kernel, square)
    assert square[2, 2] - square[0, 2] > 0.9   # rows far from the stationary law


def test_generator_validation():
    with pytest.raises(BadGenerator):
        build_from_generator([0, 1], [[-1.0, 0.5], [1.0, -1.0]], dt=1.0)
    with pytest.raises(BadGenerator):
        build_from_generator([0, 1], [[1.0, -1.0], [1.0, -1.0]], dt=1.0)


def test_generator_semigroup_property():
    rng = np.random.default_rng(7)
    n = 4
    gen = rng.random((n, n))
    np.fill_diagonal(gen, 0.0)
    np.fill_diagonal(gen, -gen.sum(axis=1))
    m1 = build_from_generator(range(n), gen, dt=0.3)
    m2 = build_from_generator(range(n), gen, dt=0.7)
    m3 = build_from_generator(range(n), gen, dt=1.0)
    np.testing.assert_allclose(m1.kernel @ m2.kernel, m3.kernel, atol=1e-10)


def test_stationary_chain_a(chain_a_mu):
    np.testing.assert_allclose(chain_a_mu.weights, [1 / 3, 2 / 3], atol=1e-14)


def test_stationary_doubly_stochastic_is_uniform(chain_b):
    mu = stationary_distribution(chain_b)
    np.testing.assert_allclose(mu.weights, 0.2, atol=1e-13)


def test_stationary_is_fixed_point_on_corpus():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = random_chain(rng, int(rng.integers(2, 9)))
        mu = stationary_distribution(m)
        np.testing.assert_allclose(mu.weights @ m.kernel, mu.weights, atol=1e-12)


def test_stationary_rejects_disconnected_absorbing():
    with pytest.raises(NotIrreducible):
        stationary_distribution(build_dtmc([0, 1], [[1.0, 0.0], [0.0, 1.0]]))


def test_stationary_allows_transient_states():
    # one recurrent class {1} plus a transient feeder state
    m = build_dtmc([0, 1], [[0.5, 0.5], [0.0, 1.0]])
    mu = stationary_distribution(m)
    np.testing.assert_allclose(mu.weights, [0.0, 1.0], atol=1e-14)


def test_apply_transition_examples(chain_a):
    np.testing.assert_allclose(apply_transition(chain_a, [3.0, 3.0]), [3.0, 3.0])
    np.testing.assert_allclose(apply_transition(chain_a, [0.0, 1.0]), [0.4, 0.8])
    total = sum(apply_transition(chain_a, np.eye(2)[y]) for y in range(2))
    np.testing.assert_allclose(total, [1.0, 1.0])
    with pytest.raises(DimensionMismatch):
        apply_transition(chain_a, [1.0, 2.0, 3.0])


def test_chapman_kolmogorov(chain_a):
    two_step = build_dtmc([0, 1], chain_a.kernel @ chain_a.kernel)
    v = np.array([0.3, -1.7])
    lhs = apply_transition(chain_a, apply_transition(chain_a, v))
    np.testing.assert_allclose(lhs, apply_transition(two_step, v), atol=1e-12)


def test_graph_analysis():
    assert build_dtmc([0, 1], CHAIN_A_KERNEL).irreducible
    assert chain_structure(np.array(CHAIN_A_KERNEL))[1] == 1
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert chain_structure(flip)[1] == 2
    classes, _ = chain_structure(np.eye(2))
    assert len(classes) == 2
    assert not build_dtmc([0, 1], np.eye(2)).irreducible


def _random_sparse_kernel(rng, n):
    """One to three successors per state, so many draws are reducible."""
    P = np.zeros((n, n))
    for i in range(n):
        succ = rng.choice(n, size=int(rng.integers(1, min(n, 3) + 1)), replace=False)
        P[i, succ] = rng.random(len(succ)) + 0.05
    return P / P.sum(axis=1, keepdims=True)


def test_graph_functions_match_closure_references():
    rng = np.random.default_rng(20)
    for _ in range(300):
        n = int(rng.integers(1, 31))
        K = _random_sparse_kernel(rng, n)
        closure = transitive_closure(K)
        target = rng.random(n) < 0.2
        np.testing.assert_array_equal(
            reaches(adjacency(K), target) >= 0, closure[:, target].any(axis=1)
        )
        np.testing.assert_array_equal(
            reaches(adjacency(K).T, target) >= 0, closure[target].any(axis=0)
        )
        model = build_dtmc(range(n), K)
        classes, _ = model.structure
        expected = closure_recurrent_classes(K)
        assert len(classes) == len(expected)
        for got, ref in zip(classes, expected):
            np.testing.assert_array_equal(got, ref)
        assert model.irreducible == bool(closure.all())
        region = rng.random(n) < rng.random()
        np.testing.assert_array_equal(
            surely_hits(K, region), hitting_probability(K, region) > 1.0 - 1e-9
        )


def _cyclic_kernel(rng, period, blocks, self_loop):
    """Irreducible kernel of period ``period``: state i sits in class
    i % period, the ring i -> i + 1 and the short cycle through states
    0..period-1 are always edges, and random extra edges run from each class
    to the next; a self-loop makes the period 1. States are then relabelled
    at random."""
    n = period * blocks
    P = np.zeros((n, n))
    P[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    P[period - 1, 0] = 1.0
    nxt = (np.arange(n)[:, None] % period + 1) % period == np.arange(n)[None, :] % period
    P += nxt * (rng.random((n, n)) < 0.3)
    if self_loop:
        x = rng.integers(n)
        P[x, x] = 1.0
    perm = rng.permutation(n)
    P = P[np.ix_(perm, perm)]
    return P / P.sum(axis=1, keepdims=True)


def test_chain_period_matches_bfs_reference():
    rng = np.random.default_rng(9)
    for _ in range(100):
        K = _random_sparse_kernel(rng, int(rng.integers(1, 31)))
        assert chain_structure(K)[1] == bfs_chain_period(adjacency(K))
        np.testing.assert_array_equal(
            reaches(adjacency(K).T, np.arange(len(K)) == 0), bfs_levels(adjacency(K))[0]
        )
    for period in (1, 2, 3, 4, 6):
        for self_loop in (False, True):
            for _ in range(20):
                K = _cyclic_kernel(rng, period, int(rng.integers(1, 8)), self_loop)
                model = build_dtmc(range(len(K)), K)
                assert model.irreducible
                expected = 1 if self_loop else period
                assert model.structure[1] == bfs_chain_period(adjacency(K)) == expected


# Entries that take one state index ``i``; -1 must not wrap to the last state.
STATE_INDEX_CALLS = {
    "tv-probe": lambda m, rw, i: tv_distance_curve(
        m, stationary_distribution(m), [0, i], 4.0),
    "truncation-gap-start": lambda m, rw, i: terminal_truncation_gap(
        m, rw, [2], i, [4.0], [0.1]),
    "stopped-potential-start": lambda m, rw, i: stopped_potential_exact(
        m, rw.f, stationary_distribution(m), np.zeros(5), [2], 3, i),
    "dynkin-start": lambda m, rw, i: verify_dynkin_identity(
        m, zero_potential(m, rw.f, stationary_distribution(m)), rw.f,
        stationary_distribution(m), [2], 0, i, 100, 1),
    "compactify-center": lambda m, rw, i: compactify_running_reward(
        m, rw.f, stationary_distribution(m), center=i),
}


@pytest.mark.parametrize(
    "chain, call",
    [
        pytest.param("chain_a", lambda m, rw: region_value(m, rw, [-1]),
                     id="negative-index"),
        pytest.param("chain_a", lambda m, rw: region_value(m, rw, [2]),
                     id="index-past-end"),
        pytest.param("chain_a", lambda m, rw: survival_probability(m, [True], 2),
                     id="short-mask"),
        pytest.param("chain_a", lambda m, rw: b_family_diagnostics(
            m, rw, 2, [[True, True, True]], [0]), id="nested-mask"),
        *[pytest.param("chain_b", partial(call, i=i), id=f"{name}-{where}")
          for name, call in STATE_INDEX_CALLS.items()
          for i, where in ((-1, "negative"), (5, "past-end"))],
    ],
)
def test_malformed_regions_raise_dimension_mismatch(request, chain, call):
    model = request.getfixturevalue(chain)
    rewards = request.getfixturevalue(f"{chain}_rewards")
    with pytest.raises(DimensionMismatch):
        call(model, rewards)


def free_paths(model, start, steps, n_paths, seed):
    """Paths 0..n_paths - 1 from ``start``, never stopped."""
    never = np.zeros(model.n_states, dtype=bool)
    return simulate_table(
        model, np.full(n_paths, start), seed, np.arange(n_paths), steps, never
    )


def test_simulate_identity_kernel_constant_paths():
    m = build_dtmc([0, 1], np.eye(2))
    paths = free_paths(m, start=1, steps=5, n_paths=10, seed=3)
    assert paths.shape == (10, 6) and (paths == 1).all()


def test_simulate_one_step_frequency(chain_a):
    n_paths = 100_000
    paths = free_paths(chain_a, start=0, steps=1, n_paths=n_paths, seed=42)
    frac = paths[:, 1].mean()
    se = math.sqrt(0.4 * 0.6 / n_paths)
    assert abs(frac - 0.4) <= 3 * se


def test_simulate_seed_reproducibility(chain_a):
    a = free_paths(chain_a, 0, 20, 500, seed=9)
    b = free_paths(chain_a, 0, 20, 500, seed=9)
    c = free_paths(chain_a, 0, 20, 500, seed=10)
    assert (a == b).all()
    assert (a != c).any()


def test_simulate_transitions_have_positive_probability(chain_b):
    paths = free_paths(chain_b, 2, 50, 200, seed=1)
    probs = chain_b.kernel[paths[:, :-1], paths[:, 1:]]
    assert (probs > 0).all()


def test_simulate_block_is_splittable_by_path_id(chain_b):
    ids = np.arange(30)
    states = ids % 5
    part = ids[[2, 5, 17, 29]]
    never = np.zeros(5, dtype=bool)
    stop = np.array([True, False, False, False, False])
    for mask in (never, stop):
        full = simulate_table(chain_b, states, 7, ids, 70, stop=mask)
        alone = simulate_table(chain_b, states[part], 7, part, 70, stop=mask)
        np.testing.assert_array_equal(alone, full[part])
    # the last pass used the stop mask: a row that enters it stays there
    entered = np.logical_or.accumulate(stop[full], axis=1)
    assert entered[:, -1].any() and (full[entered] == 0).all()
    paths = free_paths(chain_b, 2, 40, 12, seed=9)
    for i in range(12):
        drawn_alone = simulate_table(chain_b, [2], 9, [i], 40, never)
        np.testing.assert_array_equal(drawn_alone[0], paths[i])


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64, 2**96 + 5])
def test_path_uniforms_are_the_path_streams_bit_for_bit(seed):
    # the uniforms a path steps on: Philox blocks of its stream, from counter 1
    ids = [0, 1, 5, 2**31, 2**32 - 1]
    keys = stream_keys(seed, ids)
    for steps in (0, 1, 3, 4, 5, 64, 257):
        u = stream_uniforms(keys, np.arange(1, -(-steps // 4) + 1))[:, :steps]
        assert u.shape == (len(ids), steps)
        for r, i in enumerate(ids):
            expected = path_stream(seed, i).random(steps)
            np.testing.assert_array_equal(u[r].view(np.uint64), expected.view(np.uint64))
    # counters that start mid-stream
    for counters in ([2, 3], [5, 6, 7, 8], [9]):
        u = stream_uniforms(keys, counters)
        assert u.shape == (len(ids), 4 * len(counters))
        for r, i in enumerate(ids):
            expected = path_stream(seed, i).random(4 * counters[-1])
            np.testing.assert_array_equal(u[r], expected[4 * (counters[0] - 1):])
    assert stream_uniforms(stream_keys(seed, []), [1, 2]).shape == (0, 8)


@pytest.mark.parametrize(
    "seed, ids",
    [(-1, [0]), (3, [-1]), (3, [2**32]), (3, [0, 2**40])],
    ids=["negative-seed", "negative-id", "id-2^32", "id-2^40"],
)
def test_path_uniforms_reject_keys_outside_the_domain(seed, ids):
    with pytest.raises(ValueError):
        stream_keys(seed, ids)


@pytest.fixture
def counted_blocks(monkeypatch):
    """Row x counter Philox blocks that ``simulate_block`` evaluates."""
    count = [0]

    def counting(keys, counters):
        count[0] += len(keys) * len(counters)
        return stream_uniforms(keys, counters)

    monkeypatch.setattr(markov, "stream_uniforms", counting)
    return count


def test_rows_that_start_stopped_draw_nothing(chain_a, counted_blocks):
    stop = np.array([False, True])
    paths = simulate_table(chain_a, np.ones(500, dtype=int), 4, np.arange(500), 64, stop)
    assert (paths == 1).all() and counted_blocks[0] == 0
    # the simulate command from a stop state
    rewards = make_rewards(chain_a, CHAIN_A_F, CHAIN_A_G)
    estimate_functional(chain_a, rewards, [1], 1, [8, 16], 500, 4)
    assert counted_blocks[0] == 0


def test_rows_draw_blocks_only_while_live(chain_a, counted_blocks):
    rows, steps = 20000, 64
    stop = np.array([False, True])
    paths = simulate_table(chain_a, np.zeros(rows, dtype=int), 3, np.arange(rows), steps, stop)
    # a row reads the uniforms of the steps it takes before it stops
    taken = np.where(stop[paths].any(axis=1), stop[paths].argmax(axis=1), steps)
    read = int((-(-taken // 4)).sum())
    assert read <= counted_blocks[0] < 2 * read
    assert counted_blocks[0] < 0.2 * rows * (steps // 4)


def test_engine_returns_once_no_row_is_live(chain_a):
    stop = np.array([False, True])
    state = np.ones(50, dtype=np.int64)
    assert list(simulate_block(chain_a, state, 4, np.arange(50), 64, stop)) == []
    for steps, early in ((400, True), (5, False)):
        ids = np.arange(300)
        ref = loop_simulate_block(chain_a, np.zeros(300), 3, ids, steps, stop)
        # the step at which the last row enters stop, or all steps
        t = int(stop[ref].argmax(axis=1).max()) if stop[ref[:, -1]].all() else steps
        state = np.zeros(300, dtype=np.int64)
        ks = list(simulate_block(chain_a, state, 3, ids, steps, stop))
        assert ks == list(range(t)) and (state == ref[:, -1]).all()
        assert (t < steps) == early


def test_support_step_never_lands_on_a_zero_probability_state():
    # a renormalized row whose cumulative sum ends below 1, with P(x, n-1) = 0
    rng = np.random.default_rng(2)
    while True:
        row = np.append(rng.random(3), 0.0)
        model = build_dtmc(range(4), [row / row.sum()] + [[0.25] * 4] * 3)
        if np.cumsum(model.kernel[0])[-1] < 1.0:
            break
    u = np.nextafter(1.0, 0.0)
    assert np.cumsum(model.kernel[0])[-1] <= u
    assert support_step(model.supports, np.array([0]), np.array([u])).tolist() == [2]
    # the full-row scan clamps at n - 1, a state row 0 cannot reach
    assert model.kernel[0, 3] == 0.0
    assert min(int((np.cumsum(model.kernel[0]) <= u).sum()), 3) == 3


def _chain_for_paths(rng, n):
    """Sparse, dense or reducible kernels, some rows with a single successor."""
    kind = rng.integers(3)
    if kind == 0:
        P = _random_sparse_kernel(rng, n)
    else:
        P = rng.random((n, n)) * (rng.random((n, n)) < (1.0 if kind == 1 else 0.3))
        P[np.arange(n), rng.integers(0, n, n)] += 0.05
        P /= P.sum(axis=1, keepdims=True)
    single = rng.random(n) < 0.2
    P[single] = np.eye(n)[rng.integers(0, n, n)][single]
    return build_dtmc(list(range(n)), P)


def test_simulate_block_matches_loop_reference():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(1, 41))
        model = _chain_for_paths(rng, n)
        rows = int(rng.integers(0, 25))
        states = rng.integers(0, n, rows)
        ids = rng.choice(2**32, size=rows, replace=False)
        stop = rng.random(n) < rng.random() if rng.random() < 0.5 else np.zeros(n, dtype=bool)
        seed = int(rng.integers(0, 2**62))
        steps = int(rng.integers(0, 140))
        got = simulate_table(model, states, seed, ids, steps, stop=stop)
        ref = loop_simulate_block(model, states, seed, ids, steps, stop=stop)
        assert got.shape == ref.shape
        # rows may differ only from a step where the reference's n - 1 clamp
        # moved to a state of zero probability
        for r in np.flatnonzero((got != ref).any(axis=1)):
            k = int(np.argmax(got[r] != ref[r]))
            assert model.kernel[ref[r, k - 1], ref[r, k]] == 0.0


def test_distribution_validation():
    with pytest.raises(NonStochasticRow):
        Distribution(weights=np.array([0.5, 0.6]))
