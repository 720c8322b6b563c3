import math

import numpy as np
import pytest

from conftest import CHAIN_A_KERNEL, random_chain
from ergostop import (
    Distribution,
    apply_transition,
    b_family_diagnostics,
    build_dtmc,
    build_from_generator,
    region_value,
    simulate_paths,
    stationary_distribution,
    survival_probability,
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
    chain_period,
    is_irreducible,
    path_stream,
    path_uniforms,
    reaches,
    recurrent_classes,
    simulate_block,
    support_step,
    support_tables,
    surely_hits,
)
from oracles import (
    bfs_chain_period,
    closure_recurrent_classes,
    hitting_probability,
    loop_simulate_block,
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
    assert is_irreducible(np.array(CHAIN_A_KERNEL))
    assert chain_period(np.array(CHAIN_A_KERNEL)) == 1
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert chain_period(flip) == 2
    classes = recurrent_classes(np.eye(2))
    assert len(classes) == 2


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
            reaches(adjacency(K), target), closure[:, target].any(axis=1)
        )
        np.testing.assert_array_equal(
            reaches(adjacency(K).T, target), closure[target].any(axis=0)
        )
        classes = recurrent_classes(K)
        expected = closure_recurrent_classes(K)
        assert len(classes) == len(expected)
        for got, ref in zip(classes, expected):
            np.testing.assert_array_equal(got, ref)
        assert is_irreducible(K) == bool(closure.all())
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
        assert chain_period(K) == bfs_chain_period(adjacency(K))
    for period in (1, 2, 3, 4, 6):
        for self_loop in (False, True):
            for _ in range(20):
                K = _cyclic_kernel(rng, period, int(rng.integers(1, 8)), self_loop)
                assert is_irreducible(K)
                expected = 1 if self_loop else period
                assert chain_period(K) == bfs_chain_period(adjacency(K)) == expected


@pytest.mark.parametrize(
    "call",
    [
        lambda m, rw: region_value(m, rw, [-1]),
        lambda m, rw: region_value(m, rw, [2]),
        lambda m, rw: survival_probability(m, [True], 2),
        lambda m, rw: b_family_diagnostics(m, rw, 2, [[True, True, True]], [0]),
    ],
    ids=["negative-index", "index-past-end", "short-mask", "nested-mask"],
)
def test_malformed_regions_raise_dimension_mismatch(chain_a, chain_a_rewards, call):
    with pytest.raises(DimensionMismatch):
        call(chain_a, chain_a_rewards)


def test_simulate_identity_kernel_constant_paths():
    m = build_dtmc([0, 1], np.eye(2))
    batch = simulate_paths(m, start=1, horizon_steps=5, n_paths=10, seed=3)
    assert (batch.paths == 1).all()


def test_simulate_one_step_frequency(chain_a):
    n_paths = 100_000
    batch = simulate_paths(chain_a, start=0, horizon_steps=1, n_paths=n_paths, seed=42)
    frac = batch.paths[:, 1].mean()
    se = math.sqrt(0.4 * 0.6 / n_paths)
    assert abs(frac - 0.4) <= 3 * se


def test_simulate_seed_reproducibility(chain_a):
    a = simulate_paths(chain_a, 0, 20, 500, seed=9)
    b = simulate_paths(chain_a, 0, 20, 500, seed=9)
    c = simulate_paths(chain_a, 0, 20, 500, seed=10)
    assert (a.paths == b.paths).all()
    assert (a.paths != c.paths).any()


def test_simulate_transitions_have_positive_probability(chain_b):
    batch = simulate_paths(chain_b, 2, 50, 200, seed=1)
    probs = chain_b.kernel[batch.paths[:, :-1], batch.paths[:, 1:]]
    assert (probs > 0).all()


def test_simulate_block_is_splittable_by_path_id(chain_b):
    ids = np.arange(30)
    states = ids % 5
    part = ids[[2, 5, 17, 29]]
    stop = np.array([True, False, False, False, False])
    for mask in (None, stop):
        full = simulate_block(chain_b, states, 7, ids, 3, 70, stop=mask)
        alone = simulate_block(chain_b, states[part], 7, part, 3, 70, stop=mask)
        np.testing.assert_array_equal(alone, full[part])
    # the last pass used the stop mask: a row that enters it stays there
    entered = np.logical_or.accumulate(stop[full], axis=1)
    assert entered[:, -1].any() and (full[entered] == 0).all()
    batch = simulate_paths(chain_b, 2, 40, 12, seed=9)
    for i in range(12):
        drawn_alone = simulate_block(chain_b, [2], 9, [i], 0, 40)
        np.testing.assert_array_equal(drawn_alone[0], batch.paths[i])


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64, 2**96 + 5])
def test_path_uniforms_are_the_path_streams_bit_for_bit(seed):
    ids = [0, 1, 5, 2**31, 2**32 - 1]
    for block in range(4):
        for steps in (0, 1, 3, 4, 5, 64, 257):
            u = path_uniforms(seed, ids, block, steps)
            assert u.shape == (len(ids), steps)
            for r, i in enumerate(ids):
                expected = path_stream(seed, i, block).random(steps)
                np.testing.assert_array_equal(u[r].view(np.uint64), expected.view(np.uint64))
        assert path_uniforms(seed, [], block, 5).shape == (0, 5)


@pytest.mark.parametrize(
    "seed, ids, block",
    [(-1, [0], 0), (3, [-1], 0), (3, [2**32], 0), (3, [0, 2**40], 0), (3, [0], -2)],
    ids=["negative-seed", "negative-id", "id-2^32", "id-2^40", "negative-block"],
)
def test_path_uniforms_reject_keys_outside_the_domain(seed, ids, block):
    with pytest.raises(ValueError):
        path_uniforms(seed, ids, block, 4)


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
    cum, succ = support_tables(model.kernel)
    assert support_step(cum, succ, np.array([0]), np.array([u])).tolist() == [2]
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
        stop = rng.random(n) < rng.random() if rng.random() < 0.5 else None
        seed = int(rng.integers(0, 2**62))
        block, steps = int(rng.integers(0, 4)), int(rng.integers(0, 140))
        got = simulate_block(model, states, seed, ids, block, steps, stop=stop)
        ref = loop_simulate_block(model, states, seed, ids, block, steps, stop=stop)
        assert got.shape == ref.shape
        # rows may differ only from a step where the reference's n - 1 clamp
        # moved to a state of zero probability
        for r in np.flatnonzero((got != ref).any(axis=1)):
            k = int(np.argmax(got[r] != ref[r]))
            assert model.kernel[ref[r, k - 1], ref[r, k]] == 0.0


def test_distribution_validation():
    with pytest.raises(NonStochasticRow):
        Distribution(weights=np.array([0.5, 0.6]))
