"""The support gather of ``markov.kernel_product`` against the dense product,
and its two consumers, the TV curve and the taboo sweep."""

import tracemalloc

import numpy as np

from conftest import random_chain
from ergostop import (
    build_dtmc,
    make_rewards,
    stationary_distribution,
    truncation_gap_bound,
    tv_distance_curve,
)
from ergostop import finite_horizon
from ergostop.markov import (
    Distribution,
    Supports,
    kernel_product,
    residual_tol,
    taboo_sweep,
)
from oracles import dense_taboo_sweep, dense_tv_curve


def _walk(n):
    """The benchmark corpus's lazy reflecting walk: hold 1/2, step +-1 with
    1/4 each, the blocked step holding at the ends."""
    P = np.zeros((n, n))
    for x in range(n):
        P[x, x] = 0.5
        P[x, max(x - 1, 0)] += 0.25
        P[x, min(x + 1, n - 1)] += 0.25
    return build_dtmc(range(n), P)


def _sparse_chain(rng, n):
    """Rows of one to five successors, so columns of many widths (some
    empty); some rows absorbing, so many draws are reducible."""
    P = np.zeros((n, n))
    for i in range(n):
        succ = rng.choice(n, size=int(rng.integers(1, min(n, 5) + 1)), replace=False)
        P[i, succ] = rng.random(len(succ)) + 0.05
    absorbing = rng.random(n) < 0.1
    P[absorbing] = np.eye(n)[absorbing]
    return build_dtmc(range(n), P / P.sum(axis=1, keepdims=True))


def _gathering(model):
    """``model`` with its products sent to the gather whatever the rule says."""
    model.supports.gather = True
    return model


def test_supports_hold_every_nonzero_entry_once():
    rng = np.random.default_rng(40)
    for _ in range(50):
        n = int(rng.integers(1, 60))
        model = _sparse_chain(rng, n)
        for (idx, prob), kernel in ((model.supports.successors, model.kernel),
                                    (model.supports.predecessors, model.kernel.T)):
            back = np.zeros((n, n))
            np.add.at(back, (np.tile(np.arange(n), len(idx)), idx.ravel()), prob.ravel())
            assert np.array_equal(back, kernel)


def _slot_by_slot(stack, idx, prob):
    out = np.zeros((len(stack), idx.shape[1]))
    for s in range(len(idx)):
        out = out + stack[:, idx[s]] * prob[s]
    return out


def test_gather_sums_slot_by_slot_in_slot_order_for_any_stack_shape():
    rng = np.random.default_rng(46)
    model = _gathering(_sparse_chain(rng, 300))
    sup = model.supports
    for k in (1, 2, 7, 300):
        rows, cols = rng.random((k, 300)), rng.random((300, k))
        assert np.array_equal(kernel_product(model, rows, True),
                              _slot_by_slot(rows, *sup.predecessors))
        assert np.array_equal(kernel_product(model, cols, False),
                              _slot_by_slot(cols.T, *sup.successors).T)


def test_gather_agrees_with_the_dense_product_in_both_directions():
    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(1, 120))
        model = _gathering(_sparse_chain(rng, n))
        rows = rng.random((int(rng.integers(1, 40)), n))
        cols = rng.random((n, int(rng.integers(1, 40))))
        np.testing.assert_allclose(kernel_product(model, rows, forward=True),
                                   rows @ model.kernel, rtol=1e-15, atol=0)
        np.testing.assert_allclose(kernel_product(model, cols, forward=False),
                                   model.kernel @ cols, rtol=1e-15, atol=0)


def test_gather_chunks_give_the_unchunked_sums(monkeypatch):
    from ergostop import markov
    model = _gathering(_walk(50))
    rows, cols = np.random.default_rng(42).random((2, 70, 50))
    whole = kernel_product(model, rows, True), kernel_product(model, cols.T, False)
    monkeypatch.setattr(markov, "_GATHER_CHUNK", 1)
    assert np.array_equal(kernel_product(model, rows, True), whole[0])
    assert np.array_equal(kernel_product(model, cols.T, False), whole[1])


def test_density_rule_keeps_small_and_dense_kernels_dense():
    # the benchmark's --truncate walks stay dense, as does every dense random
    # kernel; walks of 100 states or more gather
    for n, gather in ((14, False), (50, False), (95, False), (96, True), (300, True),
                      (1000, True)):
        assert _walk(n).supports.gather is gather
    rng = np.random.default_rng(43)
    for n in (12, 50, 200, 400):
        assert not random_chain(rng, n).supports.gather
    for width, gather in ((25, True), (33, False)):   # a band at n = 1000
        band = np.triu(np.tril(np.ones((1000, 1000)), width // 2), -(width // 2))
        assert Supports(band / band.sum(axis=1, keepdims=True)).gather is gather


def test_dense_path_is_byte_identical_to_the_dense_loops():
    rng = np.random.default_rng(44)
    for _ in range(20):
        model = random_chain(rng, int(rng.integers(2, 13)))
        assert not model.supports.gather
        mu = stationary_distribution(model)
        probes = rng.choice(model.n_states, size=int(rng.integers(1, model.n_states + 1)),
                            replace=False)
        got = tv_distance_curve(model, mu, probes, 9 * model.dt).tv
        assert np.array_equal(got, dense_tv_curve(model.kernel, mu.weights, probes, 9))
        keep = rng.random((model.n_states, 3)) < 0.6
        assert np.array_equal(taboo_sweep(model, keep, ~keep, 9),
                              dense_taboo_sweep(model.kernel, keep, ~keep, 9))


def test_gathered_tv_curve_and_taboo_sweep_match_the_dense_loops():
    rng = np.random.default_rng(45)
    for _ in range(20):
        n = int(rng.integers(2, 80))
        model = _gathering(_sparse_chain(rng, n))
        weights = rng.random(n)
        mu = Distribution(weights=weights / weights.sum())
        probes = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        got = tv_distance_curve(model, mu, probes, 12.0).tv
        np.testing.assert_allclose(got, dense_tv_curve(model.kernel, mu.weights, probes, 12),
                                   rtol=0, atol=1e-14)
        keep = rng.random((n, 4)) < 0.7
        np.testing.assert_allclose(taboo_sweep(model, keep, ~keep, 12),
                                   dense_taboo_sweep(model.kernel, keep, ~keep, 12),
                                   rtol=1e-14, atol=1e-300)


def test_walk_1000_gap_bound_and_tv_curve_match_the_dense_sweeps(monkeypatch):
    # g on a quarter grid has 21 levels of |g|, so the dense reference sweep
    # stays cheap; no timing is asserted
    n = 1000
    model = _walk(n)
    assert model.supports.gather
    x = np.arange(n)
    g = np.round(20.0 * np.sin(x / 7.0)) / 4.0
    rewards = make_rewards(model, np.where(x < n // 2, -1.2, 0.3), g)
    gap = truncation_gap_bound(model, rewards, 128, 2.0)
    monkeypatch.setattr(finite_horizon, "taboo_sweep", lambda model, keep, value, steps:
                        dense_taboo_sweep(model.kernel, keep, value, steps))
    np.testing.assert_allclose(gap, truncation_gap_bound(model, rewards, 128, 2.0),
                               rtol=1e-14, atol=0)
    mu = Distribution(weights=np.full(n, 1.0 / n))
    probes = x[::10]
    np.testing.assert_allclose(tv_distance_curve(model, mu, probes, 64.0).tv,
                               dense_tv_curve(model.kernel, mu.weights, probes, 64),
                               rtol=0, atol=1e-14)


def _peak(curve, *args):
    tracemalloc.start()
    try:
        curve(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gathered_tv_curve_peak_memory_stays_within_the_dense_loop():
    # every state a probe: the (p, n) laws are 8 MB, and the gather's chunked
    # temporary must not push the peak past that of the dense loop
    n = 1000
    model = _walk(n)
    mu = Distribution(weights=np.full(n, 1.0 / n))
    probes = np.arange(n)
    gathered = _peak(tv_distance_curve, model, mu, probes, 4.0)
    dense = _peak(dense_tv_curve, model.kernel, mu.weights, probes, 4)
    assert gathered <= dense
    assert gathered <= 2.5 * n * n * 8


def test_gather_takes_empty_stacks():
    model = _gathering(_walk(30))
    assert kernel_product(model, np.zeros((0, 30)), True).shape == (0, 30)
    assert kernel_product(model, np.zeros((30, 0)), False).shape == (30, 0)


def test_a_swept_column_keeps_its_bytes_in_a_stack_only_on_the_gather_path():
    rng = np.random.default_rng(47)
    for n, gather in ((128, True), (50, False)):
        model = _walk(n)
        assert model.supports.gather is gather
        keep = rng.random((n, 25)) < 0.8
        value = rng.random((n, 25))
        stack = taboo_sweep(model, keep, value, 40)
        for j in range(25):
            alone = taboo_sweep(model, keep[:, [j]], value[:, [j]], 40)
            if gather:
                assert np.array_equal(alone[:, 0], stack[:, j])
            else:
                assert np.max(np.abs(alone[:, 0] - stack[:, j])) <= residual_tol(stack[:, j])
