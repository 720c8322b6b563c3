"""The support gather of ``markov.kernel_product`` against the dense product,
the laws ``markov.pushed_laws`` holds on the states they can occupy, and
their consumers, the TV curve and the taboo sweep."""

import tracemalloc

import numpy as np
import pytest

from conftest import random_chain
from ergostop import (
    build_dtmc,
    make_rewards,
    truncation_gap_bound,
    tv_distance_curve,
)
from ergostop import finite_horizon
from ergostop.errors import NotIrreducible
from ergostop.markov import (
    GATHER_CHUNK,
    Supports,
    kernel_product,
    residual_tol,
    pushed_laws,
    taboo_sweep,
)
from oracles import dense_taboo_sweep, dense_tv_curve, whole_stack_tv_curve


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
    monkeypatch.setattr(markov, "GATHER_CHUNK", 1)
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
        probes = rng.choice(model.n_states, size=int(rng.integers(1, model.n_states + 1)),
                            replace=False)
        got = tv_distance_curve(model, probes, 9 * model.dt).tv
        assert np.array_equal(got, dense_tv_curve(model.kernel, model.invariant.weights,
                                                  probes, 9))
        keep = rng.random((model.n_states, 3)) < 0.6
        assert np.array_equal(taboo_sweep(model, keep, ~keep, 9),
                              dense_taboo_sweep(model.kernel, keep, ~keep, 9))


def test_gathered_tv_curve_and_taboo_sweep_match_the_dense_loops():
    rng = np.random.default_rng(45)
    curves = 0
    for k in range(20):
        n = int(rng.integers(2, 80))
        model = _sparse_chain(rng, n)
        if k % 2:  # a cycle through every state mixed in: one recurrent class
            model = build_dtmc(range(n), (model.kernel + np.roll(np.eye(n), 1, axis=1)) / 2)
        model = _gathering(model)
        probes = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        if len(model.structure[0]) == 1:
            got = tv_distance_curve(model, probes, 12.0).tv
            np.testing.assert_allclose(
                got, dense_tv_curve(model.kernel, model.invariant.weights, probes, 12),
                rtol=0, atol=1e-14,
            )
            curves += 1
        else:
            with pytest.raises(NotIrreducible):
                tv_distance_curve(model, probes, 12.0)
        keep = rng.random((n, 4)) < 0.7
        np.testing.assert_allclose(taboo_sweep(model, keep, ~keep, 12),
                                   dense_taboo_sweep(model.kernel, keep, ~keep, 12),
                                   rtol=1e-14, atol=1e-300)
    assert curves >= 10


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
    probes = x[::10]
    np.testing.assert_allclose(tv_distance_curve(model, probes, 64.0).tv,
                               dense_tv_curve(model.kernel, model.invariant.weights, probes, 64),
                               rtol=0, atol=1e-14)


def _peak(curve, *args):
    tracemalloc.start()
    try:
        curve(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gathered_tv_curve_peak_memory_stays_within_the_dense_loop():
    # every state a probe: the (p, n) laws are 8 MB, pushed one block of
    # GATHER_CHUNK entries (256 KB) at a time; the peak holds the (p, T) curve
    # and a few block-sized temporaries, the gather's w = 3 slots among them
    n = 1000
    model = _walk(n)
    probes = np.arange(n)
    tv_distance_curve(model, probes, 4.0)  # supports, law and lazy imports settled
    gathered = _peak(tv_distance_curve, model, probes, 4.0)
    dense = _peak(dense_tv_curve, model.kernel, model.invariant.weights, probes, 4)
    assert gathered <= n * 4 * 8 + 8 * GATHER_CHUNK * 8
    assert 8 * gathered <= dense


def _ulps(a, b):
    """Largest distance in units in the last place between two arrays of
    non-negative floats."""
    return int(np.max(np.abs(a.view(np.int64) - b.view(np.int64)), initial=0))


def test_blocked_tv_curve_matches_the_whole_stack_loop_on_walks():
    # T below n / 2, where S never covers a middle block's chain, and above,
    # where S fills mid-run and the block goes on with whole rows
    rng = np.random.default_rng(48)
    for n in (96, 97, 150, 300, 1000):
        model = _walk(n)
        probes = np.arange(n) if n <= 300 else np.sort(rng.choice(n, 60, replace=False))
        for steps in (n // 4, n // 2 + 8):
            got = tv_distance_curve(model, probes, float(steps)).tv
            assert _ulps(got, whole_stack_tv_curve(model, probes, steps)) <= 8


def test_blocked_tv_curve_takes_partial_scrambled_and_duplicate_probes():
    model = _walk(300)
    rng = np.random.default_rng(49)
    for probes in (rng.permutation(300), rng.choice(300, 150, replace=False),
                   rng.choice(300, 400), [5, 5, 299, 0, 5], [17]):
        probes = np.asarray(probes)
        got = tv_distance_curve(model, probes, 80.0).tv
        assert _ulps(got, whole_stack_tv_curve(model, probes, 80)) <= 8


def test_blocked_tv_curve_on_chains_whose_reachable_set_moves():
    # a rotation moves S without growing it (a lone probe's S is one state);
    # one of +1 or +2 moves it and grows it by one state a step
    n = 128
    rotate = np.roll(np.eye(n), 1, axis=1)
    for kernel, width in ((rotate, 1), ((rotate + np.roll(np.eye(n), 2, axis=1)) / 2, 2)):
        model = build_dtmc(range(n), kernel)
        assert model.supports.gather
        for probes in ([3], [3, 40], np.arange(0, n, 5)):
            got = tv_distance_curve(model, probes, 100.0).tv
            assert _ulps(got, whole_stack_tv_curve(model, probes, 100)) <= 8
        for k, (laws, _) in enumerate(pushed_laws(model, np.array([3]), 20), 1):
            assert laws.shape == (1, (width - 1) * k + 2)


def test_blocked_tv_curve_when_the_smallest_probabilities_underflow():
    # the lazy walk with jumps of two at 1e-160: two jumps leave a
    # subnormal mass, three an exact zero inside S
    n = 200
    P = _walk(n).kernel * (1.0 - 2e-160)
    for x in range(n):
        P[x, max(x - 2, 0)] += 1e-160
        P[x, min(x + 2, n - 1)] += 1e-160
    model = build_dtmc(range(n), P)
    assert model.supports.gather
    probes = np.arange(0, n, 3)
    got = tv_distance_curve(model, probes, 12.0).tv
    assert _ulps(got, whole_stack_tv_curve(model, probes, 12)) <= 8


def test_blocked_tv_curve_across_block_boundaries():
    n = 300
    model = _walk(n)
    block = GATHER_CHUNK // n
    reference = whole_stack_tv_curve(model, np.arange(n), 70)
    for count in (block - 1, block, block + 1, 2 * block, 2 * block + 1):
        probes = np.arange(count)
        got = tv_distance_curve(model, probes, 70.0).tv
        assert _ulps(got, reference[:count]) <= 8


def test_tv_curve_keeps_the_whole_stack_bytes_where_S_starts_as_the_chain():
    # every probe of walk-100, one block of 327 rows, scrambled and doubled
    # (a dense kernel keeps them whatever the probes: see
    # test_dense_path_is_byte_identical_to_the_dense_loops)
    model = _walk(100)
    rng = np.random.default_rng(50)
    for probes in (np.arange(100), rng.permutation(100),
                   np.concatenate([rng.permutation(100), [4, 4]])):
        assert np.array_equal(tv_distance_curve(model, probes, 32.0).tv,
                              whole_stack_tv_curve(model, probes, 32))


def test_pushed_laws_give_the_whole_rows_bytes_on_the_reachable_states():
    # S_k computed here from the kernel's nonzeros; the lumped column holds
    # an exact zero, and mu there its mass off S_k
    rng = np.random.default_rng(51)
    for _ in range(80):
        n = int(rng.integers(2, 300))
        cycled = (_sparse_chain(rng, n).kernel + np.roll(np.eye(n), 1, axis=1)) / 2
        model = _gathering(build_dtmc(range(n), cycled))
        probes = rng.choice(n, size=int(rng.integers(1, 20)))
        reach = np.isin(np.arange(n), probes)
        rows = np.eye(n)[probes]
        for laws, mu in pushed_laws(model, probes, 10):
            reach = (model.kernel[reach] != 0).any(axis=0)
            rows = kernel_product(model, rows, forward=True)
            assert not rows[:, ~reach].any()
            if laws.shape[1] == reach.sum() + 1:  # held on S_k
                assert np.array_equal(laws[:, :-1], rows[:, reach])
                assert np.all(laws[:, -1] == 0.0)
                assert np.array_equal(mu[:-1], model.invariant.weights[reach])
                off = model.invariant.weights[~reach].sum()
                assert mu[-1] == pytest.approx(off, rel=1e-15, abs=0)
            else:   # whole rows once S_k covers the chain
                assert reach.all()
                assert np.array_equal(laws, rows)


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


def test_pushed_laws_keep_the_slot_order_where_S_narrows_to_one_state():
    # the last state feeds states 0, 1 and 2, which all feed state 3: from
    # the last state, S narrows to one state whose three slots carry mass
    # (einsum, left to a lone output column, sums them in another order)
    n = 128
    rng = np.random.default_rng(52)
    for _ in range(50):
        P = np.roll(np.eye(n), 1, axis=1)
        P[n - 1] = 0.0
        P[n - 1, :3] = rng.random(3) + 0.1
        P[:3] = 0.0
        P[:3, 3] = 1.0
        model = build_dtmc(range(n), P / P.sum(axis=1, keepdims=True))
        assert model.supports.gather
        rows = np.eye(n)[[n - 1]]
        for laws, _ in pushed_laws(model, np.array([n - 1]), 2):
            rows = kernel_product(model, rows, forward=True)
        assert laws.shape == (1, 2) and laws[0, 0] == rows[0, 3]
