"""Independent oracles: brute force only, no shared code paths with the solvers.

``reference_policy_iteration`` is the exception: a kept reference for the
solver's rounds, sharing its tolerance so that the two agree bit for bit. So
is ``argmax_functional``, the whole-path readout of the Monte Carlo samples,
kept as the reference for ``montecarlo._sample_hitting_rule``. So are
``dense_tv_curve`` and ``dense_taboo_sweep``, the dense ``@`` loops that
``markov.kernel_product`` replaced in the TV curve and ``markov.taboo_sweep``. So
is ``whole_stack_tv_curve``, the loop that pushed every probe's whole row by
``kernel_product``, which the TV curve's probe blocks held on their reachable
states replaced. So is ``full_system_region_values``, the full-size batched formulation that the
region oracle's reduced continuation-set systems replaced.
``simulate_table`` is no oracle at all: it collects the state table of
``markov.simulate_block`` for the engine tests.
"""

import math

import numpy as np

from ergostop.markov import kernel_product, residual_tol, simulate_block, surely_hits


def path_stream(seed: int, path_index: int) -> np.random.Generator:
    """The per-path random stream (seed, path, 0) built on its own: a Philox
    generator seeded by ``SeedSequence(entropy=(seed, path, 0))``, the
    reference for ``stream_keys`` and ``stream_uniforms``."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=(seed, path_index, 0)))
    )


def exhaustive_finite_horizon(model, f, g, horizon_steps):
    """Optimal horizon-T values by enumerating every (time, state) stop rule.

    A rule is a bitmask over T * n decision slots (stopping is forced at the
    horizon). Returns (w, per_rule_values) where per_rule_values[r] is the
    time-zero value vector of rule r.
    """
    n = model.n_states
    T = horizon_steps
    if T * n > 20:
        raise ValueError("enumeration oracle capped at 2^20 rules")
    R = 1 << (T * n)
    codes = np.arange(R, dtype=np.int64)
    values = np.tile(np.asarray(g, dtype=float), (R, 1))
    run = model.dt * np.asarray(f, dtype=float)
    for j in range(T - 1, -1, -1):
        stop = ((codes[:, None] >> (j * n + np.arange(n))) & 1).astype(bool)
        cont = run[None, :] + values @ model.kernel.T
        values = np.where(stop, np.asarray(g, dtype=float)[None, :], cont)
    return values.max(axis=0), values


def series_zero_potential(model, f, mu, k_max=200):
    """Truncated defining series sum_{k <= k_max} dt * (P^k f - mu(f))."""
    f = np.asarray(f, dtype=float)
    mu_f = float(mu.weights @ f)
    q = np.zeros(model.n_states)
    v = f.copy()
    for _ in range(k_max + 1):
        q += model.dt * (v - mu_f)
        v = model.kernel @ v
    return q


def dense_tv_curve(kernel, mu_weights, probes, steps):
    """TV distances sum_y |P^k(x, y) - mu(y)| for k = 1..steps, one row per
    probe x, by a loop of dense ``rows @ kernel`` products: the reference
    for ``ergodicity.tv_distance_curve``."""
    rows = np.eye(kernel.shape[0])[probes]
    tv = np.empty((len(probes), steps))
    for k in range(steps):
        rows = rows @ kernel
        tv[:, k] = np.abs(rows - mu_weights[None, :]).sum(axis=1)
    return tv


def whole_stack_tv_curve(model, probes, steps):
    """TV distances of ``dense_tv_curve``, every probe's whole row pushed at
    once by ``kernel_product``: the reference for
    ``ergodicity.tv_distance_curve`` on kernels that gather."""
    rows = np.zeros((len(probes), model.n_states))
    rows[np.arange(len(probes)), probes] = 1.0
    mu = model.invariant.weights
    tv = np.empty((len(probes), steps))
    for k in range(steps):
        rows = kernel_product(model, rows, forward=True)
        gap = rows - mu[None, :]
        tv[:, k] = np.abs(gap, out=gap).sum(axis=1)
    return tv


def dense_taboo_sweep(kernel, keep, value, steps):
    """E^x[ value(X_{T ^ sigma}) ] for each column of the mask stack
    ``keep`` by a loop of dense ``kernel @ value`` products: the reference
    for ``markov.taboo_sweep``."""
    value = value.astype(float)
    for _ in range(steps):
        value = np.where(keep, kernel @ value, value)
    return value


def rule_forward_reach(model, stop_bits, start, horizon_steps):
    """(time, state) pairs visited before stopping under a fixed rule,
    starting from ``start``; stop_bits has shape (T, n)."""
    n = model.n_states
    adj = model.kernel != 0
    reached = np.zeros((horizon_steps + 1, n), dtype=bool)
    alive = np.zeros(n, dtype=bool)
    alive[start] = True
    for k in range(horizon_steps + 1):
        reached[k] = alive
        if k == horizon_steps:
            break
        cont = alive & ~stop_bits[k]
        alive = adj.T @ cont
    return reached


def transitive_closure(kernel):
    """R[i, j] = state j reachable from i in >= 0 steps, by squaring the
    boolean reachability matrix until it stops changing."""
    reach = (kernel != 0) | np.eye(kernel.shape[0], dtype=bool)
    while True:
        nxt = reach @ reach
        if (nxt == reach).all():
            return reach
        reach = nxt


def closure_recurrent_classes(kernel):
    """Recurrent classes from the closure, in order of their smallest state:
    a class is recurrent when nothing outside it is reachable from it."""
    reach = transitive_closure(kernel)
    mutual = reach & reach.T
    seen = np.zeros(kernel.shape[0], dtype=bool)
    classes = []
    for i in range(kernel.shape[0]):
        if seen[i]:
            continue
        cls = mutual[i]
        seen |= cls
        if not np.any(reach[cls] & ~cls[None, :]):
            classes.append(cls)
    return classes


def hitting_probability(kernel, region):
    """P^x{the chain ever enters region}: 1 on the region, 0 where the
    closure cannot reach it, and the solution of h = P h in between."""
    can = transitive_closure(kernel)[:, region].any(axis=1)
    h = np.where(region, 1.0, 0.0)
    mid = can & ~region
    if mid.any():
        A = np.eye(mid.sum()) - kernel[np.ix_(mid, mid)]
        h[mid] = np.linalg.solve(A, kernel[np.ix_(mid, region)].sum(axis=1))
    return h


def level_map(values):
    levels = np.unique(values)
    lvl = np.searchsorted(levels, values)
    return levels, lvl


def running_max_distribution(kernel, lvl, n_levels, start, steps):
    """Distribution of (X_T, max running level) started at ``start``, stepped
    forward on the states x levels augmented chain."""
    n = kernel.shape[0]
    dist = np.zeros((n, n_levels))
    dist[start, lvl[start]] = 1.0
    level_idx = np.arange(n_levels)
    for _ in range(steps):
        dist = kernel.T @ dist
        # fold levels below the landing state's own level into it
        folded = np.zeros_like(dist)
        for y in range(n):
            ly = lvl[y]
            folded[y, ly] = dist[y, : ly + 1].sum()
            folded[y, level_idx > ly] = dist[y, level_idx > ly]
        dist = folded
    return dist


def augmented_zeta_tail(kernel, magnitude, start, steps, thresholds):
    """E^start[ zeta 1{zeta > n} ] per threshold n, zeta the running max of
    ``magnitude``, from the augmented chain."""
    levels, lvl = level_map(magnitude)
    dist = running_max_distribution(kernel, lvl, len(levels), start, steps)
    mass_per_level = dist.sum(axis=0)
    return np.array(
        [float(((levels > n) * levels * mass_per_level).sum()) for n in thresholds]
    )


def augmented_b3_tail(kernel, norms, g_abs, start, steps):
    """E^start[ g*(M_T) 1{M_T > N} ] per cutoff N among the norm levels, M_T
    the running max of the norm and g*(r) = max |g| over {norm <= r}."""
    levels, lvl = level_map(norms)
    dist = running_max_distribution(kernel, lvl, len(levels), start, steps)
    gstar_level = np.array([float(g_abs[norms <= r].max()) for r in levels])
    mass = dist.sum(axis=0)
    return np.array(
        [float(((levels > N) * gstar_level * mass).sum()) for N in levels]
    )


def submatrix_survival(kernel, mask, steps):
    """P^x{X stays in mask through step T}, from powers of the taboo
    submatrix; zero off the mask."""
    out = np.zeros(kernel.shape[0])
    if mask.any():
        sub = kernel[np.ix_(mask, mask)]
        ones = np.ones(mask.sum())
        for _ in range(steps):
            ones = sub @ ones
        out[mask] = ones
    return out


def bfs_levels(adj):
    """Per-state, per-edge breadth-first levels from state 0 of the edge
    matrix ``adj`` (-1 where unreached), and the states in visiting order."""
    n = adj.shape[0]
    level = np.full(n, -1)
    level[0] = 0
    frontier = [0]
    order = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.flatnonzero(adj[u]):
                if level[v] < 0:
                    level[v] = level[u] + 1
                    nxt.append(v)
                    order.append(v)
        frontier = nxt
    return level, order


def bfs_chain_period(adj):
    """Period of the edge matrix ``adj`` from ``bfs_levels``: gcd over the
    edges u -> v out of reached states of level(u) + 1 - level(v)."""
    level, order = bfs_levels(adj)
    g = 0
    for u in order:
        for v in np.flatnonzero(adj[u]):
            g = math.gcd(g, level[u] + 1 - level[v])
    return abs(g) if g else 0


def loop_ball_radius(coords, center, f, weights):
    """The compactification radius by scanning every integer: the first
    r = 1, 2, ... up to one past the largest distance from ``center`` whose
    tail sum of |f| mu outside the ball of radius r is below -mu(f)/4, or
    None if there is none."""
    coords = np.asarray(coords, dtype=float)
    dist = np.linalg.norm(coords - coords[center], axis=1)
    mu_f = float(weights @ f)
    for radius in range(1, int(np.ceil(dist.max())) + 2):
        tail = float((np.abs(f) * weights)[~(dist <= radius)].sum())
        if tail < -mu_f / 4.0:
            return radius
    return None


def row_format_value(v):
    """CSV text of one table value, decided from its own type."""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def table_rows(columns):
    """One tuple per row, with bool columns turned into ints."""
    columns = [
        [int(b) for b in c] if isinstance(c, np.ndarray) and c.dtype == bool else c
        for c in columns
    ]
    return list(zip(*columns))


def row_csv_text(header, rows):
    """A CSV table written row by row and value by value."""
    lines = [",".join(header)]
    lines += [",".join(row_format_value(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def simulate_table(model, states, seed, path_ids, steps, stop):
    """The (len(path_ids), steps + 1) state table of ``simulate_block``,
    ``states`` first, collected from its in-place steps: column k is the
    state array at the yield of k, and the columns after the engine returns
    repeat the end state."""
    state = np.array(states, dtype=np.int64)
    paths = np.empty((len(state), steps + 1), dtype=np.int64)
    filled = 0
    for k in simulate_block(model, state, seed, path_ids, steps, stop):
        paths[:, k] = state
        filled = k + 1
    paths[:, filled:] = state[:, None]
    return paths


def loop_simulate_block(model, states, seed, path_ids, steps, stop):
    """Paths stepped on one generator built per row and a full-row inverse-CDF
    scan: row r draws ``path_stream(seed, path_ids[r]).random(steps)``
    and moves to the number of kernel-row CDF entries at or below its uniform,
    clamped at n - 1. Rows in the boolean state mask ``stop`` stay put."""
    n = model.n_states
    cdf = np.cumsum(model.kernel, axis=1)
    u = np.empty((len(path_ids), steps))
    for r, i in enumerate(np.asarray(path_ids).tolist()):
        u[r] = path_stream(seed, i).random(steps)
    paths = np.empty((len(path_ids), steps + 1), dtype=np.int64)
    state = np.array(states, dtype=np.int64)
    paths[:, 0] = state
    live = np.arange(len(path_ids))
    for k in range(steps):
        live = live[~stop[state[live]]]
        state[live] = np.minimum((cdf[state[live]] <= u[live, k, None]).sum(axis=1), n - 1)
        paths[:, k + 1] = state
    return paths


def reference_policy_iteration(kernel, dt, run, term):
    """Howard policy iteration over hitting rules with a graph search in every
    round: each region is evaluated on the states off it that enter it almost
    surely (``surely_hits``), -inf elsewhere. The reference for
    ``infinite_horizon._certified_solve``, which takes ``~region`` instead.

    Returns (w, region, residual, tie, certified, rounds).
    """
    n = len(term)
    run_dt = dt * run
    region = np.ones(n, dtype=bool)
    for rounds in range(1, n + 2):
        v = np.full(n, -np.inf)
        v[region] = term[region]
        good = surely_hits(kernel, region) > region
        if good.any():
            A = np.eye(good.sum()) - kernel[np.ix_(good, good)]
            rhs = dt * run[good] + kernel[np.ix_(good, region)] @ term[region]
            sol = np.linalg.solve(A, rhs)
            sol += np.linalg.solve(A, rhs - A @ sol)
            v[good] = sol
        cont = run_dt + kernel @ v
        tie = residual_tol(term, run_dt, v)
        improved = term + tie >= cont
        if (improved == region).all():
            residual = float(np.max(np.abs(v - np.maximum(term, cont))))
            return v, region, residual, tie, residual <= tie, rounds
        region = improved
    raise ArithmeticError(f"policy iteration did not settle within {n + 1} rounds")


def mean_se(samples):
    """Sample mean and its standard error (zero for a single sample)."""
    n = len(samples)
    return samples.mean(), samples.std(ddof=1) / np.sqrt(n) if n > 1 else 0.0


def argmax_functional(model, rewards, mask, start, steps, n_paths, seed):
    """Capped-functional estimates and standard errors read from whole paths:
    every path steps ``max(steps)`` times on its stream, tau is the
    first column of the hit table (argmax), and a float table of running sums
    dt f(X_0) + ... is read at min(tau, T) for each T in ``steps``."""
    max_steps = int(steps[-1])
    paths = loop_simulate_block(
        model, np.full(n_paths, start), seed, np.arange(n_paths), max_steps, stop=mask
    )
    hit = mask[paths]
    tau = np.where(hit.any(axis=1), hit.argmax(axis=1), max_steps + 1)
    cum = np.zeros((n_paths, max_steps + 1))
    np.cumsum(model.dt * rewards.f[paths[:, :-1]], axis=1, out=cum[:, 1:])
    rows = np.arange(n_paths)
    out = []
    for T in steps:
        m = np.minimum(tau, T)
        out.append(mean_se(cum[rows, m] + rewards.g[paths[rows, m]]))
    return np.array(out).T


def taboo_power_gap(kernel, dt, f, g, mask, steps):
    """Exact capped values and g- terms of the hitting rule of ``mask`` for
    every start, per step count T in ``steps``, from the powers of the dense
    taboo kernel Q = diag(~mask) P: with w_0 = ~mask g and
    c = ~mask (dt f + P (mask g)), the capped value is
    mask g + Q^T w_0 + sum_{k < T} Q^k c, and the g- term is Q^T applied
    to g- off the mask. Returns two (len(steps), n) arrays."""
    off = ~mask
    Q = off[:, None] * kernel
    w0 = np.where(off, g, 0.0)
    c = np.where(off, dt * f + kernel @ np.where(mask, g, 0.0), 0.0)
    gminus_off = np.where(off, np.maximum(-g, 0.0), 0.0)
    power, partial = np.eye(len(g)), np.zeros(len(g))
    capped, gminus = [], []
    for k in range(int(max(steps)) + 1):
        if k in steps:
            capped.append(np.where(mask, g, 0.0) + power @ w0 + partial)
            gminus.append(power @ gminus_off)
        partial = partial + power @ c
        power = power @ Q
    return np.array(capped), np.array(gminus)


def full_system_region_values(kernel, dt, f, g):
    """Every nonempty stop region R (rows of ``masks``) valued by the
    full-size system (I - diag(~R) P) v = ~R dt f + R g, 256 regions per
    batched solve plus one refinement step; stop states take g exactly.
    Returns (masks, values) in the order of ``_region_values``."""
    n = len(g)
    run_dt = dt * f
    codes = np.arange(1, 1 << n)
    masks = ((codes[:, None] >> np.arange(n)) & 1).astype(bool)
    values = np.empty(masks.shape)
    for lo in range(0, len(masks), 256):
        stop = masks[lo:lo + 256]
        A = np.eye(n) - ~stop[:, :, None] * kernel
        rhs = np.where(stop, g, run_dt)[:, :, None]
        v = np.linalg.solve(A, rhs)
        v += np.linalg.solve(A, rhs - A @ v)
        values[lo:lo + 256] = np.where(stop, g, v[:, :, 0])
    return masks, values
