"""Independent oracles: brute force only, no shared code paths with the solvers."""

import math

import numpy as np

from ergostop.markov import path_stream


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


def rule_forward_reach(model, stop_bits, start, horizon_steps):
    """(time, state) pairs visited before stopping under a fixed rule,
    starting from ``start``; stop_bits has shape (T, n)."""
    n = model.n_states
    adj = model.kernel > 1e-15
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
    reach = (kernel > 1e-15) | np.eye(kernel.shape[0], dtype=bool)
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


def bfs_chain_period(adj):
    """Period of the edge matrix ``adj`` from a per-state, per-edge
    breadth-first leveling from state 0: gcd over the edges u -> v of
    level(u) + 1 - level(v)."""
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
    g = 0
    for u in order:
        for v in np.flatnonzero(adj[u]):
            g = math.gcd(g, level[u] + 1 - level[v])
    return abs(g) if g else 0


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


def loop_simulate_block(model, states, seed, path_ids, block, steps, stop=None):
    """Paths stepped on one generator built per row and a full-row inverse-CDF
    scan: row r draws ``path_stream(seed, path_ids[r], block).random(steps)``
    and moves to the number of kernel-row CDF entries at or below its uniform,
    clamped at n - 1. Rows in the boolean state mask ``stop`` stay put."""
    n = model.n_states
    cdf = np.cumsum(model.kernel, axis=1)
    u = np.empty((len(path_ids), steps))
    for r, i in enumerate(np.asarray(path_ids).tolist()):
        u[r] = path_stream(seed, i, block).random(steps)
    paths = np.empty((len(path_ids), steps + 1), dtype=np.int64)
    state = np.array(states, dtype=np.int64)
    paths[:, 0] = state
    live = slice(None) if stop is None else np.arange(len(path_ids))
    for k in range(steps):
        if stop is not None:
            live = live[~stop[state[live]]]
        state[live] = np.minimum((cdf[state[live]] <= u[live, k, None]).sum(axis=1), n - 1)
        paths[:, k + 1] = state
    return paths
