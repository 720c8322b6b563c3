"""Independent oracles: brute force only, no shared code paths with the solvers."""

import numpy as np


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
