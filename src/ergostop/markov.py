"""Finite-state Markov substrate: models, invariant laws, seeded path simulation.

States are addressed by index throughout; ``MarkovModel.states`` carries the
user-facing identifiers for I/O. Kernels are dense row-stochastic matrices at
a fixed time step ``dt``; continuous time enters only through generators that
are discretized by uniformization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadGenerator,
    DimensionMismatch,
    EmptyStateSpace,
    NegativeEntry,
    NonStochasticRow,
    NotIrreducible,
    NumericalFailure,
    SeriesNotConverged,
)

ROW_SUM_TOL = 1e-9
EDGE_TOL = 1e-15          # kernel entries above this count as graph edges
POISSON_TAIL_TOL = 1e-14
STATIONARY_TOL = 1e-12


@dataclass(frozen=True)
class MarkovModel:
    """Finite state space with a one-step transition kernel at time step dt.

    Attributes
    ----------
    states : tuple
        Ordered state identifiers (names used by file I/O).
    kernel : ndarray, shape (n, n)
        Row-stochastic one-step transition matrix P(dt).
    dt : float
        Time step of the kernel, > 0.
    coords : ndarray or None, shape (n, d)
        Optional per-state coordinates; used for metric balls and distances.
    source : str
        "direct" if the kernel was given, "generator" if induced.
    """

    states: tuple
    kernel: np.ndarray
    dt: float
    coords: np.ndarray | None = None
    source: str = "direct"

    @property
    def n_states(self) -> int:
        return len(self.states)

    def index(self, state) -> int:
        """Index of a state identifier."""
        return self.states.index(state)


@dataclass(frozen=True)
class Distribution:
    """Probability weights over the model's states."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < -1e-12):
            raise NegativeEntry("distribution has a negative weight")
        if abs(w.sum() - 1.0) > 1e-12:
            raise NonStochasticRow(f"distribution sums to {w.sum()!r}, not 1")


@dataclass(frozen=True)
class PathBatch:
    """Simulated state-index paths on the grid 0, dt, ..., horizon.

    Regenerating with the same seed reproduces the batch bit-exactly,
    independent of how simulation work is scheduled.
    """

    paths: np.ndarray   # (n_paths, horizon_steps + 1), int
    seed: int
    start: int

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def horizon_steps(self) -> int:
        return self.paths.shape[1] - 1


# -- construction ------------------------------------------------------------

def _validate_square(states, rows, what: str) -> np.ndarray:
    if len(states) == 0:
        raise EmptyStateSpace("model needs at least one state")
    m = np.array(rows, dtype=float)
    if m.ndim != 2 or m.shape != (len(states), len(states)):
        raise DimensionMismatch(
            f"{what} must be {len(states)}x{len(states)}, got {m.shape}"
        )
    return m


def build_dtmc(states, kernel_rows, dt: float = 1.0, coords=None) -> MarkovModel:
    """Build a model from an explicit row-stochastic kernel.

    Rows may deviate from unit sum by at most 1e-9 and are renormalized
    exactly; any negative entry is rejected.
    """
    kernel = _validate_square(states, kernel_rows, "kernel")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if np.any(kernel < 0):
        i, j = np.argwhere(kernel < 0)[0]
        raise NegativeEntry(f"kernel[{i},{j}] = {kernel[i, j]} < 0")
    sums = kernel.sum(axis=1)
    bad = np.abs(sums - 1.0) > ROW_SUM_TOL
    if bad.any():
        i = int(np.argmax(bad))
        raise NonStochasticRow(f"row {i} sums to {sums[i]!r}")
    kernel = kernel / sums[:, None]
    return MarkovModel(
        states=tuple(states),
        kernel=kernel,
        dt=float(dt),
        coords=_as_coords(coords, len(states)),
        source="direct",
    )


def build_from_generator(states, generator_rows, dt: float, coords=None) -> MarkovModel:
    """Build the dt-step kernel of a continuous-time chain by uniformization.

    The kernel is the Poisson-weighted power series of the uniformized jump
    matrix J = I + G/rate, truncated once the remaining Poisson tail mass
    falls below 1e-14.
    """
    gen = _validate_square(states, generator_rows, "generator")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    off = gen - np.diag(np.diag(gen))
    if np.any(off < 0):
        raise BadGenerator("generator has a negative off-diagonal entry")
    if np.any(np.abs(gen.sum(axis=1)) > 1e-12):
        raise BadGenerator("generator rows must sum to zero within 1e-12")

    n = len(states)
    rate = float(np.max(-np.diag(gen))) if n else 0.0
    if rate <= 0.0:
        kernel = np.eye(n)
    else:
        jump = np.eye(n) + gen / rate
        lam = rate * dt
        # iterate Poisson weights; budget generous beyond the mean
        budget = int(lam + 40.0 * math.sqrt(lam + 1.0) + 200)
        weight = math.exp(-lam)
        accum = weight
        term = np.eye(n)
        kernel = weight * term
        k = 0
        while 1.0 - accum >= POISSON_TAIL_TOL:
            k += 1
            if k > budget:
                raise SeriesNotConverged(
                    f"uniformization series not below tail {POISSON_TAIL_TOL} "
                    f"after {budget} terms (rate*dt = {lam})"
                )
            term = term @ jump
            weight *= lam / k
            kernel += weight * term
            accum += weight
        kernel = np.maximum(kernel, 0.0)
        kernel /= kernel.sum(axis=1)[:, None]
    return MarkovModel(
        states=tuple(states),
        kernel=kernel,
        dt=float(dt),
        coords=_as_coords(coords, n),
        source="generator",
    )


def _as_coords(coords, n: int) -> np.ndarray | None:
    if coords is None:
        return None
    c = np.atleast_2d(np.array(coords, dtype=float))
    if c.shape[0] == 1 and n > 1:
        c = c.T
    if c.shape[0] != n:
        raise DimensionMismatch(f"coords must have one row per state, got {c.shape}")
    return c


# -- graph structure ---------------------------------------------------------

def adjacency(kernel: np.ndarray) -> np.ndarray:
    """Boolean edge matrix of entries exceeding the positivity tolerance."""
    return kernel > EDGE_TOL


def reaches(adj: np.ndarray, target) -> np.ndarray:
    """States with a path of zero or more edges into the boolean mask ``target``.

    A backward breadth-first search on the edge matrix ``adj`` (``adj[i, j]``
    marks an edge i -> j); pass ``adj.T`` for the states reachable from
    ``target``. Each step reads only the columns of the states reached in
    the step before, so one search reads every column at most once.
    """
    reach = np.array(target, dtype=bool)
    (new,) = reach.nonzero()
    while len(new):
        grown = np.logical_or.reduce(adj[:, new], axis=1) > reach
        reach |= grown
        (new,) = grown.nonzero()
    return reach


def recurrent_classes(kernel: np.ndarray) -> list[np.ndarray]:
    """Recurrent communication classes as boolean masks, ordered by their
    smallest state.

    The class of i is what i reaches and what reaches i; it is recurrent
    when everything i reaches stays inside it.
    """
    adj = adjacency(kernel)
    n = kernel.shape[0]
    seen = np.zeros(n, dtype=bool)
    classes = []
    for i in range(n):
        if seen[i]:
            continue
        source = np.arange(n) == i
        forward = reaches(adj.T, source)
        cls = forward & reaches(adj, source)
        seen |= cls
        if not np.any(forward > cls):
            classes.append(cls)
    return classes


def is_irreducible(kernel: np.ndarray) -> bool:
    """All states mutually reachable: state 0 reaches every state and every
    state reaches state 0."""
    adj = adjacency(kernel)
    zero = np.arange(kernel.shape[0]) == 0
    return bool(reaches(adj, zero).all() and reaches(adj.T, zero).all())


def surely_hits(kernel: np.ndarray, region) -> np.ndarray:
    """States from which the chain enters the boolean mask ``region`` almost
    surely (in zero or more steps), the domain of a finite hitting rule.

    On a finite chain the region is missed with positive probability exactly
    when a path that avoids it leads to a state that cannot reach it; a path
    ends on entering the region, so the region's out-edges are dropped
    before that second search.
    """
    adj = adjacency(kernel)
    stranded = ~reaches(adj, region)
    if not stranded.any():
        return np.ones(kernel.shape[0], dtype=bool)
    adj[region] = False
    return ~reaches(adj, stranded)


def chain_period(kernel: np.ndarray) -> int:
    """Period of an irreducible chain: gcd of cycle lengths on the edge graph.

    Breadth-first levels from state 0, one boolean frontier per level as in
    ``reaches``; for each edge u -> v out of a reached state the difference
    level(u) + 1 - level(v) is a cycle-length residue.
    """
    adj = adjacency(kernel)
    level = np.full(kernel.shape[0], -1)
    new, depth = np.array([0]), 0
    while len(new):
        level[new] = depth
        (new,) = (np.logical_or.reduce(adj[new], axis=0) & (level < 0)).nonzero()
        depth += 1
    u, v = np.nonzero(adj & (level >= 0)[:, None])
    return int(abs(np.gcd.reduce(level[u] + 1 - level[v])))


# -- operations ---------------------------------------------------------------

def stationary_distribution(model: MarkovModel) -> Distribution:
    """Invariant probability law, from a direct solve of the balance equations.

    Requires a single recurrent class (detected by reachability, not assumed).
    The returned weights satisfy mu P = mu within 1e-12.
    """
    classes = recurrent_classes(model.kernel)
    if len(classes) != 1:
        raise NotIrreducible(
            f"found {len(classes)} recurrent classes; invariant law not unique"
        )
    n = model.n_states
    anchor = int(np.flatnonzero(classes[0])[0])
    A = model.kernel.T - np.eye(n)
    A[anchor, :] = 1.0
    b = np.zeros(n)
    b[anchor] = 1.0
    w = np.linalg.solve(A, b)
    # one pass of iterative refinement tightens the residual to ~1e-16
    w += np.linalg.solve(A, b - A @ w)
    w = np.where(np.abs(w) < 1e-14, 0.0, w)
    w /= w.sum()
    resid = np.max(np.abs(w @ model.kernel - w))
    if resid > STATIONARY_TOL:
        raise NumericalFailure(f"stationary solve residual {resid} > {STATIONARY_TOL}")
    return Distribution(weights=w)


def apply_transition(model: MarkovModel, values) -> np.ndarray:
    """One-step expectation operator: out(x) = sum_y P(x, y) values(y)."""
    return model.kernel @ per_state(model, values, "values")


# -- per-state helpers ----------------------------------------------------------

def per_state(model: MarkovModel, values, name: str) -> np.ndarray:
    """``values`` as a float vector with one entry per state."""
    v = np.asarray(values, dtype=float)
    if v.shape != (model.n_states,):
        raise DimensionMismatch(
            f"{name} must have shape ({model.n_states},), got {v.shape}"
        )
    return v


def region_mask(model: MarkovModel, region) -> np.ndarray:
    """Boolean state mask of ``region``, given as a mask or as state indices."""
    r = np.asarray(region)
    n = model.n_states
    if r.dtype == bool:
        if r.shape != (n,):
            raise DimensionMismatch(
                f"region mask must have shape ({n},), got {r.shape}"
            )
        return r.copy()
    idx = r.astype(int)
    if np.any((idx < 0) | (idx >= n)):
        raise DimensionMismatch(f"region index out of range for {n} states")
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    return mask


def grid_steps(times, dt: float):
    """Number of dt steps in each time (an int array shaped like ``times``);
    raises ValueError for a time off the grid."""
    steps = np.asarray(times, dtype=float) / dt
    rounded = np.round(steps)
    if np.any(np.abs(steps - rounded) > 1e-9 * np.maximum(1.0, np.abs(steps))):
        raise ValueError(f"time {times} is not a multiple of dt = {dt}")
    return rounded.astype(int)


def path_stream(seed: int, path_index: int, block: int = 0) -> np.random.Generator:
    """Independent per-path random stream, split from the master seed.

    Streams are keyed by (seed, path, block) through a counter-based
    generator, so parallel and serial simulations produce identical paths.
    """
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=(seed, path_index, block)))
    )


def simulate_block(
    model: MarkovModel, states, seed: int, path_ids, block: int, steps: int, stop=None
) -> np.ndarray:
    """Step paths from ``states`` for ``steps`` steps; the one simulation engine.

    Row r steps by the inverse CDF of its kernel row on uniforms from
    ``path_stream(seed, path_ids[r], block)``, so any subset of rows comes out
    the same drawn alone. Rows in the boolean state mask ``stop`` stay put.
    Returns the (len(path_ids), steps + 1) state indices, ``states`` first.
    """
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
            if not len(live):
                paths[:, k + 1:] = state[:, None]
                break
        state[live] = np.minimum((cdf[state[live]] <= u[live, k, None]).sum(axis=1), n - 1)
        paths[:, k + 1] = state
    return paths


def simulate_paths(
    model: MarkovModel, start: int, horizon_steps: int, n_paths: int, seed: int
) -> PathBatch:
    """Sample n_paths kernel paths from ``start`` on the grid, reproducibly."""
    n = model.n_states
    if not 0 <= start < n:
        raise DimensionMismatch(f"start index {start} out of range for {n} states")
    if horizon_steps < 0:
        raise ValueError("horizon_steps must be >= 0")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    paths = simulate_block(
        model, np.full(n_paths, start), seed, np.arange(n_paths), 0, horizon_steps
    )
    return PathBatch(paths=paths, seed=seed, start=start)
