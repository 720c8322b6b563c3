"""Finite-state Markov substrate: models, invariant laws, seeded path simulation.

States are addressed by index throughout; ``MarkovModel.states`` carries the
user-facing identifiers for I/O. Kernels are dense row-stochastic matrices at
a fixed time step ``dt``; continuous time enters only through generators that
are discretized by uniformization.
"""

from __future__ import annotations

import math
import operator
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
    ``path_uniforms`` draws the same streams without building one each.
    """
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=(seed, path_index, block)))
    )


# numpy's SeedSequence constants: a pool of four 32-bit words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _words(value) -> list[int]:
    """SeedSequence's entropy words of one int: little-endian 32-bit words,
    ``[0]`` for zero."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_constants(const: int, mult: int):
    """SeedSequence's running hash constant, as (current, next) pairs: it
    does not depend on the data, so every hash step is one vector op."""
    while True:
        nxt = const * mult & _MASK32
        yield np.uint32(const), np.uint32(nxt)
        const = nxt


def _hash(words: np.ndarray, constants) -> np.ndarray:
    xor, mult = next(constants)
    words = (words ^ xor) * mult
    return words ^ words >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return out ^ out >> 16


def stream_keys(seed: int, path_ids, block: int) -> np.ndarray:
    """Philox keys of the streams ``path_stream(seed, i, block)``, one row of
    two uint64 words per path id: ``SeedSequence(entropy=(seed, i, block))``
    hashed and mixed over uint32 arrays, all ids at once.

    Seeds and blocks of any size keep SeedSequence's word layout; path ids
    must lie in [0, 2**32), where each is one entropy word.
    """
    ids = np.asarray(path_ids)
    if ids.size and (ids.min() < 0 or ids.max() > _MASK32):
        raise ValueError("path ids must lie in [0, 2**32)")
    ids = ids.astype(np.uint32).ravel()
    entropy = [*(np.full_like(ids, w) for w in _words(seed)), ids,
               *(np.full_like(ids, w) for w in _words(block))]
    mixing = _hash_constants(_INIT_A, _MULT_A)
    # pool words past the entropy hash a zero word
    pool = [_hash(w, mixing) for w in (entropy + [np.zeros_like(ids)] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], mixing))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hash(word, mixing))
    drawing = _hash_constants(_INIT_B, _MULT_B)
    w0, w1, w2, w3 = (_hash(w, drawing).astype(np.uint64) for w in pool)
    return np.stack([w0 | w1 << 32, w2 | w3 << 32], axis=1)


def path_uniforms(seed: int, path_ids, block: int, steps: int) -> np.ndarray:
    """Row r holds ``path_stream(seed, path_ids[r], block).random(steps)``,
    drawn by one Philox generator that is set to each row's key in turn."""
    keys = stream_keys(seed, path_ids, block)
    u = np.empty((len(keys), steps))
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    # a new stream: counter 0 and an empty buffer, so the first draw is at counter 1
    fresh = bitgen.state | {"buffer_pos": 4}
    fresh["state"]["counter"] = [0, 0, 0, 0]
    for r, key in enumerate(keys):
        fresh["state"]["key"] = key
        bitgen.state = fresh
        gen.random(out=u[r])
    return u


def support_tables(kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nonzero support as two padded tables: the cumulative sums
    of its nonzero probabilities, as wide as the widest support, whose
    padding repeats the row total; and its successor states, one column
    wider, padded with the row's last nonzero state.

    A zero adds an exact 0.0 to a row's running sum, so comparing a uniform
    against these cumulative sums picks the state that the full-row inverse
    CDF picks.
    """
    rows, cols = np.nonzero(kernel)
    counts = np.bincount(rows, minlength=kernel.shape[0])
    ends = np.cumsum(counts)
    pos = np.arange(len(rows)) - np.repeat(ends - counts, counts)
    prob = np.zeros((kernel.shape[0], int(counts.max())))
    prob[rows, pos] = kernel[rows, cols]
    cum = np.cumsum(prob, axis=1)
    succ = np.repeat(cols[ends - 1][:, None], prob.shape[1] + 1, axis=1)
    succ[rows, pos] = cols
    return cum, succ


def support_step(cum: np.ndarray, succ: np.ndarray, states, u) -> np.ndarray:
    """Successors of ``states`` on the uniforms ``u``, by the tables of
    ``support_tables``: the first support state whose cumulative probability
    exceeds u, or the row's last support state when none does."""
    return succ[states, (cum[states] <= u[:, None]).sum(axis=1)]


def simulate_block(
    model: MarkovModel, states, seed: int, path_ids, block: int, steps: int, stop=None
) -> np.ndarray:
    """Step paths from ``states`` for ``steps`` steps; the one simulation engine.

    Row r steps by the inverse CDF of its kernel row, over the row's nonzero
    support, on the uniforms of ``path_stream(seed, path_ids[r], block)``, so
    any subset of rows comes out the same drawn alone. Rows in the boolean
    state mask ``stop`` stay put. Returns the (len(path_ids), steps + 1)
    state indices, ``states`` first.
    """
    paths = np.empty((len(path_ids), steps + 1), dtype=np.int64)
    u = path_uniforms(seed, path_ids, block, steps)
    cum, succ = support_tables(model.kernel)
    state = np.array(states, dtype=np.int64)
    paths[:, 0] = state
    live = slice(None) if stop is None else np.arange(len(u))
    for k in range(steps):
        if stop is not None:
            live = live[~stop[state[live]]]
            if not len(live):
                paths[:, k + 1:] = state[:, None]
                break
        state[live] = support_step(cum, succ, state[live], u[live, k])
        paths[:, k + 1] = state
    return paths


def batch_starts(model: MarkovModel, start: int, horizon_steps: int, n_paths: int):
    """Start states of a batch of ``n_paths`` paths from ``start``, after
    checking the start, the horizon and the path count."""
    n = model.n_states
    if not 0 <= start < n:
        raise DimensionMismatch(f"start index {start} out of range for {n} states")
    if horizon_steps < 0:
        raise ValueError("horizon_steps must be >= 0")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    return np.full(n_paths, start)


def simulate_paths(
    model: MarkovModel, start: int, horizon_steps: int, n_paths: int, seed: int
) -> PathBatch:
    """Sample n_paths kernel paths from ``start`` on the grid, reproducibly."""
    paths = simulate_block(
        model, batch_starts(model, start, horizon_steps, n_paths), seed,
        np.arange(n_paths), 0, horizon_steps,
    )
    return PathBatch(paths=paths, seed=seed, start=start)
