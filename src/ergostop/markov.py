"""Finite-state Markov substrate: models, invariant laws, seeded path simulation.

States are addressed by index throughout; ``MarkovModel.states`` carries the
user-facing identifiers for I/O. Kernels are dense row-stochastic matrices at
a fixed time step ``dt``; continuous time enters only through generators that
are discretized by uniformization. Each model also caches a support form of
its kernel (``Supports``: every state's nonzero successors and predecessors,
padded to the widest), which the sampler steps on and through which
``kernel_product`` gathers the stacked products of narrow, large kernels.
"""

from __future__ import annotations

import functools
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
REL_TOL = 1e-12           # the one tolerance relative to the size of an equation


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

    @functools.cached_property
    def structure(self) -> tuple[list[np.ndarray], int]:
        """``chain_structure`` of the kernel, computed once: the builders
        make the kernel read-only, so it cannot go stale."""
        return chain_structure(self.kernel)

    @property
    def irreducible(self) -> bool:
        """All states mutually reachable: one recurrent class, of every state."""
        classes, _ = self.structure
        return len(classes) == 1 and bool(classes[0].all())

    @functools.cached_property
    def supports(self) -> Supports:
        """The kernel's ``Supports``, built once (each form on first use)."""
        return Supports(self.kernel)


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


# -- construction ------------------------------------------------------------

def _validate_square(states, rows, what: str) -> np.ndarray:
    if len(states) == 0:
        raise EmptyStateSpace("model needs at least one state")
    m = np.array(rows, dtype=float)
    if m.ndim != 2 or m.shape != (len(states), len(states)):
        raise DimensionMismatch(
            f"{what} must be {len(states)}x{len(states)}, got {m.shape}"
        )
    if not np.isfinite(m).all():
        raise ValueError(f"{what} has an entry that is not finite")
    return m


def build_dtmc(states, kernel_rows, dt: float = 1.0, coords=None) -> MarkovModel:
    """Build a model from an explicit row-stochastic kernel.

    Rows may deviate from unit sum by at most 1e-9 and are renormalized
    exactly; any negative or non-finite entry is rejected.
    """
    kernel = _validate_square(states, kernel_rows, "kernel")
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if np.any(kernel < 0):
        i, j = np.argwhere(kernel < 0)[0]
        raise NegativeEntry(f"kernel[{i},{j}] = {kernel[i, j]} < 0")
    sums = kernel.sum(axis=1)
    bad = np.abs(sums - 1.0) > ROW_SUM_TOL
    if bad.any():
        i = int(np.argmax(bad))
        raise NonStochasticRow(f"row {i} sums to {sums[i]!r}")
    kernel = kernel / sums[:, None]
    kernel.setflags(write=False)
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
    falls below 1e-14. Past rate * dt = 700, near where exp(-rate * dt)
    underflows, it runs over dt / 2^s instead and is squared s times.
    """
    gen = _validate_square(states, generator_rows, "generator")
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
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
        squarings = max(0, math.ceil(math.log2(rate * dt / 700.0)))
        lam = rate * dt / 2**squarings
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
                    f"after {budget} terms (Poisson mean {lam})"
                )
            term = term @ jump
            weight *= lam / k
            kernel += weight * term
            accum += weight
        kernel = np.maximum(kernel, 0.0)
        kernel /= kernel.sum(axis=1)[:, None]
        for _ in range(squarings):
            kernel = kernel @ kernel
            kernel /= kernel.sum(axis=1)[:, None]
    kernel.setflags(write=False)
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
    if c.ndim > 2 or c.shape[0] != n:
        raise DimensionMismatch(f"coords must have one row per state, got {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError("coords have an entry that is not finite")
    return c


# -- graph structure ---------------------------------------------------------

def adjacency(kernel: np.ndarray) -> np.ndarray:
    """Boolean edge matrix of entries exceeding the positivity tolerance."""
    return kernel > EDGE_TOL


def reaches(adj: np.ndarray, target) -> np.ndarray:
    """Breadth-first depth of each state's shortest path of edges into the
    boolean mask ``target``, -1 where there is none.

    A backward search on the edge matrix ``adj`` (``adj[i, j]`` marks an
    edge i -> j); pass ``adj.T`` for the depths from ``target``. Each step
    reads only the columns of the states reached in the step before, so one
    search reads every column at most once.
    """
    depth = np.where(target, 0, -1)
    unseen = depth < 0
    (new,), d = np.nonzero(target), 0
    while len(new):
        d += 1
        (new,) = (np.logical_or.reduce(adj[:, new], axis=1) & unseen).nonzero()
        unseen[new] = False
        depth[new] = d
    return depth


def chain_structure(kernel: np.ndarray) -> tuple[list[np.ndarray], int]:
    """Recurrent communication classes, as boolean masks ordered by their
    smallest state, and the period, from one pass over the edge graph.

    The class of i is what i reaches and what reaches i; it is recurrent
    when everything i reaches stays inside it. The forward search from
    state 0 gives breadth-first levels, and for each edge u -> v out of a
    reached state, level(u) + 1 - level(v) is a cycle-length residue: their
    gcd is the period of an irreducible chain.
    """
    adj = adjacency(kernel)
    n = kernel.shape[0]
    level = reaches(adj.T, np.arange(n) == 0)
    seen = np.zeros(n, dtype=bool)
    classes = []
    for i in range(n):
        if seen[i]:
            continue
        source = np.arange(n) == i
        forward = (level if i == 0 else reaches(adj.T, source)) >= 0
        cls = forward & (reaches(adj, source) >= 0)
        seen |= cls
        if not np.any(forward > cls):
            classes.append(cls)
    u, v = np.nonzero(adj & (level >= 0)[:, None])
    return classes, int(abs(np.gcd.reduce(level[u] + 1 - level[v])))


def surely_hits(kernel: np.ndarray, region) -> np.ndarray:
    """States from which the chain enters the boolean mask ``region`` almost
    surely (in zero or more steps), the domain of a finite hitting rule.

    On a finite chain the region is missed with positive probability exactly
    when a path that avoids it leads to a state that cannot reach it; a path
    ends on entering the region, so the region's out-edges are dropped
    before that second search.
    """
    adj = adjacency(kernel)
    stranded = reaches(adj, region) < 0
    if not stranded.any():
        return np.ones(kernel.shape[0], dtype=bool)
    adj[region] = False
    return reaches(adj, stranded) < 0


# -- operations ---------------------------------------------------------------

def stationary_distribution(model: MarkovModel) -> Distribution:
    """Invariant probability law, from a direct solve of the balance equations.

    Requires a single recurrent class (detected by reachability, not assumed).
    The returned weights satisfy mu P = mu within 1e-12.
    """
    classes, _ = model.structure
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


# The density rule of ``Supports.gather``: gather when n >= GATHER_RATIO
# times the widest support. On a 2-vCPU machine with one BLAS thread,
# pushing 300 stacked rows through supports of width 3 takes 0.8x the dense
# product's time at n = 100, 0.35x at n = 300 and 0.14x at n = 1000; the
# two cross near widths of 4, 11 and 28.
GATHER_RATIO = 32
_GATHER_CHUNK = 1 << 15   # output entries per chunk of rows (256 KB): it stays in cache


def _padded_support(kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nonzero columns, in increasing order, and their entries,
    slot by slot: two (w, n) arrays, w the widest row, each row padded with
    its last nonzero column (its own index for an empty row) and 0.0."""
    rows, cols = np.nonzero(kernel)
    n = kernel.shape[0]
    counts = np.bincount(rows, minlength=n)
    ends = np.cumsum(counts)
    pos = np.arange(len(rows)) - np.repeat(ends - counts, counts)
    prob = np.zeros((int(counts.max()), n))
    prob[pos, rows] = kernel[rows, cols]
    last = np.where(counts > 0, cols[ends - 1], np.arange(n))
    idx = np.repeat(last[None, :], len(prob), axis=0)
    idx[pos, rows] = cols
    return idx, prob


class Supports:
    """Padded (ELLPACK) nonzero supports of a kernel (Saad, *Iterative
    Methods for Sparse Linear Systems*, 2nd ed., section 3.4), each form
    built on first use.

    ``successors`` holds every state's nonzero successors and their
    probabilities, ``predecessors`` every state's nonzero predecessors and
    theirs, as ``_padded_support`` lays them out: entry [s, i] is slot s of
    state i; ``cumulative`` holds the sampler's running sums of the
    successor probabilities. ``gather`` is the density rule, decided here
    and nowhere else, from the kernel alone: the stacked products of
    ``kernel_product`` gather over the supports when no row or column of
    the n x n kernel holds more than n / ``GATHER_RATIO`` nonzeros, and
    multiply densely otherwise.
    """

    def __init__(self, kernel: np.ndarray):
        self.kernel = kernel
        nonzero = kernel != 0
        width = max(int(nonzero.sum(axis=0).max()), int(nonzero.sum(axis=1).max()))
        self.gather = GATHER_RATIO * width <= kernel.shape[0]

    @functools.cached_property
    def successors(self) -> tuple[np.ndarray, np.ndarray]:
        return _padded_support(self.kernel)

    @functools.cached_property
    def predecessors(self) -> tuple[np.ndarray, np.ndarray]:
        return _padded_support(self.kernel.T)

    @functools.cached_property
    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.successors[1], axis=0)


def kernel_product(model: MarkovModel, stack: np.ndarray, forward: bool) -> np.ndarray:
    """One kernel step of a 2-d stack: ``stack @ P`` when ``forward`` (each
    row a law, pushed one step on), else ``P @ stack`` (each column a
    function, its one-step expectation).

    A kernel that ``Supports.gather`` sends to the dense path gives the
    numpy product itself, whose bytes for one column (or row) may depend on
    how many share its stack: BLAS picks its kernel by the stack's shape, a
    matrix-vector product for a lone column, so a column swept alone and
    the same column inside a wider stack agree only to rounding. Otherwise
    each output entry sums the state's support slots in slot order, with
    no BLAS call, so it has one rounding whatever the BLAS build or the
    stack's shape, a few ulp from the dense product's. Forward, ``einsum``
    gathers rows of the stack over the predecessors and loops over rows,
    then slots, then the n >= ``GATHER_RATIO`` contiguous entries.
    Backward, each slot adds its weighted successor rows in turn. Both run
    in chunks of rows of at most ``_GATHER_CHUNK`` output entries.
    """
    sup = model.supports
    if not sup.gather:
        return stack @ model.kernel if forward else model.kernel @ stack
    step = max(1, _GATHER_CHUNK // max(1, stack.shape[1]))
    if forward:
        idx, prob = sup.predecessors
        out = np.empty(stack.shape)
        for r in range(0, len(stack), step):
            out[r:r + step] = np.einsum("pwn,wn->pn", stack[r:r + step, idx], prob)
        return out
    idx, prob = sup.successors
    out = np.zeros(stack.shape)
    for r in range(0, len(stack), step):
        part = out[r:r + step]
        for succ, p in zip(idx[:, r:r + step], prob[:, r:r + step]):
            term = stack[succ]
            term *= p[:, None]
            part += term
    return out


def taboo_sweep(
    model: MarkovModel, keep: np.ndarray, value: np.ndarray, steps, run=None
) -> np.ndarray:
    """E^x[ sum_{k < T ^ sigma} run(X_k) + value(X_{T ^ sigma}) ], sigma the
    first exit from the mask, for every start x and every column of the
    (n, K) mask stack ``keep`` at once; ``run`` is an optional (n, K) stack
    of running terms, zero by default.

    ``value = keep`` gives the survival P^x{sigma > T}, ``value = ~keep`` the
    exit probability P^x{sigma <= T}, each without cancellation. ``steps``
    is one step count T, or an increasing grid of them, for which the stack
    after each count comes back along a new first axis. This is the only
    T-step taboo loop of the package; each step is one ``kernel_product`` of
    the whole stack.
    """
    grid = np.atleast_1d(steps)
    if grid.min(initial=0) < 0:
        raise ValueError(f"step count must be >= 0, got {grid.min()}")
    value = value.astype(float)
    snaps = []
    for more in np.diff(grid, prepend=0):
        for _ in range(more):
            step = kernel_product(model, value, forward=False)
            value = np.where(keep, step if run is None else step + run, value)
        snaps.append(value)
    return np.stack(snaps) if np.ndim(steps) else value


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


def residual_tol(*terms) -> float:
    """Tolerance on the residual of one equation whose terms are ``terms``:
    REL_TOL times the sum of the terms' max-norms over their finite entries
    (a -inf value, a hitting rule that strands mass, has no size).

    This is the Oettli-Prager backward error (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., section 7.1). It has no
    floor and no additive constant, so scaling every term by 2^k scales the
    tolerance by exactly 2^k and leaves every verdict unchanged.
    """
    return REL_TOL * sum(
        float(np.max(np.abs(t), initial=0.0, where=np.isfinite(t))) for t in terms
    )


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


def state_index(model: MarkovModel, i, name: str) -> int:
    """State index ``i``, refused unless 0 <= i < n: a negative index would
    silently wrap to the last states."""
    n = model.n_states
    if not 0 <= i < n:
        raise DimensionMismatch(f"{name} index {i} out of range for {n} states")
    return int(i)


def grid_steps(times, dt: float):
    """Number of dt steps in each time (an int array shaped like ``times``);
    raises ValueError for a time that is not finite, whose step count does
    not fit int64, or that is off the grid."""
    grid = np.asarray(times, dtype=float)
    steps = grid / dt
    rounded = np.round(steps)
    # NaN fails every comparison, so the cast below sees only int64 counts
    bad = ~(np.abs(rounded) < 2.0**63)
    if np.any(bad):
        t = grid[bad][0]
        if not np.isfinite(t):
            raise ValueError(f"time {t} is not finite")
        raise ValueError(f"time {t} has too many steps of dt = {dt} for int64")
    if np.any(np.abs(steps - rounded) > 1e-9 * np.maximum(1.0, np.abs(steps))):
        raise ValueError(f"time {times} is not a multiple of dt = {dt}")
    return rounded.astype(int)


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


def stream_keys(seed: int, path_ids) -> np.ndarray:
    """Philox keys of the streams (seed, i, 0), one row of two uint64 words
    per path id: the key that ``SeedSequence(entropy=(seed, i, 0))`` seeds a
    Philox generator with, hashed and mixed over uint32 arrays, all ids at
    once. Streams keyed by (seed, path) make parallel and serial simulations
    produce identical paths.

    Seeds of any size keep SeedSequence's word layout; path ids must lie in
    [0, 2**32), where each is one entropy word.
    """
    ids = np.asarray(path_ids)
    if ids.size and (ids.min() < 0 or ids.max() > _MASK32):
        raise ValueError("path ids must lie in [0, 2**32)")
    ids = ids.astype(np.uint32).ravel()
    entropy = [*(np.full_like(ids, w) for w in _words(seed)), ids, np.zeros_like(ids)]
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


# Philox4x64-10 (Salmon et al., SC 2011; the constants of Random123 and numpy)
_PHILOX_MULT = np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157)
_PHILOX_BUMP = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B)
_LOW32, _SHIFT32 = np.uint64(_MASK32), np.uint64(32)
_PHILOX_TILE = 1 << 14    # row x counter blocks per pass: small temporaries run faster
_DRAW_CAP = 16            # Philox counters (64 steps) per live row and draw


def _mulhilo(a: np.ndarray, mult: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """Low and high 64-bit words of the 128-bit products ``a * mult``, the
    high word from the 32-bit halves (uint64 arrays wrap without a warning)."""
    m_lo, m_hi = mult & _LOW32, mult >> _SHIFT32
    a_lo, hi = a & _LOW32, a >> _SHIFT32
    low = a_lo * m_lo
    low >>= _SHIFT32
    mid = hi * m_lo
    mid += low
    cross = a_lo * m_hi
    cross += mid & _LOW32
    mid >>= _SHIFT32
    cross >>= _SHIFT32
    hi *= m_hi
    hi += mid
    hi += cross
    return a * mult, hi


def _philox(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Philox4x64-10 of the blocks ``[c, 0, 0, 0]`` under each key row: the
    (rows, counters, 4) output words."""
    k0, k1 = keys[:, :1], keys[:, 1:]
    zero = np.zeros((len(keys), len(counters)), dtype=np.uint64)
    x = [zero + counters, zero, zero, zero]
    for _ in range(10):
        lo0, hi0 = _mulhilo(x[0], _PHILOX_MULT[0])
        lo1, hi1 = _mulhilo(x[2], _PHILOX_MULT[1])
        hi1 ^= x[1]
        hi1 ^= k0
        hi0 ^= x[3]
        hi0 ^= k1
        x = [hi1, lo1, hi0, lo0]
        k0, k1 = k0 + _PHILOX_BUMP[0], k1 + _PHILOX_BUMP[1]
    return np.stack(x, axis=2)


def stream_uniforms(keys: np.ndarray, counters) -> np.ndarray:
    """The uniforms of Philox blocks ``[c, 0, 0, 0]``, for each key row of
    ``stream_keys`` and each counter c, computed over arrays for many rows
    at once: row r holds the four uniforms ``(word >> 11) * 2**-53`` of each
    counter in turn.

    numpy's Philox advances its counter before each block, so uniform k of a
    fresh stream is word k % 4 of counter k // 4 + 1.
    """
    counters = np.asarray(counters, dtype=np.uint64)
    u = np.empty((len(keys), len(counters), 4))
    tile = max(1, _PHILOX_TILE // max(1, len(counters)))
    for r in range(0, len(keys), tile):
        words = _philox(keys[r:r + tile], counters)
        words >>= np.uint64(11)
        np.multiply(words, 2.0**-53, out=u[r:r + tile])
    return u.reshape(len(keys), 4 * len(counters))


def support_step(sup: Supports, states, u) -> np.ndarray:
    """Successors of ``states`` on the uniforms ``u``: the first support
    state whose cumulative probability exceeds u, else the last slot, whose
    padding repeats the row's last support state. A zero adds an exact 0.0
    to a running sum, so this picks the state a full-row inverse CDF picks.
    """
    succ, _ = sup.successors
    slot = (sup.cumulative[:, states] <= u).sum(axis=0)
    return succ[np.minimum(slot, len(succ) - 1), states]


def simulate_block(
    model: MarkovModel, state: np.ndarray, seed: int, path_ids, steps: int, stop
):
    """Step the int64 array ``state`` in place; the one simulation engine.

    Row r steps by ``support_step`` over its kernel row's nonzero support,
    on the uniforms of the Philox stream keyed by
    ``SeedSequence(entropy=(seed, path_ids[r], 0))``, so any subset of
    rows comes out the same drawn alone. Rows in the boolean state mask
    ``stop`` stay put. A generator: it yields each k < ``steps`` before step
    k, while ``state`` holds the states after k steps and some row is live,
    and returns once none is.

    Uniforms are drawn only for the rows still live, in chunks of Philox
    counters ``[c, 2c - 1]`` that double from c = 1 up to ``_DRAW_CAP``
    counters: a row that stops within four steps costs one block, no row
    costs twice the blocks it reads, and a draw holds at most 64 steps per
    row, however long the horizon.
    """
    keys = stream_keys(seed, path_ids)
    live = row = np.arange(len(keys))
    last = -(-steps // 4)   # the counter that holds the last step's uniform
    drawn = 0               # steps covered by the counters drawn so far
    for k in range(steps):
        keep = ~stop[state[live]]
        live, row = live[keep], row[keep]
        if not len(live):
            return
        yield k
        if k == drawn:
            c = k // 4 + 1
            end = min(2 * c - 1, c + _DRAW_CAP - 1, last)
            u = stream_uniforms(keys[live], np.arange(c, end + 1))
            row, first, drawn = np.arange(len(live)), k, 4 * end
        state[live] = support_step(model.supports, state[live], u[row, k - first])
