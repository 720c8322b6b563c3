"""Path-based verification of the functional definitions.

Exact linear algebra certifies fixed points; what it cannot express is the
defining capped functional itself,

    E^x[ sum_{k < tau ^ T} dt f(X_k) + g(X_{tau ^ T}) ]   as T grows,

the integrability of the running supremum of g+, and the vanishing of the
terminal term g-(X_T) on {tau > T}. These are sampled here with seeded,
reproducible streams and fixed 3-standard-error verdicts.

The lim-inf over horizons is an idealization a finite run cannot take; it is
realized as the running minimum over the largest quartile of the horizon
grid, stated once here and used everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, UnreachableRegion
from .markov import (
    MarkovModel,
    batch_starts,
    grid_steps,
    is_irreducible,
    region_mask,
    simulate_block,
    simulate_paths,
    surely_hits,
)
from .rewards import RewardSpec

Z_THRESHOLD = 3.0
VERDICT_PASS = "PASS"
VERDICT_FAIL = "FAIL"
VERDICT_DIVERGING = "MinusInfinityTrend"

_BLOCK_STEPS = 64
_MAX_BLOCKS = 16384


@dataclass
class FunctionalEstimate:
    """Capped-functional estimates over a horizon grid.

    ``liminf_window`` / ``limsup_window`` are the min and max estimate over
    the largest-quartile horizons. ``verdict`` flags a statistically
    significant downward trend at the tail as MinusInfinityTrend.
    """

    horizons: np.ndarray
    estimates: np.ndarray
    std_errors: np.ndarray
    liminf_window: float
    limsup_window: float
    verdict: str


@dataclass
class TailEstimate:
    """Tail diagnostics for the running supremum of g+ and the terminal term.

    The threshold-indexed section holds E[zeta+ 1{zeta+ > n}] estimates with
    the exact recurrence value (max g+) when the chain is irreducible. The
    horizon-indexed section holds the terminal-truncation quantities
    E[1{tau > T} g-(X_T)] and the full capped/uncapped gap.
    """

    thresholds: np.ndarray | None = None
    estimates: np.ndarray | None = None
    std_errors: np.ndarray | None = None
    exact_value: float | None = None
    horizons: np.ndarray | None = None
    gminus_terms: np.ndarray | None = None
    gminus_std_errors: np.ndarray | None = None
    gaps: np.ndarray | None = None
    gap_std_errors: np.ndarray | None = None
    verdict: str | None = None


def _mean_se(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error (zero for a single sample)."""
    n = len(samples)
    return samples.mean(), samples.std(ddof=1) / np.sqrt(n) if n > 1 else 0.0


def _horizon_steps(model: MarkovModel, horizons) -> np.ndarray:
    hs = np.asarray(horizons, dtype=float)
    if hs.ndim != 1 or len(hs) == 0 or hs[0] < 0 or np.any(np.diff(hs) <= 0):
        raise ValueError("horizons must be a nonempty nonnegative increasing grid")
    return grid_steps(hs, model.dt)


def estimate_functional(
    model: MarkovModel,
    rewards: RewardSpec,
    region,
    start: int,
    horizons,
    n_paths: int,
    seed: int,
) -> FunctionalEstimate:
    """Sample the capped functional of the hitting rule of ``region``."""
    mask = region_mask(model, region)
    steps = _horizon_steps(model, horizons)
    max_steps = int(steps[-1])
    # paths freeze on entry: nothing at or after tau is read but paths[tau]
    paths = simulate_block(
        model, batch_starts(model, start, max_steps, n_paths), seed,
        np.arange(n_paths), 0, max_steps, stop=mask,
    )
    hit = mask[paths]
    tau = np.where(hit.any(axis=1), hit.argmax(axis=1), max_steps + 1)
    cum = np.zeros((n_paths, max_steps + 1))
    np.cumsum(model.dt * rewards.f[paths[:, :-1]], axis=1, out=cum[:, 1:])
    estimates = np.empty(len(steps))
    ses = np.empty(len(steps))
    rows = np.arange(n_paths)
    for i, T in enumerate(steps):
        m = np.minimum(tau, T)
        estimates[i], ses[i] = _mean_se(cum[rows, m] + rewards.g[paths[rows, m]])
    window = max(1, int(np.ceil(len(steps) / 4)))
    verdict = _trend_verdict(estimates, ses)
    return FunctionalEstimate(
        horizons=np.asarray(horizons, dtype=float),
        estimates=estimates,
        std_errors=ses,
        liminf_window=float(estimates[-window:].min()),
        limsup_window=float(estimates[-window:].max()),
        verdict=verdict,
    )


def _trend_verdict(estimates: np.ndarray, ses: np.ndarray) -> str:
    if len(estimates) < 2:
        return VERDICT_PASS
    drop = estimates[-2] - estimates[-1]
    noise = Z_THRESHOLD * float(np.hypot(ses[-2], ses[-1]))
    if drop > noise and drop > 1e-12:
        return VERDICT_DIVERGING
    return VERDICT_PASS


def estimate_zeta_plus_tail(
    model: MarkovModel,
    g,
    start: int,
    horizon: float,
    n_paths: int,
    seed: int,
    thresholds,
) -> TailEstimate:
    """Sample tails of the running supremum of g+ up to the horizon.

    On an irreducible chain the recurrence shortcut pins the infinite-horizon
    value at max g+, which the estimates approach from below as the horizon
    grows; that exact value is attached for cross-checking.
    """
    gv = np.asarray(g, dtype=float)
    th = np.asarray(thresholds, dtype=float)
    if np.any(th < 0) or np.any(np.diff(th) < 0):
        raise ValueError("thresholds must be nonnegative ascending")
    steps = int(grid_steps(horizon, model.dt))
    batch = simulate_paths(model, start, steps, n_paths, seed)
    gplus = np.maximum(gv, 0.0)
    zeta = gplus[batch.paths].max(axis=1)
    estimates = np.empty(len(th))
    ses = np.empty(len(th))
    for i, n in enumerate(th):
        estimates[i], ses[i] = _mean_se(zeta * (zeta > n))
    exact = float(gplus.max()) if is_irreducible(model.kernel) else None
    return TailEstimate(
        thresholds=th, estimates=estimates, std_errors=ses, exact_value=exact
    )


def terminal_truncation_gap(
    model: MarkovModel,
    rewards: RewardSpec,
    region,
    start: int,
    horizons,
    n_paths: int,
    seed: int,
) -> TailEstimate:
    """Measure the terminal leakage that capping the functional can cause.

    Per horizon T, reports E[1{tau > T} g-(X_T)] and the paired gap between
    the capped functional and the uncapped one (paths run to their actual
    hitting times). Verdict PASS iff both vanish within 3 standard errors at
    the largest horizon.
    """
    mask = region_mask(model, region)
    steps = _horizon_steps(model, horizons)
    if not surely_hits(model.kernel, mask)[start]:
        raise UnreachableRegion(
            "region is missed with positive probability from start; "
            "the hitting time is not integrable"
        )
    uncapped, snaps = _simulate_until_hit(
        model, rewards, mask, start, n_paths, seed, checkpoints=steps.tolist()
    )
    # paths stop in the region, so off it g- picks out exactly {tau > T}
    gminus_off = np.where(mask, 0.0, np.maximum(-rewards.g, 0.0))
    gm = np.empty(len(steps))
    gm_se = np.empty(len(steps))
    gaps = np.empty(len(steps))
    gap_se = np.empty(len(steps))
    for i, (state_T, acc_T) in enumerate(snaps):
        gm[i], gm_se[i] = _mean_se(gminus_off[state_T])
        gap, gap_se[i] = _mean_se(acc_T + rewards.g[state_T] - uncapped)
        gaps[i] = abs(gap)
    ok = (
        gm[-1] <= Z_THRESHOLD * gm_se[-1] + 1e-12
        and gaps[-1] <= Z_THRESHOLD * gap_se[-1] + 1e-12
    )
    return TailEstimate(
        horizons=np.asarray(horizons, dtype=float),
        gminus_terms=gm,
        gminus_std_errors=gm_se,
        gaps=gaps,
        gap_std_errors=gap_se,
        verdict=VERDICT_PASS if ok else VERDICT_FAIL,
    )


def _simulate_until_hit(
    model: MarkovModel,
    rewards: RewardSpec,
    mask: np.ndarray,
    start: int,
    n_paths: int,
    seed: int,
    checkpoints,
):
    """Run every path to its hitting time, in blocks of ``_BLOCK_STEPS`` steps.

    Block b of path i draws from the stream (seed, i, b + 1), whichever paths
    are still running. Returns the uncapped functional sum_{k < tau} dt f(X_k)
    + g(X_tau) and, per checkpoint T, the states and accrued running rewards
    after T steps; paths stay frozen once they hit.
    """
    run = model.dt * rewards.f
    state = np.full(n_paths, start, dtype=np.int64)
    acc = np.zeros(n_paths)
    snaps = {}
    ids = np.arange(n_paths) if not mask[start] else np.arange(0)
    block = 0
    while len(ids):
        if block >= _MAX_BLOCKS:
            raise NumericalFailure(
                f"paths failed to hit the region within {_MAX_BLOCKS * _BLOCK_STEPS} steps"
            )
        seg = simulate_block(
            model, state[ids], seed, ids, block + 1, _BLOCK_STEPS, stop=mask
        )
        moved = (~mask[seg[:, :-1]]).sum(axis=1)
        part = acc[ids]
        # after the last entry every row is frozen: later checkpoints read the end
        for k in range(moved.max()):
            if block * _BLOCK_STEPS + k in checkpoints:
                state[ids], acc[ids] = seg[:, k], part
                snaps[block * _BLOCK_STEPS + k] = state.copy(), acc.copy()
            live = moved > k
            part[live] += run[seg[live, k]]
        acc[ids] = part
        state[ids] = seg[:, -1]
        ids = ids[~mask[seg[:, -1]]]
        block += 1
    return acc + rewards.g[state], [snaps.get(T, (state, acc)) for T in checkpoints]
