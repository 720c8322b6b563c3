"""Path-based verification of the functional definitions.

Exact linear algebra certifies fixed points; what it cannot express is the
defining capped functional itself,

    E^x[ sum_{k < tau ^ T} dt f(X_k) + g(X_{tau ^ T}) ]   as T grows,

and the vanishing of the terminal term g-(X_T) on {tau > T}. These are
sampled here with seeded, reproducible streams and fixed 3-standard-error
verdicts. The running supremum of g+, whose integrability the unbounded
rewards need, is computed exactly in ``finite_horizon`` and is not sampled.

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
    grid_steps,
    region_mask,
    residual_tol,
    simulate_block,
    state_index,
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
    """The terminal term E[1{tau > T} g-(X_T)] and the full capped/uncapped
    gap, per horizon T."""

    horizons: np.ndarray
    gminus_terms: np.ndarray
    gminus_std_errors: np.ndarray
    gaps: np.ndarray
    gap_std_errors: np.ndarray
    verdict: str


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
    snaps, _, _ = _sample_hitting_rule(
        model, rewards, mask, start, n_paths, seed, [(0, int(steps[-1]))], steps.tolist()
    )
    estimates = np.empty(len(steps))
    ses = np.empty(len(steps))
    for i, (state_T, accrued_T) in enumerate(snaps):
        estimates[i], ses[i] = _mean_se(accrued_T + rewards.g[state_T])
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
    if drop > noise and drop > residual_tol(estimates[-2], estimates[-1]):
        return VERDICT_DIVERGING
    return VERDICT_PASS


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
    start = state_index(model, start, "start")
    steps = _horizon_steps(model, horizons)
    if not surely_hits(model.kernel, mask)[start]:
        raise UnreachableRegion(
            "region is missed with positive probability from start; "
            "the hitting time is not integrable"
        )
    blocks = ((b, _BLOCK_STEPS) for b in range(1, _MAX_BLOCKS + 1))
    snaps, (state, accrued), live = _sample_hitting_rule(
        model, rewards, mask, start, n_paths, seed, blocks, steps.tolist()
    )
    if live:
        raise NumericalFailure(
            f"paths failed to hit the region within {_MAX_BLOCKS * _BLOCK_STEPS} steps"
        )
    uncapped = accrued + rewards.g[state]
    # paths stop in the region, so off it g- picks out exactly {tau > T}
    gminus_off = np.where(mask, 0.0, np.maximum(-rewards.g, 0.0))
    gm = np.empty(len(steps))
    gm_se = np.empty(len(steps))
    gaps = np.empty(len(steps))
    gap_se = np.empty(len(steps))
    for i, (state_T, accrued_T) in enumerate(snaps):
        gm[i], gm_se[i] = _mean_se(gminus_off[state_T])
        gap, gap_se[i] = _mean_se(accrued_T + rewards.g[state_T] - uncapped)
        gaps[i] = abs(gap)
    # at zero spread the slack is the rounding of each mean's own terms, at
    # the largest horizon
    ok = (
        gm[-1] <= Z_THRESHOLD * gm_se[-1] + residual_tol(gminus_off)
        and gaps[-1] <= Z_THRESHOLD * gap_se[-1]
        + residual_tol(snaps[-1][1], rewards.g, uncapped)
    )
    return TailEstimate(
        horizons=np.asarray(horizons, dtype=float),
        gminus_terms=gm,
        gminus_std_errors=gm_se,
        gaps=gaps,
        gap_std_errors=gap_se,
        verdict=VERDICT_PASS if ok else VERDICT_FAIL,
    )


def _sample_hitting_rule(
    model: MarkovModel,
    rewards: RewardSpec,
    mask: np.ndarray,
    start: int,
    n_paths: int,
    seed: int,
    blocks,
    checkpoints,
):
    """Run paths from ``start`` until they enter ``mask``, accruing dt f.

    ``blocks`` are (stream block, steps) pairs, walked in turn until no path
    is live: in each, the live paths take the steps on their streams (seed,
    path id, block). Every path adds dt f(X_k) for k < tau in order, then
    exact zeros. Returns, per checkpoint T, the states and accrued rewards
    after T steps (the end ones once T reaches the steps taken); the same at
    the end; and the number of paths still live there.
    """
    start = state_index(model, start, "start")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    run = np.where(mask, 0.0, model.dt * rewards.f)
    state = np.full(n_paths, start, dtype=np.int64)
    accrued = np.zeros(n_paths)
    ids = np.arange(0 if mask[start] else n_paths)
    snaps = dict.fromkeys(checkpoints)
    taken = 0
    for block, steps in blocks:
        if not len(ids):
            break
        now, part = state[ids], accrued[ids]
        for k in simulate_block(model, now, seed, ids, block, steps, stop=mask):
            if taken + k in snaps:
                state[ids], accrued[ids] = now, part
                snaps[taken + k] = state.copy(), accrued.copy()
            part += run[now]
        state[ids], accrued[ids] = now, part
        ids = ids[~mask[now]]
        taken += steps
    end = state, accrued
    return [snaps[T] or end for T in checkpoints], end, len(ids)
