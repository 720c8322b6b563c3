"""Path-based verification of the functional definitions.

Exact linear algebra certifies fixed points; what it cannot express is the
defining capped functional itself,

    E^x[ sum_{k < tau ^ T} dt f(X_k) + g(X_{tau ^ T}) ]   as T grows.

It is sampled here with seeded, reproducible streams and a fixed
3-standard-error trend verdict. The vanishing of the terminal term
g-(X_T) on {tau > T} and of the cap gap is computed exactly, by one taboo
sweep, and judged against the estimate's own standard error. The running
supremum of g+, whose integrability the unbounded rewards need, is also
computed exactly, in ``finite_horizon``.

The lim-inf over horizons is an idealization a finite run cannot take; it is
realized as the running minimum over the largest quartile of the horizon
grid, stated once here and used everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnreachableRegion
from .infinite_horizon import region_value
from .markov import (
    MarkovModel,
    grid_steps,
    region_mask,
    residual_tol,
    simulate_block,
    state_index,
    surely_hits,
    taboo_sweep,
)
from .rewards import RewardSpec

Z_THRESHOLD = 3.0
VERDICT_PASS = "PASS"
VERDICT_FAIL = "FAIL"
VERDICT_DIVERGING = "MinusInfinityTrend"
MISSED_REGION = ("region is missed with positive probability from start; "
                 "the hitting time is not integrable")


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
    gaps: np.ndarray
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
    snaps = _sample_hitting_rule(model, rewards, mask, start, n_paths, seed, steps.tolist())
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


def check_region_hit(model: MarkovModel, region, start: int) -> None:
    """Refuse (UnreachableRegion) a region missed with positive probability
    from ``start``, where ``region_value`` is -inf, by one graph search."""
    mask = region_mask(model, region)
    if not surely_hits(model.kernel, mask)[state_index(model, start, "start")]:
        raise UnreachableRegion(MISSED_REGION)


def terminal_truncation_gap(
    model: MarkovModel,
    rewards: RewardSpec,
    region,
    start: int,
    horizons,
    std_errors,
) -> TailEstimate:
    """The terminal leakage that capping the functional can cause, exactly.

    Per horizon T, E^start[1{tau > T} g-(X_T)] and the cap gap between the
    capped functional and v = ``region_value``. By the strong Markov
    property the capped functional minus v is E[1{tau > T} (g - v)(X_T)],
    so both are terminal columns of one taboo sweep, with no running term
    and no cancellation. Verdict PASS iff at the largest horizon both are at
    most Z_THRESHOLD times ``std_errors[-1]``, the functional estimate's
    standard error there, plus ``residual_tol`` of their terminal columns.
    A region missed with positive probability from ``start``, where v is
    -inf there, is refused (UnreachableRegion).
    """
    mask = region_mask(model, region)
    start = state_index(model, start, "start")
    steps = _horizon_steps(model, horizons)
    se = np.asarray(std_errors, dtype=float)
    if se.shape != steps.shape:
        raise ValueError("std_errors must give one standard error per horizon")
    gm, gaps = np.zeros((2, len(steps)))
    ok = True
    if not mask[start]:   # from inside the region tau = 0: both are 0 exactly
        value = region_value(model, rewards, mask)
        if value[start] == -np.inf:
            raise UnreachableRegion(MISSED_REGION)
        # terms off the region count exactly on {tau > T}; v is finite wherever
        # the start can be before tau, so the other states' terms are never read
        off = ~mask & np.isfinite(value)
        terminal = np.column_stack([
            np.where(off, rewards.g - value, 0.0),
            np.where(mask, 0.0, np.maximum(-rewards.g, 0.0)),
        ])
        sweep = taboo_sweep(model, ~mask[:, None], terminal, steps)[:, start]
        gaps, gm = np.abs(sweep[:, 0]), sweep[:, 1]
        noise = Z_THRESHOLD * se[-1]
        ok = bool(
            gm[-1] <= noise + residual_tol(terminal[:, 1])
            and gaps[-1] <= noise + residual_tol(terminal[:, 0])
        )
    return TailEstimate(
        horizons=np.asarray(horizons, dtype=float),
        gminus_terms=gm,
        gaps=gaps,
        verdict=VERDICT_PASS if ok else VERDICT_FAIL,
    )


def _sample_hitting_rule(
    model: MarkovModel,
    rewards: RewardSpec,
    mask: np.ndarray,
    start: int,
    n_paths: int,
    seed: int,
    checkpoints,
):
    """Run paths from ``start`` through ``simulate_block`` for up to the
    last checkpoint's steps, each stopping on entering ``mask`` and adding
    dt f(X_k) for k < tau in order, then exact zeros.
    Returns, per checkpoint T, the states and accrued rewards after T steps
    (the end ones once T passes the steps taken).
    """
    start = state_index(model, start, "start")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    run = np.where(mask, 0.0, model.dt * rewards.f)
    state = np.full(n_paths, start, dtype=np.int64)
    accrued = np.zeros(n_paths)
    snaps = dict.fromkeys(checkpoints)
    if not mask[start]:
        ids = np.arange(n_paths)
        for k in simulate_block(model, state, seed, ids, checkpoints[-1], stop=mask):
            if k in snaps:
                snaps[k] = state.copy(), accrued.copy()
            accrued += run[state]
    return [snaps[T] or (state, accrued) for T in checkpoints]
