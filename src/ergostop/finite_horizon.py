"""Finite-horizon stopping: Bermudan backward induction and tail diagnostics.

Timing convention, used everywhere: at each grid time decide first, then on
continuation accrue dt * f(current state) and move one kernel step. The value
surface obeys

    w_0 = g,        w_{k+1} = max(g, dt * f + P w_k),

so surface[k] is the value with k steps remaining. The reported rule stops
wherever g >= w - 1e-9; the tie tolerance is the float-safe reading of
"stop as soon as stopping is not strictly worse", which realizes the
smallest optimal stopping time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AugmentationTooLarge, BadNesting
from .markov import MarkovModel, region_mask
from .rewards import RewardSpec

TIE_TOL = 1e-9
SUPERMARTINGALE_TOL = 1e-10
AUGMENTATION_CAP = 200_000


@dataclass
class FiniteHorizonSolution:
    """Value surface w_{k dt} for k = 0..horizon_steps plus the stop rule.

    ``surface[k, x]`` is the value with k steps remaining (surface[0] = g
    exactly); ``rule[k, x]`` flags the stop set {g >= w_k - 1e-9}.
    """

    horizon_steps: int
    surface: np.ndarray          # (horizon_steps + 1, n)
    rule: np.ndarray             # (horizon_steps + 1, n), bool
    truncation_level: float | None = None


@dataclass
class SupermartingaleReport:
    """One-step residuals of the value surface.

    ``max_residual`` must be <= 1e-10 (the continue branch never beats the
    surface); ``max_continuation_gap`` is the largest |residual| where the
    rule continues, which must vanish.
    """

    max_residual: float
    max_continuation_gap: float
    ok: bool


@dataclass
class TailReport:
    """Exact tail quantities behind the uniform-integrability assumptions.

    All curves are nonnegative and nonincreasing in their threshold, and in
    R for the distance-truncated family. On a finite space every sum is
    finite; the magnitudes are what carries information for truncated
    countable models.
    """

    thresholds: np.ndarray            # n grid
    zeta_tail: np.ndarray             # sup_{y in K} E^y[zeta_T 1{zeta_T > n}]
    a: np.ndarray                     # sup_{y in K} sup_{tau <= T} E^y[|g| 1{|g| > n}]
    radii: np.ndarray | None          # R grid (needs coords)
    b: np.ndarray | None              # (n, R) distance-truncated analogue
    shell_sets: list[np.ndarray]
    b1_terms: np.ndarray
    b1_sum: float
    b2_terms: np.ndarray
    b2_sum: float
    b3_cutoffs: np.ndarray | None     # needs coords
    b3_tail: np.ndarray | None


def solve_finite_horizon(
    model: MarkovModel, rewards: RewardSpec, horizon_steps: int
) -> FiniteHorizonSolution:
    """Backward induction for the horizon-T stopping value."""
    return _solve(model, rewards.f, rewards.g, horizon_steps, None)


def solve_truncated(
    model: MarkovModel, rewards: RewardSpec, horizon_steps: int, n: float
) -> FiniteHorizonSolution:
    """Same recursion with the terminal reward clamped to [-n, n]."""
    if n < 0:
        raise ValueError("truncation level must be >= 0")
    g_clamped = np.clip(rewards.g, -n, n)
    return _solve(model, rewards.f, g_clamped, horizon_steps, float(n))


def _solve(model, f, g, horizon_steps, truncation_level):
    if horizon_steps < 0:
        raise ValueError("horizon_steps must be >= 0")
    n = model.n_states
    surface = np.empty((horizon_steps + 1, n))
    surface[0] = g
    run = model.dt * f
    for k in range(horizon_steps):
        surface[k + 1] = np.maximum(g, run + model.kernel @ surface[k])
    rule = g[None, :] >= surface - TIE_TOL
    return FiniteHorizonSolution(
        horizon_steps=horizon_steps,
        surface=surface,
        rule=rule,
        truncation_level=truncation_level,
    )


def check_supermartingale(
    model: MarkovModel, rewards: RewardSpec, solution: FiniteHorizonSolution
) -> SupermartingaleReport:
    """Re-derive the one-step inequalities of the surface independently.

    For every state and step: dt*f + P w_k - w_{k+1} <= 0 up to 1e-10, with
    equality on the continuation set of step k+1. This is what makes the
    accrued-reward process a supermartingale under any stopping rule and a
    martingale up to the first entry of the stop set.
    """
    g = rewards.g if solution.truncation_level is None else np.clip(
        rewards.g, -solution.truncation_level, solution.truncation_level
    )
    run = model.dt * rewards.f
    max_resid = -np.inf if solution.horizon_steps else 0.0
    max_cont = 0.0
    for k in range(solution.horizon_steps):
        resid = run + model.kernel @ solution.surface[k] - solution.surface[k + 1]
        max_resid = max(max_resid, float(resid.max()))
        cont = g < solution.surface[k + 1] - TIE_TOL
        if cont.any():
            max_cont = max(max_cont, float(np.abs(resid[cont]).max()))
    ok = max_resid <= SUPERMARTINGALE_TOL and max_cont <= SUPERMARTINGALE_TOL
    return SupermartingaleReport(
        max_residual=max_resid, max_continuation_gap=max_cont, ok=ok
    )


# -- running-max augmentation --------------------------------------------------

def _level_map(values: np.ndarray):
    levels = np.unique(values)
    lvl = np.searchsorted(levels, values)
    return levels, lvl


def _running_max_distribution(
    kernel: np.ndarray, lvl: np.ndarray, n_levels: int, start: int, steps: int
) -> np.ndarray:
    """Distribution of (X_T, max running level) started at ``start``.

    The augmented space is states x levels; the cap guards against blowup
    and failure is explicit, never a silent fallback.
    """
    n = kernel.shape[0]
    if n * n_levels > AUGMENTATION_CAP:
        raise AugmentationTooLarge(
            f"augmented space {n} x {n_levels} exceeds cap {AUGMENTATION_CAP}"
        )
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


def _zeta_tail_from_start(
    model: MarkovModel, magnitude: np.ndarray, start: int, steps: int, thresholds
) -> np.ndarray:
    """Exact E^start[ zeta 1{zeta > n} ] where zeta = running max of magnitude."""
    levels, lvl = _level_map(magnitude)
    dist = _running_max_distribution(model.kernel, lvl, len(levels), start, steps)
    mass_per_level = dist.sum(axis=0)
    return np.array(
        [float(((levels > n) * levels * mass_per_level).sum()) for n in thresholds]
    )


def truncation_gap_bound(
    model: MarkovModel,
    rewards: RewardSpec,
    horizon_steps: int,
    n: float,
    start: int,
) -> float:
    """Exact E^start[ zeta_T 1{zeta_T > n} ], zeta_T the running max of |g|.

    Dominates |w_T(start) - truncated w_T(start)| for the clamp level n,
    turning the truncation error estimate into a machine-checkable
    inequality rather than a statistical one.
    """
    return float(
        _zeta_tail_from_start(model, np.abs(rewards.g), start, horizon_steps, [n])[0]
    )


def expected_running_max(
    model: MarkovModel, magnitude, start: int, horizon_steps: int
) -> float:
    """Exact E^start[ max_{k <= T} magnitude(X_k) ] by the same augmentation."""
    mag = np.asarray(magnitude, dtype=float)
    return float(
        _zeta_tail_from_start(model, mag, start, horizon_steps, [-np.inf])[0]
    )


# -- taboo probabilities and the (B)-family -------------------------------------

def survival_probability(model: MarkovModel, inside, steps: int) -> np.ndarray:
    """gamma_T(x, U) = P^x{ X stays in U through step T }, zero off U.

    ``inside`` is U, as a boolean mask or as state indices.
    """
    mask = region_mask(model, inside)
    out = np.zeros(model.n_states)
    if mask.any():
        sub = model.kernel[np.ix_(mask, mask)]
        ones = np.ones(mask.sum())
        for _ in range(steps):
            ones = sub @ ones
        out[mask] = ones
    return out


def _snell_sup(model: MarkovModel, payoff: np.ndarray, steps: int) -> np.ndarray:
    """sup over stopping times tau <= T of E^x[ payoff(X_tau) ]."""
    v = payoff.copy()
    for _ in range(steps):
        v = np.maximum(payoff, model.kernel @ v)
    return v


def b_family_diagnostics(
    model: MarkovModel,
    rewards: RewardSpec,
    horizon_steps: int,
    nested_sets,
    probe_ball,
    thresholds=None,
    radii=None,
) -> TailReport:
    """Exact sufficiency sums and tail decompositions for the horizon-T
    uniform-integrability assumptions.

    ``nested_sets`` is an increasing family K_1 subset ... subset K_m = E;
    ``probe_ball`` plays the compact ball K around the start. Everything is
    computed by taboo-kernel powers and horizon-T Snell envelopes, no
    sampling. Distance-based parts need coords and are None without them.
    """
    masks = [region_mask(model, s) for s in nested_sets]
    if not masks:
        raise BadNesting("nested_sets must be nonempty")
    for a, b_ in zip(masks, masks[1:]):
        if np.any(a & ~b_):
            raise BadNesting("nested_sets must be increasing")
    if not masks[-1].all():
        raise BadNesting("nested_sets must cover the state space")
    probe = region_mask(model, probe_ball)
    if not probe.any():
        raise BadNesting("probe_ball must be nonempty")
    if np.any(probe & ~masks[0]):
        raise BadNesting("probe_ball must sit inside the first nested set")

    g_abs = np.abs(rewards.g)
    if thresholds is None:
        thresholds = np.unique(np.concatenate([[0.0], np.unique(g_abs)]))
    thresholds = np.asarray(thresholds, dtype=float)

    # (B)_T itself: sup over the probe ball of the exact zeta tail
    zeta = np.zeros(len(thresholds))
    for y in np.flatnonzero(probe):
        zeta = np.maximum(
            zeta, _zeta_tail_from_start(model, g_abs, int(y), horizon_steps, thresholds)
        )

    # survival probabilities per nested set
    gam = [survival_probability(model, m, horizon_steps) for m in masks]

    # first sufficiency sum: shell increments of survival times max |g|
    b1_terms = []
    prev = np.zeros(model.n_states)
    for m, gcur in zip(masks, gam):
        inc = float(np.max((gcur - prev)[probe]))
        b1_terms.append(max(inc, 0.0) * float(g_abs[m].max()))
        prev = gcur
    b1_terms = np.array(b1_terms)

    # second sufficiency sum over shells K_{i+1} \ K_i
    shells = []
    b2_terms = []
    for a, b_ in zip(masks, masks[1:]):
        shell = b_ & ~a
        if not shell.any():
            continue
        shells.append(shell)
        stay_out = survival_probability(model, ~shell, horizon_steps)
        hit = 1.0 - stay_out
        b2_terms.append(float(g_abs[shell].max()) * float(hit[probe].max()))
    b2_terms = np.array(b2_terms)

    # sup over bounded stopping times of truncated-terminal expectations
    a_vals = np.array(
        [
            float(_snell_sup(model, g_abs * (g_abs > n), horizon_steps)[probe].max())
            for n in thresholds
        ]
    )

    if model.coords is not None:
        dists = np.linalg.norm(
            model.coords[:, None, :] - model.coords[None, :, :], axis=2
        )
        if radii is None:
            radii = np.unique(dists)
        radii = np.asarray(radii, dtype=float)
        b_vals = np.zeros((len(thresholds), len(radii)))
        for i, n in enumerate(thresholds):
            capped = g_abs * (g_abs <= n)
            for j, R in enumerate(radii):
                best = 0.0
                for y in np.flatnonzero(probe):
                    payoff = capped * (dists[y] >= R)
                    best = max(
                        best, float(_snell_sup(model, payoff, horizon_steps)[y])
                    )
                b_vals[i, j] = best
        norms = np.linalg.norm(model.coords, axis=1)
        cutoffs = np.unique(norms)
        b3 = np.zeros(len(cutoffs))
        for y in np.flatnonzero(probe):
            levels, lvl = _level_map(norms)
            dist = _running_max_distribution(
                model.kernel, lvl, len(levels), int(y), horizon_steps
            )
            gstar_level = np.array(
                [float(g_abs[norms <= r].max()) for r in levels]
            )
            mass = dist.sum(axis=0)
            vals = np.array(
                [
                    float(((levels > N) * gstar_level * mass).sum())
                    for N in cutoffs
                ]
            )
            b3 = np.maximum(b3, vals)
    else:
        radii = None
        b_vals = None
        cutoffs = None
        b3 = None

    return TailReport(
        thresholds=thresholds,
        zeta_tail=zeta,
        a=a_vals,
        radii=radii,
        b=b_vals,
        shell_sets=shells,
        b1_terms=b1_terms,
        b1_sum=float(b1_terms.sum()),
        b2_terms=b2_terms,
        b2_sum=float(b2_terms.sum()) if len(b2_terms) else 0.0,
        b3_cutoffs=cutoffs,
        b3_tail=b3,
    )


__all__ = [
    "FiniteHorizonSolution",
    "SupermartingaleReport",
    "TailReport",
    "solve_finite_horizon",
    "solve_truncated",
    "truncation_gap_bound",
    "expected_running_max",
    "check_supermartingale",
    "survival_probability",
    "b_family_diagnostics",
]
