"""Finite-horizon stopping: Bermudan backward induction and tail diagnostics.

Timing convention, used everywhere: at each grid time decide first, then on
continuation accrue dt * f(current state) and move one kernel step. The value
surface obeys

    w_0 = g,        w_{k+1} = max(g, dt * f + P w_k),

so surface[k] is the value with k steps remaining. The reported rule stops
wherever g >= w - tie, with tie = residual_tol(g, dt * f, surface): the
float-safe reading of "stop as soon as stopping is not strictly worse",
which realizes the smallest optimal stopping time. The tie scales with the
rewards, so scaling f and g by 2^k scales the surface and leaves the rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadNesting
from .markov import MarkovModel, region_mask, residual_tol, taboo_sweep
from .rewards import RewardSpec


@dataclass
class FiniteHorizonSolution:
    """Value surface w_{k dt} for k = 0..horizon_steps plus the stop rule.

    ``surface[k, x]`` is the value with k steps remaining (surface[0] = g
    exactly); ``rule[k, x]`` flags the stop set {g >= w_k - tie}, ``tie``
    being ``residual_tol(g, dt * f, surface)``.
    """

    horizon_steps: int
    surface: np.ndarray          # (horizon_steps + 1, n)
    rule: np.ndarray             # (horizon_steps + 1, n), bool
    tie: float
    truncation_level: float | None = None


@dataclass
class SupermartingaleReport:
    """One-step residuals of the value surface.

    ``max_residual`` must be at most ``residual_tol`` of the one-step
    equation's terms (the continue branch never beats the surface);
    ``max_continuation_gap`` is the largest |residual| where the rule
    continues, which must vanish to the same tolerance.
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
    if not n >= 0:  # NaN too
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
    tie = residual_tol(g, run, surface)
    return FiniteHorizonSolution(
        horizon_steps=horizon_steps,
        surface=surface,
        rule=g[None, :] >= surface - tie,
        tie=tie,
        truncation_level=truncation_level,
    )


def check_supermartingale(
    model: MarkovModel, rewards: RewardSpec, solution: FiniteHorizonSolution
) -> SupermartingaleReport:
    """Re-derive the one-step inequalities of the surface independently.

    For every state and step: dt*f + P w_k - w_{k+1} <= 0, with equality on
    the continuation set of step k+1, both up to ``residual_tol`` of the
    terms g, dt*f and the surface. This is what makes the accrued-reward
    process a supermartingale under any stopping rule and a martingale up to
    the first entry of the stop set. The continuation set is the solver's
    own, read with the tie the solution records.
    """
    g = rewards.g if solution.truncation_level is None else np.clip(
        rewards.g, -solution.truncation_level, solution.truncation_level
    )
    run = model.dt * rewards.f
    max_resid = -np.inf if solution.horizon_steps else 0.0
    max_cont = 0.0
    for k in range(solution.horizon_steps):
        resid = run + model.kernel @ solution.surface[k] - solution.surface[k + 1]
        # np.maximum keeps a NaN residual, which Python's max would drop
        max_resid = float(np.maximum(max_resid, resid.max()))
        cont = g < solution.surface[k + 1] - solution.tie
        if cont.any():
            max_cont = max(max_cont, float(np.abs(resid[cont]).max()))
    tol = residual_tol(g, run, solution.surface)
    ok = max_resid <= tol and max_cont <= tol
    return SupermartingaleReport(
        max_residual=max_resid, max_continuation_gap=max_cont, ok=ok
    )


# -- taboo sweeps: running maxima and the (B)-family -----------------------------

def _running_max_tail(model, m, steps, thresholds, weight=None) -> np.ndarray:
    """E^x[ weight(M_T) 1{M_T > c} ] for every start x (rows) and threshold c
    (columns), where M_T = max_{k <= T} m(X_k) and ``weight`` is given per
    level of m, the level itself by default.

    Summed by parts over the levels c_0 < ... < c_{L-1} of m, this is
    sum_j P^x{M_T >= c_j} (u_j - u_{j-1}) with u_j = weight_j 1{c_j > c},
    and P^x{M_T >= c_j} is the probability of leaving {m <= c_{j-1}} by step
    T. For a nondecreasing nonnegative weight every term is nonnegative.
    Only the levels with a nonzero weight row are swept: the others' reach
    stays 0, which times their zero weights adds the same signed zero.
    """
    levels = np.unique(m)
    w = levels if weight is None else weight
    u = w[:, None] * (levels[:, None] > np.asarray(thresholds, dtype=float))
    by_parts = np.diff(u, axis=0, prepend=0.0)
    live = np.flatnonzero(by_parts[1:].any(axis=1))
    below = m[:, None] <= levels[None, live]
    reach = np.zeros((len(m), len(levels)))
    reach[:, 0] = 1.0
    reach[:, live + 1] = taboo_sweep(model, below, ~below, steps)
    return reach @ by_parts


def truncation_gap_bound(
    model: MarkovModel, rewards: RewardSpec, horizon_steps: int, n: float
) -> np.ndarray:
    """Exact E^x[ zeta_T 1{zeta_T > n} ] per start x, zeta_T the running max of |g|.

    Dominates |w_T(x) - truncated w_T(x)| for the clamp level n, turning the
    truncation error estimate into a machine-checkable inequality rather
    than a statistical one.
    """
    return _running_max_tail(model, np.abs(rewards.g), horizon_steps, [n])[:, 0]


def expected_running_max(
    model: MarkovModel, magnitude, horizon_steps: int
) -> np.ndarray:
    """Exact E^x[ max_{k <= T} magnitude(X_k) ] per start x."""
    mag = np.asarray(magnitude, dtype=float)
    return _running_max_tail(model, mag, horizon_steps, [-np.inf])[:, 0]


def survival_probability(model: MarkovModel, inside, steps: int) -> np.ndarray:
    """gamma_T(x, U) = P^x{ X stays in U through step T }, zero off U.

    ``inside`` is U, as a boolean mask or as state indices.
    """
    keep = region_mask(model, inside)[:, None]
    return taboo_sweep(model, keep, keep, steps)[:, 0]


def _snell_sup(model: MarkovModel, payoff: np.ndarray, steps: int) -> np.ndarray:
    """sup over stopping times tau <= T of E^x[ payoff(X_tau) ], one column
    per payoff when ``payoff`` is (n, K)."""
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
    rows = np.flatnonzero(probe)

    # (B)_T itself: sup over the probe ball of the exact zeta tail
    zeta = _running_max_tail(model, g_abs, horizon_steps, thresholds)[rows].max(axis=0)

    # first sufficiency sum: shell increments of survival times max |g|
    nested = np.stack(masks, axis=1)
    gam = taboo_sweep(model, nested, nested, horizon_steps)
    inc = np.diff(gam[rows], axis=1, prepend=0.0).max(axis=0)
    b1_terms = np.maximum(inc, 0.0) * np.array([g_abs[m].max() for m in masks])

    # second sufficiency sum over shells K_{i+1} \ K_i
    shells = [b_ & ~a for a, b_ in zip(masks, masks[1:]) if np.any(b_ & ~a)]
    b2_terms = np.array([])
    if shells:
        shell = np.stack(shells, axis=1)
        hit = taboo_sweep(model, ~shell, shell, horizon_steps)
        b2_terms = np.array([g_abs[s].max() for s in shells]) * hit[rows].max(axis=0)

    # sup over bounded stopping times of truncated-terminal expectations
    tails = g_abs[:, None] * (g_abs[:, None] > thresholds[None, :])
    a_vals = _snell_sup(model, tails, horizon_steps)[rows].max(axis=0)

    if model.coords is not None:
        dists = np.linalg.norm(
            model.coords[:, None, :] - model.coords[None, :, :], axis=2
        )
        if radii is None:
            radii = np.unique(dists)
        radii = np.asarray(radii, dtype=float)
        b_vals = np.zeros((len(thresholds), len(radii)))
        own = (rows, np.arange(len(rows)))
        for i, n in enumerate(thresholds):
            capped = (g_abs * (g_abs <= n))[:, None]
            for j, R in enumerate(radii):
                payoff = capped * (dists[rows].T >= R)   # one column per probe
                b_vals[i, j] = _snell_sup(model, payoff, horizon_steps)[own].max()
        norms = np.linalg.norm(model.coords, axis=1)
        cutoffs = np.unique(norms)
        gstar = np.array([g_abs[norms <= r].max() for r in cutoffs])
        b3 = _running_max_tail(
            model, norms, horizon_steps, cutoffs, weight=gstar
        )[rows].max(axis=0)
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
        b2_sum=float(b2_terms.sum()),
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
