"""Undiscounted infinite-horizon stopping with a negative mean running reward.

The value solves the fixed point  w = max(g, dt * f + P w), and an optimal
rule is the first entrance to a stop region. The solver searches regions by
exact policy iteration: start from stopping everywhere, evaluate the hitting
rule of the current region by a linear solve, shrink the region to where
stopping still weakly beats one more step, and repeat until it no longer
changes. The last evaluation is verified as a Bellman fixed point, so a
certified value is exact up to the linear algebra, not asymptotics.

Hitting rules that strand probability mass have value minus infinity (the
mean running reward is negative, so unstopped mass pays linearly forever);
minus infinity is a first-class outcome here, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DriftNotNegative,
    BoundViolated,
    NoCoords,
    NotIrreducible,
    NumericalFailure,
    TooManyStates,
)
from .markov import (
    MarkovModel,
    per_state,
    region_mask,
    residual_tol,
    state_index,
    surely_hits,
)
from .rewards import RewardSpec

DEFAULT_DELTA = 0.5
# the region oracle enumerates 2^n - 1 regions: refused beyond this many states
ORACLE_MAX_STATES = 20
# reduced systems per batched solve of the oracle: regions whose continuation
# sets have m states stack 256 * m^2 floats at a time
ORACLE_BLOCK = 256


@dataclass
class InfiniteHorizonSolution:
    """Certified value, stop region, and stopping-time bound data.

    ``w`` is the exact value of the hitting rule of ``region``, the region
    at which policy iteration settled. ``tie`` is the tolerance of the last
    round, ``residual_tol(g, dt * f, w)``: it both breaks ties toward
    stopping and bounds the Bellman residual. ``certified`` is set only when
    ``w`` is a Bellman fixed point within ``tie``; otherwise the flag is
    False, never silently. ``iterations`` counts policy-evaluation rounds.

    ``gamma``, ``d``, ``Z`` and ``expected_tau`` realize the explicit bound
    E^x[tau*] <= Z(x) = (gamma(x) + E[max g+] - g(x) + 1) / (-d(x)).
    """

    w: np.ndarray
    region: np.ndarray                # bool stop set {g >= dt f + P w - tie}
    excess: np.ndarray                # w - g, defines the relaxed rules
    fixed_point_residual: float
    tie: float
    certified: bool
    iterations: int
    gamma: np.ndarray
    d: np.ndarray
    Z: np.ndarray
    expected_tau: np.ndarray


@dataclass
class OracleResult:
    """Exhaustive enumeration of hitting rules on a small chain."""

    w: np.ndarray
    optimal_regions: list[np.ndarray]
    minimal_time_region: np.ndarray   # union of optimal regions; its hitting
                                      # time is the smallest optimal stopping time


@dataclass
class BoundReport:
    """Stopping-time bound check for one choice of d."""

    d: np.ndarray
    gamma: np.ndarray
    zeta_plus: float
    Z: np.ndarray
    expected_tau: np.ndarray
    ok: bool


@dataclass
class ConditionSReport:
    """Drift-sufficiency check: the auxiliary value with the running reward
    replaced by its scaled invariant mean, terminal reward -q, must match
    gamma - q identically."""

    delta: float
    bar_gamma: np.ndarray
    gamma: np.ndarray
    identity_gap: float
    holds: bool


@dataclass
class CompactifiedReward:
    """Running reward flattened outside a metric ball, keeping the mean negative.

    ``f_bar`` dominates f, has invariant mean at most mu(f)/2 < 0, is
    nonnegative outside the ball of radius N+1, and its sublevel set at its
    own mean sits inside that ball.
    """

    N: int
    center: int
    z: np.ndarray
    f_hat: np.ndarray
    f_bar: np.ndarray
    mu_f_bar: float


# -- exact policy evaluation ---------------------------------------------------

def _policy_value(
    kernel: np.ndarray, dt: float, run: np.ndarray, term: np.ndarray,
    region: np.ndarray, solve_on: np.ndarray,
) -> np.ndarray:
    """Exact value of the hitting rule of ``region``, solved on ``solve_on``,
    the states off the region that the caller knows enter it almost surely.

    Every other state off the region gets -inf: with positive escape
    probability the running cost accrues forever and the capped functionals
    diverge to minus infinity.
    """
    v = np.full(len(term), -np.inf)
    v[region] = term[region]
    if solve_on.any():
        A = np.eye(solve_on.sum()) - kernel[np.ix_(solve_on, solve_on)]
        rhs = dt * run[solve_on] + kernel[np.ix_(solve_on, region)] @ term[region]
        sol = np.linalg.solve(A, rhs)
        sol += np.linalg.solve(A, rhs - A @ sol)
        v[solve_on] = sol
    return v


def region_value(model: MarkovModel, rewards: RewardSpec, region) -> np.ndarray:
    """Value of stopping at the first entry to ``region``; -inf where the
    region is missed with positive probability, everywhere for an empty one.
    One graph search finds where the region is hit almost surely."""
    mask = region_mask(model, region)
    return _policy_value(
        model.kernel, model.dt, rewards.f, rewards.g, mask,
        surely_hits(model.kernel, mask) > mask,
    )


def expected_hitting_time(model: MarkovModel, region) -> np.ndarray:
    """E^x[first entry time of region] in time units; inf off the a.s.-hit set:
    minus the hitting rule's value at running reward -1, terminal reward 0."""
    zeros = np.zeros(model.n_states)
    return 0.0 - region_value(model, RewardSpec(f=zeros - 1.0, g=zeros), region)


# -- certified solver ----------------------------------------------------------

def _certified_solve(kernel: np.ndarray, dt: float, run: np.ndarray, term: np.ndarray):
    """Howard policy iteration over hitting rules, from stopping everywhere.

    Each round evaluates the current stop region exactly, on its continuation
    set ``~region``, and shrinks it to the states where stopping still weakly
    beats one more step. Precondition, checked once by the caller: the chain
    has one recurrent class and mu(run) <= 0. The values then rise and stay
    finite, so every region meets the recurrent class and is entered almost
    surely, and the region only shrinks, settling within n + 1 rounds; the
    last evaluation is then a Bellman fixed point up to the tie tolerance,
    which the returned residual certifies. Each round's tie is
    ``residual_tol`` of the Bellman equation's terms, so ties and the
    certificate scale with the rewards.

    Returns (w, region, residual, tie, certified, rounds).
    """
    n = len(term)
    run_dt = dt * run
    region = np.ones(n, dtype=bool)
    for rounds in range(1, n + 2):
        v = _policy_value(kernel, dt, run, term, region, ~region)
        cont = run_dt + kernel @ v
        tie = residual_tol(term, run_dt, v)
        improved = term + tie >= cont
        if (improved == region).all():
            residual = float(np.max(np.abs(v - np.maximum(term, cont))))
            return v, region, residual, tie, residual <= tie, rounds
        region = improved
    else:
        raise NumericalFailure(f"policy iteration did not settle within {n + 1} rounds")


def solve_infinite_horizon(
    model: MarkovModel, rewards: RewardSpec, delta: float = DEFAULT_DELTA, d=None
) -> InfiniteHorizonSolution:
    """Solve the undiscounted stopping problem and certify the result.

    Refuses models with mu(f) >= 0 (the mean drift must penalize delay,
    otherwise the value may be infinite) and reducible chains. ``d`` may
    override the default constant delta * mu(f) used for the stopping-time
    bound; it must be negative per state. A certified solution whose
    expected_tau exceeds Z raises ``BoundViolated``.
    """
    # the law first: it refuses a chain with several recurrent classes itself
    mu_f = float(model.invariant.weights @ rewards.f)
    if not model.irreducible:
        raise NotIrreducible("infinite-horizon solver needs an irreducible chain")
    if mu_f >= 0:
        raise DriftNotNegative(f"mu(f) = {mu_f} >= 0; undiscounted value may be infinite")
    w, region, residual, tie, certified, iterations = _certified_solve(
        model.kernel, model.dt, rewards.f, rewards.g
    )
    if d is None:
        if not 0 < delta <= 1:
            raise ValueError(f"delta must lie in (0, 1], got {delta}")
        d = delta * mu_f
    d_vec = _negative_d(model, d)
    gamma, _, Z = _gamma_and_bound(model, rewards, d_vec)
    expected_tau = expected_hitting_time(model, region)
    if certified:
        _check_bound(expected_tau, Z)
    return InfiniteHorizonSolution(
        w=w, region=region, excess=w - rewards.g, fixed_point_residual=residual,
        tie=tie, certified=certified, iterations=iterations, gamma=gamma, d=d_vec,
        Z=Z, expected_tau=expected_tau,
    )


def _negative_d(model: MarkovModel, d) -> np.ndarray:
    d_vec = np.asarray(d, dtype=float) * np.ones(model.n_states)
    if np.any(d_vec >= 0):
        raise DriftNotNegative("d must be negative per state")
    return d_vec


def _gamma_and_bound(model: MarkovModel, rewards: RewardSpec, d_vec: np.ndarray):
    """gamma, max g+ and Z = (gamma + max g+ - g + 1) / (-d) for a negative d."""
    gamma = _gamma(model, rewards.f, d_vec)
    zeta_plus = float(np.maximum(rewards.g, 0.0).max())
    return gamma, zeta_plus, (gamma + zeta_plus - rewards.g + 1.0) / (-d_vec)


def _check_bound(expected_tau: np.ndarray, Z: np.ndarray) -> None:
    """Refuse E^x[tau*] > Z(x) beyond ``residual_tol``: the bound is a
    theorem for certified solutions, so a violation is a hard failure."""
    if not np.all(expected_tau <= Z + residual_tol(expected_tau, Z)):
        worst = int(np.argmax(expected_tau - Z))
        raise BoundViolated(
            f"expected_tau[{worst}] = {expected_tau[worst]} exceeds "
            f"Z[{worst}] = {Z[worst]}: solver bug"
        )


def stopping_rule_eps(solution: InfiniteHorizonSolution, eps: float) -> np.ndarray:
    """Relaxed stop region {w <= g + eps}; its hitting rule loses at most eps.

    The region compares w - g against eps directly (not value loss), which
    is what makes the family shrink to the optimal region as eps -> 0; the
    solver's own tie keeps eps = 0 equal to the reported stop set.
    """
    if not eps >= 0:  # NaN too
        raise ValueError("eps must be >= 0")
    if not solution.certified:
        raise ValueError("eps-rule requires a certified solution")
    return solution.excess <= eps + solution.tie


def gamma_value(model: MarkovModel, f, d) -> np.ndarray:
    """Auxiliary drift value: for each state x, the stopping value with
    running reward f - d(x) (the constant shift of the starting state) and
    zero terminal reward. Nonnegative, since stopping immediately yields 0.

    Finite exactly when mu(f - d(x)) <= 0; the boundary case arises at the
    natural choice d = mu(f) and stays finite on a finite chain, so only a
    strictly positive centred drift is refused.
    """
    return _gamma(model, per_state(model, f, "f"), _negative_d(model, d))


def _gamma(model: MarkovModel, fv: np.ndarray, d_vec: np.ndarray):
    """gamma_value for a validated f and a negative d."""
    mu_f = float(model.invariant.weights @ fv)
    gamma = np.empty(model.n_states)
    zero_term = np.zeros(model.n_states)
    for c in np.unique(d_vec):
        if mu_f - c > residual_tol(mu_f, c):
            raise DriftNotNegative(
                f"mu(f - d) = {mu_f - c} > 0: auxiliary value is infinite"
            )
        vals, _, residual, _, certified, _ = _certified_solve(
            model.kernel, model.dt, fv - c, zero_term
        )
        if not certified:
            raise NumericalFailure(
                f"auxiliary solve failed certification (residual {residual:.2e})"
            )
        sel = d_vec == c
        gamma[sel] = vals[sel]
    return gamma


def stopping_time_bound(
    model: MarkovModel, rewards: RewardSpec, solution: InfiniteHorizonSolution, d
) -> BoundReport:
    """Explicit bound on the optimal rule's expected stopping time.

    E[max g+] reduces to max g+ by recurrence on an irreducible chain. The
    inequality expected_tau <= Z is checked as ``solve_infinite_horizon``
    checks it for its own d.
    """
    if not model.irreducible:
        raise NotIrreducible("bound needs an irreducible chain")
    if not solution.certified:
        raise ValueError("stopping-time bound requires a certified solution")
    d_vec = _negative_d(model, d)
    gamma, zeta_plus, Z = _gamma_and_bound(model, rewards, d_vec)
    _check_bound(solution.expected_tau, Z)
    return BoundReport(
        d=d_vec, gamma=gamma, zeta_plus=zeta_plus, Z=Z,
        expected_tau=solution.expected_tau, ok=True,
    )


def check_oracle_size(n_states: int) -> None:
    """Refuse a chain too large for the region oracle's 2^n enumeration."""
    if n_states > ORACLE_MAX_STATES:
        raise TooManyStates(
            f"{n_states} states: 2^n enumeration refused beyond {ORACLE_MAX_STATES}"
        )


def _region_values(kernel: np.ndarray, dt: float, run: np.ndarray, term: np.ndarray):
    """Every nonempty stop region R as a row of ``masks`` and the exact value
    of its hitting rule as the same row of ``values``, for an irreducible
    kernel, where every such rule stops almost surely.

    v = term on R, and on the continuation set C = ~R it solves the reduced
    system (I - P[C, C]) v_C = (dt run + P (term on R))[C], nonsingular since
    R is hit almost surely. Regions are grouped by m = |C| and each group is
    solved ``ORACLE_BLOCK`` systems per batched solve plus one refinement
    step; m = 0, stopping everywhere, needs no solve.
    """
    n = len(term)
    codes = np.arange(1, 1 << n)
    masks = ((codes[:, None] >> np.arange(n)) & 1).astype(bool)
    free = ~masks
    values = np.where(masks, term, 0.0)
    run_dt = dt * run
    i_minus_p = np.eye(n) - kernel  # its [C, C] block is I_m - P[C, C] exactly
    sizes = free.sum(axis=1)
    # region indices by continuation size, ascending within a size
    order = np.argsort(sizes, kind="stable")
    ends = np.cumsum(np.bincount(sizes, minlength=n))
    for m in range(1, n):
        group = order[ends[m - 1]:ends[m]]
        for lo in range(0, len(group), ORACLE_BLOCK):
            rows = group[lo:lo + ORACLE_BLOCK]
            cont = np.nonzero(free[rows])[1].reshape(-1, m)
            A = i_minus_p[cont[:, :, None], cont[:, None, :]]
            # one matrix-vector product per region, whatever the block holds
            rhs = run_dt[cont, None] + kernel[cont] @ values[rows, :, None]
            v = np.linalg.solve(A, rhs)
            v += np.linalg.solve(A, rhs - A @ v)
            values[rows[:, None], cont] = v[:, :, 0]
    return masks, values


def brute_force_region_oracle(model: MarkovModel, rewards: RewardSpec) -> OracleResult:
    """Independent certification by enumerating every nonempty stop region.

    Shares no evaluation code with the solver: region R is valued on its
    continuation set C = ~R alone, by the reduced system
    (I - P[C, C]) v_C = dt f[C] + P[C, R] g[R] with v = g on R, the regions
    grouped by |C| and solved ``ORACLE_BLOCK`` at a time in one batched solve
    plus one refinement step. Chains beyond ``ORACLE_MAX_STATES`` states are
    refused first, then reducible chains, so every nonempty region is hit
    almost surely and every system is nonsingular. Returns the pointwise best
    value, every region achieving it at all states simultaneously (within
    the solver's tie rule, ``residual_tol`` of g, dt * f and the best value),
    and their union, whose hitting time is the smallest optimal stopping time.
    """
    check_oracle_size(model.n_states)
    if not model.irreducible:
        raise NotIrreducible("region oracle needs an irreducible chain")
    masks, values = _region_values(model.kernel, model.dt, rewards.f, rewards.g)
    best = values.max(axis=0)
    tie = residual_tol(rewards.g, model.dt * rewards.f, best)
    optimal = masks[np.all(values >= best - tie, axis=1)]
    return OracleResult(
        w=best, optimal_regions=list(optimal), minimal_time_region=optimal.any(axis=0)
    )


def check_condition_S(
    model: MarkovModel, rewards: RewardSpec, zero_potential, delta: float
) -> ConditionSReport:
    """Verify the drift-sufficiency identity bar_gamma = gamma - q.

    bar_gamma is the stopping value with constant running reward
    (1 - delta) * mu(f) and terminal reward -q; gamma uses d = delta * mu(f).
    The identity is exact on the grid because the zero-potential shifts
    every hitting rule's value by -q. Refuses a chain with more than one
    recurrent class, the precondition of its policy iterations.
    """
    if not 0 < delta <= 1:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if len(model.structure[0]) != 1:
        raise NotIrreducible("condition S needs a chain with one recurrent class")
    mu_f = float(model.invariant.weights @ rewards.f)
    if mu_f >= 0:
        raise DriftNotNegative(f"mu(f) = {mu_f} >= 0")
    q = per_state(
        model, zero_potential.q if hasattr(zero_potential, "q") else zero_potential, "q"
    )
    run = np.full(model.n_states, (1.0 - delta) * mu_f)
    bar, _, residual, _, certified, _ = _certified_solve(model.kernel, model.dt, run, -q)
    if not certified:
        raise NumericalFailure(
            f"bar-gamma solve failed certification (residual {residual:.2e})"
        )
    gamma = _gamma(model, rewards.f, np.full(model.n_states, delta * mu_f))
    gap = float(np.max(np.abs(bar - (gamma - q))))
    return ConditionSReport(
        delta=delta, bar_gamma=bar, gamma=gamma, identity_gap=gap,
        holds=bool(gap <= residual_tol(bar, gamma, q)),
    )


def compactify_running_reward(model: MarkovModel, f, center: int = 0) -> CompactifiedReward:
    """Flatten f outside a ball large enough that the tail cannot spoil the
    negative mean: the smallest radius N with tail integral below -mu(f)/4.

    Needs coords; balls are Euclidean around ``center`` with integer radii.
    """
    if model.coords is None:
        raise NoCoords("compactification needs per-state coordinates")
    center = state_index(model, center, "center")
    fv = per_state(model, f, "f")
    mu = model.invariant.weights
    mu_f = float(mu @ fv)
    if mu_f >= 0:
        raise DriftNotNegative(f"mu(f) = {mu_f} >= 0")
    dist_center = np.linalg.norm(model.coords - model.coords[center], axis=1)
    # the ball of integer radius r holds the states with ceil(dist) <= r, so
    # the tail only changes at those ceilings: try 1 and each of them in
    # turn. The last ball holds every state, so its tail is 0 and the loop
    # ends with a valid N at the latest there.
    ceilings = np.ceil(dist_center)
    radii = np.unique(np.append(ceilings[ceilings >= 1], 1.0)).tolist()
    for N in map(int, radii):
        ball = dist_center <= N
        if float((np.abs(fv) * mu)[~ball].sum()) < -mu_f / 4.0:
            break
    pairwise = np.linalg.norm(
        model.coords[:, None, :] - model.coords[None, :, :], axis=2
    )
    dist_to_ball = pairwise[:, ball].min(axis=1)
    z = 1.0 - np.minimum(dist_to_ball, 1.0)
    f_hat = z * fv
    f_bar = np.maximum(fv, f_hat)
    mu_f_bar = float(mu @ f_bar)
    outside = dist_center > N + 1
    if np.any(f_bar < fv):
        raise NumericalFailure("compactified reward fails to dominate f")
    if mu_f_bar > mu_f / 2.0 + residual_tol(mu_f_bar, mu_f / 2.0):
        raise NumericalFailure(
            f"mu(f_bar) = {mu_f_bar} exceeds mu(f)/2 = {mu_f / 2.0}"
        )
    if np.any(f_bar[outside] < 0):
        raise NumericalFailure("compactified reward negative outside the fat ball")
    if np.any((f_bar <= mu_f_bar) & outside):
        raise NumericalFailure("sublevel set escapes the fat ball")
    return CompactifiedReward(
        N=N, center=center, z=z, f_hat=f_hat, f_bar=f_bar, mu_f_bar=mu_f_bar
    )

