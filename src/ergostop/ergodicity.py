"""Ergodicity diagnostics and the centred zero-potential.

Covers three instruments: exact total-variation decay curves against the
invariant law, a fitted dominating bound K(x) * h(t) with a finite integral
(the measurable face of the ergodicity assumption), and the zero-potential
q of a running reward f, defined by the Poisson equation

    (I - P) q = dt * (f - mu(f)),      mu(q) = 0,

together with its stopped identity  q(x) = E^x[ sum_{k < tau} dt*(f - mu(f))
+ q(X_tau) ]  for bounded stopping times, checked both exactly and by
Monte Carlo.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import NoMixingDetected, NumericalFailure, SingularSystem
from .markov import (
    Distribution,
    MarkovModel,
    grid_steps,
    kernel_product,
    per_state,
    region_mask,
    residual_tol,
    state_index,
    taboo_sweep,
)
from .montecarlo import Z_THRESHOLD, estimate_functional
from .rewards import RewardSpec

# Total-variation convention: unnormalized sum of absolute differences,
# range [0, 2]. Affects only the K/h fit, never a solver.


@dataclass
class ErgodicProfile:
    """TV decay curves and the fitted dominating bound.

    ``tv[i, k]`` is the TV distance between the k+1 step law from probe i
    and mu. After fitting, ``K`` and ``h`` satisfy tv <= K[:, None] * h
    by construction, and ``integral_h`` includes a fitted geometric tail
    beyond the probed window (a finite window alone cannot certify the
    integrability the ergodicity assumption demands).

    The companion requirement that K be integrable along the flow is vacuous
    on a finite state space and is recorded as trivially satisfied.
    """

    probe_states: np.ndarray
    times: np.ndarray
    tv: np.ndarray
    K: np.ndarray | None = None
    h: np.ndarray | None = None
    integral_h: float | None = None
    tail_ratio: float | None = None
    a2_plausible: bool | None = None


@dataclass
class ZeroPotential:
    """Centred zero-potential of f with its certification residuals."""

    q: np.ndarray
    residual: float     # max abs of (I - P) q - dt * (f - mu(f))
    centred: float      # |mu(q)|


@dataclass
class DynkinReport:
    """Monte Carlo check of the stopped zero-potential identity."""

    estimate: float
    std_error: float
    reference: float
    z_score: float
    verdict: str        # "PASS" | "FAIL"


def tv_distance_curve(
    model: MarkovModel, mu: Distribution, probe_states, max_time: float
) -> ErgodicProfile:
    """Exact TV distances ||P_t(x, .) - mu|| at grid times t = dt, ..., max_time.

    Computed by pushing each probe's law forward one ``kernel_product`` at a
    time, no sampling. No monotonicity is asserted: TV curves of
    periodic-ish chains can oscillate. An empty ``probe_states`` raises
    ValueError.
    """
    steps = int(grid_steps(max_time, model.dt))
    if steps < 1:
        raise ValueError("max_time must cover at least one step")
    probes = np.array([state_index(model, p, "probe") for p in probe_states], dtype=int)
    if not len(probes):
        raise ValueError("probe_states must name at least one state")
    rows = np.zeros((len(probes), model.n_states))
    rows[np.arange(len(probes)), probes] = 1.0
    tv = np.empty((len(probes), steps))
    for k in range(steps):
        rows = kernel_product(model, rows, forward=True)
        gap = rows - mu.weights[None, :]
        tv[:, k] = np.abs(gap, out=gap).sum(axis=1)
        del gap   # free before the next product
    times = model.dt * np.arange(1, steps + 1)
    return ErgodicProfile(probe_states=probes, times=times, tv=tv)


def fit_ergodic_bound(profile: ErgodicProfile) -> ErgodicProfile:
    """Fit K(x) and h(t) dominating the TV curves, with a geometric tail.

    K(x) is the first-step TV (floored at 1e-12); h(t) is the pointwise
    envelope max_x tv(x, t) / K(x), so domination holds by construction.
    The tail ratio comes from a log-linear fit on the last third of the
    window; ``a2_plausible`` records whether that ratio is below one.

    Raises NoMixingDetected when the curve shows no decay over the window
    (this subsumes the near-2 saturation case on large spaces; on small
    spaces a flat curve sits below 2 but is just as fatal).
    """
    tv = profile.tv
    K = np.maximum(tv[:, 0], 1e-12)
    h = np.max(tv / K[:, None], axis=0)

    first = float(np.max(tv[:, 0]))
    last = float(np.max(tv[:, -1]))
    if last >= 1.99 or (first > 1e-9 and last > (1.0 - 1e-3) * first):
        raise NoMixingDetected(
            f"TV did not decay over the window (start {first:.3g}, end {last:.3g})"
        )

    dt = float(profile.times[1] - profile.times[0]) if len(profile.times) > 1 else float(profile.times[0])
    start = max(0, len(h) - max(2, len(h) // 3))
    window = h[start:]
    positive = window > 0
    if positive.sum() >= 2:
        ks = np.flatnonzero(positive)
        slope = np.polyfit(ks.astype(float), np.log(window[ks]), 1)[0]
        ratio = float(np.exp(slope))
    else:
        ratio = 0.0
    if 0.0 <= ratio < 1.0:
        tail = float(h[-1]) * dt * ratio / (1.0 - ratio)
        integral = float(np.sum(h) * dt + tail)
        plausible = True
    else:
        integral = float("inf")
        plausible = False
    return dataclasses.replace(
        profile, K=K, h=h, integral_h=integral, tail_ratio=ratio, a2_plausible=plausible
    )


def zero_potential(model: MarkovModel, f, mu: Distribution) -> ZeroPotential:
    """Solve the Poisson equation for the centred zero-potential of f.

    The kernel of (I - P) is one-dimensional on an irreducible chain, so the
    centring mu(q) = 0 selects the unique solution matching the defining
    series sum_k dt * (P^k f - mu(f)). Periodic or reducible chains are
    rejected (SingularSystem): the linear system would still solve, but only
    in a Cesaro sense that silently changes the object's meaning. A residual
    or centring above ``residual_tol`` of q, Pq and the right-hand side is a
    NumericalFailure.
    """
    fv = per_state(model, f, "f")
    if not model.irreducible:
        raise SingularSystem("zero-potential requires an irreducible chain")
    _, period = model.structure
    if period != 1:
        raise SingularSystem(f"chain has period {period}; defining series diverges")
    n = model.n_states
    mu_f = float(mu.weights @ fv)
    rhs = model.dt * (fv - mu_f)
    # bordered system pins mu(q) = 0 exactly
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = np.eye(n) - model.kernel
    A[:n, n] = 1.0
    A[n, :n] = mu.weights
    b = np.concatenate([rhs, [0.0]])
    sol = np.linalg.solve(A, b)
    sol += np.linalg.solve(A, b - A @ sol)
    q = sol[:n]
    residual = float(np.max(np.abs((np.eye(n) - model.kernel) @ q - rhs)))
    centred = float(abs(mu.weights @ q))
    tol = residual_tol(q, model.kernel @ q, rhs)
    if residual > tol or centred > tol:
        raise NumericalFailure(
            f"Poisson solve residual {residual:.2e}, centring {centred:.2e} "
            f"exceed {tol:.2e}"
        )
    return ZeroPotential(q=q, residual=residual, centred=centred)


def stopped_potential_exact(
    model: MarkovModel, f, mu: Distribution, q, stop_region, cap_steps: int, start: int
) -> float:
    """Exact E^x[ sum_{k < tau} dt*(f - mu(f)) + q(X_tau) ] by one taboo sweep.

    tau = min(hitting time of stop_region, cap_steps); independent of the
    Monte Carlo path, for cross-checking the stopped identity.
    """
    fv = per_state(model, f, "f")
    qv = per_state(model, q, "q")
    region = region_mask(model, stop_region)
    start = state_index(model, start, "start")
    centred = model.dt * (fv - float(mu.weights @ fv))
    v = taboo_sweep(model, ~region[:, None], qv[:, None], cap_steps, centred[:, None])
    return float(v[start, 0])


def verify_dynkin_identity(
    model: MarkovModel,
    zp: ZeroPotential,
    f,
    mu: Distribution,
    stop_region,
    cap_steps: int,
    start: int,
    n_paths: int,
    seed: int,
) -> DynkinReport:
    """Monte Carlo check that the stopped zero-potential identity holds.

    The stopped functional is the capped functional of ``montecarlo`` at
    horizon cap_steps, with running reward f - mu(f) and terminal reward q;
    its sample mean is compared against q(start) at 3 standard errors.
    """
    fv = per_state(model, f, "f")
    region = region_mask(model, stop_region)
    start = state_index(model, start, "start")
    if cap_steps < 0:
        raise ValueError("cap_steps must be >= 0")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    reference = float(zp.q[start])
    # tau = 0 on every path: the stopped functional is q(start) exactly, and
    # a sample mean of identical values may sit an ulp away at zero spread
    if cap_steps == 0 or region[start]:
        return DynkinReport(
            estimate=reference, std_error=0.0, reference=reference,
            z_score=0.0, verdict="PASS",
        )
    centred = RewardSpec(f=fv - float(mu.weights @ fv), g=zp.q, mu_f=0.0)
    est = estimate_functional(
        model, centred, region, start, [cap_steps * model.dt], n_paths, seed
    )
    estimate = float(est.estimates[0])
    se = float(est.std_errors[0])
    diff = estimate - reference
    if se == 0.0:
        z = 0.0 if abs(diff) <= residual_tol(estimate, reference) else float("inf")
    else:
        z = diff / se
    verdict = "PASS" if abs(z) <= Z_THRESHOLD else "FAIL"
    return DynkinReport(
        estimate=estimate, std_error=se, reference=reference,
        z_score=float(z), verdict=verdict,
    )

