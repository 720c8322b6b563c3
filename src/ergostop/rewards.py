"""Reward data shared by the finite- and infinite-horizon solvers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .markov import Distribution, MarkovModel, per_state, stationary_distribution


@dataclass(frozen=True)
class RewardSpec:
    """Running reward f (per unit time), terminal reward g, and cached mu(f)."""

    f: np.ndarray
    g: np.ndarray
    mu_f: float


def make_rewards(model: MarkovModel, f, g, mu: Distribution | None = None) -> RewardSpec:
    """Validate per-state rewards and cache mu(f) against the invariant law."""
    fv = per_state(model, f, "f")
    gv = per_state(model, g, "g")
    if not (np.isfinite(fv).all() and np.isfinite(gv).all()):
        raise ValueError("rewards must be finite")
    if mu is None:
        mu = stationary_distribution(model)
    return RewardSpec(f=fv, g=gv, mu_f=float(mu.weights @ fv))
