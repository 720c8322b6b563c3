"""Reward data shared by the finite- and infinite-horizon solvers."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .markov import Distribution, MarkovModel, per_state, stationary_distribution


@dataclass(frozen=True)
class RewardSpec:
    """Running reward f (per unit time), terminal reward g, and cached mu(f).

    ``mu_f`` is None when no invariant law was taken: the finite-horizon and
    Monte Carlo solvers never read it and run on any chain.
    """

    f: np.ndarray
    g: np.ndarray
    mu_f: float | None = None


def reward_vectors(model: MarkovModel, f, g) -> RewardSpec:
    """Validated per-state rewards, without mu(f)."""
    fv = per_state(model, f, "f")
    gv = per_state(model, g, "g")
    if not (np.isfinite(fv).all() and np.isfinite(gv).all()):
        raise ValueError("rewards must be finite")
    return RewardSpec(f=fv, g=gv)


def make_rewards(model: MarkovModel, f, g, mu: Distribution | None = None) -> RewardSpec:
    """Validate per-state rewards and cache mu(f) against the invariant law."""
    rewards = reward_vectors(model, f, g)
    if mu is None:
        mu = stationary_distribution(model)
    return dataclasses.replace(rewards, mu_f=float(mu.weights @ rewards.f))
