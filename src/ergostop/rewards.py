"""Reward data shared by the finite- and infinite-horizon solvers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .markov import MarkovModel, per_state


@dataclass(frozen=True)
class RewardSpec:
    """Running reward f (per unit time) and terminal reward g.

    The mean drift mu(f) is read from ``MarkovModel.invariant`` by the
    solvers that need it; the finite-horizon and Monte Carlo solvers never
    do and run on any chain.
    """

    f: np.ndarray
    g: np.ndarray


def make_rewards(model: MarkovModel, f, g) -> RewardSpec:
    """Validated per-state rewards: one finite entry per state."""
    fv = per_state(model, f, "f")
    gv = per_state(model, g, "g")
    if not (np.isfinite(fv).all() and np.isfinite(gv).all()):
        raise ValueError("rewards must be finite")
    return RewardSpec(f=fv, g=gv)
