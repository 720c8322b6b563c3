"""Undiscounted optimal stopping of ergodic Markov chains.

Solvers and verification instruments for stopping problems with a running
reward whose invariant mean is negative and a possibly large-magnitude
terminal reward, on finite (or truncated-countable) chains where every
identity is exactly checkable: zero-potentials, finite-horizon surfaces,
reward truncation with exact error bounds, certified infinite-horizon
values with hitting-time rules and explicit stopping-time bounds, and
seeded Monte Carlo checks of the defining functionals.
"""

__version__ = "0.1.0"

from . import errors
from .ergodicity import (
    DynkinReport,
    ErgodicProfile,
    ZeroPotential,
    fit_ergodic_bound,
    stopped_potential_exact,
    tv_distance_curve,
    verify_dynkin_identity,
    zero_potential,
)
from .finite_horizon import (
    FiniteHorizonSolution,
    SupermartingaleReport,
    TailReport,
    b_family_diagnostics,
    check_supermartingale,
    expected_running_max,
    solve_finite_horizon,
    solve_truncated,
    survival_probability,
    truncation_gap_bound,
)
from .infinite_horizon import (
    BoundReport,
    CompactifiedReward,
    ConditionSReport,
    InfiniteHorizonSolution,
    OracleResult,
    brute_force_region_oracle,
    check_condition_S,
    compactify_running_reward,
    expected_hitting_time,
    gamma_value,
    region_value,
    solve_infinite_horizon,
    stopping_rule_eps,
    stopping_time_bound,
)
from .markov import (
    Distribution,
    MarkovModel,
    apply_transition,
    build_dtmc,
    build_from_generator,
    stationary_distribution,
)
from .modelio import ModelFile, load_model_file
from .montecarlo import (
    FunctionalEstimate,
    TailEstimate,
    estimate_functional,
    terminal_truncation_gap,
)
from .rewards import RewardSpec, make_rewards

__all__ = [
    "__version__",
    "errors",
    # markov
    "MarkovModel", "Distribution",
    "build_dtmc", "build_from_generator", "stationary_distribution",
    "apply_transition",
    # ergodicity
    "ErgodicProfile", "ZeroPotential", "DynkinReport",
    "tv_distance_curve", "fit_ergodic_bound", "zero_potential",
    "verify_dynkin_identity", "stopped_potential_exact",
    # rewards
    "RewardSpec", "make_rewards",
    # finite horizon
    "FiniteHorizonSolution", "SupermartingaleReport", "TailReport",
    "solve_finite_horizon", "solve_truncated", "truncation_gap_bound",
    "expected_running_max", "check_supermartingale", "survival_probability",
    "b_family_diagnostics",
    # infinite horizon
    "InfiniteHorizonSolution", "OracleResult", "BoundReport",
    "ConditionSReport", "CompactifiedReward",
    "solve_infinite_horizon", "region_value", "brute_force_region_oracle",
    "stopping_rule_eps", "gamma_value", "stopping_time_bound",
    "check_condition_S", "compactify_running_reward", "expected_hitting_time",
    # monte carlo
    "FunctionalEstimate", "TailEstimate",
    "estimate_functional", "terminal_truncation_gap",
    # io
    "ModelFile", "load_model_file",
]
