import numpy as np
import pytest

from conftest import CHAIN_A_F, CHAIN_A_G
from ergostop import (
    brute_force_region_oracle,
    build_dtmc,
    estimate_functional,
    make_rewards,
    solve_infinite_horizon,
    stationary_distribution,
)
from ergostop.errors import DriftNotNegative


def test_periodic_irreducible_chain_still_certifies():
    # two-cycle: policy iteration needs no aperiodicity; certification is exact
    m = build_dtmc([0, 1], [[0.0, 1.0], [1.0, 0.0]])
    rw = make_rewards(m, [1.0, -3.0], [0.0, 4.0])
    sol = solve_infinite_horizon(m, rw)
    assert sol.certified
    oracle = brute_force_region_oracle(m, rw)
    np.testing.assert_allclose(sol.w, oracle.w, atol=1e-10)
    np.testing.assert_allclose(sol.w, [5.0, 4.0], atol=1e-10)


def test_solve_with_per_state_d_override(chain_a, chain_a_rewards):
    sol = solve_infinite_horizon(chain_a, chain_a_rewards, d=[-1.0, -0.5])
    np.testing.assert_allclose(sol.d, [-1.0, -0.5])
    assert (sol.expected_tau <= sol.Z + 1e-9).all()
    with pytest.raises(DriftNotNegative):
        solve_infinite_horizon(chain_a, chain_a_rewards, d=[-1.0, 0.0])


def test_rewards_must_be_finite(chain_a):
    with pytest.raises(ValueError):
        make_rewards(chain_a, [np.inf, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        make_rewards(chain_a, [0.0, 0.0], [np.nan, 0.0])


def test_functional_brackets_from_every_start(chain_a, chain_a_rewards):
    sol = solve_infinite_horizon(chain_a, chain_a_rewards)
    for start in range(2):
        est = estimate_functional(
            chain_a, chain_a_rewards, sol.region, start=start,
            horizons=[16, 32], n_paths=20_000, seed=55 + start,
        )
        assert abs(est.estimates[-1] - sol.w[start]) <= 3 * est.std_errors[-1] + 1e-12


def test_mean_drift_is_read_from_the_cached_invariant_law(chain_a):
    mu = chain_a.invariant
    assert chain_a.invariant is mu   # solved once per model
    rw = make_rewards(chain_a, CHAIN_A_F, CHAIN_A_G)
    mu_f = float(mu.weights @ rw.f)
    assert mu_f == pytest.approx(-2.0, abs=1e-12)
    assert mu_f == pytest.approx(float(stationary_distribution(chain_a).weights @ rw.f),
                                 abs=1e-12)


def test_every_public_name_resolves():
    # a removed function must not leave its name behind in the exports
    import ergostop

    assert [name for name in ergostop.__all__ if not hasattr(ergostop, name)] == []
