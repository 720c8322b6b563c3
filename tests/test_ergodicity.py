import numpy as np
import pytest

from conftest import CHAIN_A_F, random_chain, random_rewards
from ergostop import (
    build_dtmc,
    fit_ergodic_bound,
    stationary_distribution,
    stopped_potential_exact,
    tv_distance_curve,
    verify_dynkin_identity,
    zero_potential,
)
from ergostop.errors import NoMixingDetected, SingularSystem
from oracles import series_zero_potential


def rank_one_model():
    mu = np.array([0.25, 0.75])
    return build_dtmc([0, 1], np.tile(mu, (2, 1))), mu


def test_tv_rank_one_kernel_vanishes():
    m, mu_row = rank_one_model()
    mu = stationary_distribution(m)
    profile = tv_distance_curve(m, mu, [0, 1], max_time=6.0)
    np.testing.assert_allclose(profile.tv, 0.0, atol=1e-15)


def test_tv_chain_a_matches_eigenvalue_oracle(chain_a, chain_a_mu):
    # second eigenvalue 0.4: TV(0, k) = (4/3) * 0.4^k
    profile = tv_distance_curve(chain_a, chain_a_mu, [0], max_time=8.0)
    expected = (4.0 / 3.0) * 0.4 ** np.arange(1, 9)
    np.testing.assert_allclose(profile.tv[0], expected, atol=1e-12)


def test_fit_chain_a_geometric_ratio(chain_a, chain_a_mu):
    profile = fit_ergodic_bound(tv_distance_curve(chain_a, chain_a_mu, [0, 1], 12.0))
    assert profile.a2_plausible
    assert abs(profile.tail_ratio - 0.4) < 1e-6
    assert np.isfinite(profile.integral_h)
    # dominance holds by construction
    assert (profile.tv <= profile.K[:, None] * profile.h[None, :] + 1e-15).all()


def test_fit_rank_one():
    m, _ = rank_one_model()
    mu = stationary_distribution(m)
    profile = fit_ergodic_bound(tv_distance_curve(m, mu, [0, 1], 6.0))
    assert profile.a2_plausible
    assert profile.integral_h < 1e-6
    np.testing.assert_allclose(profile.h, 0.0, atol=1e-15)


def test_fit_identity_kernel_no_mixing():
    m = build_dtmc([0, 1], np.eye(2))
    # identity has no unique invariant law; hand one in to probe the fit
    from ergostop.markov import Distribution

    mu = Distribution(weights=np.array([0.5, 0.5]))
    profile = tv_distance_curve(m, mu, [0, 1], 6.0)
    assert np.allclose(profile.tv, profile.tv[:, :1])  # constant in t
    with pytest.raises(NoMixingDetected):
        fit_ergodic_bound(profile)


def test_zero_potential_constant_f(chain_a, chain_a_mu):
    zp = zero_potential(chain_a, np.array([3.0, 3.0]), chain_a_mu)
    np.testing.assert_allclose(zp.q, 0.0, atol=1e-12)


def test_zero_potential_chain_a_series_oracle(chain_a, chain_a_mu):
    zp = zero_potential(chain_a, CHAIN_A_F, chain_a_mu)
    np.testing.assert_allclose(zp.q, [20 / 3, -10 / 3], atol=1e-9)
    oracle = series_zero_potential(chain_a, CHAIN_A_F, chain_a_mu, k_max=200)
    np.testing.assert_allclose(zp.q, oracle, atol=1e-9)
    assert zp.residual <= 1e-10 and zp.centred <= 1e-10


def test_zero_potential_eigenvector(chain_a, chain_a_mu):
    # P v = 0.4 v with mu(v) = 0, so the series is geometric: q = dt * v / 0.6
    v = np.array([1.0, -0.5])
    zp = zero_potential(chain_a, v, chain_a_mu)
    np.testing.assert_allclose(zp.q, v / 0.6, atol=1e-12)


def test_zero_potential_rejects_periodic():
    m = build_dtmc([0, 1], [[0.0, 1.0], [1.0, 0.0]])
    mu = stationary_distribution(m)
    with pytest.raises(SingularSystem):
        zero_potential(m, np.array([1.0, -1.0]), mu)


def test_zero_potential_shift_invariance():
    rng = np.random.default_rng(5)
    m = random_chain(rng, 6)
    mu = stationary_distribution(m)
    f = rng.normal(size=6)
    q1 = zero_potential(m, f, mu).q
    q2 = zero_potential(m, f + 4.7, mu).q
    np.testing.assert_allclose(q1, q2, atol=1e-10)


def test_poisson_residuals_on_corpus():
    rng = np.random.default_rng(21)
    for _ in range(30):
        m = random_chain(rng, int(rng.integers(2, 9)))
        mu = stationary_distribution(m)
        f = rng.normal(size=m.n_states) * 5
        zp = zero_potential(m, f, mu)
        assert zp.residual <= 1e-10
        assert zp.centred <= 1e-10


def test_stopped_identity_exact_chain_a(chain_a, chain_a_mu):
    zp = zero_potential(chain_a, CHAIN_A_F, chain_a_mu)
    for cap in (0, 1, 7, 50):
        val = stopped_potential_exact(
            chain_a, CHAIN_A_F, chain_a_mu, zp.q, [1], cap_steps=cap, start=0
        )
        assert abs(val - zp.q[0]) <= 1e-9


def test_stopped_identity_exact_on_corpus():
    rng = np.random.default_rng(31)
    for _ in range(10):
        m = random_chain(rng, int(rng.integers(2, 7)))
        mu = stationary_distribution(m)
        f = rng.normal(size=m.n_states) * 3
        zp = zero_potential(m, f, mu)
        region = [int(rng.integers(0, m.n_states))]
        cap = int(rng.integers(0, 40))
        start = int(rng.integers(0, m.n_states))
        val = stopped_potential_exact(m, f, mu, zp.q, region, cap, start)
        assert abs(val - zp.q[start]) <= 1e-9


def test_dynkin_cap_zero_is_exact(chain_a, chain_a_mu):
    zp = zero_potential(chain_a, CHAIN_A_F, chain_a_mu)
    rep = verify_dynkin_identity(
        chain_a, zp, CHAIN_A_F, chain_a_mu, [1], cap_steps=0, start=0,
        n_paths=100, seed=0,
    )
    assert rep.z_score == 0.0 and rep.std_error == 0.0
    assert rep.estimate == rep.reference == pytest.approx(20 / 3, abs=1e-12)
    assert rep.verdict == "PASS"


def test_dynkin_start_in_region_is_exact(chain_a, chain_a_mu):
    # tau = 0 on every path; the sample mean of 1000 copies of q[1] is an
    # ulp off q[1] at a spread of ~1e-17, which once read as z = -31.6
    zp = zero_potential(chain_a, CHAIN_A_F, chain_a_mu)
    rep = verify_dynkin_identity(
        chain_a, zp, CHAIN_A_F, chain_a_mu, [1], cap_steps=5, start=1,
        n_paths=1000, seed=0,
    )
    assert rep.z_score == 0.0 and rep.std_error == 0.0
    assert rep.estimate == rep.reference == zp.q[1]
    assert rep.verdict == "PASS"


def test_dynkin_constant_f_exact(chain_a, chain_a_mu):
    zp = zero_potential(chain_a, np.array([1.0, 1.0]), chain_a_mu)
    rep = verify_dynkin_identity(
        chain_a, zp, np.array([1.0, 1.0]), chain_a_mu, [1], cap_steps=20,
        start=0, n_paths=200, seed=0,
    )
    assert rep.estimate == pytest.approx(0.0, abs=1e-12)
    assert rep.verdict == "PASS"


def test_dynkin_chain_a_monte_carlo(chain_a, chain_a_mu):
    zp = zero_potential(chain_a, CHAIN_A_F, chain_a_mu)
    rep = verify_dynkin_identity(
        chain_a, zp, CHAIN_A_F, chain_a_mu, [1], cap_steps=50, start=0,
        n_paths=100_000, seed=2024,
    )
    assert rep.verdict == "PASS"
    assert abs(rep.estimate - 20 / 3) <= 3 * rep.std_error


def test_tv_refuses_an_empty_probe_list(chain_a, chain_a_mu):
    # an empty profile would reach fit_ergodic_bound as a raw numpy error
    with pytest.raises(ValueError, match="probe_states"):
        tv_distance_curve(chain_a, chain_a_mu, [], max_time=4.0)
