import numpy as np
import pytest

from ergostop import build_dtmc, build_from_generator, make_rewards

# Two-state reference chain used across the suite: kernel rows (0.6, 0.4) and
# (0.2, 0.8), f = (2, -4), g = (0, 5); invariant law (1/3, 2/3), mu(f) = -2.
CHAIN_A_KERNEL = [[0.6, 0.4], [0.2, 0.8]]
CHAIN_A_F = np.array([2.0, -4.0])
CHAIN_A_G = np.array([0.0, 5.0])

# Five-state lazy reflecting birth-death walk: interior rows (1/4, 1/2, 1/4),
# hold 3/4 at the ends; doubly stochastic, uniform invariant law. The
# continuous-time version uses the generator G = P - I at unit rate.
CHAIN_B_KERNEL = [
    [0.75, 0.25, 0.0, 0.0, 0.0],
    [0.25, 0.50, 0.25, 0.0, 0.0],
    [0.0, 0.25, 0.50, 0.25, 0.0],
    [0.0, 0.0, 0.25, 0.50, 0.25],
    [0.0, 0.0, 0.0, 0.25, 0.75],
]
CHAIN_B_COORDS = [[0.0], [1.0], [2.0], [3.0], [4.0]]
CHAIN_B_F = np.array([2.0, 1.0, -1.0, -3.0, -4.0])
CHAIN_B_G = np.array([0.0, 1.0, 3.0, 1.0, 0.0])


def chain_b_generator_rows():
    g = np.array(CHAIN_B_KERNEL) - np.eye(5)
    return g


@pytest.fixture
def chain_a():
    return build_dtmc([0, 1], CHAIN_A_KERNEL, dt=1.0)


@pytest.fixture
def chain_a_mu(chain_a):
    return chain_a.invariant


@pytest.fixture
def chain_a_rewards(chain_a):
    return make_rewards(chain_a, CHAIN_A_F, CHAIN_A_G)


@pytest.fixture
def chain_b():
    return build_dtmc(list(range(5)), CHAIN_B_KERNEL, dt=1.0, coords=CHAIN_B_COORDS)


@pytest.fixture
def chain_b_rewards(chain_b):
    return make_rewards(chain_b, CHAIN_B_F, CHAIN_B_G)


def chain_b_from_generator(dt):
    return build_from_generator(
        list(range(5)), chain_b_generator_rows(), dt=dt, coords=CHAIN_B_COORDS
    )


def random_chain(rng, n, dt_choices=(0.5, 1.0, 2.0)):
    """Random strictly positive kernel: irreducible and aperiodic."""
    P = rng.gamma(1.0, size=(n, n)) + 1e-3
    P /= P.sum(axis=1, keepdims=True)
    mix = 0.05 + 0.1 * rng.random()
    P = (1.0 - mix) * P + mix / n
    dt = float(rng.choice(dt_choices))
    return build_dtmc(list(range(n)), P, dt=dt)


def random_rewards(model, rng, drift_margin=None, g_scale=3.0):
    """Random rewards conditioned on a strictly negative invariant mean of f."""
    mu = model.invariant
    f = rng.normal(0.0, 2.0, model.n_states)
    margin = drift_margin if drift_margin is not None else 0.3 + 1.7 * rng.random()
    f = f - float(mu.weights @ f) - margin
    g = rng.normal(0.0, g_scale, model.n_states)
    return make_rewards(model, f, g)
