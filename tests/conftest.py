import os

import numpy as np
import pytest
from hypothesis import settings

from chimeraq import NetworkParams

# HYPOTHESIS_PROFILE=ci makes every property test draw the same examples on
# each run, so a CI failure reproduces
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def paper_params() -> NetworkParams:
    return NetworkParams(N=50, d=10, V=1.2, kappa2=0.2)


@pytest.fixture
def small_params() -> NetworkParams:
    return NetworkParams(N=6, d=2, V=0.9, kappa2=0.2)


def random_physical_cov(n_sites: int, hbar: float = 1.0, seed: int = 0, scale: float = 0.3) -> np.ndarray:
    """Physical covariance hbar/2 I + PSD noise; C >= hbar/2 I implies
    C + i hbar Omega / 2 >= 0."""
    rng = np.random.default_rng(seed)
    m = scale * rng.standard_normal((2 * n_sites, 2 * n_sites))
    return 0.5 * hbar * np.eye(2 * n_sites) + hbar * (m @ m.T)


def oracle_rk4_step(f, y: tuple, dt: float) -> tuple:
    """The classic RK4 step that allocates every intermediate, as the package
    took it before ``core.RK4``: ``f(*y)`` returns one derivative per part.
    Reference for the bits of the in-place stepper."""
    half = 0.5 * dt
    sixth = dt / 6.0
    k1 = f(*y)
    k2 = f(*[u + half * k for u, k in zip(y, k1)])
    k3 = f(*[u + half * k for u, k in zip(y, k2)])
    k4 = f(*[u + dt * k for u, k in zip(y, k3)])
    return tuple(
        u + sixth * (a + 2.0 * (b + c) + d) for u, a, b, c, d in zip(y, k1, k2, k3, k4)
    )
