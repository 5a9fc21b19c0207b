"""Shared parameter, topology, and state types for the oscillator ring.

Unit conventions used throughout the package:

* the gain rate ``kappa1`` defines the unit of time (it defaults to 1 and
  all other rates are stored as multiples of it),
* ``hbar`` is kept configurable (default 1) so that scaling bugs in the
  quantum-fluctuation machinery remain testable,
* site indices are 1-based in all I/O and public topology queries
  (``l = 1..N``), 0-based inside array code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class RangeError(ValueError):
    """A parameter is outside its admissible range; names the field."""


class DivergenceError(RuntimeError):
    """A trajectory blew up; the integration step is unusable."""


class PhysicalityError(RuntimeError):
    """A covariance matrix stopped being a valid quantum state."""


class InsufficientDataError(ValueError):
    """A trajectory does not cover enough time for the requested analysis."""


class SingularMatrixError(ArithmeticError):
    """A determinant required by an entropy formula is not positive."""


@dataclass(frozen=True)
class NetworkParams:
    """Ring of N oscillators, each coupled to the 2d sites within range d.

    Rates are in units of ``kappa1``.  ``V`` is the coupling strength and
    ``kappa2`` the nonlinear damping rate.
    """

    N: int
    d: int
    V: float
    kappa2: float
    kappa1: float = 1.0
    hbar: float = 1.0

    @property
    def limit_cycle_radius(self) -> float:
        """Radius sqrt(kappa1 / 2 kappa2) of the uncoupled limit cycle."""
        return float(np.sqrt(self.kappa1 / (2.0 * self.kappa2)))

    @property
    def all_to_all(self) -> bool:
        """True when the coupling window covers every other site."""
        return 2 * self.d >= self.N - 1


def validate_params(p: NetworkParams) -> NetworkParams:
    """Check all NetworkParams invariants; return ``p`` unchanged if valid.

    The coupling range must satisfy 1 <= d <= (N-1)/2, except that
    d = (N+1)/2 is permitted for odd N (the all-to-all case).  V, kappa1,
    kappa2 and hbar must be finite.

    Raises:
        RangeError: naming the violated field.
    """
    if not isinstance(p.N, (int, np.integer)) or p.N < 2:
        raise RangeError(f"N must be an integer >= 2, got {p.N}")
    if not isinstance(p.d, (int, np.integer)) or p.d < 1:
        raise RangeError(f"d must be an integer >= 1, got {p.d}")
    if 2 * p.d > p.N - 1 and not (p.N % 2 == 1 and 2 * p.d == p.N + 1):
        raise RangeError(
            f"d={p.d} out of range for N={p.N}: need 2d <= N-1 "
            f"(or d=(N+1)/2 for odd N)"
        )
    for name in ("V", "kappa1", "kappa2", "hbar"):
        if not math.isfinite(getattr(p, name)):
            raise RangeError(f"{name} must be finite, got {getattr(p, name)}")
    if p.V < 0:
        raise RangeError(f"V must be >= 0, got {p.V}")
    if p.kappa1 <= 0:
        raise RangeError(f"kappa1 must be > 0, got {p.kappa1}")
    if p.kappa2 <= 0:
        raise RangeError(f"kappa2 must be > 0, got {p.kappa2}")
    if p.hbar <= 0:
        raise RangeError(f"hbar must be > 0, got {p.hbar}")
    return p


def neighbor_offsets(p: NetworkParams) -> tuple[int, ...]:
    """Nonzero index offsets (mod N) of the coupling window -d..d.

    When 2d >= N-1 some window positions alias the same site; each site is
    counted once (the 1/2d prefactor in the dynamics keeps the literal 2d).
    """
    offsets = []
    seen = set()
    for o in range(-p.d, p.d + 1):
        if o == 0:
            continue
        r = o % p.N
        if r not in seen:
            seen.add(r)
            offsets.append(r)
    return tuple(offsets)


def neighbors(p: NetworkParams, l: int) -> tuple[int, ...]:
    """1-based sites coupled to site ``l``, in window order l-d..l+d.

    Exactly 2d sites, or N-1 after de-duplication in the all-to-all case.
    """
    site0 = (int(l) - 1) % p.N
    return tuple((site0 + r) % p.N + 1 for r in neighbor_offsets(p))


def coupling_matrix(p: NetworkParams) -> np.ndarray:
    """N x N 0/1 adjacency matrix of the coupling window (zero diagonal)."""
    K = np.zeros((p.N, p.N))
    idx = np.arange(p.N)[:, None]
    K[idx, (idx + np.array(neighbor_offsets(p))) % p.N] = 1.0
    return K


def rk4_step(f, y: tuple, dt: float) -> tuple:
    """One classic fixed-step RK4 step of dy/dt = f(*y).

    ``y`` is a tuple of arrays (parts may differ in shape) and ``f(*y)``
    returns one derivative per part.  Every integrator in the package takes
    its steps here; callers apply their own symmetrizations afterwards.
    """
    half = 0.5 * dt
    sixth = dt / 6.0
    k1 = f(*y)
    k2 = f(*[u + half * k for u, k in zip(y, k1)])
    k3 = f(*[u + half * k for u, k in zip(y, k2)])
    k4 = f(*[u + dt * k for u, k in zip(y, k3)])
    return tuple(
        u + sixth * (a + 2.0 * (b + c) + d) for u, a, b, c, d in zip(y, k1, k2, k3, k4)
    )


@dataclass(frozen=True)
class MeanFieldState:
    """Complex oscillator amplitudes at one instant, t in units of 1/kappa1."""

    t: float
    alphas: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=complex)
        if a.ndim != 1:
            raise ValueError("alphas must be a 1-d complex array")
        if not np.all(np.isfinite(a.view(float))):
            raise DivergenceError("non-finite amplitude in mean-field state")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "alphas", a)

    @property
    def n_sites(self) -> int:
        return self.alphas.shape[0]


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric 2N x 2N quadrature covariance, entries in units of hbar.

    Row/column order is (q1, p1, ..., qN, pN) in the frame co-moving with
    the mean field.
    """

    t: float
    C: np.ndarray

    def __post_init__(self):
        C = np.asarray(self.C, dtype=float)
        if C.ndim != 2 or C.shape[0] != C.shape[1] or C.shape[0] % 2:
            raise ValueError("C must be a square 2N x 2N matrix")
        C = C.copy()
        C.setflags(write=False)
        object.__setattr__(self, "C", C)

    @property
    def n_sites(self) -> int:
        return self.C.shape[0] // 2

    def site_marginal(self, l: int) -> np.ndarray:
        """2x2 (q, p) covariance block of 1-based site ``l``."""
        i = 2 * ((int(l) - 1) % self.n_sites)
        return np.array(self.C[i : i + 2, i : i + 2])

    def symmetry_defect(self) -> float:
        return float(np.max(np.abs(self.C - self.C.T)))
