"""Shared parameter, topology, and state types for the oscillator ring.

Unit conventions used throughout the package:

* the linear gain rate ``kappa1`` is the unit of rate and ``1/kappa1`` the
  unit of time, so kappa1 = 1 in every formula and no object stores it,
* ``hbar`` is kept configurable (default 1) so that scaling bugs in the
  quantum-fluctuation machinery remain testable,
* site indices are 1-based in all I/O and in every public function that
  takes a site (``l = 1..N``), 0-based inside array code.
"""

from __future__ import annotations

import math
import numbers
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


def _number(name: str, x, kind: str = "float", error: type[ValueError] = RangeError):
    """``x`` as an int if ``kind`` is "int", else as a float.  Raises ``error``
    naming ``name`` unless ``x`` is an integer, or for "float" a real number,
    within the float range; a bool is neither."""
    whole = kind == "int"
    if isinstance(x, bool) or not isinstance(x, (int, np.integer) if whole else numbers.Real):
        raise error(f"{name} must be {'an integer' if whole else 'a number'}, got {x!r}")
    try:
        value = float(x)
    except OverflowError:
        raise error(f"{name} must be finite, got an integer beyond the float range") from None
    return int(x) if whole else value


@dataclass(frozen=True)
class NetworkParams:
    """Ring of N oscillators, each coupled to the 2d sites within range d.

    Rates are in units of the gain ``kappa1``, which is 1 and not a field.
    ``V`` is the coupling strength and ``kappa2`` the nonlinear damping rate.
    """

    N: int
    d: int
    V: float
    kappa2: float
    hbar: float = 1.0

    def __post_init__(self):
        """Check the ranges; raises RangeError naming the violated field.

        The coupling range must satisfy 1 <= d <= (N-1)/2, except that
        d = (N+1)/2 is permitted for odd N (the all-to-all case).  V,
        kappa2 and hbar must be finite numbers.
        """
        for name, least in (("N", 2), ("d", 1)):
            if (n := _number(name, getattr(self, name), "int")) < least:
                raise RangeError(f"{name} must be an integer >= {least}, got {n}")
        if 2 * self.d > self.N - 1 and not (self.N % 2 == 1 and 2 * self.d == self.N + 1):
            raise RangeError(
                f"d={self.d} out of range for N={self.N}: need 2d <= N-1 "
                f"(or d=(N+1)/2 for odd N)"
            )
        for name in ("V", "kappa2", "hbar"):
            if not math.isfinite(_number(name, getattr(self, name))):
                raise RangeError(f"{name} must be finite, got {getattr(self, name)}")
        if self.V < 0:
            raise RangeError(f"V must be >= 0, got {self.V}")
        for name in ("kappa2", "hbar"):
            if getattr(self, name) <= 0:
                raise RangeError(f"{name} must be > 0, got {getattr(self, name)}")

    @property
    def limit_cycle_radius(self) -> float:
        """Radius sqrt(kappa1 / 2 kappa2) of the uncoupled limit cycle."""
        return float(np.sqrt(1.0 / (2.0 * self.kappa2)))


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


def coupling_matrix(p: NetworkParams) -> np.ndarray:
    """N x N 0/1 adjacency matrix of the coupling window (zero diagonal)."""
    K = np.zeros((p.N, p.N))
    idx = np.arange(p.N)[:, None]
    K[idx, (idx + np.array(neighbor_offsets(p))) % p.N] = 1.0
    return K


class RK4:
    """Classic fixed-step RK4 of dy/dt = f(y), stepping ``y`` in place.

    ``y`` is a tuple of arrays (parts may differ in shape and dtype), and
    ``f(x, k)`` writes the derivative at the tuple ``x`` into the arrays of
    the tuple ``k``, one per part.  The stage input and three slope buffers
    of every part are made here, once, as one ``(4, *shape)`` array per part
    in ``work``; a step allocates nothing, and between steps the contents of
    ``work`` are free, so a caller may use them as scratch there.  During
    ``f(x, k)``, each part's stage input ``work[i][0]`` is free too once f
    has read its input: the step writes it before it reads it again.  Every
    integrator in the package takes its steps here.

    The arithmetic is that of the textbook step, stages ``u + h k`` and
    update ``u + (dt/6) (k1 + 2 (k2 + k3) + k4)``, in that order, so a step
    has the bits of one that allocates every intermediate.
    """

    def __init__(self, f, y: tuple):
        self.f = f
        self.work = tuple(np.empty((4,) + u.shape, u.dtype) for u in y)
        self._x, self._k1, self._k2, self._k3 = zip(*self.work)

    def step(self, y: tuple, dt: float) -> None:
        """Advance every array of ``y`` by one step of ``dt``, in place."""
        f, x, k1, k2, k3 = self.f, self._x, self._k1, self._k2, self._k3
        mul, add = np.multiply, np.add
        half = 0.5 * dt
        f(y, k1)
        for s, u, k in zip(x, y, k1):
            add(u, mul(half, k, s), s)
        f(x, k2)
        for s, u, k in zip(x, y, k2):
            add(u, mul(half, k, s), s)
        f(x, k3)
        for s, u, k, b in zip(x, y, k3, k2):
            add(u, mul(dt, k, s), s)
            add(b, k, b)  # k3 lives on in k2 + k3; its buffer takes k4
        f(x, k3)
        sixth = dt / 6.0
        for u, a, s, d in zip(y, k1, k2, k3):
            mul(2.0, s, s)
            add(a, s, s)
            add(s, d, s)
            add(u, mul(sixth, s, s), u)


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
        """2x2 (q, p) covariance block of 1-based site ``l``; raises
        RangeError unless ``l`` is an integer in 1..N."""
        if not 1 <= (site := _number("site", l, "int")) <= self.n_sites:
            raise RangeError(f"site must be in 1..{self.n_sites}, got {l}")
        i = 2 * (site - 1)
        return np.array(self.C[i : i + 2, i : i + 2])
