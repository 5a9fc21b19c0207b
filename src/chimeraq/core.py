"""Shared parameter, topology, and state types for the oscillator ring.

Unit conventions used throughout the package:

* the linear gain rate ``kappa1`` is the unit of rate and ``1/kappa1`` the
  unit of time, so kappa1 = 1 in every formula and no object stores it,
* ``hbar`` is kept configurable (default 1) so that scaling bugs in the
  quantum-fluctuation machinery remain testable,
* site indices are 1-based in all I/O and in every public function that
  takes a site (``l = 1..N``), 0-based inside array code.

A config object is a frozen dataclass whose fields are its keys, each with
its kind (the annotation) and bounds (``field(metadata={">": 0})``).  One
rule, :func:`check_fields`, checks every field's kind, finiteness and
bounds first in each ``__post_init__``, which then checks only the rules
that join fields (d against N, say).
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass, field, fields
from typing import NewType, get_args, get_origin, get_type_hints

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


#: the kind of a config field that names a file or directory
PathName = NewType("PathName", str)

#: the comparison of each bound a field may declare in its metadata
BOUNDS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}

#: the kind of each field of a dataclass: its annotation, resolved
field_kinds = functools.cache(get_type_hints)


def check_value(name: str, x, kind, error: type[ValueError]):
    """``x`` checked as the value of ``name`` of ``kind``, a resolved
    annotation: ``int`` an integer and ``float`` a real number, both finite
    and returned as ``kind`` (a bool is neither); ``str`` a non-empty
    string, :data:`PathName` a path string; ``tuple[C, ...]`` a tuple of
    ``C``; any other class an instance; ``<kind> | None`` also None.
    Raises ``error`` naming ``name``."""
    if type(None) in get_args(kind):
        if x is None:
            return None
        (kind,) = (k for k in get_args(kind) if k is not type(None))
    if kind in (int, float):
        whole = kind is int
        if isinstance(x, bool) or not isinstance(x, (int, np.integer) if whole else numbers.Real):
            raise error(f"{name} must be {'an integer' if whole else 'a number'}, got {x!r}")
        try:
            if not math.isfinite(float(x)):
                raise error(f"{name} must be finite, got {float(x)}")
        except OverflowError:
            raise error(f"{name} must be finite, got an integer beyond the float range") from None
        return kind(x)
    if kind in (str, PathName):
        ok = isinstance(x, str) and x != ""
        what = "a path string" if kind is PathName else "a non-empty string"
    elif get_origin(kind) is tuple:
        item = get_args(kind)[0]
        ok = isinstance(x, tuple) and all(isinstance(v, item) for v in x)
        what = f"a tuple of {item.__name__}"
    else:
        ok, what = isinstance(x, kind), f"of type {kind.__name__}"
    if not ok:
        raise error(f"{name} must be {what}, got {x!r}")
    return x


def check_fields(obj, error: type[ValueError]) -> None:
    """Check every field of the dataclass ``obj`` by one rule: its value is
    of its kind (:func:`check_value`) and meets each bound its metadata
    declares (None meets every bound).  Raises ``error`` naming the first
    field that does not."""
    kinds = field_kinds(type(obj))
    for f in fields(obj):
        value = check_value(f.name, getattr(obj, f.name), kinds[f.name], error)
        for op, bound in f.metadata.items():
            if op in BOUNDS and value is not None and not BOUNDS[op](value, bound):
                raise error(f"{f.name} must be {op} {bound}, got {value}")


@dataclass(frozen=True)
class NetworkParams:
    """Ring of N oscillators, each coupled to the 2d sites within range d.

    Rates are in units of the gain ``kappa1``, which is 1 and not a field.
    ``V`` is the coupling strength and ``kappa2`` the nonlinear damping rate.
    """

    N: int = field(metadata={">=": 2})
    d: int = field(metadata={">=": 1})
    V: float = field(metadata={">=": 0})
    kappa2: float = field(metadata={">": 0})
    hbar: float = field(default=1.0, metadata={">": 0})

    def __post_init__(self):
        """Check every field, then 2d <= N-1, or d = (N+1)/2 for odd N (the
        all-to-all case); raises RangeError naming the violated field."""
        check_fields(self, RangeError)
        if 2 * self.d > self.N - 1 and not (self.N % 2 == 1 and 2 * self.d == self.N + 1):
            raise RangeError(
                f"d={self.d} out of range for N={self.N}: need 2d <= N-1 "
                f"(or d=(N+1)/2 for odd N)"
            )

    @property
    def limit_cycle_radius(self) -> float:
        """Radius sqrt(kappa1 / 2 kappa2) of the uncoupled limit cycle."""
        return float(np.sqrt(1.0 / (2.0 * self.kappa2)))


def neighbor_offsets(p: NetworkParams) -> tuple[int, ...]:
    """Nonzero index offsets (mod N) of the coupling window -d..d.

    In the all-to-all window d = (N+1)/2 of odd N, two sites lie at two
    window positions each; each site is counted once (the 1/2d prefactor
    in the dynamics keeps the literal 2d).
    """
    return tuple(dict.fromkeys(o % p.N for o in range(-p.d, p.d + 1) if o != 0))


def coupling_matrix(p: NetworkParams) -> np.ndarray:
    """N x N 0/1 adjacency matrix of the coupling window (zero diagonal)."""
    K = np.zeros((p.N, p.N))
    idx = np.arange(p.N)[:, None]
    K[idx, (idx + np.array(neighbor_offsets(p))) % p.N] = 1.0
    return K


def cholesky_diagonal(M: np.ndarray) -> np.ndarray:
    """The diagonal of the Cholesky factor of the symmetric ``M``; raises
    SingularMatrixError unless it is finite and positive (on NaN or inf
    input ``np.linalg.cholesky`` returns a NaN factor instead of raising)."""
    try:
        d = np.diagonal(np.linalg.cholesky(M))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"matrix is not positive definite: {exc}") from exc
    if not np.all(np.isfinite(d) & (d > 0.0)):
        raise SingularMatrixError("non-positive pivot in Cholesky factor")
    return d


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
        if not 1 <= (site := check_value("site", l, int, RangeError)) <= self.n_sites:
            raise RangeError(f"site must be in 1..{self.n_sites}, got {l}")
        i = 2 * (site - 1)
        return np.array(self.C[i : i + 2, i : i + 2])
