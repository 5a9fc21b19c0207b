"""Classical dynamics of the nonlocally coupled oscillator ring.

Each site obeys a Stuart-Landau equation with diffusive phase coupling to
the 2d sites of its window:

    d(alpha_l)/dt = alpha_l (kappa1 - 2 kappa2 |alpha_l|^2)
                    - i (V / 2d) sum_{m in window(l)} alpha_m

Uncoupled sites relax onto a limit cycle of radius r0 = sqrt(kappa1/2 kappa2).
Depending on V the ring settles into synchronized, desynchronized, or
chimera motion (coexisting coherent and incoherent domains).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DivergenceError,
    InsufficientDataError,
    MeanFieldState,
    NetworkParams,
    RangeError,
    RK4,
    check_fields,
    coupling_matrix,
)

SYNCHRONIZED = "synchronized"
DESYNCHRONIZED = "desynchronized"
CHIMERA = "chimera"

#: amplitudes beyond this multiple of the limit-cycle radius abort a run
DIVERGENCE_FACTOR = 1.0e3


@dataclass(frozen=True)
class InitialConditionSpec:
    """Limit-cycle amplitudes with random phases under a Gaussian envelope.

    All sites start at amplitude ``r0`` (defaults to the limit-cycle radius)
    with phases

        phi_l = theta_l / (sqrt(2 pi) sigma) * exp(-(l - mu)^2 / (2 sigma^2))

    where each ``theta_l`` is drawn uniformly from
    (-theta_range, +theta_range), ``mu`` defaults to N/2 and ``sigma`` is
    measured in sites.  Sites near ``mu`` get fully scattered phases while
    the envelope tails stay near phase zero, which seeds the coexistence of
    a coherent and an incoherent domain.
    """

    seed: int = field(default=0, metadata={">=": 0})
    r0: float | None = field(default=None, metadata={">": 0})
    sigma: float = field(default=9.0, metadata={">": 0})
    mu: float | None = None
    #: at most half the largest float, so that the draw's range is finite
    theta_range: float = field(default=24.0 * math.pi,
                               metadata={">": 0, "<=": sys.float_info.max / 2})

    def __post_init__(self):
        check_fields(self, RangeError)


def phase_profile(
    n_sites: int, sigma: float, mu: float, theta: float | np.ndarray
) -> np.ndarray:
    """Gaussian-enveloped phases over 1-based sites l = 1..n_sites.

    ``theta`` may be a scalar (smooth bump) or a per-site vector.
    """
    l = np.arange(1, n_sites + 1, dtype=float)
    return theta / (math.sqrt(2.0 * math.pi) * sigma) * np.exp(
        -((l - mu) ** 2) / (2.0 * sigma**2)
    )


def initial_conditions(p: NetworkParams, ic: InitialConditionSpec) -> MeanFieldState:
    """Draw the seeded initial state at t = 0.

    Deterministic given ``ic.seed``; |alpha_l| equals ``r0`` for every site.
    A smooth single-bump profile lies in the basin of full synchrony, so
    one angle is drawn per site.  A draw that overflows (a tiny ``sigma``,
    say) raises the DivergenceError of a non-finite amplitude, without
    numpy's warnings.
    """
    r0 = p.limit_cycle_radius if ic.r0 is None else ic.r0
    mu = p.N / 2.0 if ic.mu is None else ic.mu
    rng = np.random.default_rng(ic.seed)
    theta = rng.uniform(-ic.theta_range, ic.theta_range, p.N)
    with np.errstate(all="ignore"):
        alphas = r0 * np.exp(1j * phase_profile(p.N, ic.sigma, mu, theta))
    return MeanFieldState(t=0.0, alphas=alphas)


def mean_field_rhs(p: NetworkParams, s: MeanFieldState) -> np.ndarray:
    """Right-hand side of the coupled Stuart-Landau equations at state ``s``."""
    return _rhs_of(p)(s.alphas)


def _rhs_of(p: NetworkParams):
    """The right-hand side for ``p`` as a function of the amplitudes alone:
    ``rhs(alphas, out=None, mag2=None)`` writes the slope into ``out`` (a
    new array by default); ``mag2``, when given, must hold
    ``alphas.real**2 + alphas.imag**2``.

    ``alphas`` may be (N,) or batched (B, N).  The coupling is a stack of one
    vector-matrix product per row with the complex K.T, so each row has the
    same bits whatever batch it sits in; a (B, N) @ (N, N) product does not
    guarantee that.
    """
    KT = np.ascontiguousarray(coupling_matrix(p).T, dtype=complex)
    c2, cj = 2.0 * p.kappa2, 1j * (p.V / (2.0 * p.d))

    def rhs(alphas: np.ndarray, out: np.ndarray | None = None,
            mag2: np.ndarray | None = None) -> np.ndarray:
        # alphas (1 - 2 kappa2 |alphas|^2) - 1j (V / 2d) (alphas @ K.T)
        if mag2 is None:
            mag2 = alphas.real**2 + alphas.imag**2
        out = np.multiply(alphas, 1.0 - c2 * mag2, out)
        coupling = alphas[..., None, :] @ KT
        return np.subtract(out, np.multiply(cj, coupling, coupling)[..., 0, :], out)

    return rhs


@dataclass(frozen=True)
class MeanFieldTrajectory:
    """Sampled history of one mean-field run.

    ``alphas`` has shape (T, N); row k is the state at ``times[k]``.
    """

    times: np.ndarray
    alphas: np.ndarray
    params: NetworkParams

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        a = np.asarray(self.alphas, dtype=complex)
        if a.shape != (t.shape[0], self.params.N):
            raise ValueError("alphas must have shape (len(times), N)")
        if t.shape[0] >= 2 and not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        t.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "alphas", a)

    def __len__(self) -> int:
        return self.times.shape[0]

    def state(self, k: int) -> MeanFieldState:
        return MeanFieldState(t=float(self.times[k]), alphas=self.alphas[k])

    @property
    def final_state(self) -> MeanFieldState:
        return self.state(len(self) - 1)


def _step_count(t0: float, t_end: float, dt: float) -> int:
    span = t_end - t0
    n = int(round(span / dt))
    if n < 1 or abs(n * dt - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError(f"dt={dt} does not divide the interval [{t0}, {t_end}]")
    return n


def integrate(
    p: NetworkParams,
    s0: MeanFieldState,
    t_end: float,
    dt: float = 1e-2,
    sample_every: int = 1,
) -> MeanFieldTrajectory:
    """Fixed-step classic RK4 from ``s0`` to ``t_end``.

    States are recorded every ``sample_every`` steps, always including both
    endpoints.  Deterministic for given inputs.

    Raises:
        DivergenceError: if any |alpha_l| exceeds 1e3 times the limit-cycle
            radius (numerical blow-up, not a valid state).
    """
    (traj,) = integrate_many(p, [s0], t_end, dt=dt, sample_every=sample_every)
    if isinstance(traj, DivergenceError):
        raise traj
    return traj


def integrate_many(
    p: NetworkParams,
    states0: list[MeanFieldState],
    t_end: float,
    dt: float = 1e-2,
    sample_every: int = 1,
) -> list[MeanFieldTrajectory | DivergenceError]:
    """Integrate several independent initial states on one clock.

    All states must share the start time; the batch advances in lockstep,
    which amortizes the per-step cost across runs (seed sweeps).  Each row
    has the same bits as a solo ``integrate`` of its state.  A row's slot
    holds the ``DivergenceError`` a solo run would raise at the first sample
    step whose divergence check it fails.  Rows never mix, so a failed row
    stays in the batch; the batch stops once every row has failed.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    if not states0:
        return []
    t0 = states0[0].t
    if any(abs(s.t - t0) > 1e-12 for s in states0):
        raise ValueError("batched initial states must share a start time")
    if any(s.n_sites != p.N for s in states0):
        raise ValueError("initial state length does not match params.N")
    if t_end <= t0:
        raise ValueError(f"t_end={t_end} must exceed the start time {t0}")

    n_steps = _step_count(t0, t_end, dt)
    rhs = _rhs_of(p)

    def f(x, out):
        rhs(x[0], out[0])

    blow_up = (DIVERGENCE_FACTOR * p.limit_cycle_radius) ** 2

    sample_steps = list(range(0, n_steps + 1, sample_every))
    if sample_steps[-1] != n_steps:
        sample_steps.append(n_steps)
    a = np.array([s.alphas for s in states0], dtype=complex)
    stack = np.empty((a.shape[0], len(sample_steps), p.N), dtype=complex)  # (B, T, N)
    stack[:, 0] = a
    errors: list[DivergenceError | None] = [None] * a.shape[0]
    stepper = RK4(f, (a,))
    # rows never mix, so a failed row runs on as inf/NaN beside the sound
    # ones; numpy's overflow warnings on it would only clutter stderr
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, len(sample_steps)):
            for _ in range(sample_steps[k] - sample_steps[k - 1]):
                stepper.step((a,), dt)
            stack[:, k] = a
            mag2 = a.real**2 + a.imag**2
            for b in np.flatnonzero(~np.all(mag2 <= blow_up, axis=1)):  # NaN and inf fail too
                errors[b] = errors[b] or DivergenceError(
                    f"|alpha| exceeded {DIVERGENCE_FACTOR} r0 at t={t0 + sample_steps[k] * dt:g}")
            if all(errors):
                break

    times = t0 + dt * np.asarray(sample_steps, dtype=float)
    return [errors[b] or MeanFieldTrajectory(times=times, alphas=stack[b], params=p)
            for b in range(len(states0))]


@dataclass(frozen=True)
class RegimeLabel:
    """Outcome of the regime detector.

    ``mask`` flags locally synchronized sites; ``coherent_width`` is the
    length of the longest circular block of them (:func:`largest_block`).
    """

    regime: str
    mask: np.ndarray = field(repr=False)
    coherent_width: int

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool).copy()
        m.setflags(write=False)
        object.__setattr__(self, "mask", m)


def local_order_parameter(p: NetworkParams, alphas: np.ndarray) -> np.ndarray:
    """Per-site magnitude of the mean neighbor phasor, |<e^{i(phi_m - phi_l)}>|.

    ``alphas`` may be a single state (N,) or a stack (T, N); averaging is
    over the coupling window of each site (1 for perfect local phase lock).
    """
    K = coupling_matrix(p)
    u = alphas / np.abs(alphas)
    counts = K.sum(axis=1)
    return np.abs(u @ K.T) / counts


def largest_block(mask: np.ndarray, value: bool = True) -> tuple[int, int]:
    """(start, length) of the longest circular run of ``value`` in ``mask``,
    the first by start when several are longest.

    ``start`` is a 0-based index; length 0 with start -1 when absent.  A run
    starts where the site before it (circularly) misses ``value`` and ends
    at the first miss after it.
    """
    hit = np.asarray(mask, dtype=bool) == value
    if bool(np.all(hit)):
        return 0, hit.size
    starts = np.flatnonzero(hit & ~np.roll(hit, 1))
    if starts.size == 0:
        return -1, 0
    misses = np.flatnonzero(~hit)
    lengths = (misses[np.searchsorted(misses, starts) % misses.size] - starts) % hit.size
    k = int(np.argmax(lengths))  # the first longest
    return int(starts[k]), int(lengths[k])


def classify(
    traj: MeanFieldTrajectory,
    window: float = 10.0,
    z_threshold: float = 0.80,
    w_min: int = 5,
) -> RegimeLabel:
    """Label the trailing ``window`` of a trajectory.

    A site counts as locally synchronized when its window-averaged local
    order parameter stays >= ``z_threshold``.  The ring is a chimera when
    both the synchronized and the desynchronized sites form a contiguous
    block of at least ``w_min`` sites; a pure mask gives the corresponding
    uniform regime, and a mixed mask without such blocks falls back to the
    majority label.

    Raises:
        InsufficientDataError: if the trajectory covers less than ``window``.
    """
    t_end = float(traj.times[-1])
    covered = t_end - float(traj.times[0])
    if covered + 1e-9 < window:
        raise InsufficientDataError(
            f"trajectory covers {covered:g}, need window {window:g}"
        )
    sel = traj.times >= t_end - window - 1e-12
    z = local_order_parameter(traj.params, traj.alphas[sel])
    z_bar = z.mean(axis=0)
    mask = z_bar >= z_threshold

    n = mask.size
    n_sync = int(mask.sum())
    _, w_sync = largest_block(mask, True)
    if n_sync == n:
        return RegimeLabel(SYNCHRONIZED, mask, n)
    if n_sync == 0:
        return RegimeLabel(DESYNCHRONIZED, mask, 0)
    _, w_desync = largest_block(mask, False)
    if w_sync >= w_min and w_desync >= w_min:
        return RegimeLabel(CHIMERA, mask, w_sync)
    regime = SYNCHRONIZED if 2 * n_sync >= n else DESYNCHRONIZED
    return RegimeLabel(regime, mask, w_sync)


def spacetime_grid(traj: MeanFieldTrajectory) -> tuple[np.ndarray, np.ndarray]:
    """(phi, r^2) grids of shape (N, T); phases wrapped to (-pi, pi]."""
    if len(traj) == 0:
        raise InsufficientDataError("empty trajectory")
    phi = np.angle(traj.alphas).T
    r2 = (traj.alphas.real**2 + traj.alphas.imag**2).T
    return phi, r2
