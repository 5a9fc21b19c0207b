"""The in-place RK4 stepper (``core.RK4``) and the right-hand sides that write
into its buffers give the bits of the allocate-per-step integrators they
replaced, kept here as oracles: the RK4 step in ``conftest.oracle_rk4_step``,
the mean-field slope, the joint Lyapunov slope and the sample-check rule."""

import numpy as np
import pytest

from chimeraq import (
    CovarianceMatrix,
    DivergenceError,
    InitialConditionSpec,
    MeanFieldState,
    NetworkParams,
    coupling_matrix,
    initial_conditions,
    integrate,
    integrate_many,
    propagate_covariance,
    vacuum_covariance,
)
from chimeraq.core import RK4
from chimeraq.fluctuations import PHYSICALITY_TOL
from chimeraq.meanfield import DIVERGENCE_FACTOR
import oracles
from conftest import oracle_rk4_step, random_physical_cov
from oracles import moment_oracle, oracle_margin


def oracle_mean_field_rhs(p: NetworkParams, alphas: np.ndarray) -> np.ndarray:
    KT = np.ascontiguousarray(coupling_matrix(p).T, dtype=complex)
    cV = p.V / (2.0 * p.d)
    local = alphas * (1.0 - 2.0 * p.kappa2 * (alphas.real**2 + alphas.imag**2))
    return local - 1j * cV * (alphas[..., None, :] @ KT)[..., 0, :]


def oracle_integrate(p: NetworkParams, a0: np.ndarray, n_steps: int, dt: float, sample_every: int):
    """(samples, None) of a solo run, or (samples so far, divergence step)."""
    blow_up = (DIVERGENCE_FACTOR * p.limit_cycle_radius) ** 2
    a, samples = a0, [a0]
    for step in range(1, n_steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            (a,) = oracle_rk4_step(lambda x: (oracle_mean_field_rhs(p, x),), (a,), dt)
        if step % sample_every == 0 or step == n_steps:
            if not np.all(a.real**2 + a.imag**2 <= blow_up):
                return np.array(samples), step
            samples.append(a)
    return np.array(samples), None


def oracle_joint_rhs(p: NetworkParams):
    """The joint (alpha, C) slope, rebuilding A with fancy indexing."""
    iq = 2 * np.arange(p.N)
    ip = iq + 1
    c = p.V / (2.0 * p.d)
    A0 = np.kron(coupling_matrix(p), np.array([[0.0, c], [-c, 0.0]]))

    def f(alpha, C):
        mag2 = alpha.real**2 + alpha.imag**2
        m = 1.0 - 4.0 * p.kappa2 * mag2
        a2 = alpha**2
        sr = -2.0 * p.kappa2 * a2.real
        si = -2.0 * p.kappa2 * a2.imag
        b = p.hbar * (1.0 + 4.0 * p.kappa2 * mag2)
        A = A0.copy()
        A[iq, iq] = m + sr
        A[ip, ip] = m - sr
        A[iq, ip] = si
        A[ip, iq] = si
        M = A @ C
        dC = M + M.T
        dC.flat[:: 2 * p.N + 1] += np.repeat(b, 2)
        return oracle_mean_field_rhs(p, alpha), dC

    return f


def oracle_covariance(p: NetworkParams, seg, C0: np.ndarray, dt: float):
    """(covs at every sample, margin_min, certified): the exact margin at the
    first sample; at each later one, a Cholesky certificate of
    C - (hbar/2 + floor + tol) I, with floor the smallest margin so far,
    and the exact margin where it fails."""
    f = oracle_joint_rhs(p)
    a, C = np.array(seg.alphas[0]), 0.5 * (C0 + C0.T)
    covs = [C]
    for t0, t1 in zip(seg.times[:-1], seg.times[1:]):
        for _ in range(int(round((t1 - t0) / dt))):
            a, C = oracle_rk4_step(f, (a, C), dt)
        covs.append(C)
    floor = oracle_margin(covs[0], p.hbar)
    certified = 0
    for C in covs[1:]:
        shift = (0.5 * p.hbar + floor + PHYSICALITY_TOL * p.hbar) * np.eye(2 * p.N)
        try:
            d = np.diagonal(np.linalg.cholesky(C - shift))
            factors = bool(np.all(np.isfinite(d) & (d > 0.0)))
        except np.linalg.LinAlgError:
            factors = False
        if factors:
            certified += 1
        else:
            floor = min(floor, oracle_margin(C, p.hbar))
    return np.array(covs), floor, certified


class OracleRK4:
    """``core.RK4``'s interface over the allocating oracle step."""

    def __init__(self, f, y):
        self.f = f
        self.work = tuple(np.empty((4,) + u.shape, u.dtype) for u in y)

    def step(self, y, dt):
        def f(*x):
            k = tuple(np.empty_like(u) for u in x)
            self.f(x, k)
            return k

        for u, new in zip(y, oracle_rk4_step(f, y, dt)):
            u[...] = new


RING = NetworkParams(N=4, d=1, V=1.2, kappa2=0.2)


def _segment(r0):
    s0 = initial_conditions(RING, InitialConditionSpec(seed=2, r0=r0))
    return integrate(RING, s0, 0.5, dt=1e-3, sample_every=10)


def _start(name: str) -> np.ndarray:
    if name == "asymmetric":
        C = random_physical_cov(RING.N)
        C[0, 1] = np.nextafter(C[0, 1], np.inf)  # _check_c0 has to symmetrize
        return C
    if name == "squeezed":
        r = 0.5
        return 0.5 * RING.hbar * np.diag(np.tile([np.exp(-2 * r), np.exp(2 * r)], RING.N))
    return vacuum_covariance(RING).C


class TestBitsMatchOracles:
    def test_slope_may_clobber_the_stage_inputs(self):
        # core.RK4 frees each part's stage input work[i][0] during f(x, k)
        # once f has read it: an f that fills them with NaN after writing its
        # slopes still gets the bits of the allocating step
        rng = np.random.default_rng(4)
        A = rng.standard_normal((3, 3))

        def g(a, C):
            return a * (1.0 - (a.real**2 + a.imag**2)) + C @ a, A @ C + C @ A.T

        def f(x, k):
            for out, slope in zip(k, g(*x)):
                out[...] = slope
            for w in stepper.work:
                w[0].fill(np.nan)

        ref = (np.exp(1j * rng.uniform(-np.pi, np.pi, 3)), rng.standard_normal((3, 3)))
        y = tuple(u.copy() for u in ref)
        stepper = RK4(f, y)
        for _ in range(3):
            stepper.step(y, 0.1)
            ref = oracle_rk4_step(g, ref, 0.1)
        for got, want in zip(y, ref):
            assert np.all(np.isfinite(got))
            assert np.array_equal(got, want)

    def test_batch_with_a_retiring_row(self):
        p = NetworkParams(N=6, d=2, V=0.9, kappa2=0.2)
        rng = np.random.default_rng(9)
        states = [
            MeanFieldState(0.0, p.limit_cycle_radius * np.exp(1j * rng.uniform(-np.pi, np.pi, p.N)))
            for _ in range(3)
        ]
        # far above the limit cycle, RK4 at this dt overflows at step 3 of 40
        states.insert(2, MeanFieldState(0.0, np.full(p.N, 11.0 * p.limit_cycle_radius, complex)))
        dt, n_steps, every = 0.02, 40, 1
        batch = integrate_many(p, states, n_steps * dt, dt=dt, sample_every=every)
        retired = 0
        for s0, got in zip(states, batch):
            ref, bad_step = oracle_integrate(p, s0.alphas, n_steps, dt, every)
            if bad_step is None:
                assert np.array_equal(got.alphas, ref)
            else:
                retired += 1
                assert 1 < bad_step < n_steps  # mid-run
                assert isinstance(got, DivergenceError)
                assert f"t={bad_step * dt:g}" in str(got)
        assert retired == 1

    @pytest.mark.parametrize("observed", [True, False])
    @pytest.mark.parametrize("start, r0", [("vacuum", None), ("squeezed", None),
                                           ("asymmetric", None), ("above threshold", 3.0)])
    def test_covariance(self, start, r0, observed):
        seg = _segment(r0)
        C0 = _start(start)
        cov0 = CovarianceMatrix(0.0, C0)
        samples = []
        observe = (lambda t, C: samples.append(C.copy())) if observed else None
        ct = propagate_covariance(RING, seg, cov0, dt=1e-3, observe=observe)
        covs, margin_min, certified = oracle_covariance(RING, seg, C0, 1e-3)
        assert np.array_equal(ct.covs, covs[[0, -1]])
        assert np.array_equal(cov0.C, C0)
        assert np.array_equal(C0, C0.T) == (start != "asymmetric")
        if observed:
            assert np.array_equal(samples, covs)
        assert ct.margin_min == margin_min
        assert ct.margin_min == min(oracle_margin(C, RING.hbar) for C in covs)
        assert ct.certified == certified
        if start == "vacuum":  # every later sample is >= (hbar/2) I
            assert certified == len(covs) - 1
        else:
            # a sample below the start's margin, or below the vacuum, takes
            # its exact margin
            assert certified < len(covs) - 1

    def test_moment_oracle(self, monkeypatch):
        seg = _segment(None)
        C0 = CovarianceMatrix(0.0, _start("squeezed"))
        got = moment_oracle(RING, seg, C0, dt=1e-3)
        monkeypatch.setattr(oracles, "RK4", OracleRK4)
        ref = moment_oracle(RING, seg, C0, dt=1e-3)
        assert np.array_equal(got.covs, ref.covs)
        assert got.margin_min == ref.margin_min
        assert got.certified == ref.certified
