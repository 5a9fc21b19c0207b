import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from chimeraq import (
    CovarianceMatrix,
    InitialConditionSpec,
    MeanFieldState,
    NetworkParams,
    PhysicalityError,
    initial_conditions,
    integrate,
    mean_field_rhs,
    mi_scan,
    physicality_margin,
    propagate_covariance,
    squeezing,
    vacuum_covariance,
)
from chimeraq import fluctuations
from chimeraq.analysis import _mutual_information
from chimeraq.core import RK4
from chimeraq.fluctuations import (
    PHYSICALITY_TOL,
    _block_dominant,
    _certified_margin,
    _check_c0,
    _factorizes,
    _site_blocks,
)
from conftest import random_physical_cov
from oracles import (
    covariance_to_moments,
    drift_diffusion,
    moment_oracle,
    moments_to_covariance,
    oracle_margin,
    propagate_frozen,
    ring_mode_covariance,
    shift_covariance,
    symplectic_form,
    twisted_state,
    vacuum_bound_ratio,
)


def lyapunov_closed_form(A: np.ndarray, B: np.ndarray, C0: np.ndarray, t: float, n_nodes: int = 2000) -> np.ndarray:
    """Independent frozen-coefficient oracle:
    C(t) = e^{At} C0 e^{A^T t} + int_0^t e^{As} B e^{A^T s} ds
    with the integral evaluated by Simpson quadrature on a dense grid."""
    if n_nodes % 2 == 1:
        n_nodes += 1
    h = t / n_nodes
    E_h = expm(A * h)
    weights = np.ones(n_nodes + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    acc = np.zeros_like(B)
    E = np.eye(A.shape[0])
    for k in range(n_nodes + 1):
        acc = acc + weights[k] * (E @ B @ E.T)
        if k < n_nodes:
            E = E_h @ E
    integral = acc * h / 3.0
    E_t = expm(A * t)
    return E_t @ C0 @ E_t.T + integral


def quadrature_jacobian(p: NetworkParams, s: MeanFieldState, h: float = 1e-6) -> np.ndarray:
    """Finite-difference Jacobian of the mean-field rhs in (q, p) coordinates."""
    scale = np.sqrt(2.0 * p.hbar)

    def g(R: np.ndarray) -> np.ndarray:
        alphas = (R[0::2] + 1j * R[1::2]) / scale
        f = mean_field_rhs(p, MeanFieldState(s.t, alphas))
        out = np.empty(2 * p.N)
        out[0::2] = scale * f.real
        out[1::2] = scale * f.imag
        return out

    R0 = np.empty(2 * p.N)
    R0[0::2] = scale * s.alphas.real
    R0[1::2] = scale * s.alphas.imag
    J = np.empty((2 * p.N, 2 * p.N))
    for j in range(2 * p.N):
        dR = np.zeros(2 * p.N)
        dR[j] = h
        J[:, j] = (g(R0 + dR) - g(R0 - dR)) / (2.0 * h)
    return J


def random_limit_cycle_state(p: NetworkParams, seed: int) -> MeanFieldState:
    rng = np.random.default_rng(seed)
    r = p.limit_cycle_radius * rng.uniform(0.8, 1.2, p.N)
    return MeanFieldState(0.0, r * np.exp(1j * rng.uniform(-np.pi, np.pi, p.N)))


@st.composite
def ring_params(draw):
    """A valid ring of 3 to 6 sites: 2d <= N - 1, or d = (N + 1) / 2 for odd
    N, with V, kappa2 and hbar over an order of magnitude or more."""
    N = draw(st.integers(3, 6))
    d = draw(st.integers(1, (N + 1) // 2 if N % 2 else (N - 1) // 2))
    return NetworkParams(N=N, d=d, V=draw(st.floats(0.0, 2.0)),
                         kappa2=draw(st.floats(0.05, 1.0)), hbar=draw(st.floats(0.1, 10.0)))


def copying_observer():
    """(observer, samples): the observer appends (t, a copy of C) for every
    sample it is shown."""
    samples = []
    return (lambda t, C: samples.append((t, C.copy()))), samples


class TestSymplecticForm:
    def test_block_structure(self):
        O = symplectic_form(2)
        expected = np.array(
            [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float
        )
        assert np.array_equal(O, expected)

    def test_vacuum_saturates_uncertainty(self):
        p = NetworkParams(N=3, d=1, V=0.5, kappa2=0.2)
        cov = vacuum_covariance(p)
        assert physicality_margin(cov.C, p.hbar) >= -1e-12

    def test_vacuum_diag(self):
        p = NetworkParams(N=3, d=1, V=0.5, kappa2=0.2, hbar=2.0)
        cov = vacuum_covariance(p)
        assert np.array_equal(cov.C, np.eye(6))


class TestDriftDiffusion:
    def test_origin_no_coupling(self):
        # only the gain dissipator survives at alpha = 0, V = 0
        p = NetworkParams(N=3, d=1, V=0.0, kappa2=0.2)
        dd = drift_diffusion(p, MeanFieldState(0.0, np.zeros(3, dtype=complex)))
        assert np.array_equal(dd.A, np.eye(6))
        assert np.array_equal(dd.B, np.eye(6))

    def test_limit_cycle_site_block(self):
        # real alpha at r0: block [[-2 kappa1, 0], [0, 0]], B = 3 hbar kappa1
        p = NetworkParams(N=3, d=1, V=0.0, kappa2=0.2)
        r0 = p.limit_cycle_radius
        dd = drift_diffusion(p, MeanFieldState(0.0, np.full(3, r0, dtype=complex)))
        block = dd.A[:2, :2]
        assert np.allclose(block, np.array([[-2.0, 0.0], [0.0, 0.0]]), atol=1e-14)
        assert np.trace(block) == pytest.approx(-2.0, abs=1e-14)
        assert np.allclose(np.diag(dd.B), 3.0 * p.hbar, atol=1e-14)

    def test_diffusion_diagonal_pairs(self):
        p = NetworkParams(N=5, d=2, V=1.3, kappa2=0.2, hbar=1.7)
        s = random_limit_cycle_state(p, 4)
        dd = drift_diffusion(p, s)
        assert np.array_equal(dd.B, np.diag(np.diag(dd.B)))
        expect = p.hbar * (1.0 + 4.0 * p.kappa2 * np.abs(s.alphas) ** 2)
        assert np.allclose(np.diag(dd.B)[0::2], expect, atol=1e-14)
        assert np.allclose(np.diag(dd.B)[1::2], expect, atol=1e-14)

    def test_coupling_blocks(self):
        p = NetworkParams(N=6, d=1, V=1.2, kappa2=0.2)
        s = random_limit_cycle_state(p, 5)
        dd = drift_diffusion(p, s)
        c = p.V / (2.0 * p.d)
        expected = np.array([[0.0, c], [-c, 0.0]])
        assert np.allclose(dd.A[0:2, 2:4], expected, atol=1e-14)  # neighbors
        assert np.all(dd.A[0:2, 4:6] == 0.0)  # not neighbors

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_drift_is_mean_field_jacobian(self, seed):
        # linearization must match a finite-difference Jacobian of the flow
        p = NetworkParams(N=6, d=2, V=1.1, kappa2=0.2)
        s = random_limit_cycle_state(p, seed)
        dd = drift_diffusion(p, s)
        J = quadrature_jacobian(p, s)
        assert np.abs(dd.A - J).max() < 1e-6

    def test_jacobian_consistency_with_hbar(self):
        p = NetworkParams(N=4, d=1, V=0.9, kappa2=0.3, hbar=3.0)
        s = random_limit_cycle_state(p, 9)
        dd = drift_diffusion(p, s)
        J = quadrature_jacobian(p, s)
        assert np.abs(dd.A - J).max() < 1e-6


class TestFrozenPropagation:
    def test_zero_generator_is_stationary(self):
        C0 = random_physical_cov(2, seed=1)
        Z = np.zeros((4, 4))
        C = propagate_frozen(Z, Z, C0, horizon=0.4, dt=1e-3)
        assert np.array_equal(C, C0)

    def test_pure_diffusion_grows_linearly(self):
        C0 = random_physical_cov(2, seed=2)
        Z = np.zeros((4, 4))
        B = 1.3 * np.eye(4)
        C = propagate_frozen(Z, B, C0, horizon=0.5, dt=1e-3)
        assert np.abs(C - (C0 + 0.5 * B)).max() < 1e-12

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(3)
        A = 0.5 * rng.standard_normal((4, 4))
        M = 0.4 * rng.standard_normal((4, 4))
        B = M @ M.T
        C0 = random_physical_cov(2, seed=4)
        got = propagate_frozen(A, B, C0, horizon=0.3, dt=1e-4)
        want = lyapunov_closed_form(A, B, C0, 0.3)
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-8


class TestPropagateCovariance:
    def test_frozen_coefficients_match_closed_form(self):
        # alpha = 0 is an exact fixed point, so A and B stay constant
        p = NetworkParams(N=3, d=1, V=0.7, kappa2=0.2)
        s0 = MeanFieldState(0.0, np.zeros(3, dtype=complex))
        seg = integrate(p, s0, 0.3, dt=1e-3, sample_every=100)
        ct = propagate_covariance(p, seg, vacuum_covariance(p), dt=1e-3)
        dd = drift_diffusion(p, s0)
        want = lyapunov_closed_form(dd.A, dd.B, 0.5 * np.eye(6), 0.3)
        rel = np.abs(ct.covs[-1] - want).max() / np.abs(want).max()
        assert rel < 1e-8

    def test_agrees_with_moment_oracle(self):
        p = NetworkParams(N=5, d=2, V=1.3, kappa2=0.25)
        seg = integrate(p, random_limit_cycle_state(p, 6), 0.5, dt=1e-3, sample_every=100)
        c1 = propagate_covariance(p, seg, vacuum_covariance(p), dt=1e-3)
        c2 = moment_oracle(p, seg, vacuum_covariance(p), dt=1e-3)
        num = np.linalg.norm(c1.covs[-1] - c2.covs[-1])
        den = np.linalg.norm(c1.covs[-1])
        assert num / den < 1e-8

    @settings(max_examples=40, deadline=None)
    @given(ring_params(), st.integers(0, 2**32 - 1))
    def test_agrees_with_moment_oracle_across_parameters(self, p, seed):
        s0 = initial_conditions(p, InitialConditionSpec(seed=seed))
        seg = integrate(p, s0, 0.1, dt=1e-3, sample_every=20)
        c1 = propagate_covariance(p, seg, vacuum_covariance(p), dt=1e-3)
        c2 = moment_oracle(p, seg, vacuum_covariance(p), dt=1e-3)
        assert np.linalg.norm(c1.covs[-1] - c2.covs[-1]) / np.linalg.norm(c1.covs[-1]) < 1e-8

    def test_oracle_from_nonvacuum_start(self):
        p = NetworkParams(N=4, d=1, V=0.8, kappa2=0.2)
        seg = integrate(p, random_limit_cycle_state(p, 7), 0.2, dt=1e-3, sample_every=50)
        C0 = CovarianceMatrix(0.0, random_physical_cov(4, seed=8, scale=0.2))
        c1 = propagate_covariance(p, seg, C0, dt=1e-3)
        c2 = moment_oracle(p, seg, C0, dt=1e-3)
        assert np.linalg.norm(c1.covs[-1] - c2.covs[-1]) / np.linalg.norm(c1.covs[-1]) < 1e-8

    def test_decoupled_sites_stay_block_diagonal(self):
        p = NetworkParams(N=4, d=1, V=0.0, kappa2=0.2)
        seg = integrate(p, random_limit_cycle_state(p, 10), 0.4, dt=1e-3, sample_every=100)
        ct = propagate_covariance(p, seg, vacuum_covariance(p), dt=1e-3)
        C = ct.covs[-1]
        off = C.copy()
        for l in range(4):
            off[2 * l : 2 * l + 2, 2 * l : 2 * l + 2] = 0.0
        assert np.abs(off).max() < 1e-14

    def test_symmetry_and_physicality(self):
        p = NetworkParams(N=5, d=2, V=1.2, kappa2=0.2)
        seg = integrate(p, random_limit_cycle_state(p, 11), 0.5, dt=1e-3, sample_every=100)
        observe, samples = copying_observer()
        ct = propagate_covariance(p, seg, vacuum_covariance(p), dt=1e-3, observe=observe)
        assert len(samples) == len(seg.times)
        for _, C in samples:
            assert np.array_equal(C, C.T)
        assert ct.margin_min >= -1e-9

    def test_cyclic_shift_conjugates_covariance(self):
        p = NetworkParams(N=6, d=2, V=1.1, kappa2=0.2)
        s0 = random_limit_cycle_state(p, 12)
        seg = integrate(p, s0, 0.3, dt=1e-3, sample_every=100)
        ct = propagate_covariance(p, seg, vacuum_covariance(p), dt=1e-3)
        s0_shift = MeanFieldState(0.0, np.roll(s0.alphas, 2))
        seg_s = integrate(p, s0_shift, 0.3, dt=1e-3, sample_every=100)
        ct_s = propagate_covariance(p, seg_s, vacuum_covariance(p), dt=1e-3)
        want = shift_covariance(ct.final_cov, 2).C
        assert np.abs(ct_s.covs[-1] - want).max() < 1e-9

    def test_rejects_unphysical_start(self):
        p = NetworkParams(N=3, d=1, V=0.5, kappa2=0.2)
        seg = integrate(p, random_limit_cycle_state(p, 13), 0.1, dt=1e-3, sample_every=10)
        bad = CovarianceMatrix(0.0, 0.1 * np.eye(6))
        with pytest.raises(PhysicalityError):
            propagate_covariance(p, seg, bad, dt=1e-3)

    def test_dt_must_divide_segment_spacing(self):
        p = NetworkParams(N=3, d=1, V=0.5, kappa2=0.2)
        seg = integrate(p, random_limit_cycle_state(p, 14), 0.1, dt=1e-3, sample_every=10)
        with pytest.raises(ValueError):
            propagate_covariance(p, seg, vacuum_covariance(p), dt=3e-3)

    @pytest.mark.parametrize("t", [0.0, 2.0 - 1e-9, 2.1])
    def test_start_must_be_at_the_segment_start(self, t):
        # C0.t was ignored: a vacuum at t = 0 started a segment at t = 2
        p = NetworkParams(N=3, d=1, V=0.5, kappa2=0.2)
        s0 = MeanFieldState(2.0, random_limit_cycle_state(p, 14).alphas)
        seg = integrate(p, s0, 2.1, dt=1e-3, sample_every=10)
        with pytest.raises(ValueError, match=rf"C0 is at t={t}, the segment starts at t=2\.0"):
            propagate_covariance(p, seg, vacuum_covariance(p, t=t), dt=1e-3)
        # within 1e-12 of the first time, as integrate_many's start times
        propagate_covariance(p, seg, vacuum_covariance(p, t=2.0 + 1e-13), dt=1e-3)


class TestMomentConversion:
    def test_roundtrip(self):
        C = random_physical_cov(4, seed=15, scale=0.4)
        s, n = covariance_to_moments(C, hbar=1.3)
        back = moments_to_covariance(s, n, hbar=1.3)
        assert np.abs(back - C).max() < 1e-13

    def test_vacuum_maps_to_zero_moments(self):
        C = 0.5 * 2.2 * np.eye(8)
        s, n = covariance_to_moments(C, hbar=2.2)
        assert np.abs(s).max() == 0.0
        assert np.abs(n).max() == 0.0

    def test_v0_cross_moments_stay_zero(self):
        p = NetworkParams(N=4, d=1, V=0.0, kappa2=0.2)
        seg = integrate(p, random_limit_cycle_state(p, 16), 0.3, dt=1e-3, sample_every=100)
        ct = moment_oracle(p, seg, vacuum_covariance(p), dt=1e-3)
        s, n = covariance_to_moments(ct.covs[-1], p.hbar)
        assert np.abs(s - np.diag(np.diag(s))).max() < 1e-14
        assert np.abs(n - np.diag(np.diag(n))).max() < 1e-14

    def test_all_to_all_smallest_network(self):
        p = NetworkParams(N=3, d=2, V=0.9, kappa2=0.2)
        seg = integrate(p, random_limit_cycle_state(p, 17), 0.1, dt=1e-3, sample_every=10)
        c1 = propagate_covariance(p, seg, vacuum_covariance(p), dt=1e-3)
        c2 = moment_oracle(p, seg, vacuum_covariance(p), dt=1e-3)
        assert np.linalg.norm(c1.covs[-1] - c2.covs[-1]) / np.linalg.norm(c1.covs[-1]) < 1e-8


class TestVacuumBound:
    """With D = C - (hbar/2) I, dD/dt = A D + D A^T + Q where
    Q = B + (hbar/2)(A + A^T) has per-site eigenvalues
    hbar (2 kappa1 +- 2 kappa2 |alpha_l|^2).  From the vacuum, no quadrature
    can fall below hbar/2 unless kappa2 |alpha|^2 > kappa1 somewhere."""

    @pytest.mark.parametrize("hbar", [1.0, 1.7])
    def test_limit_cycle_site_closed_form(self, hbar):
        # uncoupled sites at r0: C_qq = hbar (3/4 - exp(-4 kappa1 t)/4) along
        # the radius, C_pp = hbar (1/2 + 3 kappa1 t) along the phase
        p = NetworkParams(N=3, d=1, V=0.0, kappa2=0.2, hbar=hbar)
        phases = np.array([0.0, 0.9, -2.1])
        s0 = MeanFieldState(0.0, p.limit_cycle_radius * np.exp(1j * phases))
        seg = integrate(p, s0, 0.5, dt=1e-3, sample_every=50)
        observe, samples = copying_observer()
        propagate_covariance(p, seg, vacuum_covariance(p), dt=1e-3, observe=observe)
        assert [t for t, _ in samples] == seg.times.tolist()
        for t, C in samples:
            want_min = hbar * (0.75 - 0.25 * np.exp(-4.0 * t))
            want_max = hbar * (0.5 + 3.0 * t)
            for e in squeezing(p, CovarianceMatrix(t, C)):
                assert abs(e.lambda_min - want_min) < 1e-10
                assert abs(e.lambda_max - want_max) < 1e-10

    @pytest.mark.parametrize(
        "N, d, V, kappa2, seed",
        [(5, 2, 1.3, 0.25, 20), (6, 1, 0.8, 0.2, 21), (8, 3, 1.2, 0.3, 22), (3, 1, 1.6, 0.2, 23)],
    )
    def test_no_sub_vacuum_variance_below_threshold(self, N, d, V, kappa2, seed):
        p = NetworkParams(N=N, d=d, V=V, kappa2=kappa2)
        seg = integrate(p, random_limit_cycle_state(p, seed), 0.5, dt=1e-3, sample_every=20)
        load = p.kappa2 * np.abs(seg.alphas) ** 2
        assert load.max() <= 1.0  # precondition of the bound
        observe, samples = copying_observer()
        propagate_covariance(p, seg, vacuum_covariance(p), dt=1e-3, observe=observe)
        assert len(samples) == len(seg.times)
        eye = np.eye(2 * p.N)
        for _, C in samples:
            assert np.linalg.eigvalsh(C - 0.5 * p.hbar * eye).min() >= -1e-12 * p.hbar

    @pytest.mark.parametrize("load, sub_vacuum", [(0.98, False), (1.6, True)])
    def test_bound_is_sharp_with_frozen_coefficients(self, load, sub_vacuum):
        p = NetworkParams(N=3, d=1, V=1.2, kappa2=0.2)
        r = np.sqrt(load / p.kappa2)
        s = MeanFieldState(0.0, r * np.exp(1j * np.array([0.3, -1.1, 2.4])))
        dd = drift_diffusion(p, s)
        C = propagate_frozen(dd.A, dd.B, vacuum_covariance(p).C, horizon=0.5, dt=1e-3)
        lam_min = min(e.lambda_min for e in squeezing(p, CovarianceMatrix(0.0, C)))
        assert (lam_min < 0.5 * p.hbar) == sub_vacuum

    @pytest.mark.parametrize(
        "N, d, seed, t0, delta_t",
        [(50, 10, 0, 10.5, 0.5), (50, 10, 3, 10.5, 0.5), (200, 40, 3, 10.5, 0.05),
         (20, 4, 1, 30.5, 0.2)],
    )
    def test_ratio_has_the_bits_of_the_segment(self, N, d, seed, t0, delta_t):
        # the ratio is read off the mean field of the joint RK4 state at each
        # checked sample; those amplitudes are the integrate segment's, bit
        # for bit, on the grid the analyze pipeline checks (delta_t / 50)
        p = NetworkParams(N=N, d=d, V=1.2, kappa2=0.2)
        s0 = initial_conditions(p, InitialConditionSpec(seed=seed))
        snap = integrate(p, s0, t0, dt=1e-2, sample_every=100).final_state
        seg = integrate(p, snap, t0 + delta_t, dt=1e-3,
                        sample_every=max(1, round(delta_t / 50 / 1e-3)))
        ct = propagate_covariance(p, seg, vacuum_covariance(p, t=t0), dt=1e-3)
        assert ct.vacuum_bound_ratio_max == vacuum_bound_ratio(p, seg)
        assert 0.0 < ct.vacuum_bound_ratio_max <= 1.0


def exact_ring_gap(p: NetworkParams, q: int, t: float = 0.5, sample_every: int = 10):
    """(program's covariance, exact one, relative Frobenius gap) at ``t``
    from the vacuum about the q-twisted state, dt_cov 1e-3."""
    seg = integrate(p, twisted_state(p, q), t, dt=1e-3, sample_every=sample_every)
    C = propagate_covariance(p, seg, vacuum_covariance(p), dt=1e-3).final_cov.C
    exact = ring_mode_covariance(p, t, q)
    return C, exact, float(np.linalg.norm(C - exact) / np.linalg.norm(exact))


class TestExactRing:
    """The coupled ring about its uniform (q = 0) and twisted states, where
    the drift is constant in the frame turning with each site's phase, so
    the covariance has a closed form (``oracles.ring_mode_covariance``).
    Gaps measured at delta_t 0.5: 2e-13 to 6.3e-13 for q = 0, 7e-14 to
    2e-13 for q = 1 and 3."""

    @pytest.mark.parametrize("N, d, V, kappa2, hbar", [
        (7, 1, 1.3, 0.25, 2.0), (7, 3, 1.3, 0.25, 2.0),
        (7, 4, 1.3, 0.25, 2.0),  # the all-to-all window: six offsets, 2d = 8
        (20, 4, 0.8, 0.3, 1.0), (20, 9, 1.6, 0.2, 1.0),
        (50, 10, 1.6, 0.2, 1.0), (50, 10, 1.2, 0.2, 1.7), (50, 24, 1.2, 0.2, 1.0),
        pytest.param(200, 40, 1.6, 0.2, 1.0, marks=pytest.mark.slow),
    ])
    def test_uniform_state_matches_the_bloch_modes(self, N, d, V, kappa2, hbar):
        p = NetworkParams(N=N, d=d, V=V, kappa2=kappa2, hbar=hbar)
        assert exact_ring_gap(p, 0)[2] < 1e-11

    @settings(max_examples=40, deadline=None)
    @given(ring=st.integers(3, 20).flatmap(lambda N: st.tuples(
               st.just(N), st.integers(1, (N + 1) // 2 if N % 2 else (N - 1) // 2))),
           V=st.floats(0.0, 2.0), kappa2=st.floats(0.05, 1.0), hbar=st.floats(0.1, 10.0),
           q=st.sampled_from([0, 1]))
    def test_property_over_rings(self, ring, V, kappa2, hbar, q):
        (N, d) = ring
        p = NetworkParams(N=N, d=d, V=V, kappa2=kappa2, hbar=hbar)
        # q = 1 takes the whole 2N x 2N exponential, q = 0 one per mode
        assert exact_ring_gap(p, q, sample_every=50)[2] < 1e-11

    @pytest.mark.parametrize("N, d, V, kappa2, hbar", [
        (7, 3, 1.3, 0.25, 2.0), (20, 4, 0.8, 0.3, 1.0), (50, 10, 1.6, 0.2, 1.0),
    ])
    def test_site_ellipses_match_the_exact_state(self, N, d, V, kappa2, hbar):
        # squeezing of the program's covariance and of the exact one, site
        # by site (gaps measured: 1.3e-12 on lambda, 3.1e-13 rad); the
        # exact state's ellipse is site 1's at every site, to 1e-15
        p = NetworkParams(N=N, d=d, V=V, kappa2=kappa2, hbar=hbar)
        got, want = (squeezing(p, CovarianceMatrix(0.5, C)) for C in exact_ring_gap(p, 0)[:2])

        def close(e, w, rel: float, rad: float) -> bool:
            axial_gap = abs((e.theta - w.theta + np.pi / 2) % np.pi - np.pi / 2)
            return axial_gap < rad and (e.lambda_min, e.lambda_max) == pytest.approx(
                (w.lambda_min, w.lambda_max), rel=rel, abs=0)

        assert all(close(e, w, 1e-11, 1e-9) for e, w in zip(got, want, strict=True))
        assert all(close(w, want[0], 1e-13, 1e-13) for w in want)

    @pytest.mark.parametrize("N, d", [(7, 3), (20, 4)])
    def test_uniform_mode_is_the_uncoupled_closed_form(self, N, d):
        # the k = 0 mode, (1/sqrt N) sum_l (q_l, p_l), feels no coupling:
        # its ellipse is TestVacuumBound's hbar (3/4 - exp(-4t)/4) by
        # hbar (1/2 + 3t), in the program's covariance as in the exact one
        p = NetworkParams(N=N, d=d, V=1.2, kappa2=0.2, hbar=1.3)
        u = np.kron(np.ones((N, 1)) / np.sqrt(N), np.eye(2))
        want = p.hbar * np.array([0.75 - 0.25 * np.exp(-4.0 * 0.5), 0.5 + 3.0 * 0.5])
        for C in exact_ring_gap(p, 0)[:2]:
            assert np.allclose(np.linalg.eigvalsh(u.T @ C @ u), want, rtol=1e-11, atol=0)

    @pytest.mark.parametrize("q", [0, 1])
    def test_mutual_information_is_mirror_symmetric(self, q):
        # every block of L contiguous sites is the same up to local
        # rotations, so I2(L) = S(L) + S(N - L) - S(N) = I2(N - L)
        p = NetworkParams(N=20, d=4, V=1.6, kappa2=0.2)
        scan = mi_scan(p, CovarianceMatrix(0.5, ring_mode_covariance(p, 0.5, q)))
        assert min(scan.values()) > 1e-3
        for L in range(1, p.N):
            assert scan[L] == pytest.approx(scan[p.N - L], rel=1e-12, abs=0)


def _ring_segment(p: NetworkParams, ic_seed: int, t_end: float, dt: float, sample_every: int):
    s0 = initial_conditions(p, InitialConditionSpec(seed=ic_seed))
    return integrate(p, s0, t_end, dt=dt, sample_every=sample_every)


#: N=3 ring whose covariance RK4 is unstable at dt = 1.0
UNSTABLE = NetworkParams(N=3, d=1, V=0.5, kappa2=0.2)


class TestSampleChecks:
    """Every sample after the start, the last included, passes on a
    certificate (block diagonal dominance, else Cholesky); the start, and
    any sample neither certificate covers, get exact margins."""

    @pytest.mark.parametrize("observed", [True, False])
    def test_unstable_dt_fails_inside_the_segment(self, observed):
        # a sample that is not kept is still checked
        seg = _ring_segment(UNSTABLE, 1, 100.0, dt=1.0, sample_every=10)
        observe = copying_observer()[0] if observed else None
        with pytest.raises(PhysicalityError, match=r"covariance unphysical at t=10,"):
            propagate_covariance(UNSTABLE, seg, vacuum_covariance(UNSTABLE), dt=1.0,
                                 observe=observe)

    def test_observer_never_sees_a_failing_sample(self):
        # the sample at t=10 fails its check: only the start is shown
        seg = _ring_segment(UNSTABLE, 1, 100.0, dt=1.0, sample_every=10)
        observe, samples = copying_observer()
        with pytest.raises(PhysicalityError, match=r"covariance unphysical at t=10,"):
            propagate_covariance(UNSTABLE, seg, vacuum_covariance(UNSTABLE), dt=1.0,
                                 observe=observe)
        assert [t for t, _ in samples] == [0.0]
        assert np.array_equal(samples[0][1], vacuum_covariance(UNSTABLE).C)

    def test_observer_gets_a_read_only_view(self):
        seg = _ring_segment(UNSTABLE, 1, 0.1, dt=1e-3, sample_every=10)
        flags = []
        propagate_covariance(UNSTABLE, seg, vacuum_covariance(UNSTABLE), dt=1e-3,
                             observe=lambda t, C: flags.append(C.flags.writeable))
        assert flags == [False] * len(seg.times)

    def test_overflowing_segment_is_unphysical(self):
        # 500 unstable steps between two samples overflow C to inf and NaN
        seg = _ring_segment(UNSTABLE, 1, 500.0, dt=1.0, sample_every=500)
        with pytest.raises(PhysicalityError, match="non-finite"):
            propagate_covariance(UNSTABLE, seg, vacuum_covariance(UNSTABLE), dt=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_start_is_unphysical(self, bad):
        seg = _ring_segment(UNSTABLE, 1, 0.1, dt=1e-3, sample_every=10)
        C = 0.5 * np.eye(6)
        C[2, 3] = C[3, 2] = bad
        C0 = CovarianceMatrix(0.0, C)
        for route in (propagate_covariance, moment_oracle):
            with pytest.raises(PhysicalityError, match="non-finite"):
                route(UNSTABLE, seg, C0, dt=1e-3)
        with pytest.raises(PhysicalityError, match="non-finite"):
            physicality_margin(C)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_is_never_certified(self, bad):
        C = 0.5 * np.eye(6)
        C[4, 4] = bad
        assert not _block_dominant(C, 0.4, np.empty_like(C))
        assert not _factorizes(C)
        with pytest.raises(PhysicalityError, match="non-finite"):
            _certified_margin(C, 1.0, 0.0, "covariance unphysical at t=1", np.empty_like(C))

    @staticmethod
    def _exact_calls(monkeypatch) -> list:
        exact = []

        def counted(C, hbar=1.0):
            exact.append(C.copy())
            return physicality_margin(C, hbar)

        monkeypatch.setattr(fluctuations, "physicality_margin", counted)
        return exact

    @pytest.mark.parametrize("observed", [True, False])
    def test_vacuum_start_certifies_intermediate_samples(self, monkeypatch, observed):
        p = NetworkParams(N=4, d=1, V=1.2, kappa2=0.2)
        seg = _ring_segment(p, 2, 0.5, dt=1e-3, sample_every=10)
        exact = self._exact_calls(monkeypatch)
        observe, samples = copying_observer()
        ct = propagate_covariance(p, seg, vacuum_covariance(p), dt=1e-3,
                                  observe=observe if observed else None)
        assert ct.vacuum_bound_ratio_max <= 1.0
        assert ct.certified == len(seg.times) - 1 == 50
        assert len(ct.covs) == 2
        assert len(samples) == (51 if observed else 0)
        # the vacuum start's margin is 0.0 without an eigensolver, and every
        # later sample, the last included, is certified above it
        assert not exact
        assert ct.margin_min == 0.0

    def test_squeezed_start_falls_back_to_exact_margins(self, monkeypatch):
        # a pure squeezed start has C < (hbar/2) I along q, so the certificate
        # fails on early samples and their exact margins are computed
        p = NetworkParams(N=4, d=1, V=1.2, kappa2=0.2)
        seg = _ring_segment(p, 2, 0.5, dt=1e-3, sample_every=10)
        r = 0.5
        C0 = 0.5 * p.hbar * np.diag(np.tile([np.exp(-2 * r), np.exp(2 * r)], p.N))
        exact = self._exact_calls(monkeypatch)
        observe, samples = copying_observer()
        ct = propagate_covariance(p, seg, CovarianceMatrix(0.0, C0), dt=1e-3, observe=observe)
        eye = np.eye(2 * p.N)
        below = [np.linalg.eigvalsh(C - 0.5 * p.hbar * eye).min() < 0 for _, C in samples[1:-1]]
        assert sum(below) == 18
        # the start and the samples below the vacuum are evaluated exactly
        assert ct.certified == len(samples) - 1 - 18
        assert len(exact) == 1 + 18
        assert ct.margin_min == 0.0

    def test_segment_above_threshold_falls_back_to_exact_margins(self, monkeypatch):
        # amplitudes above the limit cycle decay through kappa2 |alpha|^2 > kappa1,
        # where C >= (hbar/2) I is not guaranteed and most samples need exact margins
        p = NetworkParams(N=4, d=1, V=1.2, kappa2=0.2)
        s0 = initial_conditions(p, InitialConditionSpec(seed=2, r0=3.0))
        seg = integrate(p, s0, 0.5, dt=1e-3, sample_every=10)
        exact = self._exact_calls(monkeypatch)
        ct = propagate_covariance(p, seg, vacuum_covariance(p), dt=1e-3)
        assert ct.vacuum_bound_ratio_max > 1.0
        # the amplitudes decay toward the limit cycle: the start holds the peak
        start = p.kappa2 * np.max(np.abs(seg.alphas[0]) ** 2)
        assert ct.vacuum_bound_ratio_max == vacuum_bound_ratio(p, seg) == pytest.approx(start)
        assert ct.certified < len(seg.times) - 2
        # every sample but the certified ones and the vacuum start
        assert len(exact) == len(seg.times) - ct.certified - 1
        assert ct.margin_min >= -PHYSICALITY_TOL * p.hbar

    @settings(max_examples=40, deadline=None)
    @given(ring_params(), st.integers(0, 2**32 - 1),
           st.sampled_from(["vacuum", "squeezed", "thermal"]), st.floats(0.05, 1.0))
    def test_margin_min_is_over_every_sample(self, p, seed, start, strength):
        # a certificate proves a sample's margin above the smallest one
        # before it, so skipping the eigensolver there leaves the minimum
        # over every sample on the grid, the last included
        seg = _ring_segment(p, seed, 0.1, dt=1e-3, sample_every=10)
        C0 = vacuum_covariance(p).C
        if start == "squeezed":  # a pure state, at the bound
            C0 = C0 * np.tile([np.exp(-2 * strength), np.exp(2 * strength)], p.N)
        elif start == "thermal":  # margin strength hbar
            C0 = C0 + strength * p.hbar * np.eye(2 * p.N)
        observe, samples = copying_observer()
        ct = propagate_covariance(p, seg, CovarianceMatrix(0.0, C0), dt=1e-3, observe=observe)
        assert len(samples) == len(seg.times) == 11
        assert ct.margin_min == min(oracle_margin(C, p.hbar) for _, C in samples)
        assert ct.margin_min >= -PHYSICALITY_TOL * p.hbar
        if start == "vacuum":
            assert ct.margin_min == 0.0

    @pytest.mark.parametrize("start, calls", [("vacuum", 0), ("squeezed", 19)])
    def test_exact_margins_of_propagation_and_oracle(self, monkeypatch, start, calls):
        # both routes check their start once, and neither the vacuum's; the
        # moment oracle then checks every later sample by its exact margin,
        # propagation only those below the vacuum
        p = NetworkParams(N=4, d=1, V=1.2, kappa2=0.2)
        seg = _ring_segment(p, 2, 0.5, dt=1e-3, sample_every=10)
        C0 = vacuum_covariance(p)
        if start == "squeezed":
            r = 0.5
            C0 = CovarianceMatrix(
                0.0, 0.5 * p.hbar * np.diag(np.tile([np.exp(-2 * r), np.exp(2 * r)], p.N))
            )
        exact = self._exact_calls(monkeypatch)
        propagate_covariance(p, seg, C0, dt=1e-3)
        assert len(exact) == calls
        exact.clear()
        moment_oracle(p, seg, C0, dt=1e-3)
        assert len(exact) == len(seg.times) - (start == "vacuum")


class TestExactSymmetry:
    """Each covariance step keeps an exactly symmetric C exactly symmetric,
    so symmetrizing the start once gives the bits of symmetrizing every
    step."""

    @pytest.mark.parametrize("start", ["vacuum", "squeezed", "above threshold"])
    def test_samples_match_symmetrizing_every_step(self, monkeypatch, start):
        p = NetworkParams(N=4, d=1, V=1.2, kappa2=0.2)
        s0 = initial_conditions(
            p, InitialConditionSpec(seed=2, r0=3.0 if start == "above threshold" else None)
        )
        seg = integrate(p, s0, 0.5, dt=1e-3, sample_every=10)
        C0 = vacuum_covariance(p)
        if start == "squeezed":
            r = 0.5
            C0 = CovarianceMatrix(
                0.0, 0.5 * p.hbar * np.diag(np.tile([np.exp(-2 * r), np.exp(2 * r)], p.N))
            )
        observe, samples = copying_observer()
        ct = propagate_covariance(p, seg, C0, dt=1e-3, observe=observe)
        assert len(samples) == 51
        for _, C in samples:
            assert np.array_equal(C, C.T)

        class SymmetrizingRK4(RK4):
            def step(self, y, dt):
                super().step(y, dt)
                C = y[1]
                C[...] = 0.5 * (C + C.T)

        monkeypatch.setattr(fluctuations, "RK4", SymmetrizingRK4)
        observe, ref_samples = copying_observer()
        ref = propagate_covariance(p, seg, C0, dt=1e-3, observe=observe)
        assert np.array_equal(ct.final_cov.C, ref.final_cov.C)
        assert np.array_equal(ct.covs, ref.covs)
        assert np.array_equal([C for _, C in samples], [C for _, C in ref_samples])


class TestSampleStack:
    @pytest.mark.parametrize("r0", [None, 3.0])
    def test_endpoints_match_the_observed_samples(self, r0):
        # r0 = 3.0 starts above the limit cycle, where intermediate samples
        # are evaluated exactly and enter margin_min
        p = NetworkParams(N=4, d=1, V=1.2, kappa2=0.2)
        s0 = initial_conditions(p, InitialConditionSpec(seed=2, r0=r0))
        seg = integrate(p, s0, 0.5, dt=1e-3, sample_every=10)
        observe, samples = copying_observer()
        seen = propagate_covariance(p, seg, vacuum_covariance(p), dt=1e-3, observe=observe)
        ends = propagate_covariance(p, seg, vacuum_covariance(p), dt=1e-3)
        assert [t for t, _ in samples] == seg.times.tolist()
        assert np.array_equal(ends.times, seg.times[[0, -1]])
        assert np.array_equal(ends.covs, [samples[0][1], samples[-1][1]])
        assert np.array_equal(ends.covs, seen.covs)
        assert np.array_equal(ends.final_cov.C, samples[-1][1])
        assert ends.final_cov.t == samples[-1][0]
        assert ends.margin_min == seen.margin_min
        assert ends.certified == seen.certified
        assert ends.vacuum_bound_ratio_max == seen.vacuum_bound_ratio_max

    def test_endpoints_only_memory_does_not_grow_with_the_grid(self):
        # every sample at 201 samples would hold 10.3 MB against 2.6 MB at 51
        p = NetworkParams(N=40, d=8, V=1.2, kappa2=0.2)
        peaks = []
        for sample_every in (4, 1):
            seg = _ring_segment(p, 1, 0.2, dt=1e-3, sample_every=sample_every)
            C0 = vacuum_covariance(p)
            tracemalloc.start()
            try:
                ct = propagate_covariance(p, seg, C0, dt=1e-3)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(seg.times) == 200 // sample_every + 1
            assert ct.covs.shape == (2, 2 * p.N, 2 * p.N)
            peaks.append(peak)
        assert peaks[1] <= 1.1 * peaks[0]

    @pytest.mark.parametrize("observed", [False, True])
    @pytest.mark.parametrize("t_end, sample_every, start, live, cholesky, exact", [
        (0.05, 50, "vacuum", 6, 0, 0), (0.05, 10, "vacuum", 6, 0, 0),
        (0.5, 100, "vacuum", 7, 2, 0), (0.05, 50, "squeezed", 6, 1, 2),
    ])
    def test_peak_counts_the_live_buffers(self, monkeypatch, t_end, sample_every, start, live,
                                          cholesky, exact, observed):
        # 6 float 2N x 2N buffers are live while stepping: C, A, and the
        # stepper's stage input and three slopes of C.  The product A C
        # lands in the slope buffer and its transpose in the stage input,
        # which the product has read; the two-sample result is allocated
        # only after the last check.  A sample before the last is checked
        # in the stepper's free stage input: the block dominance test
        # squares C there, and allocates only N-vectors, so segments whose
        # samples all pass it peak near 6.8.  A sample that falls through to
        # the Cholesky tier (its copy in the same buffer) adds the factor
        # numpy returns: 7.7 on the longer segment, where two do.  The last
        # sample is checked in a fresh buffer once A and the stepper's are
        # freed, so one that reaches the eigensolver (from a squeezed start,
        # whose q variance is still below the vacuum at t = 0.05) peaks no
        # higher than the stepping: 6.7.  Besides these, the complex
        # K^T is half a buffer and the rest is N-vectors.  One more 2N x 2N
        # temporary per stage, or per check, breaks the bound; so does a
        # sample held for an observer that reads one scalar of it.
        p = NetworkParams(N=40, d=8, V=1.2, kappa2=0.2)
        seg = _ring_segment(p, 1, t_end, dt=1e-3, sample_every=sample_every)
        C0 = vacuum_covariance(p)
        if start == "squeezed":
            C0 = CovarianceMatrix(0.0, C0.C * np.tile([np.exp(-1.0), np.exp(1.0)], p.N))
        traces = []
        observe = (lambda t, C: traces.append(C.trace())) if observed else None
        propagate_covariance(p, seg, C0, dt=1e-3, observe=observe)  # lazy imports
        traces.clear()
        factored, evaluated = [], []

        def counted(M):
            factored.append(None)
            return _factorizes(M)

        def counted_exact(C, hbar=1.0):
            evaluated.append(None)
            return physicality_margin(C, hbar)

        monkeypatch.setattr(fluctuations, "_factorizes", counted)
        monkeypatch.setattr(fluctuations, "physicality_margin", counted_exact)
        tracemalloc.start()
        try:
            ct = propagate_covariance(p, seg, C0, dt=1e-3, observe=observe)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(factored) == cholesky
        assert len(evaluated) == exact  # a squeezed start's and its last sample's
        assert ct.certified == len(seg.times) - 1 - (start == "squeezed")
        assert len(traces) == (len(seg.times) if observed else 0)
        assert ct.covs.dtype == np.float64
        assert peak < (live + 0.9) * ct.covs[0].nbytes

    def test_mutual_information_observer_copies_no_sample(self):
        # I2 needs log det C, so an I2 observer holds one Cholesky factor of
        # the sample: it peaks with an observer that factors the sample and
        # reads one scalar, a buffer above one that only reads one scalar.
        # Wrapping the view in a CovarianceMatrix, whose constructor copies
        # it, adds one more: 8.7 against 7.7 buffers.
        p = NetworkParams(N=40, d=8, V=1.2, kappa2=0.2)
        seg = _ring_segment(p, 1, 0.05, dt=1e-3, sample_every=10)
        C0 = vacuum_covariance(p)
        observers = {
            "scalar": lambda t, C: C.trace(),
            "factor": lambda t, C: np.linalg.cholesky(C)[-1, -1],
            "I2": lambda t, C: _mutual_information(C, 16),
        }
        peaks = {}
        for name, observe in observers.items():
            propagate_covariance(p, seg, C0, dt=1e-3, observe=observe)  # lazy imports
            tracemalloc.start()
            try:
                ct = propagate_covariance(p, seg, C0, dt=1e-3, observe=observe)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks[name] = peak / ct.covs[0].nbytes
        assert abs(peaks["I2"] - peaks["factor"]) < 0.2
        assert peaks["I2"] < peaks["scalar"] + 1.2


def symplectic_margin(C: np.ndarray, hbar: float) -> float:
    """nu_min - hbar/2, from the symplectic eigenvalues nu of C: the
    eigenvalues of i Omega C are +-nu (Williamson; Simon, Mukunda and Dutta,
    PRA 49, 1567 (1994)).  Nonnegative exactly for physical C > 0."""
    ev = np.linalg.eigvals(1j * symplectic_form(C.shape[0] // 2) @ C)
    return float(np.abs(ev).min() - 0.5 * hbar)


@st.composite
def gaussian_covariances(draw):
    """(C, hbar, physical): S (hbar/2) S^T plus PSD noise, or a pure state
    scaled by 1 - eps; S = expm(Omega H) is symplectic for symmetric H."""
    n = draw(st.integers(1, 8))
    hbar = draw(st.floats(0.1, 10.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = draw(st.floats(0.0, 0.6)) * rng.standard_normal((2 * n, 2 * n))
    S = expm(symplectic_form(n) @ (G + G.T))
    pure = 0.5 * hbar * (S @ S.T)
    physical = draw(st.booleans())
    if physical:
        W = draw(st.floats(1e-3, 0.5)) * rng.standard_normal((2 * n, 2 * n))
        C = pure + hbar * (W @ W.T)
    else:
        C = (1.0 - draw(st.floats(1e-3, 0.3))) * pure
    return 0.5 * (C + C.T), hbar, physical


class TestPhysicalityRoutes:
    """The eigenvalue margin and the symplectic-eigenvalue route agree on
    random covariances away from the boundary, and both certificates pass
    only physical ones."""

    @settings(max_examples=200, deadline=None)
    @given(gaussian_covariances(), st.floats(-PHYSICALITY_TOL, 0.5))
    def test_routes_agree(self, case, floor):
        C, hbar, physical = case
        floor *= hbar
        margin = physicality_margin(C, hbar)
        nu = symplectic_margin(C, hbar)
        assume(min(abs(margin), abs(nu)) > 1e-6 * hbar)
        assert (margin > 0) == physical
        assert (nu > 0) == physical
        n = C.shape[0]
        if _factorizes(C - (0.5 - PHYSICALITY_TOL) * hbar * np.eye(n)):
            assert physical
        if _block_dominant(C, (0.5 - PHYSICALITY_TOL) * hbar, np.empty_like(C)):
            assert physical
        # a certificate proves the margin above the floor; the exact tier
        # returns the eigensolver's margin
        if physical:
            certified = _certified_margin(C, hbar, floor, "sample", np.empty_like(C))
            assert margin > floor if certified is None else certified == margin
        else:
            with pytest.raises(PhysicalityError, match="sample, margin"):
                _certified_margin(C, hbar, floor, "sample", np.empty_like(C))


def shifted(C: np.ndarray, shift: float) -> np.ndarray:
    """C - shift I, its diagonal rounded as the block test rounds it."""
    D = C.copy()
    D.reshape(-1)[:: C.shape[0] + 1] -= shift
    return D


def boundary_case(n: int, hbar: float, seed: int, scale: float, delta: float):
    """(C, shift): C = D + shift I, with shift = (hbar/2 - tol hbar), for a
    symmetric 2n x 2n D on which both the block test and D's smallest
    eigenvalue read ``delta`` (in units of ``scale hbar``), up to rounding.

    D has off-diagonal blocks -w_ij e e^T (W >= 0 symmetric, zero diagonal)
    and diagonal blocks (R_i + delta) e e^T + mu_i f f^T, for an orthonormal
    pair e, f, with R_i = sum_j w_ij (the Frobenius norms of row i's
    off-diagonal blocks) and mu_i > R_i + |delta|.  So each site's smallest
    block eigenvalue exceeds R_i by delta.  On e (x) x, D acts as
    delta I + diag(R) - W, a graph Laplacian plus delta whose smallest
    eigenvalue is delta (x = ones); on f (x) x, as diag(mu)."""
    rng = np.random.default_rng(seed)
    scale *= hbar
    delta *= scale
    W = np.triu(scale * rng.uniform(0.0, 1.0, (n, n)) / n, 1)
    W += W.T
    R = W.sum(axis=1)
    theta = rng.uniform(0.0, np.pi)
    e = np.array([np.cos(theta), np.sin(theta)])
    f = np.array([-e[1], e[0]])
    mu = R + abs(delta) + scale * rng.uniform(0.1, 1.0, n)
    D = np.kron(-W, np.outer(e, e))
    for i in range(n):
        D[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = (
            (R[i] + delta) * np.outer(e, e) + mu[i] * np.outer(f, f)
        )
    shift = (0.5 - PHYSICALITY_TOL) * hbar
    C = 0.5 * (D + D.T)
    C.reshape(-1)[:: 2 * n + 1] += shift
    return C, shift


@st.composite
def boundary_cases(draw):
    """``boundary_case`` at N in 1..8, delta within a few to a few tens of
    eps of the boundary on either side, or anywhere in [-0.5, 0.5]."""
    eps = np.finfo(float).eps
    delta = draw(st.one_of(
        st.integers(-8, 8).map(lambda k: k * eps),
        st.integers(-80, 80).map(lambda k: k * eps),
        st.floats(-0.5, 0.5),
    ))
    return boundary_case(
        draw(st.integers(1, 8)), draw(st.floats(0.1, 10.0)),
        draw(st.integers(0, 2**32 - 1)), draw(st.floats(0.25, 4.0)), delta,
    ), delta


class TestBlockDominance:
    """The block diagonal dominance tier is sound: it never certifies a C
    whose D = C - (hbar/2 - tol hbar) I has a smallest eigenvalue (from
    eigvalsh) at or below 0, and it certifies what the tiers above it are
    for: samples early in a segment from a vacuum start."""

    # on the boundary: without the rounding slack the block test certifies
    # these three, whose smallest eigenvalue eigvalsh reads as 0.0, -2.2e-16
    # and -1.1e-16 (one OpenBLAS build)
    @settings(max_examples=400, deadline=None)
    @given(boundary_cases())
    @example((boundary_case(1, 1.0, 10, 1.0, 0.0), 0.0))
    @example((boundary_case(2, 1.0, 24, 1.0, 0.0), 0.0))
    @example((boundary_case(4, 1.0, 35, 1.0, np.finfo(float).eps), np.finfo(float).eps))
    def test_never_certifies_a_non_positive_definite_shift(self, case):
        (C, shift), delta = case
        certified = _block_dominant(C, shift, np.empty_like(C))
        lam = np.linalg.eigvalsh(shifted(C, shift)).min()
        if certified:
            assert lam > 0.0
        # the construction puts D's smallest eigenvalue at delta: well below
        # the boundary D is indefinite, and well above it the test certifies
        if delta < -1e-6:
            assert lam < 0.0
        if delta > 1e-6:
            assert certified

    @settings(max_examples=100, deadline=None)
    @given(boundary_cases(), st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
    def test_non_finite_entries_never_pass(self, case, bad, data):
        (C, shift), _ = case
        n = C.shape[0]
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        C[i, j] = C[j, i] = bad
        assert not _block_dominant(C, shift, np.empty_like(C))

    @pytest.mark.parametrize("N, d, t_end, sample_every, tiers", [
        # the inter-site blocks grow until the block test fails at t = 0.35
        (4, 1, 0.5, 10, ["block"] * 34 + ["cholesky"] * 16),
        # an analyze-wide-like horizon: the block test passes every sample
        (40, 8, 0.05, 1, ["block"] * 50),
    ])
    def test_tiers_run_in_order_of_cost(self, monkeypatch, N, d, t_end, sample_every, tiers):
        p = NetworkParams(N=N, d=d, V=1.2, kappa2=0.2)
        seg = _ring_segment(p, 2, t_end, dt=1e-3, sample_every=sample_every)
        seen = []

        def block(*args):
            passed = _block_dominant(*args)
            seen.append("block" if passed else "fell through")
            return passed

        def cholesky(M):
            passed = _factorizes(M)
            seen[-1] = "cholesky" if passed else "exact"
            return passed

        monkeypatch.setattr(fluctuations, "_block_dominant", block)
        monkeypatch.setattr(fluctuations, "_factorizes", cholesky)
        exact = TestSampleChecks._exact_calls(monkeypatch)
        ct = propagate_covariance(p, seg, vacuum_covariance(p), dt=1e-3)
        assert seen == tiers
        assert ct.certified == len(tiers) == len(seg.times) - 1
        assert not exact  # the last sample is certified like the others
        assert ct.margin_min == 0.0

    def test_block_diagonal_states_are_certified(self):
        # without inter-site blocks, each site's own block decides: thermal
        # and squeezed sites with both block eigenvalues above hbar/2 pass
        hbar = 0.7
        blocks = [np.array([[1.5, 0.2], [0.2, 0.8]]), np.array([[0.6, 0.0], [0.0, 3.0]])]
        C = np.kron(np.diag([1.0, 0.0]), blocks[0]) + np.kron(np.diag([0.0, 1.0]), blocks[1])
        C *= hbar
        assert _block_dominant(C, (0.5 - PHYSICALITY_TOL) * hbar, np.empty_like(C))
        C[0, 0] = C[1, 1] = 0.5 * hbar * 0.99  # a site below the vacuum
        assert not _block_dominant(C, (0.5 - PHYSICALITY_TOL) * hbar, np.empty_like(C))

    def test_allocates_no_2n_buffer(self):
        # the squares go into the stage buffer; the rest is N-vectors and
        # one N x N view into that buffer
        n_sites, hbar = 200, 1.0
        rng = np.random.default_rng(0)
        noise = 1e-6 * rng.standard_normal((2 * n_sites, 2 * n_sites))
        C = 0.6 * hbar * np.eye(2 * n_sites) + noise + noise.T
        work = np.empty_like(C)
        assert _certified_margin(C, hbar, 0.0, "sample", work) is None
        tracemalloc.start()
        try:
            assert _certified_margin(C, hbar, 0.0, "sample", work) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * C.nbytes


class TestMarginMatrix:
    """``physicality_margin`` builds C + i hbar Omega / 2 in one complex array;
    its eigenvalues keep the bits of the sum with the symplectic form."""

    @pytest.mark.parametrize("n_sites", [4, 50, 200])
    @pytest.mark.parametrize("kind", ["random", "vacuum", "scaled"])
    def test_bits_match_the_summed_matrix(self, n_sites, kind):
        hbar = 0.7
        C = {"random": random_physical_cov(n_sites, hbar, seed=n_sites),
             "vacuum": 0.5 * hbar * np.eye(2 * n_sites),
             "scaled": 1e3 * random_physical_cov(n_sites, hbar, seed=1, scale=1.0)}[kind]
        assert physicality_margin(C, hbar) == oracle_margin(C, hbar)

    def test_site_blocks_are_views(self):
        X = np.arange(36.0).reshape(6, 6)
        qq, pp, qp, pq = _site_blocks(X)
        assert np.array_equal(qq, [0.0, 14.0, 28.0])
        assert np.array_equal(pp, [7.0, 21.0, 35.0])
        assert np.array_equal(qp, [1.0, 15.0, 29.0])
        assert np.array_equal(pq, [6.0, 20.0, 34.0])
        qp[...] = -1.0
        assert X[2, 3] == -1.0
        with pytest.raises(ValueError, match="C-contiguous"):
            _site_blocks(X.T)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 64), st.floats(1e-3, 1e3))
    @example(200, 1.0)
    @example(100, 1e-3)
    @example(33, 3.3)
    def test_vacuum_margin_is_exactly_zero(self, n_sites, hbar):
        # so a vacuum start can take 0.0 without the eigensolver
        assert physicality_margin(0.5 * hbar * np.eye(2 * n_sites), hbar) == 0.0

    def test_only_the_vacuum_start_skips_the_eigensolver(self, monkeypatch):
        p = NetworkParams(N=4, d=1, V=1.2, kappa2=0.2, hbar=0.7)
        calls = []

        def counted(C, hbar=1.0):
            calls.append(C.copy())
            return physicality_margin(C, hbar)

        monkeypatch.setattr(fluctuations, "physicality_margin", counted)
        C, margin = _check_c0(p, vacuum_covariance(p))
        assert margin == 0.0 and not calls
        near = C.copy()
        near[0, 2] = near[2, 0] = 1e-300
        C, margin = _check_c0(p, CovarianceMatrix(0.0, near))
        assert len(calls) == 1 and margin == oracle_margin(near, p.hbar)
        squeezed = np.diag(np.tile([0.5, 2.0], p.N)) * 0.5 * p.hbar
        squeezed[0, 0] = squeezed[1, 1] = 0.5 * p.hbar  # a vacuum site, not a vacuum start
        _, margin = _check_c0(p, CovarianceMatrix(0.0, squeezed))
        assert len(calls) == 2 and margin == oracle_margin(squeezed, p.hbar)
