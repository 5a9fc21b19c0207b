import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from chimeraq import (
    CovarianceMatrix,
    InitialConditionSpec,
    MeanFieldState,
    NetworkParams,
    PhysicalityError,
    drift_diffusion,
    initial_conditions,
    integrate,
    mean_field_rhs,
    moment_oracle,
    physicality_margin,
    propagate_covariance,
    squeezing,
    symplectic_form,
    vacuum_covariance,
)
from chimeraq import fluctuations
from chimeraq.analysis import shift_covariance
from chimeraq.fluctuations import (
    PHYSICALITY_TOL,
    _certified_margin,
    _factorizes,
    covariance_to_moments,
    moments_to_covariance,
    propagate_frozen,
)
from conftest import random_physical_cov


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
        assert np.trace(block) == pytest.approx(-2.0 * p.kappa1, abs=1e-14)
        assert np.allclose(np.diag(dd.B), 3.0 * p.hbar * p.kappa1, atol=1e-14)

    def test_diffusion_diagonal_pairs(self):
        p = NetworkParams(N=5, d=2, V=1.3, kappa2=0.2, hbar=1.7)
        s = random_limit_cycle_state(p, 4)
        dd = drift_diffusion(p, s)
        assert np.array_equal(dd.B, np.diag(np.diag(dd.B)))
        expect = p.hbar * (p.kappa1 + 4.0 * p.kappa2 * np.abs(s.alphas) ** 2)
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
        ct = propagate_covariance(p, seg, vacuum_covariance(p), dt=1e-3)
        for k in range(len(ct)):
            assert ct.cov(k).symmetry_defect() < 1e-10
        assert ct.min_physicality_margin() >= -1e-9

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
        ct = propagate_covariance(p, seg, vacuum_covariance(p), dt=1e-3)
        for k, t in enumerate(ct.times):
            want_min = hbar * (0.75 - 0.25 * np.exp(-4.0 * p.kappa1 * t))
            want_max = hbar * (0.5 + 3.0 * p.kappa1 * t)
            for e in squeezing(p, ct.cov(k)):
                assert abs(e.lambda_min - want_min) < 1e-10
                assert abs(e.lambda_max - want_max) < 1e-10

    @pytest.mark.parametrize(
        "N, d, V, kappa2, seed",
        [(5, 2, 1.3, 0.25, 20), (6, 1, 0.8, 0.2, 21), (8, 3, 1.2, 0.3, 22), (3, 1, 1.6, 0.2, 23)],
    )
    def test_no_sub_vacuum_variance_below_threshold(self, N, d, V, kappa2, seed):
        p = NetworkParams(N=N, d=d, V=V, kappa2=kappa2)
        seg = integrate(p, random_limit_cycle_state(p, seed), 0.5, dt=1e-3, sample_every=20)
        load = p.kappa2 * np.abs(seg.alphas) ** 2 / p.kappa1
        assert load.max() <= 1.0  # precondition of the bound
        ct = propagate_covariance(p, seg, vacuum_covariance(p), dt=1e-3)
        eye = np.eye(2 * p.N)
        for C in ct.covs:
            assert np.linalg.eigvalsh(C - 0.5 * p.hbar * eye).min() >= -1e-12 * p.hbar

    @pytest.mark.parametrize("load, sub_vacuum", [(0.98, False), (1.6, True)])
    def test_bound_is_sharp_with_frozen_coefficients(self, load, sub_vacuum):
        p = NetworkParams(N=3, d=1, V=1.2, kappa2=0.2)
        r = np.sqrt(load * p.kappa1 / p.kappa2)
        s = MeanFieldState(0.0, r * np.exp(1j * np.array([0.3, -1.1, 2.4])))
        dd = drift_diffusion(p, s)
        C = propagate_frozen(dd.A, dd.B, vacuum_covariance(p).C, horizon=0.5, dt=1e-3)
        lam_min = min(e.lambda_min for e in squeezing(p, CovarianceMatrix(0.0, C)))
        assert (lam_min < 0.5 * p.hbar) == sub_vacuum


def _ring_segment(p: NetworkParams, ic_seed: int, t_end: float, dt: float, sample_every: int):
    s0 = initial_conditions(p, InitialConditionSpec(seed=ic_seed))
    return integrate(p, s0, t_end, dt=dt, sample_every=sample_every)


#: N=3 ring whose covariance RK4 is unstable at dt = 1.0
UNSTABLE = NetworkParams(N=3, d=1, V=0.5, kappa2=0.2)


class TestSampleChecks:
    """Intermediate samples pass on a Cholesky certificate; the first and the
    last sample, and any sample no certificate covers, get exact margins."""

    def test_unstable_dt_fails_inside_the_segment(self):
        seg = _ring_segment(UNSTABLE, 1, 100.0, dt=1.0, sample_every=10)
        with pytest.raises(PhysicalityError, match=r"covariance unphysical at t=10,"):
            propagate_covariance(UNSTABLE, seg, vacuum_covariance(UNSTABLE), dt=1.0)

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
        assert not _factorizes(C)
        with pytest.raises(PhysicalityError, match="non-finite"):
            _certified_margin(C, 1.0, "covariance unphysical at t=1")

    @staticmethod
    def _exact_calls(monkeypatch) -> list:
        exact = []

        def counted(C, hbar=1.0):
            exact.append(C)
            return physicality_margin(C, hbar)

        monkeypatch.setattr(fluctuations, "physicality_margin", counted)
        return exact

    def test_vacuum_start_certifies_intermediate_samples(self, monkeypatch):
        p = NetworkParams(N=4, d=1, V=1.2, kappa2=0.2)
        seg = _ring_segment(p, 2, 0.5, dt=1e-3, sample_every=10)
        exact = self._exact_calls(monkeypatch)
        ct = propagate_covariance(p, seg, vacuum_covariance(p), dt=1e-3)
        assert ct.vacuum_bound_ratio_max() <= 1.0
        assert ct.certified == len(ct) - 2
        assert len(exact) == 2
        assert np.array_equal(exact[-1], ct.covs[-1])
        assert ct.min_physicality_margin() == 0.0

    def test_squeezed_start_falls_back_to_exact_margins(self, monkeypatch):
        # a pure squeezed start has C < (hbar/2) I along q, so the certificate
        # fails on early samples and their exact margins are computed
        p = NetworkParams(N=4, d=1, V=1.2, kappa2=0.2)
        seg = _ring_segment(p, 2, 0.5, dt=1e-3, sample_every=10)
        r = 0.5
        C0 = 0.5 * p.hbar * np.diag(np.tile([np.exp(-2 * r), np.exp(2 * r)], p.N))
        exact = self._exact_calls(monkeypatch)
        ct = propagate_covariance(p, seg, CovarianceMatrix(0.0, C0), dt=1e-3)
        eye = np.eye(2 * p.N)
        below = [np.linalg.eigvalsh(C - 0.5 * p.hbar * eye).min() < 0 for C in ct.covs[1:-1]]
        assert sum(below) == 18
        assert ct.certified == len(ct) - 2 - 18
        assert len(exact) == 2 + 18
        assert ct.min_physicality_margin() == 0.0

    def test_segment_above_threshold_falls_back_to_exact_margins(self, monkeypatch):
        # amplitudes above the limit cycle decay through kappa2 |alpha|^2 > kappa1,
        # where C >= (hbar/2) I is not guaranteed and most samples need exact margins
        p = NetworkParams(N=4, d=1, V=1.2, kappa2=0.2)
        s0 = initial_conditions(p, InitialConditionSpec(seed=2, r0=3.0))
        seg = integrate(p, s0, 0.5, dt=1e-3, sample_every=10)
        exact = self._exact_calls(monkeypatch)
        ct = propagate_covariance(p, seg, vacuum_covariance(p), dt=1e-3)
        assert ct.vacuum_bound_ratio_max() > 1.0
        assert ct.certified < len(ct) - 2
        assert len(exact) == len(ct) - ct.certified
        assert ct.min_physicality_margin() >= -PHYSICALITY_TOL * p.hbar


class TestSampleStack:
    @pytest.mark.parametrize("route", [propagate_covariance, moment_oracle])
    def test_samples_are_held_once(self, route):
        # 51 samples at N=40 make a 2.61 MB stack; a list of per-sample copies
        # stacked at the end would hold it twice at the peak
        p = NetworkParams(N=40, d=8, V=1.2, kappa2=0.2)
        seg = _ring_segment(p, 1, 0.5, dt=1e-3, sample_every=10)
        C0 = vacuum_covariance(p)
        tracemalloc.start()
        try:
            ct = route(p, seg, C0, dt=1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ct.covs.shape == (51, 2 * p.N, 2 * p.N)
        assert ct.covs.dtype == np.float64
        assert peak < 1.5 * ct.covs.nbytes


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
    random covariances away from the boundary, and the Cholesky certificate
    passes only physical ones."""

    @settings(max_examples=200, deadline=None)
    @given(gaussian_covariances())
    def test_routes_agree(self, case):
        C, hbar, physical = case
        margin = physicality_margin(C, hbar)
        nu = symplectic_margin(C, hbar)
        assume(min(abs(margin), abs(nu)) > 1e-6 * hbar)
        assert (margin > 0) == physical
        assert (nu > 0) == physical
        n = C.shape[0]
        if _factorizes(C - (0.5 - PHYSICALITY_TOL) * hbar * np.eye(n)):
            assert physical
        if physical:
            certified = _certified_margin(C, hbar, "sample")
            assert certified is None or certified >= -PHYSICALITY_TOL * hbar
        else:
            with pytest.raises(PhysicalityError, match="sample, margin"):
                _certified_margin(C, hbar, "sample")
