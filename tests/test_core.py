from dataclasses import replace

import numpy as np
import pytest

from chimeraq import (
    CovarianceMatrix,
    DivergenceError,
    MeanFieldState,
    NetworkParams,
    RangeError,
    coupling_matrix,
    neighbor_offsets,
)
from chimeraq.core import RK4
from conftest import oracle_rk4_step
from oracles import neighbors


class TestValidateParams:
    def test_paper_parameters_valid(self):
        NetworkParams(N=50, d=10, V=1.2, kappa2=0.2)

    def test_window_overlap_rejected(self):
        with pytest.raises(RangeError, match="d"):
            NetworkParams(N=50, d=30, V=1.2, kappa2=0.2)

    def test_all_to_all_odd_n(self):
        # the window of d = (N+1)/2 covers every other site
        p = NetworkParams(N=3, d=2, V=1.0, kappa2=0.2)
        assert np.array_equal(coupling_matrix(p), 1.0 - np.eye(3))

    def test_even_n_has_no_all_to_all_exception(self):
        with pytest.raises(RangeError, match="d"):
            NetworkParams(N=4, d=2, V=1.0, kappa2=0.2)

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            (dict(N=1, d=1, V=1.0, kappa2=0.2), "N"),
            (dict(N=5, d=0, V=1.0, kappa2=0.2), "d"),
            (dict(N=5, d=1, V=-0.1, kappa2=0.2), "V"),
            (dict(N=5, d=1, V=1.0, kappa2=0.0), "kappa2"),
            (dict(N=5, d=1, V=1.0, kappa2=0.2, hbar=0.0), "hbar"),
        ],
    )
    def test_errors_name_the_field(self, kwargs, field):
        with pytest.raises(RangeError, match=field):
            NetworkParams(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("N", 1), ("N", True), ("d", 0), ("d", 4), ("d", True),
        *[(field, value) for field in ("V", "kappa2", "hbar")
          for value in (-1.0, float("nan"), float("inf"), -float("inf"))],
        ("kappa2", 0.0), ("hbar", 0.0),
    ])
    def test_building_checks_every_field(self, field, value):
        # d=True passed as d=1
        with pytest.raises(RangeError, match=rf"\b{field}\b"):
            replace(NetworkParams(N=5, d=1, V=1.0, kappa2=0.2), **{field: value})

    def test_limit_cycle_radius(self):
        p = NetworkParams(N=5, d=1, V=0.0, kappa2=0.2)
        assert p.limit_cycle_radius == pytest.approx(1.5811388300841898, abs=1e-15)


class TestNeighbors:
    def test_window_wrap(self, paper_params):
        got = neighbors(paper_params, 1)
        assert got == tuple(range(41, 51)) + tuple(range(2, 12))

    def test_all_to_all_dedup(self):
        p = NetworkParams(N=3, d=2, V=1.0, kappa2=0.2)
        assert set(neighbors(p, 1)) == {2, 3}
        assert len(neighbors(p, 1)) == 2

    def test_nearest(self):
        p = NetworkParams(N=5, d=1, V=1.0, kappa2=0.2)
        assert set(neighbors(p, 3)) == {2, 4}

    @pytest.mark.parametrize("N,d", [(5, 2), (6, 2), (7, 4), (9, 5), (50, 10)])
    def test_matches_ring_distance_oracle(self, N, d):
        # independent route: m is a neighbor iff its ring distance to l is <= d
        p = NetworkParams(N=N, d=d, V=1.0, kappa2=0.2)
        for l in range(1, N + 1):
            expected = {
                m
                for m in range(1, N + 1)
                if m != l and min(abs(m - l), N - abs(m - l)) <= d
            }
            assert set(neighbors(p, l)) == expected

    @pytest.mark.parametrize("N,d", [(5, 2), (8, 3), (50, 10), (7, 4)])
    def test_symmetry_and_uniform_count(self, N, d):
        p = NetworkParams(N=N, d=d, V=1.0, kappa2=0.2)
        sets = {l: set(neighbors(p, l)) for l in range(1, N + 1)}
        counts = {len(s) for s in sets.values()}
        assert len(counts) == 1
        for l in range(1, N + 1):
            for m in sets[l]:
                assert l in sets[m]


class TestCouplingMatrix:
    def test_structure(self, paper_params):
        K = coupling_matrix(paper_params)
        assert np.array_equal(K, K.T)
        assert np.all(np.diag(K) == 0)
        assert np.all(K.sum(axis=1) == 2 * paper_params.d)

    def test_row_matches_neighbors(self, small_params):
        K = coupling_matrix(small_params)
        for l in range(1, small_params.N + 1):
            row = {m + 1 for m in np.nonzero(K[l - 1])[0]}
            assert row == set(neighbors(small_params, l))

    def test_offsets_all_to_all(self):
        p = NetworkParams(N=5, d=3, V=1.0, kappa2=0.2)
        assert sorted(neighbor_offsets(p)) == [1, 2, 3, 4]

    def test_every_window_up_to_24_sites(self):
        # K[l, m] = 1 exactly when m != l and the ring distance is <= d
        for N in range(2, 25):
            dist = np.abs(np.subtract.outer(np.arange(N), np.arange(N)))
            for d in (d for d in range(1, N) if 2 * d <= N - 1 or 2 * d == N + 1):
                expected = (dist != 0) & (np.minimum(dist, N - dist) <= d)
                K = coupling_matrix(NetworkParams(N=N, d=d, V=1.0, kappa2=0.2))
                assert np.array_equal(K, expected.astype(float)), (N, d)


class TestRk4Step:
    """A tuple state whose parts differ in shape: a vector with rates lam and
    a 2x2 matrix under a damped rotation, both with closed forms."""

    lam = np.array([-1.0, 0.5, -2.0])
    A = np.array([[-0.3, 2.0], [-2.0, -0.3]])

    def f(self, y, k):
        v, M = y
        np.multiply(self.lam, v, out=k[0])
        np.matmul(self.A, M, out=k[1])

    def start(self):
        return (np.array([1.0, -2.0, 0.5]), np.array([[1.0, 0.2], [-0.4, 1.5]]))

    def integrate(self, dt, T=1.0):
        y0 = self.start()
        y = tuple(u.copy() for u in y0)
        parts = tuple(map(id, y))
        stepper = RK4(self.f, y)
        for _ in range(int(round(T / dt))):
            stepper.step(y, dt)
        assert tuple(map(id, y)) == parts  # stepped in place
        c, s = np.cos(2.0 * T), np.sin(2.0 * T)
        exact = (
            y0[0] * np.exp(self.lam * T),
            np.exp(-0.3 * T) * np.array([[c, s], [-s, c]]) @ y0[1],
        )
        return y, exact

    def test_matches_closed_form(self):
        y, exact = self.integrate(0.01)
        assert isinstance(y, tuple) and len(y) == 2
        for got, want in zip(y, exact):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-8

    def test_fourth_order(self):
        errs = []
        for dt in (0.1, 0.05):
            y, exact = self.integrate(dt)
            errs.append(max(np.max(np.abs(g - w)) for g, w in zip(y, exact)))
        assert 14.0 < errs[0] / errs[1] < 18.0

    def test_bits_match_the_allocating_step(self):
        # a complex part too: the stage scalars multiply complex slopes
        def f(y, k):
            self.f(y[:2], k[:2])
            np.multiply(1j * self.lam - 0.2, y[2], out=k[2])

        def f_new(*y):
            k = tuple(np.empty_like(u) for u in y)
            f(y, k)
            return k

        y = self.start() + (np.array([1.0 + 2.0j, -0.5j, 3.0]),)
        ref = tuple(u.copy() for u in y)
        stepper = RK4(f, y)
        for _ in range(100):
            stepper.step(y, 0.013)
            ref = oracle_rk4_step(f_new, ref, 0.013)
        for got, want in zip(y, ref):
            assert np.array_equal(got, want)


class TestStates:
    def test_mean_field_state_rejects_nonfinite(self):
        with pytest.raises(DivergenceError):
            MeanFieldState(0.0, np.array([1.0, np.inf, 0.0], dtype=complex))

    def test_mean_field_state_immutable(self):
        s = MeanFieldState(0.0, np.ones(4, dtype=complex))
        with pytest.raises(ValueError):
            s.alphas[0] = 2.0

    def test_covariance_shape_checked(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(0.0, np.zeros((3, 3)))

    def test_site_marginal(self):
        C = np.diag([1.0, 2.0, 3.0, 4.0])
        cov = CovarianceMatrix(0.0, C)
        assert np.array_equal(cov.site_marginal(2), np.diag([3.0, 4.0]))
        assert cov.n_sites == 2
