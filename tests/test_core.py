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
    neighbors,
    validate_params,
)
from chimeraq.core import rk4_step


class TestValidateParams:
    def test_paper_parameters_valid(self, paper_params):
        assert validate_params(paper_params) is paper_params

    def test_window_overlap_rejected(self):
        with pytest.raises(RangeError, match="d"):
            validate_params(NetworkParams(N=50, d=30, V=1.2, kappa2=0.2))

    def test_all_to_all_odd_n(self):
        p = NetworkParams(N=3, d=2, V=1.0, kappa2=0.2)
        assert validate_params(p).all_to_all

    def test_even_n_has_no_all_to_all_exception(self):
        with pytest.raises(RangeError, match="d"):
            validate_params(NetworkParams(N=4, d=2, V=1.0, kappa2=0.2))

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            (dict(N=1, d=1, V=1.0, kappa2=0.2), "N"),
            (dict(N=5, d=0, V=1.0, kappa2=0.2), "d"),
            (dict(N=5, d=1, V=-0.1, kappa2=0.2), "V"),
            (dict(N=5, d=1, V=1.0, kappa2=0.0), "kappa2"),
            (dict(N=5, d=1, V=1.0, kappa2=0.2, kappa1=-1.0), "kappa1"),
            (dict(N=5, d=1, V=1.0, kappa2=0.2, hbar=0.0), "hbar"),
        ],
    )
    def test_errors_name_the_field(self, kwargs, field):
        with pytest.raises(RangeError, match=field):
            validate_params(NetworkParams(**kwargs))

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


class TestRk4Step:
    """A tuple state whose parts differ in shape: a vector with rates lam and
    a 2x2 matrix under a damped rotation, both with closed forms."""

    lam = np.array([-1.0, 0.5, -2.0])
    A = np.array([[-0.3, 2.0], [-2.0, -0.3]])

    def f(self, v, M):
        return self.lam * v, self.A @ M

    def integrate(self, dt, T=1.0):
        y = (np.array([1.0, -2.0, 0.5]), np.array([[1.0, 0.2], [-0.4, 1.5]]))
        y0 = y
        for _ in range(int(round(T / dt))):
            y = rk4_step(self.f, y, dt)
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
