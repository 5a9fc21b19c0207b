import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chimeraq import (
    CovarianceMatrix,
    NetworkParams,
    RangeError,
    SingularMatrixError,
    build_record,
    husimi_marginal,
    mi_scan,
    mutual_information,
    renyi2_entropy,
    squeezing,
    vacuum_covariance,
    weighted_correlation,
)
from chimeraq.io import to_json
from chimeraq.meanfield import CHIMERA, RegimeLabel
from conftest import random_physical_cov
from oracles import axial_circular_variance, neighbors, shift_covariance

LN2 = 0.6931471805599453


def cov_with_entry(p: NetworkParams, l: int, m: int, value: float) -> CovarianceMatrix:
    """Vacuum plus one symmetric (p_l, p_m) entry; 1-based sites."""
    C = 0.5 * p.hbar * np.eye(2 * p.N)
    i = 2 * (l - 1) + 1
    j = 2 * (m - 1) + 1
    C[i, j] = value
    C[j, i] = value
    return CovarianceMatrix(0.0, C)


def smoothed_second_moments(var_q: float, var_p: float, hbar: float = 1.0) -> tuple[float, float]:
    """Direct 2D quadrature of the Gaussian-kernel convolution that maps the
    Wigner function to the Husimi function; independent of the closed form."""
    n = 801
    lim = 8.0 * math.sqrt(max(var_q, var_p, hbar))
    x = np.linspace(-lim, lim, n)
    q, pgrid = np.meshgrid(x, x, indexing="ij")
    w = np.exp(-0.5 * (q**2 / var_q + pgrid**2 / var_p)) / (
        2.0 * math.pi * math.sqrt(var_q * var_p)
    )
    kernel_var = 0.5 * hbar
    out_q = np.empty(2)
    # covariance of the convolved density equals the second moment of the sum
    # variable; evaluate E[u^2] under the product density by quadrature
    dx = x[1] - x[0]
    # marginal of q after convolution: Var = var_q + kernel_var, checked by
    # integrating u^2 * (w conv kernel)(u) via the sum-of-variables identity
    # E[(q + g)^2] = E[q^2] + E[g^2] with independent g ~ N(0, kernel_var)
    eq2 = np.sum(q**2 * w) * dx * dx + kernel_var
    ep2 = np.sum(pgrid**2 * w) * dx * dx + kernel_var
    out_q[0] = eq2
    out_q[1] = ep2
    return float(out_q[0]), float(out_q[1])


class TestWeightedCorrelation:
    def test_vacuum_profile_is_zero(self, paper_params):
        psi = weighted_correlation(paper_params, vacuum_covariance(paper_params))
        assert np.all(psi == 0.0)

    def test_single_entry(self, paper_params):
        # one neighbor pair (1, 5): Psi_1 = V c / 2d
        c = 0.37
        cov = cov_with_entry(paper_params, 1, 5, c)
        psi = weighted_correlation(paper_params, cov)
        want = paper_params.V * c / (2 * paper_params.d)
        assert psi[0] == pytest.approx(want, rel=1e-14)
        assert psi[4] == pytest.approx(want, rel=1e-14)
        assert np.abs(psi[10]).max() == 0.0

    def test_non_neighbor_entry_ignored(self, paper_params):
        cov = cov_with_entry(paper_params, 1, 25, 0.9)  # distance 24 > d
        assert 25 not in neighbors(paper_params, 1)
        psi = weighted_correlation(paper_params, cov)
        assert np.all(psi == 0.0)


class TestSqueezing:
    def test_vacuum_is_isotropic(self, small_params):
        for e in squeezing(small_params, vacuum_covariance(small_params)):
            assert e.lambda_min == pytest.approx(0.5, abs=1e-15)
            assert e.lambda_max == pytest.approx(0.5, abs=1e-15)
            assert e.theta == 0.0

    def test_q_squeezed_site(self, small_params):
        C = 0.5 * np.eye(12)
        C[0, 0] = 0.25  # q variance of site 1 below vacuum
        C[1, 1] = 1.0
        ell = squeezing(small_params, CovarianceMatrix(0.0, C))[0]
        assert ell.lambda_min == pytest.approx(0.25, abs=1e-15)
        assert ell.lambda_max == pytest.approx(1.0, abs=1e-15)
        assert ell.theta == 0.0

    @pytest.mark.parametrize("angle", [0.3, -0.7, 1.2, math.pi / 2])
    def test_rotated_minor_axis_angle(self, small_params, angle):
        R = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        M = R @ np.diag([0.25, 1.0]) @ R.T
        C = 0.5 * np.eye(12)
        C[2:4, 2:4] = M
        ell = squeezing(small_params, CovarianceMatrix(0.0, C))[1]
        expected = angle % math.pi
        if expected > math.pi / 2 + 1e-15:
            expected -= math.pi
        assert ell.theta == pytest.approx(expected, abs=1e-12)
        assert ell.lambda_min == pytest.approx(0.25, abs=1e-12)

    def test_marginal_uncertainty_on_physical_states(self, small_params):
        for seed in range(5):
            C = random_physical_cov(small_params.N, seed=seed)
            for e in squeezing(small_params, CovarianceMatrix(0.0, C)):
                assert e.lambda_min * e.lambda_max >= 0.25 - 1e-9
                assert e.lambda_min <= e.lambda_max


class TestAxialCircularVariance:
    def test_aligned_angles(self):
        assert axial_circular_variance(np.full(10, 0.4)) == pytest.approx(0.0, abs=1e-15)

    def test_axial_wrap(self):
        # theta and theta +- pi are the same axis
        a = np.array([0.3, 0.3 - math.pi, 0.3 + math.pi])
        assert axial_circular_variance(a) == pytest.approx(0.0, abs=1e-12)

    def test_spread_angles(self):
        rng = np.random.default_rng(0)
        v = axial_circular_variance(rng.uniform(-math.pi / 2, math.pi / 2, 4000))
        assert v > 0.9


class TestHusimi:
    def test_vacuum_marginal(self, small_params):
        H = husimi_marginal(small_params, vacuum_covariance(small_params), 1)
        assert np.array_equal(H, np.eye(2))

    def test_additive_shift_identity(self, small_params):
        C = random_physical_cov(small_params.N, seed=3)
        cov = CovarianceMatrix(0.0, C)
        for site in (1, 4):
            H = husimi_marginal(small_params, cov, site)
            assert np.array_equal(H - cov.site_marginal(site), 0.5 * np.eye(2))

    def test_squeezed_marginal_against_quadrature(self, small_params):
        # diag(1/4, 1) smoothed by the coherent-state kernel -> diag(3/4, 3/2)
        eq2, ep2 = smoothed_second_moments(0.25, 1.0)
        assert eq2 == pytest.approx(0.75, rel=1e-10)
        assert ep2 == pytest.approx(1.5, rel=1e-10)
        C = 0.5 * np.eye(12)
        C[0, 0] = 0.25
        C[1, 1] = 1.0
        H = husimi_marginal(small_params, CovarianceMatrix(0.0, C), 1)
        assert np.allclose(H, np.diag([0.75, 1.5]), atol=1e-15)


P4 = NetworkParams(N=4, d=1, V=1.2, kappa2=0.2)
P6 = NetworkParams(N=6, d=2, V=0.9, kappa2=0.2)


@pytest.mark.parametrize("call, error, match", [
    (lambda cov: husimi_marginal(P4, cov, 0), RangeError, r"site must be in 1\.\.4, got 0"),
    (lambda cov: husimi_marginal(P4, cov, 9), RangeError, r"site must be in 1\.\.4, got 9"),
    (lambda cov: husimi_marginal(P4, cov, 2.7), RangeError, "site must be an integer"),
    (lambda cov: cov.site_marginal(True), RangeError, "site must be an integer"),
    (lambda cov: mutual_information(P4, cov, True), RangeError, "L must be an integer"),
    (lambda cov: squeezing(P6, cov), ValueError, "covariance size does not match"),
    (lambda cov: husimi_marginal(P6, cov, 1), ValueError, "covariance size does not match"),
    (lambda cov: mi_scan(P6, cov), ValueError, "covariance size does not match"),
    (lambda cov: mutual_information(P6, cov, 1), ValueError, "covariance size does not match"),
], ids=["site-0", "site-9", "site-2.7", "site-True", "L-True", "squeezing-N6",
        "husimi-N6", "mi_scan-N6", "mutual_information-N6"])
def test_site_and_size_checked(call, error, match):
    # an N=4 vacuum: a site wrapped modulo N or truncated to an integer,
    # and params of another N read it without a word
    with pytest.raises(error, match=match):
        call(vacuum_covariance(P4))


class TestRenyi2:
    def test_vacuum_any_block_is_zero(self, paper_params):
        C = vacuum_covariance(paper_params).C
        assert renyi2_entropy(paper_params, C) == pytest.approx(0.0, abs=1e-12)
        assert renyi2_entropy(paper_params, C[:2, :2]) == pytest.approx(0.0, abs=1e-14)
        assert renyi2_entropy(paper_params, C[:20, :20]) == pytest.approx(0.0, abs=1e-13)

    def test_single_mode_thermal(self):
        # n_bar = 0.5: det(2C/hbar) = (2 n_bar + 1)^2 = 4 -> S2 = ln 2
        p = NetworkParams(N=3, d=1, V=0.5, kappa2=0.2)
        C = (0.5 + 0.5) * np.eye(2)
        assert renyi2_entropy(p, C) == pytest.approx(LN2, rel=1e-14)

    def test_hbar_cancels_for_scaled_covariance(self):
        M = random_physical_cov(2, seed=5)
        s1 = renyi2_entropy(NetworkParams(N=3, d=1, V=0.5, kappa2=0.2, hbar=1.0), 1.0 * M)
        s2 = renyi2_entropy(NetworkParams(N=3, d=1, V=0.5, kappa2=0.2, hbar=3.7), 3.7 * M)
        assert s1 == pytest.approx(s2, rel=1e-12)

    def test_singular_matrix(self, small_params):
        with pytest.raises(SingularMatrixError):
            renyi2_entropy(small_params, np.zeros((4, 4)))
        with pytest.raises(SingularMatrixError):
            renyi2_entropy(small_params, -np.eye(4))


class TestMutualInformation:
    def test_partition_bounds(self, small_params):
        cov = vacuum_covariance(small_params)
        with pytest.raises(RangeError):
            mutual_information(small_params, cov, 6)
        with pytest.raises(RangeError, match=r"L must be in 1\.\.5, got 0"):
            mutual_information(small_params, cov, 0)

    def test_block_diagonal_factorizes(self, small_params):
        C = np.eye(12)
        C[:6, :6] = random_physical_cov(3, seed=6)
        C[6:, 6:] = random_physical_cov(3, seed=7)
        got = mutual_information(small_params, CovarianceMatrix(0.0, C), 3)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_vacuum_zero_for_every_partition(self, paper_params):
        cov = vacuum_covariance(paper_params)
        scan = mi_scan(paper_params, cov)
        assert max(abs(v) for v in scan.values()) < 1e-12

    def test_identity_with_entropy_combination(self, small_params):
        for seed in range(4):
            cov = CovarianceMatrix(0.0, random_physical_cov(small_params.N, seed=seed))
            for L in (1, 3, 5):
                k = 2 * L
                s_a = renyi2_entropy(small_params, cov.C[:k, :k])
                s_b = renyi2_entropy(small_params, cov.C[k:, k:])
                s_ab = renyi2_entropy(small_params, cov.C)
                got = mutual_information(small_params, cov, L)
                assert got == pytest.approx(s_a + s_b - s_ab, abs=1e-12)

    def test_nonnegative_on_physical_states(self, small_params):
        for seed in range(6):
            cov = CovarianceMatrix(0.0, random_physical_cov(small_params.N, seed=seed))
            for L, v in mi_scan(small_params, cov).items():
                assert v >= -1e-9

    def test_relabeling_invariance(self, small_params):
        # independent oracle: extract the rotated blocks by hand and use slogdet
        cov = CovarianceMatrix(0.0, random_physical_cov(small_params.N, seed=8))
        n = small_params.N
        k_shift = 2
        shifted = shift_covariance(cov, k_shift)
        for L in (2, 4):
            got = mutual_information(small_params, shifted, L)
            sites = [(l - k_shift) % n for l in range(n)]
            idx = np.concatenate([[2 * s, 2 * s + 1] for s in sites])
            Cp = cov.C[np.ix_(idx, idx)]
            sign_a, ld_a = np.linalg.slogdet(Cp[: 2 * L, : 2 * L])
            sign_b, ld_b = np.linalg.slogdet(Cp[2 * L :, 2 * L :])
            sign, ld = np.linalg.slogdet(Cp)
            assert sign_a == sign_b == sign == 1.0
            assert got == pytest.approx(0.5 * (ld_a + ld_b - ld), abs=1e-12)

    def test_scan_from_a_shifted_anchor(self, small_params):
        # Alice starting at site 3 is the scan of the ring shifted by 1 - 3
        cov = CovarianceMatrix(0.0, random_physical_cov(small_params.N, seed=9))
        scan3 = mi_scan(small_params, shift_covariance(cov, 1 - 3))
        got = scan3[2]
        # Alice = sites {3, 4}: slogdet oracle on the explicit index set
        idx_a = [4, 5, 6, 7]
        idx_b = [8, 9, 10, 11, 0, 1, 2, 3]
        perm = idx_a + idx_b
        Cp = cov.C[np.ix_(perm, perm)]
        _, ld_a = np.linalg.slogdet(Cp[:4, :4])
        _, ld_b = np.linalg.slogdet(Cp[4:, 4:])
        _, ld = np.linalg.slogdet(Cp)
        assert got == pytest.approx(0.5 * (ld_a + ld_b - ld), abs=1e-12)


def scan_oracle(p: NetworkParams, cov: CovarianceMatrix) -> dict[int, float]:
    """One three-factorization ``mutual_information`` call per partition."""
    return {L: mutual_information(p, cov, L) for L in range(1, p.N)}


@st.composite
def scan_cases(draw):
    n = draw(st.integers(3, 40))
    p = NetworkParams(N=n, d=1, V=1.2, kappa2=0.2, hbar=draw(st.floats(0.1, 10.0)))
    return p, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, n))


def shifted(cov: CovarianceMatrix, anchor: int) -> CovarianceMatrix:
    """``cov`` relabeled so that Alice's first site, 1, is ``anchor``."""
    return shift_covariance(cov, 1 - anchor)


class TestScanProperties:
    """``mi_scan`` (two factorizations) against the per-partition oracle,
    with Alice starting at a drawn anchor site."""

    @settings(max_examples=60, deadline=None)
    @given(scan_cases())
    def test_matches_oracle_and_is_nonnegative(self, case):
        p, seed, anchor = case
        C = random_physical_cov(p.N, hbar=p.hbar, seed=seed)
        cov = shifted(CovarianceMatrix(0.0, C), anchor)
        scan = mi_scan(p, cov)
        oracle = scan_oracle(p, cov)
        assert list(scan) == list(oracle)
        for L, v in scan.items():
            assert abs(v - oracle[L]) <= 1e-12, L
            assert v >= -1e-12, L

    @settings(max_examples=30, deadline=None)
    @given(scan_cases())
    def test_vacuum_scan_is_zero(self, case):
        p, _, anchor = case
        scan = mi_scan(p, shifted(vacuum_covariance(p), anchor))
        assert max(abs(v) for v in scan.values()) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(scan_cases())
    def test_not_positive_definite_raises(self, case):
        # reflect C along a random direction v: v^T C v changes sign
        p, seed, anchor = case
        C = random_physical_cov(p.N, hbar=p.hbar, seed=seed)
        v = np.random.default_rng(seed).standard_normal(2 * p.N)
        v /= np.linalg.norm(v)
        C -= 2.0 * (v @ C @ v) * np.outer(v, v)
        with pytest.raises(SingularMatrixError):
            mi_scan(p, shifted(CovarianceMatrix(0.0, C), anchor))

    def test_non_finite_entry_raises(self, small_params):
        C = random_physical_cov(small_params.N, seed=2)
        C[3, 3] = np.nan
        with pytest.raises(SingularMatrixError):
            mi_scan(small_params, CovarianceMatrix(0.0, C))

    def test_wide_ring(self):
        # the analyze-wide size; noise entries O(hbar), I2 up to about 20
        p = NetworkParams(N=200, d=40, V=1.2, kappa2=0.2)
        cov = CovarianceMatrix(0.0, random_physical_cov(p.N, seed=11, scale=0.05))
        scan = mi_scan(p, cov)
        oracle = scan_oracle(p, cov)
        assert max(abs(scan[L] - oracle[L]) for L in oracle) <= 1e-12


class TestRecord:
    @pytest.mark.parametrize("anchor", [1, 4])
    def test_s2_total_from_the_scan_factorization(self, anchor):
        p = NetworkParams(N=6, d=2, V=0.9, kappa2=0.2, hbar=1.7)
        cov = CovarianceMatrix(0.0, random_physical_cov(p.N, hbar=p.hbar, seed=31))
        rec = build_record(p, shifted(cov, anchor))
        assert rec.s2_total == pytest.approx(renyi2_entropy(p, cov.C), abs=1e-12)
        assert rec.s2_total > 0.1

    @pytest.mark.parametrize("labeled", [False, True])
    def test_json_is_the_hand_built_record(self, labeled):
        # analysis.json was written from this dict, built field by field,
        # before io.to_json wrote every result
        p = NetworkParams(N=6, d=2, V=0.9, kappa2=0.2, hbar=1.7)
        cov = CovarianceMatrix(11.0, random_physical_cov(p.N, hbar=p.hbar, seed=31))
        label = RegimeLabel(CHIMERA, np.array([1, 1, 1, 0, 0, 1]), np.int64(4)) if labeled else None
        record = build_record(p, cov, regime=label)
        want = {
            "t": record.t,
            "psi": [float(x) for x in record.psi],
            "ellipses": [
                {"site": e.site, "lambda_min": e.lambda_min,
                 "lambda_max": e.lambda_max, "theta": e.theta}
                for e in record.ellipses
            ],
            "s2_total": record.s2_total,
            "mi_scan": {str(L): v for L, v in record.mi_scan.items()},
            "regime": None if label is None else {
                "regime": label.regime,
                "coherent_width": int(label.coherent_width),
                "mask": [bool(x) for x in label.mask],
            },
        }
        got = to_json(record)
        assert got == want
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)

    def test_build_record_from_vacuum(self, small_params):
        rec = build_record(small_params, vacuum_covariance(small_params))
        assert rec.s2_total == pytest.approx(0.0, abs=1e-12)
        assert np.all(rec.psi == 0.0)
        assert len(rec.ellipses) == small_params.N
        assert set(rec.mi_scan) == set(range(1, small_params.N))
        assert rec.regime is None
