"""Quantum signatures extracted from covariance data.

Everything here is a pure function of a quadrature covariance matrix:
neighbor-weighted momentum correlations, per-site squeezing ellipses,
Husimi marginals, Renyi-2 entropies, and bipartite Renyi-2 mutual
information over contiguous partitions of the ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CovarianceMatrix,
    DivergenceError,
    NetworkParams,
    RangeError,
    SingularMatrixError,
    coupling_matrix,
    validate_params,
)
from .meanfield import RegimeLabel


def weighted_correlation(p: NetworkParams, cov: CovarianceMatrix) -> np.ndarray:
    """Coupling-weighted sum of momentum-momentum covariances per site.

    Psi_l = (V / 2d) sum over the coupling window of C[p_l, p_m]; the
    profile inherits the spatial structure of the covariance matrix
    (regular over coherent domains, irregular over incoherent ones).
    """
    validate_params(p)
    if cov.n_sites != p.N:
        raise ValueError("covariance size does not match params.N")
    Cpp = cov.C[1::2, 1::2]
    K = coupling_matrix(p)
    return (p.V / (2.0 * p.d)) * (K * Cpp).sum(axis=1)


@dataclass(frozen=True)
class SqueezingEllipse:
    """Eigen-structure of one site's 2x2 quadrature covariance.

    ``theta`` is the minor-axis direction measured from the +q axis, in
    (-pi/2, pi/2].  The site is squeezed below the vacuum when
    lambda_min < hbar/2; from a vacuum start the linearized model allows
    that only where kappa2 |alpha|^2 > kappa1 somewhere on the segment.
    Otherwise C(t) >= (hbar/2) I and the squeezing signatures are the
    anisotropy lambda_max / lambda_min and the orientation ``theta``.
    """

    site: int
    lambda_min: float
    lambda_max: float
    theta: float


def _wrap_axial(theta: float) -> float:
    w = theta % math.pi
    if w > math.pi / 2.0 + 1e-15:
        w -= math.pi
    return w


def squeezing(p: NetworkParams, cov: CovarianceMatrix) -> list[SqueezingEllipse]:
    """Per-site squeezing ellipses of the covariance matrix.

    Degenerate marginals (circular cross-section) report theta = 0.
    """
    validate_params(p)
    out = []
    for l in range(1, p.N + 1):
        M = cov.site_marginal(l)
        a, b, c = M[0, 0], M[1, 1], M[0, 1]
        half_gap = math.hypot(0.5 * (a - b), c)
        mean = 0.5 * (a + b)
        lam_min = mean - half_gap
        lam_max = mean + half_gap
        if half_gap <= 1e-12 * max(abs(mean), p.hbar):
            theta = 0.0
        else:
            theta = _wrap_axial(0.5 * math.atan2(2.0 * c, a - b) + math.pi / 2.0)
        out.append(SqueezingEllipse(l, float(lam_min), float(lam_max), float(theta)))
    return out


def axial_circular_variance(angles: np.ndarray) -> float:
    """Circular variance 1 - |<e^{2 i theta}>| for axial (period-pi) data."""
    a = np.asarray(angles, dtype=float)
    return float(1.0 - np.abs(np.exp(2j * a).mean()))


def husimi_marginal(p: NetworkParams, cov: CovarianceMatrix, site: int) -> np.ndarray:
    """2x2 covariance of the site's Husimi distribution.

    The Husimi function is the Wigner function convolved with the
    coherent-state kernel, which adds hbar/2 per quadrature in closed form.
    """
    validate_params(p)
    return cov.site_marginal(site) + 0.5 * p.hbar * np.eye(2)


def _logdet_pd(M: np.ndarray) -> float:
    """log det of a symmetric positive-definite matrix via Cholesky."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"matrix is not positive definite: {exc}") from exc
    diag = np.diag(L)
    if not np.all(np.isfinite(diag)) or np.any(diag <= 0):
        raise SingularMatrixError("non-positive pivot in Cholesky factor")
    return float(2.0 * np.log(diag).sum())


def renyi2_entropy(p: NetworkParams, C_sub: np.ndarray) -> float:
    """Renyi-2 entropy (1/2) log det(2 C / hbar) of a Gaussian state block.

    Normalized so that any vacuum block has entropy exactly zero;
    nonnegative for every physical covariance.

    Raises:
        SingularMatrixError: if the determinant is not positive.
    """
    C_sub = np.asarray(C_sub, dtype=float)
    return 0.5 * _logdet_pd((2.0 / p.hbar) * C_sub)


@dataclass(frozen=True)
class Partition:
    """Contiguous bipartition: Alice holds sites 1..L, Bob the rest."""

    L: int

    def validate(self, n_sites: int) -> "Partition":
        if not 1 <= self.L <= n_sites - 1:
            raise RangeError(f"L must be in 1..{n_sites - 1}, got {self.L}")
        return self


def mutual_information(p: NetworkParams, cov: CovarianceMatrix, part: Partition) -> float:
    """Gaussian Renyi-2 mutual information across a contiguous partition.

    I2 = (1/2) log(det C_A det C_B / det C) over the block decomposition of
    the covariance; identical to S2(A) + S2(B) - S2(AB) since the
    normalization constants cancel.
    """
    validate_params(p)
    part.validate(cov.n_sites)
    C = cov.C
    k = 2 * part.L
    ld_a = _logdet_pd(C[:k, :k])
    ld_b = _logdet_pd(C[k:, k:])
    ld = _logdet_pd(C)
    return 0.5 * (ld_a + ld_b - ld)


def shift_covariance(cov: CovarianceMatrix, k: int) -> CovarianceMatrix:
    """Covariance after relabeling sites l -> l + k around the ring."""
    n = cov.n_sites
    old_site = (np.arange(n) - k) % n
    idx = np.empty(2 * n, dtype=int)
    idx[0::2] = 2 * old_site
    idx[1::2] = 2 * old_site + 1
    return CovarianceMatrix(t=cov.t, C=cov.C[np.ix_(idx, idx)])


def mi_scan(p: NetworkParams, cov: CovarianceMatrix, anchor: int = 1) -> dict[int, float]:
    """Mutual information over all contiguous partitions, L = 1..N-1.

    Alice starts at ``anchor`` (1-based); anchors other than 1 relabel the
    ring before scanning.
    """
    validate_params(p)
    c = cov if anchor == 1 else shift_covariance(cov, 1 - anchor)
    return {
        L: mutual_information(p, c, Partition(L)) for L in range(1, cov.n_sites)
    }


@dataclass(frozen=True)
class AnalysisRecord:
    """All covariance-derived signatures at one instant."""

    t: float
    psi: np.ndarray = field(repr=False)
    ellipses: list[SqueezingEllipse] = field(repr=False)
    s2_total: float
    mi_scan: dict[int, float] = field(repr=False)
    regime: RegimeLabel | None = None


def build_record(
    p: NetworkParams,
    cov: CovarianceMatrix,
    regime: RegimeLabel | None = None,
    anchor: int = 1,
) -> AnalysisRecord:
    """Assemble the full analysis record for one covariance snapshot.

    Raises:
        DivergenceError: if the correlation profile is not finite (the
            covariance blew up).
        SingularMatrixError: if the scan gives a negative mutual information,
            which no positive-definite covariance can (Fischer's inequality).
    """
    psi = weighted_correlation(p, cov)
    if not np.all(np.isfinite(psi)):
        raise DivergenceError("non-finite weighted correlation profile")
    scan = mi_scan(p, cov, anchor=anchor)
    low = min(scan.values())
    if low < -1e-9:
        raise SingularMatrixError(f"negative mutual information {low:.3e} in scan")
    return AnalysisRecord(
        t=cov.t,
        psi=psi,
        ellipses=squeezing(p, cov),
        s2_total=renyi2_entropy(p, cov.C),
        mi_scan=scan,
        regime=regime,
    )
