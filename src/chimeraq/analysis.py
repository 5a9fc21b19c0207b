"""Quantum signatures extracted from covariance data.

Everything here is a pure function of a quadrature covariance matrix:
neighbor-weighted momentum correlations, per-site squeezing ellipses,
Husimi marginals, Renyi-2 entropies, and bipartite Renyi-2 mutual
information over contiguous partitions of the ring.  Each function that
takes params and a covariance raises ValueError unless the covariance has
``params.N`` sites, and RangeError for a site or partition index that is
not an integer in its range.
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
    check_value,
    cholesky_diagonal,
    coupling_matrix,
)
from .meanfield import RegimeLabel


def _check_size(p: NetworkParams, cov: CovarianceMatrix) -> None:
    """Raises ValueError unless ``cov`` is of ``p.N`` sites."""
    if cov.n_sites != p.N:
        raise ValueError("covariance size does not match params.N")


def weighted_correlation(p: NetworkParams, cov: CovarianceMatrix) -> np.ndarray:
    """Coupling-weighted sum of momentum-momentum covariances per site.

    Psi_l = (V / 2d) sum over the coupling window of C[p_l, p_m]; the
    profile inherits the spatial structure of the covariance matrix
    (regular over coherent domains, irregular over incoherent ones).
    """
    _check_size(p, cov)
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
    _check_size(p, cov)
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


def husimi_marginal(p: NetworkParams, cov: CovarianceMatrix, site: int) -> np.ndarray:
    """2x2 covariance of the site's Husimi distribution.

    The Husimi function is the Wigner function convolved with the
    coherent-state kernel, which adds hbar/2 per quadrature in closed form.
    Raises RangeError unless ``site`` is an integer in 1..N.
    """
    _check_size(p, cov)
    return cov.site_marginal(site) + 0.5 * p.hbar * np.eye(2)


def _log_pivots(M: np.ndarray) -> np.ndarray:
    """2 log diag of the Cholesky factor of a symmetric positive-definite
    matrix; the sum of the first k entries is the log det of ``M[:k, :k]``.
    Raises SingularMatrixError if M has no Cholesky factor with a finite,
    positive diagonal (:func:`~chimeraq.core.cholesky_diagonal`)."""
    return 2.0 * np.log(cholesky_diagonal(M))


def _logdet_pd(M: np.ndarray) -> float:
    """log det of a symmetric positive-definite matrix via Cholesky."""
    return float(_log_pivots(M).sum())


def renyi2_entropy(p: NetworkParams, C_sub: np.ndarray) -> float:
    """Renyi-2 entropy (1/2) log det(2 C / hbar) of a Gaussian state block.

    Normalized so that any vacuum block has entropy exactly zero;
    nonnegative for every physical covariance.

    Raises:
        SingularMatrixError: if the determinant is not positive.
    """
    C_sub = np.asarray(C_sub, dtype=float)
    return 0.5 * _logdet_pd((2.0 / p.hbar) * C_sub)


def mutual_information(p: NetworkParams, cov: CovarianceMatrix, L: int) -> float:
    """Gaussian Renyi-2 mutual information between sites 1..L and the rest.

    I2 = (1/2) log(det C_A det C_B / det C) over the block decomposition of
    the covariance; identical to S2(A) + S2(B) - S2(AB) since the
    normalization constants cancel.  Raises RangeError unless ``L`` is an
    integer with 1 <= L < N.
    """
    _check_size(p, cov)
    if not 1 <= check_value("L", L, int, RangeError) <= p.N - 1:
        raise RangeError(f"L must be in 1..{p.N - 1}, got {L}")
    return _mutual_information(cov.C, L)


def _mutual_information(C: np.ndarray, L: int) -> float:
    """:func:`mutual_information` of a 2N x 2N array, for sites 1..L against
    the rest, unchecked.  The blocks are factored from views, so a
    read-only view (an observed sample, see
    :func:`~chimeraq.fluctuations.propagate_covariance`) is not copied."""
    k = 2 * L
    ld_a = _logdet_pd(C[:k, :k])
    ld_b = _logdet_pd(C[k:, k:])
    ld = _logdet_pd(C)
    return 0.5 * (ld_a + ld_b - ld)


def _scan_and_logdet(cov: CovarianceMatrix) -> tuple[dict[int, float], float]:
    """The scan of :func:`mi_scan` and log det C, from its two factorizations."""
    n = cov.n_sites
    head = np.cumsum(_log_pivots(cov.C))
    tail = np.cumsum(_log_pivots(cov.C[::-1, ::-1]))
    scan = {
        L: float(0.5 * (head[2 * L - 1] + tail[2 * (n - L) - 1] - head[-1]))
        for L in range(1, n)
    }
    return scan, float(head[-1])


def mi_scan(p: NetworkParams, cov: CovarianceMatrix) -> dict[int, float]:
    """Mutual information over all contiguous partitions, L = 1..N-1, with
    Alice holding sites 1..L.

    Two Cholesky factorizations serve every L, so the scan costs O(N^3):
    the prefix sums of the log pivots of C give the log det of each leading
    block C_A, and those of the index-reversed C give each trailing block
    C_B.  Agrees with :func:`mutual_information` up to summation order.

    Raises:
        SingularMatrixError: if the covariance is not positive definite.
    """
    _check_size(p, cov)
    return _scan_and_logdet(cov)[0]


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
) -> AnalysisRecord:
    """Assemble the full analysis record for one covariance snapshot.

    ``s2_total`` is (1/2) log det(2 C / hbar), with log det C taken from the
    scan's factorization.

    Raises:
        DivergenceError: if the correlation profile is not finite (the
            covariance blew up).
        SingularMatrixError: if the scan gives a negative mutual information,
            which no positive-definite covariance can (Fischer's inequality).
    """
    psi = weighted_correlation(p, cov)
    if not np.all(np.isfinite(psi)):
        raise DivergenceError("non-finite weighted correlation profile")
    scan, logdet = _scan_and_logdet(cov)
    low = min(scan.values())
    if low < -1e-9:
        raise SingularMatrixError(f"negative mutual information {low:.3e} in scan")
    return AnalysisRecord(
        t=cov.t,
        psi=psi,
        ellipses=squeezing(p, cov),
        s2_total=0.5 * logdet + p.N * math.log(2.0 / p.hbar),
        mi_scan=scan,
        regime=regime,
    )
