"""Gaussian quantum fluctuations about the mean-field trajectory.

Linearizing the dissipative dynamics about the semiclassical amplitudes
``alpha_l(t)`` gives, for the fluctuation operators, the complex-variable
drift

    d(da_l)/dt = (kappa1 - 4 kappa2 |alpha_l|^2) da_l - 2 kappa2 alpha_l^2 da_l*
                 - i (V / 2d) sum_{m in window(l)} da_m

together with per-site diffusion hbar (kappa1 + 4 kappa2 |alpha_l|^2) on both
quadratures.  In the interleaved quadrature basis (q1, p1, ..., qN, pN),
with a = (q + i p) / sqrt(2 hbar), the covariance matrix obeys the Lyapunov
differential equation

    dC/dt = A(t) C + C A(t)^T + B(t).

Two integration routes over independent equations are provided:

* :func:`propagate_covariance` advances the quadrature Lyapunov equation,
* :func:`moment_oracle` advances the complex second moments <a_l a_m> and
  <a_l^dagger a_m> and converts at the end; it exists purely to
  cross-validate the first route.

Both advance the mean field jointly with the fluctuations in a single RK4
state (:func:`~chimeraq.core.rk4_step`), so stage values of alpha are exact
rather than interpolated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    CovarianceMatrix,
    MeanFieldState,
    NetworkParams,
    PhysicalityError,
    coupling_matrix,
    rk4_step,
    validate_params,
)
from .meanfield import MeanFieldTrajectory, _rhs_of, _step_count

#: physicality violations larger than this (in units of hbar) are errors,
#: smaller ones are treated as roundoff
PHYSICALITY_TOL = 1e-9

#: fluctuation horizons beyond this many 1/kappa1 are outside the validated
#: short-time regime and get flagged in run metadata
VALIDATED_HORIZON = 0.5


def symplectic_form(n_sites: int) -> np.ndarray:
    """2N x 2N symplectic form, block-diagonal [[0, 1], [-1, 0]] per site."""
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(n_sites), J)


def physicality_margin(C: np.ndarray, hbar: float = 1.0) -> float:
    """Smallest eigenvalue of C + i hbar Omega / 2.

    Nonnegative (up to roundoff) exactly when C is the covariance of a
    valid Gaussian quantum state; the vacuum saturates zero.

    Raises:
        PhysicalityError: if C has a non-finite entry (no state has one, and
            the eigensolver's answer for it is meaningless).
    """
    C = np.asarray(C, dtype=float)
    _require_finite(C, "covariance unphysical")
    n = C.shape[0] // 2
    H = C + 0.5j * hbar * symplectic_form(n)
    return float(np.linalg.eigvalsh(H).min())


def _require_finite(C: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(C)):
        raise PhysicalityError(f"{what}: non-finite entries")


def _checked_margin(C: np.ndarray, hbar: float, what: str) -> float:
    """Exact physicality margin of ``C``; ``what`` leads any error message.

    Raises:
        PhysicalityError: if C is non-finite or its margin is below
            -PHYSICALITY_TOL hbar.
    """
    _require_finite(C, what)
    margin = physicality_margin(C, hbar)
    if margin < -PHYSICALITY_TOL * hbar:
        raise PhysicalityError(f"{what}, margin {margin:.3e}")
    return margin


def _factorizes(M: np.ndarray) -> bool:
    """Whether M has a Cholesky factor with a finite, positive diagonal.

    ``np.linalg.cholesky`` does not raise on NaN or inf input; it returns a
    factor whose diagonal is not finite, so the diagonal is checked too.
    """
    try:
        d = np.diagonal(np.linalg.cholesky(M)).real
    except np.linalg.LinAlgError:
        return False
    return bool(np.all(np.isfinite(d) & (d > 0.0)))


def _certified_margin(C: np.ndarray, hbar: float, what: str) -> float | None:
    """None when a Cholesky factorization certifies that the physicality
    margin of ``C`` is at least -PHYSICALITY_TOL hbar, else the exact margin.

    The certificate factors C - (hbar/2 - tol) I: since
    (hbar/2)(I + i Omega) >= 0, its positive definiteness bounds the margin
    by -tol.  It holds from a vacuum start while kappa2 |alpha|^2 <= kappa1
    (see the README); where it fails, the margin is computed with an
    eigensolver.  Cholesky's backward error, about 2N eps ||C||, is far
    below tol, and a non-finite C never factorizes.

    Raises:
        PhysicalityError: if C is non-finite or its margin is below
            -PHYSICALITY_TOL hbar.
    """
    n = C.shape[0]
    D = C.copy()
    D.flat[:: n + 1] -= (0.5 - PHYSICALITY_TOL) * hbar
    if _factorizes(D):
        return None
    return _checked_margin(C, hbar, what)


def vacuum_covariance(p: NetworkParams, t: float = 0.0) -> CovarianceMatrix:
    """Covariance (hbar/2) I of a tensor product of coherent states."""
    validate_params(p)
    return CovarianceMatrix(t=t, C=0.5 * p.hbar * np.eye(2 * p.N))


@dataclass(frozen=True)
class DriftDiffusion:
    """Drift A and diffusion B of the covariance equation at one instant."""

    t: float
    A: np.ndarray
    B: np.ndarray


def _site_block_coeffs(p: NetworkParams, alphas: np.ndarray):
    """Per-site drift coefficients (m, sr, si) and diffusion diagonal."""
    mag2 = alphas.real**2 + alphas.imag**2
    m = p.kappa1 - 4.0 * p.kappa2 * mag2
    a2 = alphas**2
    sr = -2.0 * p.kappa2 * a2.real
    si = -2.0 * p.kappa2 * a2.imag
    b = p.hbar * (p.kappa1 + 4.0 * p.kappa2 * mag2)
    return m, sr, si, b


def _coupling_drift(p: NetworkParams) -> np.ndarray:
    """Static coupling part of A: (V/2d) [[0, 1], [-1, 0]] per neighbor pair."""
    c = p.V / (2.0 * p.d)
    return np.kron(coupling_matrix(p), np.array([[0.0, c], [-c, 0.0]]))


def _fill_drift(A: np.ndarray, iq, ip, m, sr, si) -> None:
    A[iq, iq] = m + sr
    A[ip, ip] = m - sr
    A[iq, ip] = si
    A[ip, iq] = si


def drift_diffusion(p: NetworkParams, s: MeanFieldState) -> DriftDiffusion:
    """Drift and diffusion matrices of the linearized dynamics at state ``s``.

    A equals the Jacobian of the mean-field equations expressed in
    quadratures; B is diagonal with hbar (kappa1 + 4 kappa2 |alpha_l|^2) on
    both quadratures of site l.
    """
    validate_params(p)
    if s.n_sites != p.N:
        raise ValueError("state length does not match params.N")
    A = _coupling_drift(p)
    iq = 2 * np.arange(p.N)
    m, sr, si, b = _site_block_coeffs(p, s.alphas)
    _fill_drift(A, iq, iq + 1, m, sr, si)
    return DriftDiffusion(t=s.t, A=A, B=np.diag(np.repeat(b, 2)))


@dataclass(frozen=True)
class CovarianceTrajectory:
    """Covariance samples along one mean-field segment.

    ``covs`` has shape (T, 2N, 2N).  Every sample passed the physicality
    check: the first and the last by their exact margin, the others by a
    Cholesky certificate where one holds (counted in ``certified``) and by
    their exact margin otherwise.  ``margin_min`` is the minimum over the
    exactly evaluated samples.
    """

    times: np.ndarray
    covs: np.ndarray
    params: NetworkParams
    source: MeanFieldTrajectory = field(repr=False)
    margin_min: float
    certified: int

    def __len__(self) -> int:
        return self.times.shape[0]

    def cov(self, k: int) -> CovarianceMatrix:
        return CovarianceMatrix(t=float(self.times[k]), C=self.covs[k])

    @property
    def final_cov(self) -> CovarianceMatrix:
        return self.cov(len(self) - 1)

    def min_physicality_margin(self) -> float:
        return self.margin_min

    def vacuum_bound_ratio_max(self) -> float:
        """Largest kappa2 |alpha|^2 / kappa1 over the segment's samples; at
        most 1, a covariance from a vacuum start stays >= (hbar/2) I, so
        the Cholesky certificate is expected to hold."""
        a = self.source.alphas
        return float(self.params.kappa2 * np.max(a.real**2 + a.imag**2) / self.params.kappa1)


def _substeps(times: np.ndarray, dt: float) -> list[int]:
    return [_step_count(float(a), float(b), dt) for a, b in zip(times[:-1], times[1:])]


def _check_c0(p: NetworkParams, C0: CovarianceMatrix) -> tuple[np.ndarray, float]:
    """A writable copy of the start covariance and its physicality margin."""
    if C0.n_sites != p.N:
        raise ValueError("C0 size does not match params.N")
    C = np.array(C0.C)
    return C, _checked_margin(C, p.hbar, "initial covariance unphysical")


class _Samples:
    """Covariance samples on a segment's time grid, written into one
    preallocated (T, 2N, 2N) stack and checked for physicality as they are
    added: the last by its exact margin, the ones in between by
    :func:`_certified_margin`."""

    def __init__(self, p: NetworkParams, segment: MeanFieldTrajectory, C0: np.ndarray,
                 margin0: float):
        self.p = p
        self.segment = segment
        self.covs = np.empty((len(segment.times),) + C0.shape)
        self.covs[0] = C0
        self.count = 1
        self.margin_min = margin0
        self.certified = 0

    def add(self, C: np.ndarray) -> None:
        """Record the next sample; raises PhysicalityError if it fails."""
        times = self.segment.times
        k = self.count
        self.covs[k] = C
        what = f"covariance unphysical at t={times[k]:g}"
        if k == len(times) - 1:
            margin = _checked_margin(C, self.p.hbar, what)
        else:
            margin = _certified_margin(C, self.p.hbar, what)
        if margin is None:
            self.certified += 1
        else:
            self.margin_min = min(self.margin_min, margin)
        self.count += 1

    def trajectory(self) -> CovarianceTrajectory:
        return CovarianceTrajectory(
            times=np.array(self.segment.times),
            covs=self.covs,
            params=self.p,
            source=self.segment,
            margin_min=self.margin_min,
            certified=self.certified,
        )


def propagate_covariance(
    p: NetworkParams,
    mf_segment: MeanFieldTrajectory,
    C0: CovarianceMatrix,
    dt: float = 1e-3,
) -> CovarianceTrajectory:
    """RK4 on the Lyapunov equation dC/dt = A C + C A^T + B.

    The mean field is advanced inside the same RK4 state, starting from the
    segment's first sample; C is recorded on the segment's time grid and
    symmetrized after every step.  ``dt`` must divide the segment spacing.

    Raises:
        PhysicalityError: if a recorded covariance violates the uncertainty
            bound beyond tolerance (linearization breakdown or too-large dt).
    """
    validate_params(p)
    C, margin0 = _check_c0(p, C0)
    times = mf_segment.times
    subs = _substeps(times, dt)

    mf_rhs = _rhs_of(p)
    iq = 2 * np.arange(p.N)
    ip = iq + 1
    # A and A C live in buffers reused by every evaluation: _fill_drift
    # rewrites every entry that depends on alpha, so the bits are those of a
    # fresh copy of the coupling drift.  Fresh 2N x 2N temporaries each call
    # let malloc trim the heap and refault them every step at large N.
    A = _coupling_drift(p)
    M = np.empty_like(A)

    def joint_rhs(alpha: np.ndarray, Cm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m, sr, si, b = _site_block_coeffs(p, alpha)
        _fill_drift(A, iq, ip, m, sr, si)
        np.matmul(A, Cm, out=M)
        out = M + M.T
        out.flat[:: 2 * p.N + 1] += np.repeat(b, 2)
        return mf_rhs(alpha), out

    a = np.array(mf_segment.alphas[0])
    samples = _Samples(p, mf_segment, C, margin0)
    for n_sub in subs:
        # an overflowing step is reported by the sample check, not by warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(n_sub):
                a, C = rk4_step(joint_rhs, (a, C), dt)
                # symmetrize in place, same bits as 0.5 * (C + C.T): at large N a
                # fresh array here lets malloc trim the heap and refault it each step
                C += C.T
                C *= 0.5
        samples.add(C)
    return samples.trajectory()


def moments_to_covariance(s: np.ndarray, n: np.ndarray, hbar: float) -> np.ndarray:
    """Quadrature covariance from complex moments s_lm = <a_l a_m>,
    n_lm = <a_l^dagger a_m> (co-moving frame, zero first moments)."""
    N = s.shape[0]
    eye = np.eye(N)
    C = np.empty((2 * N, 2 * N))
    C[0::2, 0::2] = hbar * (s.real + n.real + 0.5 * eye)
    C[1::2, 1::2] = hbar * (-s.real + n.real + 0.5 * eye)
    C[0::2, 1::2] = hbar * (s.imag + n.imag)
    C[1::2, 0::2] = hbar * (s.imag - n.imag)
    return 0.5 * (C + C.T)


def covariance_to_moments(C: np.ndarray, hbar: float) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`moments_to_covariance`."""
    Cqq = C[0::2, 0::2]
    Cpp = C[1::2, 1::2]
    Cqp = C[0::2, 1::2]
    Cpq = C[1::2, 0::2]
    N = Cqq.shape[0]
    n = (Cqq + Cpp) / (2.0 * hbar) - 0.5 * np.eye(N) + 1j * (Cqp - Cpq) / (2.0 * hbar)
    s = (Cqq - Cpp) / (2.0 * hbar) + 1j * (Cqp + Cpq) / (2.0 * hbar)
    return s, n


def moment_oracle(
    p: NetworkParams,
    mf_segment: MeanFieldTrajectory,
    C0: CovarianceMatrix,
    dt: float = 1e-3,
) -> CovarianceTrajectory:
    """Independent route to the covariance via complex second moments.

    Integrates the closed system

        ds/dt = F s + s F^T + G n + (G n)^T + diag(G)
        dn/dt = F* n + n F^T + G* s + s* G + 2 kappa1 I

    with F the complex drift and G_l = -2 kappa2 alpha_l^2 the squeezing
    coefficients, then converts each sample to quadratures.  Shares only
    the mean-field right-hand side and :func:`~chimeraq.core.rk4_step` with
    :func:`propagate_covariance`; the moment equations are independent of
    the Lyapunov route, so agreement between the two validates both.
    """
    validate_params(p)
    C, _ = _check_c0(p, C0)
    times = mf_segment.times
    subs = _substeps(times, dt)

    mf_rhs = _rhs_of(p)
    k1, k2 = p.kappa1, p.kappa2
    cV = p.V / (2.0 * p.d)
    F_stat = (-1j * cV) * coupling_matrix(p).astype(complex)
    eyeN = np.eye(p.N)
    gain = 2.0 * k1 * eyeN

    def moment_rhs(alpha, s, n):
        mag2 = alpha.real**2 + alpha.imag**2
        F = F_stat + np.diag(k1 - 4.0 * k2 * mag2)
        G = -2.0 * k2 * alpha**2
        Gn = G[:, None] * n
        ds = F @ s + s @ F.T + Gn + Gn.T + np.diag(G)
        dn = F.conj() @ n + n @ F.T + G.conj()[:, None] * s + s.conj() * G[None, :] + gain
        return mf_rhs(alpha), ds, dn

    a = np.array(mf_segment.alphas[0])
    s, n = covariance_to_moments(C, p.hbar)
    s = s.astype(complex)
    n = n.astype(complex)
    C = moments_to_covariance(s, n, p.hbar)
    samples = _Samples(p, mf_segment, C, physicality_margin(C, p.hbar))
    for n_sub in subs:
        for _ in range(n_sub):
            a, s, n = rk4_step(moment_rhs, (a, s, n), dt)
            s = 0.5 * (s + s.T)
            n = 0.5 * (n + n.conj().T)
        samples.add(moments_to_covariance(s, n, p.hbar))
    return samples.trajectory()


def propagate_frozen(
    A: np.ndarray, B: np.ndarray, C0: np.ndarray, horizon: float, dt: float
) -> np.ndarray:
    """RK4 for dC/dt = A C + C A^T + B with constant coefficients.

    Validation helper: lets tests drive the Lyapunov stepper with arbitrary
    frozen matrices (the full propagator always rebuilds A, B from the
    mean field).
    """
    n = _step_count(0.0, horizon, dt)
    C = np.array(C0, dtype=float)

    def rhs(Cm):
        M = A @ Cm
        return (M + M.T + B,)

    for _ in range(n):
        (C,) = rk4_step(rhs, (C,), dt)
        C = 0.5 * (C + C.T)
    return C
