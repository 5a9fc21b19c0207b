"""Test references that the program itself does not call.

* :func:`moment_oracle` reaches the covariance through the complex second
  moments, a route independent of the quadrature Lyapunov equation that
  :func:`chimeraq.fluctuations.propagate_covariance` integrates; the two
  share only the mean-field right-hand side and :class:`chimeraq.core.RK4`.
* :func:`propagate_frozen` drives the Lyapunov RK4 with constant,
  arbitrary matrices.
* :func:`drift_diffusion` assembles A and B at one state from the
  program's own drift helpers, so the Jacobian tests test that assembly.
* :func:`oracle_margin` is the physicality margin read off the summed
  matrix ``C + i hbar Omega / 2``.
* :func:`vacuum_bound_ratio` reads the vacuum-bound ratio off a mean-field
  segment, and :func:`shift_covariance` relabels the sites of a covariance
  around the ring.
* :func:`ring_mode_covariance` is the exact covariance about a twisted
  state of the coupled ring (:func:`twisted_state`; the uniform state is
  q = 0), by matrix exponentials of the drift made constant in the frame
  that rotates with each site's phase.
* :func:`neighbors`, :func:`axial_circular_variance` and
  :func:`load_covariance` are a topology query, a circular statistic and a
  reader of ``covariance.csv``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import block_diag, expm

from chimeraq.core import (
    RK4,
    CovarianceMatrix,
    MeanFieldState,
    NetworkParams,
    coupling_matrix,
    neighbor_offsets,
)
from chimeraq.fluctuations import (
    CovarianceTrajectory,
    _check_c0,
    _checked_margin,
    _coupling_drift,
    _fill_drift,
    _site_block_coeffs,
    _site_blocks,
    _substeps,
)
from chimeraq.meanfield import MeanFieldTrajectory, _rhs_of, _step_count


def symplectic_form(n_sites: int) -> np.ndarray:
    """2N x 2N symplectic form, block-diagonal [[0, 1], [-1, 0]] per site."""
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(n_sites), J)


def oracle_margin(C: np.ndarray, hbar: float) -> float:
    """Smallest eigenvalue of the sum C + i hbar Omega / 2."""
    return float(np.linalg.eigvalsh(C + 0.5j * hbar * symplectic_form(C.shape[0] // 2)).min())


@dataclass(frozen=True)
class DriftDiffusion:
    """Drift A and diffusion B of the covariance equation at one instant."""

    t: float
    A: np.ndarray
    B: np.ndarray


def drift_diffusion(p: NetworkParams, s: MeanFieldState) -> DriftDiffusion:
    """Drift and diffusion matrices of the linearized dynamics at state ``s``.

    A equals the Jacobian of the mean-field equations expressed in
    quadratures; B is diagonal with hbar (kappa1 + 4 kappa2 |alpha_l|^2) on
    both quadratures of site l.
    """
    if s.n_sites != p.N:
        raise ValueError("state length does not match params.N")
    A = _coupling_drift(p)
    a = s.alphas
    m, sr, si, b = _site_block_coeffs(p, a, a.real**2 + a.imag**2)
    _fill_drift(_site_blocks(A), m, sr, si)
    return DriftDiffusion(t=s.t, A=A, B=np.diag(np.repeat(b, 2)))


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
    coefficients, then converts each sample on the segment's grid to
    quadratures.  The start is checked once, as ``propagate_covariance``
    checks it, and every later sample by its exact margin: ``margin_min``
    is over all of them and ``certified`` is 0.  Only the first and the
    last sample are returned.  ``vacuum_bound_ratio_max`` is read off the
    segment's own samples.
    """
    # the start is symmetrized as _check_c0 does, and only its round trip
    # through the moments is checked: the round trip is exactly symmetric,
    # so _check_c0 keeps its bits, and a vacuum start stays the vacuum
    with np.errstate(invalid="ignore"):  # a non-finite start fails the check
        s, n = covariance_to_moments(0.5 * (C0.C + C0.C.T), p.hbar)
        C = moments_to_covariance(s, n, p.hbar)
    first, margin_min = _check_c0(p, CovarianceMatrix(C0.t, C))
    times = mf_segment.times
    subs = _substeps(times, dt)

    mf_rhs = _rhs_of(p)
    k1, k2 = 1.0, p.kappa2
    cV = p.V / (2.0 * p.d)
    F_stat = (-1j * cV) * coupling_matrix(p).astype(complex)
    gain = 2.0 * k1 * np.eye(p.N)

    def moment_rhs(y, out):
        alpha, s, n = y
        mag2 = alpha.real**2 + alpha.imag**2
        F = F_stat + np.diag(k1 - 4.0 * k2 * mag2)
        G = -2.0 * k2 * alpha**2
        Gn = G[:, None] * n
        mf_rhs(alpha, out[0], mag2)
        out[1][...] = F @ s + s @ F.T + Gn + Gn.T + np.diag(G)
        out[2][...] = F.conj() @ n + n @ F.T + G.conj()[:, None] * s + s.conj() * G[None, :] + gain

    y = (np.array(mf_segment.alphas[0]), s, n)
    stepper = RK4(moment_rhs, y)
    C = first
    for t, n_sub in zip(times[1:], subs):
        for _ in range(n_sub):
            stepper.step(y, dt)
            s[...] = 0.5 * (s + s.T)
            n[...] = 0.5 * (n + n.conj().T)
        C = moments_to_covariance(s, n, p.hbar)
        margin = _checked_margin(C, p.hbar, f"covariance unphysical at t={t:g}")
        margin_min = min(margin_min, margin)
    return CovarianceTrajectory(
        times=times[[0, -1]],
        covs=np.array([first, C]),
        margin_min=margin_min,
        certified=0,
        vacuum_bound_ratio_max=vacuum_bound_ratio(p, mf_segment),
    )


def vacuum_bound_ratio(p: NetworkParams, seg: MeanFieldTrajectory) -> float:
    """Largest kappa2 |alpha|^2 / kappa1 over the samples of a mean-field
    segment, as ``propagate_covariance`` reports it over its checked samples."""
    a = seg.alphas
    return float(p.kappa2 * np.max(a.real**2 + a.imag**2))


def _symmetric_sum(M: np.ndarray, out: np.ndarray) -> None:
    """``out = M + M^T``.  Added as M^T + M into a copy of M^T: the same bits
    (IEEE addition commutes), but ``np.add(M, M.T, out)`` copies M^T first."""
    np.copyto(out, M.T)
    out += M


def propagate_frozen(
    A: np.ndarray, B: np.ndarray, C0: np.ndarray, horizon: float, dt: float
) -> np.ndarray:
    """RK4 for dC/dt = A C + C A^T + B with constant coefficients, so tests
    can drive the Lyapunov step with arbitrary frozen matrices (the full
    propagator always rebuilds A and B from the mean field)."""
    n = _step_count(0.0, horizon, dt)
    C = np.array(C0, dtype=float)
    M = np.empty_like(C)

    def rhs(y, out):
        (Cm,), (dC,) = y, out
        np.matmul(A, Cm, out=M)
        _symmetric_sum(M, dC)
        dC += B

    stepper = RK4(rhs, (C,))
    for _ in range(n):
        stepper.step((C,), dt)
        C[...] = 0.5 * (C + C.T)
    return C


def twisted_state(p: NetworkParams, q: int = 0) -> MeanFieldState:
    """The q-twisted state ``r0 exp(2 pi i q l / N)`` at t = 0, l = 0..N-1
    the array index and r0 the limit-cycle radius; q = 0 is the uniform
    state.  It solves the mean field exactly: every site keeps ``|alpha| =
    r0`` and rotates at ``-omega_q`` (:func:`_twist_frequency`)."""
    return MeanFieldState(0.0, p.limit_cycle_radius * np.exp(1j * _twist_phases(p, q)))


def _twist_phases(p: NetworkParams, q: int) -> np.ndarray:
    return 2.0 * np.pi * q * np.arange(p.N) / p.N


def _twist_frequency(p: NetworkParams, q: int) -> float:
    """omega_q = (V / 2d) sum_o cos(2 pi q o / N) over the distinct offsets
    of the coupling window (V for q = 0, unless the window is all-to-all)."""
    offsets = np.array(neighbor_offsets(p))
    return float(p.V / (2.0 * p.d) * np.cos(2.0 * np.pi * q * offsets / p.N).sum())


def _van_loan(A: np.ndarray, C0: np.ndarray, Q: np.ndarray, t: float) -> np.ndarray:
    """C(t) of dC/dt = A C + C A^T + Q with constant A and Q, from C(0) = C0:
    ``e^{At} C0 e^{A^T t} + int_0^t e^{As} Q e^{A^T s} ds``, the integral from
    one exponential of [[-A, Q], [0, A^T]] t (Van Loan, IEEE Trans. Autom.
    Control 23, 395 (1978))."""
    n = A.shape[0]
    F = expm(np.block([[-A, Q], [np.zeros((n, n)), A.T]]) * t)
    E = F[n:, n:].T  # e^{At}
    C = E @ C0 @ E.T + E @ F[:n, n:]
    return 0.5 * (C + C.T)


def ring_mode_covariance(p: NetworkParams, t: float, q: int = 0) -> np.ndarray:
    """The exact 2N x 2N covariance at time ``t`` from the vacuum at t = 0,
    about the q-twisted state of :func:`twisted_state`.

    Turn site l's quadratures by its phase phi_l(t) = 2 pi q l / N - omega_q t.
    In that frame each site's drift block is diag(-2 kappa1, 0) - omega_q J,
    J = [[0, 1], [-1, 0]], the block coupling site l to a site m of its
    window is (V / 2d) J R(phi_m - phi_l), R a rotation, and the diffusion
    is hbar (kappa1 + 4 kappa2 r0^2) I = 3 hbar I: all constant in time.

    For q = 0 the coupling is (V / 2d) K (x) J, and the eigenvectors of the
    symmetric K split the drift into one 2x2 block
    diag(-2, 0) + (V mu_k / 2d - omega_0) J per Bloch mode, mu_k an
    eigenvalue of K: one 4x4 Van Loan exponential per mode.  For q != 0 the
    whole 2N x 2N drift takes one exponential.
    """
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    omega, phases = _twist_frequency(p, q), _twist_phases(p, q)
    site = np.diag([-2.0, 0.0]) - omega * J
    c = p.V / (2.0 * p.d)
    vacuum, diffusion = 0.5 * p.hbar, 3.0 * p.hbar
    if q == 0:
        mu, U = np.linalg.eigh(coupling_matrix(p))
        eye = np.eye(2)
        modes = block_diag(*(_van_loan(site + c * m * J, vacuum * eye, diffusion * eye, t)
                             for m in mu))
        W = np.kron(U, eye)
        C = W @ modes @ W.T
    else:
        gap = phases[None, :] - phases[:, None]  # phi_m - phi_l
        K = c * coupling_matrix(p)
        A = np.kron(np.eye(p.N), site)
        A[0::2, 0::2] += K * np.sin(gap)  # (V / 2d) J R(gap), entry by entry
        A[0::2, 1::2] += K * np.cos(gap)
        A[1::2, 0::2] -= K * np.cos(gap)
        A[1::2, 1::2] += K * np.sin(gap)
        eye = np.eye(2 * p.N)
        C = _van_loan(A, vacuum * eye, diffusion * eye, t)
    # back to the sites' own quadratures, each turned by its phase
    R = block_diag(*([[np.cos(f), -np.sin(f)], [np.sin(f), np.cos(f)]]
                     for f in phases - omega * t))
    C = R @ C @ R.T
    return 0.5 * (C + C.T)


def shift_covariance(cov: CovarianceMatrix, k: int) -> CovarianceMatrix:
    """Covariance after relabeling sites l -> l + k around the ring; the
    scan of a shifted covariance puts Alice's first site at 1 - k."""
    n = cov.n_sites
    old_site = (np.arange(n) - k) % n
    idx = np.empty(2 * n, dtype=int)
    idx[0::2] = 2 * old_site
    idx[1::2] = 2 * old_site + 1
    return CovarianceMatrix(t=cov.t, C=cov.C[np.ix_(idx, idx)])


def neighbors(p: NetworkParams, l: int) -> tuple[int, ...]:
    """1-based sites coupled to site ``l``, in window order l-d..l+d.

    Exactly 2d sites, or N-1 after de-duplication in the all-to-all case.
    """
    site0 = (int(l) - 1) % p.N
    return tuple((site0 + r) % p.N + 1 for r in neighbor_offsets(p))


def axial_circular_variance(angles: np.ndarray) -> float:
    """Circular variance 1 - |<e^{2 i theta}>| for axial (period-pi) data."""
    a = np.asarray(angles, dtype=float)
    return float(1.0 - np.abs(np.exp(2j * a).mean()))


def load_covariance(path: Path, t: float = 0.0) -> CovarianceMatrix:
    """Read a lower-triangle ``covariance.csv`` back into the full matrix."""
    rows = Path(path).read_text().strip().split("\n")[1:]
    entries = []
    for line in rows:
        si, qi, sj, qj, value = line.split(",")
        i = 2 * (int(si) - 1) + (0 if qi == "q" else 1)
        j = 2 * (int(sj) - 1) + (0 if qj == "q" else 1)
        entries.append((i, j, float(value)))
    n2 = max(i for i, _, _ in entries) + 1
    C = np.zeros((n2, n2))
    for i, j, value in entries:
        C[i, j] = value
        C[j, i] = value
    return CovarianceMatrix(t=t, C=C)
