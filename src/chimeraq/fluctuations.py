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

:func:`propagate_covariance` advances that equation jointly with the mean
field in a single RK4 state (:class:`~chimeraq.core.RK4`), so stage values
of alpha are exact rather than interpolated.  The tests cross-validate it
against an integration of the complex second moments <a_l a_m> and
<a_l^dagger a_m> (``moment_oracle`` in ``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CovarianceMatrix,
    NetworkParams,
    PhysicalityError,
    RK4,
    SingularMatrixError,
    cholesky_diagonal,
    coupling_matrix,
)
from .meanfield import MeanFieldTrajectory, _rhs_of, _step_count

#: physicality violations larger than this (in units of hbar) are errors,
#: smaller ones are treated as roundoff
PHYSICALITY_TOL = 1e-9

#: fluctuation horizons beyond this many 1/kappa1 are outside the validated
#: short-time regime and get flagged in run metadata
VALIDATED_HORIZON = 0.5


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
    H = np.empty(C.shape, dtype=complex)  # one array, no temporaries
    H.real = C
    H.imag = 0.0
    _, _, qp, pq = _site_blocks(H)
    qp.imag = 0.5 * hbar
    pq.imag = -0.5 * hbar
    return float(np.linalg.eigvalsh(H).min())


def _site_blocks(X: np.ndarray) -> tuple[np.ndarray, ...]:
    """Strided views of the (q, q), (p, p), (q, p) and (p, q) entries of the N
    2x2 diagonal site blocks of a C-contiguous 2N x 2N matrix, one entry per
    site: (2j, 2j), (2j+1, 2j+1), (2j, 2j+1) and (2j+1, 2j)."""
    if not X.flags.c_contiguous:
        raise ValueError("site blocks need a C-contiguous matrix")
    n = X.shape[0]
    flat = X.reshape(-1)
    step = 2 * n + 2
    return flat[::step], flat[n + 1 :: step], flat[1::step], flat[n::step]


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
    """Whether M has a Cholesky factor with a finite, positive diagonal
    (:func:`~chimeraq.core.cholesky_diagonal`)."""
    try:
        cholesky_diagonal(M)
    except SingularMatrixError:
        return False
    return True


def _block_dominant(C: np.ndarray, shift: float, work: np.ndarray) -> bool:
    """Whether block diagonal dominance proves ``D = C - shift I`` positive
    definite, for a symmetric 2N x 2N ``C``; the squares of C go into
    ``work``, a C-contiguous 2N x 2N float array.

    Over the 2x2 site blocks D_ij, every eigenvalue of D lies in some site's
    set {lambda : min |mu(D_ii) - lambda| <= sum_{j != i} ||D_ij||}
    (Feingold & Varga, Pacific J. Math. 12, 1241 (1962)).  So D > 0 when
    each site's block [[a, c], [c, b]] has a smallest eigenvalue, from the
    closed form for a symmetric 2x2 matrix, above the sum of the Frobenius
    norms (each at least the spectral norm) of its off-diagonal blocks,
    which are those of C.  The difference must clear a rounding slack of
    (2N + 16) eps times the largest |a| + |b| + |c| + that sum over the
    sites.  That is at least four times the first-order rounding error of
    the closed form (below 2 eps (|a| + |b| + |c|)) and of the sums (below
    (N + 2) eps / 2 times the sum), and above the eigensolver's backward
    error, since ||D|| is at most the largest value.  A non-finite C never
    passes.
    """
    n = C.shape[0]
    N = n // 2
    # overflow and inf - inf only make NaN or inf, which never pass
    with np.errstate(over="ignore", invalid="ignore"):
        # the squares of C's even rows go into the top half of work and of
        # its odd rows into the bottom half; their sum, then the sums of its
        # column pairs, are the squared block norms.  Each step reads and
        # writes contiguous or disjoint memory, so no ufunc makes a buffer
        # or a copy of an operand that might overlap its output.
        top, bottom = work[:N], work[N:]
        for half, rows in ((top, C[0::2]), (bottom, C[1::2])):
            np.copyto(half, rows)
            np.square(half, out=half)
        top += bottom
        pairs = top.reshape(N, N, 2)
        norms = bottom.reshape(-1)[: N * N].reshape(N, N)
        np.add(pairs[..., 0], pairs[..., 1], out=norms)
        np.sqrt(norms, out=norms)
        np.fill_diagonal(norms, 0.0)
        radius = norms.sum(axis=1)
        diag = np.diagonal(C)
        a = diag[0::2] - shift
        b = diag[1::2] - shift
        c = np.diagonal(C, 1)[0::2]
        lam_min = 0.5 * (a + b) - np.hypot(0.5 * (a - b), c)
        scale = np.max(np.abs(a) + np.abs(b) + np.abs(c) + radius)
        slack = (n + 16) * np.finfo(float).eps * scale
        return bool(np.all(lam_min - radius > slack))


def _certified_margin(C: np.ndarray, hbar: float, floor: float, what: str,
                      work: np.ndarray) -> float | None:
    """None when a certificate proves that the physicality margin of ``C``
    (a symmetric 2N x 2N matrix) is above ``floor``, the smallest margin so
    far, else the exact margin.  Both certificates read scratch from
    ``work``, a 2N x 2N float array.

    Both prove D = C - (hbar/2 + floor + tol) I positive definite, tol =
    PHYSICALITY_TOL hbar: as (hbar/2)(I + i Omega) >= 0, the margin is then
    above floor + tol, clear of the eigensolver's rounding, so a certified C
    is physical and leaves the smallest margin as it is.  Three tiers run in
    order of cost, each only when the one before fails:

    1. :func:`_block_dominant`, in O(N^2): about 0.5 ms at N=200.  It
       holds while the inter-site blocks of C stay small next to
       C - (hbar/2) I, as early in a segment from a vacuum start.
    2. A Cholesky factorization of D, in O(N^3): about 4 ms at N=200.  It
       holds after a vacuum start while kappa2 |alpha|^2 <= kappa1 (see the
       README); its backward error, about 2N eps ||C||, is far below tol.
    3. The exact margin, from the complex eigensolver: about 50 ms at
       N=200.

    A non-finite C passes neither certificate; the exact tier raises on it.

    Raises:
        PhysicalityError: if C is non-finite or its margin is below
            -PHYSICALITY_TOL hbar.
    """
    n = C.shape[0]
    shift = 0.5 * hbar + floor + PHYSICALITY_TOL * hbar
    if _block_dominant(C, shift, work):
        return None
    np.copyto(work, C)
    work.reshape(-1)[:: n + 1] -= shift
    if _factorizes(work):
        return None
    return _checked_margin(C, hbar, what)


def vacuum_covariance(p: NetworkParams, t: float = 0.0) -> CovarianceMatrix:
    """Covariance (hbar/2) I of a tensor product of coherent states."""
    return CovarianceMatrix(t=t, C=0.5 * p.hbar * np.eye(2 * p.N))


def _site_block_coeffs(p: NetworkParams, alphas: np.ndarray, mag2: np.ndarray):
    """Per-site drift coefficients (m, sr, si) and diffusion diagonal;
    ``mag2`` is ``alphas.real**2 + alphas.imag**2``."""
    rate = 4.0 * p.kappa2 * mag2
    m = 1.0 - rate
    a2 = alphas**2
    sr = -2.0 * p.kappa2 * a2.real
    si = -2.0 * p.kappa2 * a2.imag
    b = p.hbar * (1.0 + rate)
    return m, sr, si, b


def _coupling_drift(p: NetworkParams) -> np.ndarray:
    """Static coupling part of A: (V/2d) [[0, 1], [-1, 0]] per neighbor pair."""
    c = p.V / (2.0 * p.d)
    return np.kron(coupling_matrix(p), np.array([[0.0, c], [-c, 0.0]]))


def _fill_drift(blocks: tuple[np.ndarray, ...], m, sr, si) -> None:
    """Write the site blocks [[m + sr, si], [si, m - sr]] of A through the
    views ``blocks = _site_blocks(A)``."""
    qq, pp, qp, pq = blocks
    np.add(m, sr, out=qq)
    np.subtract(m, sr, out=pp)
    qp[...] = si
    pq[...] = si


@dataclass(frozen=True)
class CovarianceTrajectory:
    """The first and the last covariance sample of one mean-field segment.

    ``covs`` has shape (2, 2N, 2N) and holds them at ``times``, the
    segment's first and last grid times: the symmetrized start and the
    last sample, stacked once the last check has passed.  Every sample on
    the grid passed the physicality check: the start by its exact margin,
    every later one, the last included, by a certificate where one holds
    (see :func:`_certified_margin`; counted in ``certified``) and by its
    exact margin otherwise.  A certificate proves a sample's margin above
    the smallest one before it, so ``margin_min`` is the minimum over every
    sample on the grid.  ``vacuum_bound_ratio_max`` is the largest
    kappa2 |alpha|^2 / kappa1 over the samples; at most 1, a covariance
    from a vacuum start stays >= (hbar/2) I, so the Cholesky certificate is
    expected to hold.
    """

    times: np.ndarray
    covs: np.ndarray
    margin_min: float
    certified: int
    vacuum_bound_ratio_max: float

    @property
    def final_cov(self) -> CovarianceMatrix:
        return CovarianceMatrix(t=float(self.times[-1]), C=self.covs[-1])


def _substeps(times: np.ndarray, dt: float) -> list[int]:
    return [_step_count(float(a), float(b), dt) for a, b in zip(times[:-1], times[1:])]


def _check_c0(p: NetworkParams, C0: CovarianceMatrix) -> tuple[np.ndarray, float]:
    """A writable, symmetrized copy of the start covariance and its
    physicality margin."""
    if C0.n_sites != p.N:
        raise ValueError("C0 size does not match params.N")
    C = 0.5 * (C0.C + C0.C.T)
    if np.count_nonzero(C) == C.shape[0] and np.all(np.diagonal(C) == 0.5 * p.hbar):
        return C, 0.0  # the vacuum (hbar/2) I: the eigensolver gives exactly 0.0
    return C, _checked_margin(C, p.hbar, "initial covariance unphysical")


def propagate_covariance(
    p: NetworkParams,
    mf_segment: MeanFieldTrajectory,
    C0: CovarianceMatrix,
    dt: float = 1e-3,
    observe=None,
) -> CovarianceTrajectory:
    """RK4 on the Lyapunov equation dC/dt = A C + C A^T + B.

    The mean field is advanced inside the same RK4 state, starting from the
    segment's first sample; C is checked on the segment's time grid.  The
    start is symmetrized once: from there every step is exactly symmetric,
    since each stage derivative ``M + M^T + diag(b)`` is (IEEE addition
    commutes) and the RK4 combinations are elementwise.  ``dt`` must divide
    the segment spacing.  Every sample after the start goes through
    :func:`_certified_margin`, its floor the smallest margin before it.
    The result keeps the first and the last sample, so it holds two
    matrices however fine the grid.  While stepping, six 2N x 2N buffers
    are live: C, A and the stepper's four of C; the result is allocated
    after the last check.  ``observe(t, C)``, when given, is called with the
    start and with each later sample once it has passed its check; ``C`` is
    a read-only view, valid only during the call, so an observer that keeps
    a sample copies it.

    Raises:
        ValueError: if ``C0`` is not of N sites at the segment's first time.
        PhysicalityError: if a covariance on the grid violates the
            uncertainty bound beyond tolerance (linearization breakdown or
            too-large dt).
    """
    times = mf_segment.times
    if abs(C0.t - times[0]) > 1e-12:
        raise ValueError(f"C0 is at t={C0.t}, the segment starts at t={times[0]}")
    C, margin_min = _check_c0(p, C0)
    subs = _substeps(times, dt)

    mf_rhs = _rhs_of(p)
    # A lives in one buffer reused by every evaluation: _fill_drift rewrites
    # every entry that depends on alpha, so the bits are those of a fresh
    # copy of the coupling drift.  A C and its transpose go into the slope
    # and the stage input of C.  Fresh 2N x 2N temporaries each call let
    # malloc trim the heap and refault them every step at large N.
    A = _coupling_drift(p)
    blocks = _site_blocks(A)

    def joint_rhs(y: tuple, out: tuple) -> None:
        alpha, Cm = y
        # one |alpha|^2 per stage feeds both the drift and the mean-field slope
        mag2 = alpha.real**2 + alpha.imag**2
        m, sr, si, b = _site_block_coeffs(p, alpha, mag2)
        _fill_drift(blocks, m, sr, si)
        dC = out[1]
        np.matmul(A, Cm, out=dC)
        np.copyto(work, dC.T)
        dC += work
        qq, pp, _, _ = _site_blocks(dC)
        qq += b
        pp += b
        mf_rhs(alpha, out[0], mag2)

    def show(k: int, sample: np.ndarray) -> None:
        if observe is not None:
            view = sample.view()
            view.flags.writeable = False
            observe(float(times[k]), view)

    show(0, C)
    certified = 0
    alpha = np.array(mf_segment.alphas[0])
    peak = np.max(alpha.real**2 + alpha.imag**2)  # largest |alpha|^2 at a sample
    y = (alpha, C)
    stepper = RK4(joint_rhs, y)
    # the stage input of C is free scratch between steps, for the
    # certificate, and inside a stage once f has read it, for A C transposed
    work = stepper.work[1][0]
    for k, n_sub in enumerate(subs, start=1):
        # an overflowing step is reported by the sample check, not by warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(n_sub):
                stepper.step(y, dt)
            peak = max(peak, np.max(alpha.real**2 + alpha.imag**2))
        if k == len(subs):
            # the stepper's buffers and A go before the last check, for a fresh
            # scratch: the eigensolver's copies would reuse their memory
            stepper = work = A = blocks = None
            work = np.empty_like(C)
        what = f"covariance unphysical at t={times[k]:g}"
        margin = _certified_margin(C, p.hbar, margin_min, what, work)
        if margin is None:
            certified += 1
        else:
            margin_min = min(margin_min, margin)
        show(k, C)
    # C stepped in place of the start, so the start is symmetrized again
    covs = np.stack([0.5 * (C0.C + C0.C.T), C])
    return CovarianceTrajectory(
        times=times[[0, -1]],
        covs=covs,
        margin_min=margin_min,
        certified=certified,
        vacuum_bound_ratio_max=float(p.kappa2 * peak),
    )
