"""Acceptance gate: every numbered criterion prints one PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as the
suite executes.  Heavy trajectories are shared through session fixtures, so
the whole gate costs a few minutes.
"""

import sys

import numpy as np
import pytest
from scipy.linalg import expm

from chimeraq import (
    CHIMERA,
    InitialConditionSpec,
    MeanFieldState,
    NetworkParams,
    Partition,
    classify,
    drift_diffusion,
    initial_conditions,
    integrate,
    integrate_many,
    mi_scan,
    moment_oracle,
    mutual_information,
    propagate_covariance,
    renyi2_entropy,
    squeezing,
    vacuum_covariance,
    weighted_correlation,
)
from chimeraq.analysis import axial_circular_variance, shift_covariance
from chimeraq.fluctuations import physicality_margin
from chimeraq.meanfield import largest_block

R0 = 1.5811388300841898  # sqrt(1 / 0.4)
PAPER = NetworkParams(N=50, d=10, V=1.2, kappa2=0.2)
SYNC_P = NetworkParams(N=50, d=10, V=1.6, kappa2=0.2)
DESYNC_P = NetworkParams(N=50, d=10, V=0.8, kappa2=0.2)
SEEDS = list(range(10))
MI_SEEDS = SEEDS[:5]
T_CHIMERA = 3000.5
T_SYNC = 100.5  # the reference time 25.5 is seed-dependent; regimes are the target
T_DESYNC = 8000.5
DT_MF = 1e-2
DT_COV = 1e-3
DELTA_T = 0.5
MI_L = 20

#: physicality margins of every covariance trajectory the gate produces
MARGINS: list[tuple[str, float]] = []


def report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({detail})", file=sys.stderr, flush=True)


def two_phase(p: NetworkParams, states, t_end: float):
    """Sparse transient plus a finely sampled trailing window of 10.5."""
    t_mid = round((t_end - 10.5) / DT_MF) * DT_MF
    if t_mid > 0:
        trans = integrate_many(p, states, t_mid, dt=DT_MF, sample_every=2000)
        states = [t.final_state for t in trans]
    return integrate_many(p, states, t_end, dt=DT_MF, sample_every=10)


def propagate(p: NetworkParams, snapshot: MeanFieldState, tag: str):
    seg = integrate(p, snapshot, snapshot.t + DELTA_T, dt=DT_COV, sample_every=10)
    ct = propagate_covariance(p, seg, vacuum_covariance(p, t=snapshot.t), dt=DT_COV)
    MARGINS.append((tag, ct.min_physicality_margin()))
    return ct


@pytest.fixture(scope="session")
def chimera_runs():
    states = [initial_conditions(PAPER, InitialConditionSpec(seed=s)) for s in SEEDS]
    return two_phase(PAPER, states, T_CHIMERA)


@pytest.fixture(scope="session")
def chimera_labels(chimera_runs):
    return [classify(t) for t in chimera_runs]


@pytest.fixture(scope="session")
def canonical_chimera(chimera_runs, chimera_labels):
    qualifying = [
        (traj, label)
        for traj, label in zip(chimera_runs, chimera_labels)
        if label.regime == CHIMERA and 10 <= label.coherent_width <= 40
    ]
    if not qualifying:
        pytest.fail("no seed produced a chimera with an in-range coherent block")
    return max(qualifying, key=lambda pair: pair[1].coherent_width)


@pytest.fixture(scope="session")
def chimera_cov(canonical_chimera):
    traj, _ = canonical_chimera
    return propagate(PAPER, traj.final_state, "chimera-canonical")


@pytest.fixture(scope="session")
def mi_by_state(chimera_runs):
    """Median-ready I2(L=20) per state over the first five seeds."""
    values = {"chimera": [], "synchronized": [], "desynchronized": []}
    part = Partition(MI_L)
    for traj in chimera_runs[: len(MI_SEEDS)]:
        ct = propagate(PAPER, traj.final_state, "chimera-mi")
        values["chimera"].append(mutual_information(PAPER, ct.final_cov, part))
    for name, p, t_end in (
        ("synchronized", SYNC_P, T_SYNC),
        ("desynchronized", DESYNC_P, T_DESYNC),
    ):
        states = [initial_conditions(p, InitialConditionSpec(seed=s)) for s in MI_SEEDS]
        for traj in two_phase(p, states, t_end):
            ct = propagate(p, traj.final_state, f"{name}-mi")
            values[name].append(mutual_information(p, ct.final_cov, part))
    return values


def test_c01_limit_cycle():
    p = NetworkParams(N=3, d=1, V=0.0, kappa2=0.2)
    s0 = MeanFieldState(0.0, np.full(3, 0.5, dtype=complex))
    traj = integrate(p, s0, 50.0, dt=DT_MF, sample_every=5000)
    err = np.abs(np.abs(traj.alphas[-1]) - R0).max()
    report(1, "limit-cycle radius", err < 1e-6, f"| |a|-r0 | = {err:.2e}")
    assert err < 1e-6


def test_c02_uniform_closed_form():
    s0 = MeanFieldState(0.0, np.full(PAPER.N, R0, dtype=complex))
    traj = integrate(PAPER, s0, 10.0, dt=1e-3, sample_every=100)
    expected = R0 * np.exp(-1j * PAPER.V * traj.times)[:, None]
    rel = (np.abs(traj.alphas - expected) / R0).max()
    report(2, "uniform closed form", rel < 1e-8, f"max rel err = {rel:.2e}")
    assert rel < 1e-8


@pytest.mark.slow
def test_c03_classical_chimera(chimera_labels):
    hits = sum(
        lab.regime == CHIMERA and 10 <= lab.coherent_width <= 40
        for lab in chimera_labels
    )
    detail = ", ".join(f"{lab.regime[:5]}/{lab.coherent_width}" for lab in chimera_labels)
    ok = hits >= 6
    report(3, "classical chimera", ok, f"{hits}/10 in-range chimeras: {detail}")
    assert ok


def test_c04_initial_quantum_state():
    cov = vacuum_covariance(PAPER)
    diag_ok = np.array_equal(cov.C, 0.5 * np.eye(100))
    psi = np.abs(weighted_correlation(PAPER, cov)).max()
    mi_max = max(abs(v) for v in mi_scan(PAPER, cov).values())
    ok = diag_ok and psi <= 1e-12 and mi_max <= 1e-12
    report(4, "initial quantum state", ok, f"diag exact, |Psi|={psi:.1e}, |I2|={mi_max:.1e}")
    assert ok


@pytest.mark.slow
def test_c05_oracle_equivalence(canonical_chimera):
    # all-to-all smallest ring
    p3 = NetworkParams(N=3, d=2, V=0.9, kappa2=0.2)
    rng = np.random.default_rng(0)
    s0 = MeanFieldState(0.0, R0 * np.exp(1j * rng.uniform(-np.pi, np.pi, 3)))
    seg3 = integrate(p3, s0, DELTA_T, dt=DT_COV, sample_every=10)
    a = propagate_covariance(p3, seg3, vacuum_covariance(p3), dt=DT_COV)
    b = moment_oracle(p3, seg3, vacuum_covariance(p3), dt=DT_COV)
    MARGINS.append(("oracle-n3", a.min_physicality_margin()))
    rel3 = np.linalg.norm(a.covs[-1] - b.covs[-1]) / np.linalg.norm(a.covs[-1])

    # chimera segment at full size
    traj, _ = canonical_chimera
    snap = traj.final_state
    seg50 = integrate(PAPER, snap, snap.t + DELTA_T, dt=DT_COV, sample_every=10)
    c = propagate_covariance(PAPER, seg50, vacuum_covariance(PAPER, t=snap.t), dt=DT_COV)
    d = moment_oracle(PAPER, seg50, vacuum_covariance(PAPER, t=snap.t), dt=DT_COV)
    MARGINS.append(("oracle-n50", c.min_physicality_margin()))
    rel50 = np.linalg.norm(c.covs[-1] - d.covs[-1]) / np.linalg.norm(c.covs[-1])

    # frozen coefficients at the exact fixed point alpha = 0
    pf = NetworkParams(N=3, d=1, V=0.7, kappa2=0.2)
    zero = MeanFieldState(0.0, np.zeros(3, dtype=complex))
    segf = integrate(pf, zero, 0.3, dt=DT_COV, sample_every=10)
    ct = propagate_covariance(pf, segf, vacuum_covariance(pf), dt=DT_COV)
    MARGINS.append(("oracle-frozen", ct.min_physicality_margin()))
    dd = drift_diffusion(pf, zero)
    t = 0.3
    n_nodes = 3000
    h = t / n_nodes
    E_h = expm(dd.A * h)
    weights = np.ones(n_nodes + 1)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    acc = np.zeros_like(dd.B)
    E = np.eye(6)
    for k in range(n_nodes + 1):
        acc += weights[k] * (E @ dd.B @ E.T)
        if k < n_nodes:
            E = E_h @ E
    Et = expm(dd.A * t)
    closed = Et @ (0.5 * np.eye(6)) @ Et.T + acc * h / 3.0
    relf = np.abs(ct.covs[-1] - closed).max() / np.abs(closed).max()

    ok = rel3 <= 1e-8 and rel50 <= 1e-8 and relf <= 1e-8
    report(5, "oracle equivalence", ok,
           f"N=3 {rel3:.1e}, N=50 {rel50:.1e}, frozen-vs-expm {relf:.1e}")
    assert ok


@pytest.mark.slow
def test_c06_physicality(chimera_cov, mi_by_state):
    worst = min(m for _, m in MARGINS)
    ok = worst >= -1e-9
    report(6, "physicality", ok, f"min margin over {len(MARGINS)} runs = {worst:.2e}")
    assert ok


@pytest.mark.slow
def test_c07_squeezing_emergence(canonical_chimera, chimera_cov):
    # Squeezing here is the anisotropy and orientation of the per-site
    # ellipses, not sub-vacuum variance, which the model cannot produce on
    # this segment.  With D = C - (hbar/2) I the Lyapunov equation reads
    # dD/dt = A D + D A^T + Q, Q = B + (hbar/2)(A + A^T).  The coupling part
    # of A is antisymmetric and drops out of Q; on site l
    # Q_l = hbar [2 kappa1 I + [[sr, si], [si, -sr]]], with eigenvalues
    # hbar (2 kappa1 +- 2 kappa2 |alpha_l|^2).  So while
    # kappa2 |alpha_l(t)|^2 <= kappa1 everywhere, Q >= 0, and D(0) = 0 gives
    # C(t) >= (hbar/2) I: no quadrature of any mode, hence no site's
    # lambda_min, goes below hbar/2.  The bound is asserted below.
    _, label = canonical_chimera
    cov = chimera_cov.final_cov
    hbar = PAPER.hbar
    ellipses = squeezing(PAPER, cov)
    lam_min = np.array([e.lambda_min for e in ellipses])
    lam_max = np.array([e.lambda_max for e in ellipses])
    frac = float((lam_min < 0.5 * hbar).mean())
    thetas = np.array([e.theta for e in ellipses])
    cv_sync = axial_circular_variance(thetas[label.mask])
    cv_desync = axial_circular_variance(thetas[~label.mask])
    angles_ok = cv_sync < cv_desync

    # anisotropy threshold: halfway between the isotropic vacuum (ratio 1)
    # and the closed-form ratio of an uncoupled limit-cycle site at DELTA_T,
    # lambda_max / lambda_min = (1/2 + 3 kappa1 t) / (3/4 - exp(-4 kappa1 t)/4)
    k1t = PAPER.kappa1 * DELTA_T
    r_lc = (0.5 + 3.0 * k1t) / (0.75 - 0.25 * np.exp(-4.0 * k1t))
    r_star = 1.0 + 0.5 * (r_lc - 1.0)
    aniso_frac = float((lam_max / lam_min >= r_star).mean())
    aniso_ok = aniso_frac >= 0.8

    load = float((PAPER.kappa2 * np.abs(chimera_cov.source.alphas) ** 2).max() / PAPER.kappa1)
    load_ok = load <= 1.0
    bound_ok = bool(lam_min.min() >= 0.5 * hbar - 1e-9 * hbar)
    report(
        7, "squeezing emergence", angles_ok and aniso_ok and load_ok and bound_ok,
        f"anisotropic fraction {aniso_frac:.2f} (ratio >= R* = {r_star:.2f}, need >= 0.80); "
        f"angle variance sync {cv_sync:.3f} < desync {cv_desync:.3f}: {angles_ok}; "
        f"max kappa2|a|^2/kappa1 {load:.2f} (need <= 1), sub-vacuum fraction {frac:.2f}, "
        f"min eigenvalue {lam_min.min():.3f} (need >= hbar/2)",
    )
    assert angles_ok
    assert aniso_ok
    assert load_ok
    assert bound_ok


@pytest.mark.slow
def test_c08_mi_ordering(mi_by_state):
    med = {k: float(np.median(v)) for k, v in mi_by_state.items()}
    ok = med["synchronized"] > med["chimera"] > med["desynchronized"]
    report(
        8, "mutual-information ordering", ok,
        f"sync {med['synchronized']:.4f} > chimera {med['chimera']:.4f} "
        f"> desync {med['desynchronized']:.4f}",
    )
    assert ok


@pytest.mark.slow
def test_c09_mi_scan_shape(canonical_chimera, chimera_cov):
    _, label = canonical_chimera
    start, width = largest_block(label.mask, True)
    # scan with Alice growing from the start of the coherent block, the
    # configuration the reference curve uses (its block sits at sites 1..20)
    scan = mi_scan(PAPER, chimera_cov.final_cov, anchor=start + 1)
    L = np.arange(1, PAPER.N)
    I = np.array([scan[k] for k in L])
    rel_asym = np.abs(I - I[::-1]).max() / (I.max() - I.min())
    grad = np.abs(np.gradient(I, L))
    l_star = int(L[np.argmax(grad)])
    # block boundary bonds in the anchored frame: 0 (== N) and `width`
    dist = min(
        min(abs(l_star - b), PAPER.N - abs(l_star - b)) for b in (0, width)
    )
    ok = rel_asym >= 0.1 and dist <= 5
    report(
        9, "mi scan shape", ok,
        f"asymmetry {rel_asym:.2f}, max-gradient L={l_star}, "
        f"distance to block boundary {dist} (block width {width})",
    )
    assert ok


def test_c10_symmetry_suite():
    p = NetworkParams(N=12, d=3, V=1.1, kappa2=0.2)
    rng = np.random.default_rng(42)
    a0 = p.limit_cycle_radius * np.exp(1j * rng.uniform(-np.pi, np.pi, 12))
    theta, k_shift = 0.61, 5

    base = integrate(p, MeanFieldState(0.0, a0), 5.0, dt=DT_MF, sample_every=100)
    rot = integrate(p, MeanFieldState(0.0, np.exp(1j * theta) * a0), 5.0, dt=DT_MF, sample_every=100)
    shf = integrate(p, MeanFieldState(0.0, np.roll(a0, k_shift)), 5.0, dt=DT_MF, sample_every=100)
    mf_phase = np.abs(rot.alphas - np.exp(1j * theta) * base.alphas).max()
    mf_shift = np.abs(shf.alphas - np.roll(base.alphas, k_shift, axis=1)).max()

    def cov_from(alphas0):
        seg = integrate(p, MeanFieldState(0.0, alphas0), 0.5, dt=DT_COV, sample_every=50)
        return propagate_covariance(p, seg, vacuum_covariance(p), dt=DT_COV).final_cov

    cov = cov_from(a0)
    cov_rot = cov_from(np.exp(1j * theta) * a0)
    cov_shf = cov_from(np.roll(a0, k_shift))
    R2 = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    R = np.kron(np.eye(p.N), R2)
    cov_phase = np.abs(cov_rot.C - R @ cov.C @ R.T).max()
    cov_shift = np.abs(cov_shf.C - shift_covariance(cov, k_shift).C).max()

    mi_dev = 0.0
    for L in (3, 6, 9):
        a_val = mi_scan(p, cov, anchor=1)[L]
        b_val = mi_scan(p, shift_covariance(cov, k_shift), anchor=1 + k_shift)[L]
        mi_dev = max(mi_dev, abs(a_val - b_val))

    ok = max(mf_phase, mf_shift, cov_phase, cov_shift) < 1e-9 and mi_dev < 1e-12
    report(
        10, "symmetry suite", ok,
        f"mf phase {mf_phase:.1e}, mf shift {mf_shift:.1e}, cov phase {cov_phase:.1e}, "
        f"cov shift {cov_shift:.1e}, MI relabel {mi_dev:.1e}",
    )
    assert ok


@pytest.mark.slow
def test_c11_entropy_identities(chimera_cov):
    s2_vac = renyi2_entropy(PAPER, vacuum_covariance(PAPER).C)
    cov = chimera_cov.final_cov
    dev = 0.0
    for L in (5, 20, 35):
        k = 2 * L
        s_a = renyi2_entropy(PAPER, cov.C[:k, :k])
        s_b = renyi2_entropy(PAPER, cov.C[k:, k:])
        s_ab = renyi2_entropy(PAPER, cov.C)
        det_form = mutual_information(PAPER, cov, Partition(L))
        dev = max(dev, abs(det_form - (s_a + s_b - s_ab)))
    scan_min = min(mi_scan(PAPER, cov).values())
    ok = s2_vac == 0.0 and dev <= 1e-12 and scan_min >= -1e-9
    report(
        11, "entropy identities", ok,
        f"S2(vacuum)={s2_vac:.1e}, |det-form - entropy-form| <= {dev:.1e}, min I2 {scan_min:.2e}",
    )
    assert ok
