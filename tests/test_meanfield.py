import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from chimeraq import (
    CHIMERA,
    DESYNCHRONIZED,
    SYNCHRONIZED,
    DivergenceError,
    InitialConditionSpec,
    InsufficientDataError,
    MeanFieldState,
    NetworkParams,
    RangeError,
    classify,
    initial_conditions,
    integrate,
    integrate_many,
    local_order_parameter,
    mean_field_rhs,
    spacetime_grid,
)
from chimeraq import meanfield
from chimeraq.meanfield import MeanFieldTrajectory, _rhs_of, largest_block, phase_profile

R0_02 = 1.5811388300841898  # sqrt(kappa1 / (2 * 0.2))
EXP_HALF = 0.6065306597126334  # exp(-1/2)


def uniform_state(p: NetworkParams, r: float | None = None) -> MeanFieldState:
    r = p.limit_cycle_radius if r is None else r
    return MeanFieldState(0.0, np.full(p.N, r, dtype=complex))


class TestInitialConditions:
    def test_amplitudes_on_limit_cycle(self, paper_params):
        s = initial_conditions(paper_params, InitialConditionSpec(seed=3))
        assert np.abs(np.abs(s.alphas) - R0_02).max() < 1e-12

    def test_deterministic_per_seed(self, paper_params):
        a = initial_conditions(paper_params, InitialConditionSpec(seed=11))
        b = initial_conditions(paper_params, InitialConditionSpec(seed=11))
        c = initial_conditions(paper_params, InitialConditionSpec(seed=12))
        assert np.array_equal(a.alphas, b.alphas)
        assert not np.array_equal(a.alphas, c.alphas)

    def test_r0_override(self, paper_params):
        s = initial_conditions(paper_params, InitialConditionSpec(seed=0, r0=0.5))
        assert np.abs(np.abs(s.alphas) - 0.5).max() < 1e-15

    def test_envelope_confines_tail_phases(self, paper_params):
        # sites far from mu get phases suppressed by the Gaussian envelope
        s = initial_conditions(paper_params, InitialConditionSpec(seed=5))
        phi = np.angle(s.alphas)
        assert abs(phi[0]) < 0.25
        assert abs(phi[-1]) < 0.25

    def test_spec_validation(self):
        with pytest.raises(Exception):
            InitialConditionSpec(seed=0, sigma=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("seed", -1),
        *[(field, value) for field in ("r0", "sigma", "theta_range")
          for value in (0.0, -1.0, math.nan, math.inf)],
        ("mu", math.nan), ("mu", -math.inf),
    ])
    def test_building_checks_every_field(self, field, value):
        with pytest.raises(RangeError, match=rf"\b{field}\b"):
            replace(InitialConditionSpec(seed=1, r0=1.0, mu=3.0), **{field: value})


class TestPhaseProfile:
    def test_zero_theta_is_flat(self):
        assert np.all(phase_profile(50, 9.0, 25.0, 0.0) == 0.0)

    def test_gaussian_shape_identity(self):
        # phi at mu +- sigma is exp(-1/2) times the peak value
        phi = phase_profile(51, 9.0, 26.0, theta=5.0)
        peak = phi[25]
        assert phi[25 + 9] == pytest.approx(peak * EXP_HALF, rel=1e-12)
        assert phi[25 - 9] == pytest.approx(peak * EXP_HALF, rel=1e-12)

    def test_per_site_theta(self):
        theta = np.arange(1.0, 11.0)
        phi = phase_profile(10, 3.0, 5.0, theta)
        single = np.array([phase_profile(10, 3.0, 5.0, t)[i] for i, t in enumerate(theta)])
        assert np.allclose(phi, single, atol=0)


class TestRhs:
    def test_origin_is_fixed_point(self, paper_params):
        s = MeanFieldState(0.0, np.zeros(50, dtype=complex))
        assert np.all(mean_field_rhs(paper_params, s) == 0)

    def test_limit_cycle_radial_balance(self):
        # with V=0 the radial term kappa1 - 2 kappa2 r0^2 vanishes exactly
        p = NetworkParams(N=5, d=2, V=0.0, kappa2=0.2)
        rng = np.random.default_rng(1)
        s = MeanFieldState(0.0, R0_02 * np.exp(1j * rng.uniform(-np.pi, np.pi, 5)))
        assert np.abs(mean_field_rhs(p, s)).max() < 1e-14

    def test_uniform_state_rotates(self, paper_params):
        # neighbor sum of a uniform state is 2d * alpha, so the rhs is -i V alpha
        s = uniform_state(paper_params)
        rhs = mean_field_rhs(paper_params, s)
        expected = -1j * paper_params.V * s.alphas
        assert np.abs(rhs - expected).max() < 1e-13


class TestIntegrate:
    def test_uniform_closed_form(self, paper_params):
        # uniform ansatz reduces the network to d(alpha)/dt = -i V alpha
        s0 = uniform_state(paper_params)
        traj = integrate(paper_params, s0, 2.0, dt=1e-3, sample_every=200)
        expected = R0_02 * np.exp(-1j * paper_params.V * traj.times)
        err = np.abs(traj.alphas - expected[:, None]).max() / R0_02
        assert err < 1e-8

    def test_relaxation_to_limit_cycle(self):
        p = NetworkParams(N=3, d=1, V=0.0, kappa2=0.2)
        s0 = uniform_state(p, r=0.5)
        traj = integrate(p, s0, 50.0, dt=1e-2, sample_every=500)
        assert np.abs(np.abs(traj.alphas[-1]) - R0_02).max() < 1e-6

    def test_rk4_order(self, paper_params):
        # quartic error decay on the uniform closed form
        s0 = uniform_state(paper_params)

        def max_err(dt):
            traj = integrate(paper_params, s0, 10.0, dt=dt, sample_every=int(round(10.0 / dt)))
            exact = R0_02 * np.exp(-1j * paper_params.V * traj.times[-1])
            return np.abs(traj.alphas[-1] - exact).max()

        ratio = max_err(0.05) / max_err(0.025)
        assert 12.0 < ratio < 20.0

    def test_sampling_includes_endpoints(self, small_params):
        s0 = uniform_state(small_params)
        traj = integrate(small_params, s0, 1.0, dt=0.01, sample_every=7)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(traj.times) > 0)

    def test_divergence_error(self):
        p = NetworkParams(N=3, d=1, V=0.5, kappa2=0.2)
        s0 = uniform_state(p, r=2.0 * p.limit_cycle_radius)
        with pytest.raises(DivergenceError):
            integrate(p, s0, 50.0, dt=5.0)

    def test_dt_must_divide_interval(self, small_params):
        with pytest.raises(ValueError):
            integrate(small_params, uniform_state(small_params), 1.0, dt=0.3)

    def test_batch_matches_single(self, small_params):
        rng = np.random.default_rng(8)
        states = [
            MeanFieldState(0.0, R0_02 * np.exp(1j * rng.uniform(-np.pi, np.pi, small_params.N)))
            for _ in range(3)
        ]
        batch = integrate_many(small_params, states, 1.0, dt=1e-2, sample_every=10)
        for s0, traj in zip(states, batch):
            solo = integrate(small_params, s0, 1.0, dt=1e-2, sample_every=10)
            assert np.abs(solo.alphas - traj.alphas).max() < 1e-10


class TestBatchRows:
    """A batched row has the same bits as a solo run of its state."""

    @pytest.mark.parametrize("N, d", [(50, 10), (200, 40)])
    def test_rows_equal_solo_runs(self, N, d):
        p = NetworkParams(N=N, d=d, V=1.2, kappa2=0.2)
        states = [initial_conditions(p, InitialConditionSpec(seed=s)) for s in range(5)]
        batch = integrate_many(p, states, 2.0, dt=1e-2, sample_every=50)
        for s0, traj in zip(states, batch):
            solo = integrate(p, s0, 2.0, dt=1e-2, sample_every=50)
            assert np.array_equal(traj.times, solo.times)
            assert np.array_equal(traj.alphas, solo.alphas)

        finals = np.array([traj.alphas[-1] for traj in batch])
        rows = _rhs_of(p)(finals)
        for k, traj in enumerate(batch):
            assert np.array_equal(rows[k], mean_field_rhs(p, traj.final_state))

    @pytest.mark.parametrize("N, d", [(6, 2), (50, 10)])
    @pytest.mark.parametrize("phases", [
        ((3.0, 100),),
        ((2.9, 100), (2.95, 10), (3.0, 10)),  # a transient, then a window in two
        ((0.01, 1), (1.0, 7), (3.0, 3)),  # a phase of one step
        ((2.99, 1000), (3.0, 1)),  # a spacing beyond the phase
    ], ids=["direct", "three", "one-step", "wide-spacing"])
    def test_phases_keep_the_bits(self, N, d, phases):
        # the stepping does not depend on where phases end, on the sample
        # spacing or on the batch; a phase's times are its start plus whole
        # steps, so its last time may differ from a direct run's in the last
        # bit (2.95 + 5 * 0.01 = 2.9999999999999996): runs share a state's
        # parts only when their phases are equal
        p = NetworkParams(N=N, d=d, V=1.2, kappa2=0.2)
        states = [initial_conditions(p, InitialConditionSpec(seed=s)) for s in (1, 2, 3)]
        every_step = [integrate(p, s0, 3.0, dt=1e-2) for s0 in states]
        heads, parts = states, []
        for t_end, sample_every in phases:
            parts.append(integrate_many(p, heads, t_end, dt=1e-2, sample_every=sample_every))
            heads = [traj.final_state for traj in parts[-1]]
        for b, ref in enumerate(every_step):
            for traj in (batch[b] for batch in parts):
                steps = np.rint(traj.times / 1e-2).astype(int)
                assert np.allclose(traj.times, ref.times[steps], rtol=0, atol=1e-12)
                assert np.array_equal(traj.alphas, ref.alphas[steps])
            assert heads[b].t == pytest.approx(ref.final_state.t, rel=0, abs=1e-12)
            assert np.array_equal(heads[b].alphas, ref.final_state.alphas)

    def test_diverging_row_retires_alone(self, small_params, monkeypatch):
        rng = np.random.default_rng(9)
        sound = [
            MeanFieldState(0.0, R0_02 * np.exp(1j * rng.uniform(-np.pi, np.pi, small_params.N)))
            for _ in range(3)
        ]
        # the larger start amplitude fails at the first sample, the smaller
        # at the second
        blowing_up = [uniform_state(small_params, r=r * R0_02) for r in (40.0, 8.0)]
        built = []

        class CountedRK4(meanfield.RK4):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(meanfield, "RK4", CountedRK4)
        batch = integrate_many(
            small_params, [sound[0], blowing_up[0], sound[1], blowing_up[1], sound[2]],
            2.0, dt=0.05,
        )
        assert len(built) == 1  # the failed rows stay in the one stepper's batch
        errors = []
        for s0, error in zip(blowing_up, (batch[1], batch[3])):
            assert isinstance(error, DivergenceError)
            with pytest.raises(DivergenceError) as solo_error:
                integrate(small_params, s0, 2.0, dt=0.05)
            assert str(error) == str(solo_error.value)
            errors.append(str(error))
        assert errors == ["|alpha| exceeded 1000.0 r0 at t=0.05",
                          "|alpha| exceeded 1000.0 r0 at t=0.1"]
        for s0, traj in zip(sound, (batch[0], batch[2], batch[4])):
            solo = integrate(small_params, s0, 2.0, dt=0.05)
            assert np.array_equal(traj.times, solo.times)
            assert np.array_equal(traj.alphas, solo.alphas)

    def test_batch_whose_rows_all_fail_stops_at_the_last_failure(self, small_params, monkeypatch):
        steps = []

        class CountedRK4(meanfield.RK4):
            def step(self, y, dt):
                steps.append(dt)
                super().step(y, dt)

        monkeypatch.setattr(meanfield, "RK4", CountedRK4)
        blowing_up = [uniform_state(small_params, r=r * R0_02) for r in (8.0, 40.0)]
        batch = integrate_many(small_params, blowing_up, 2.0, dt=0.05)
        assert len(steps) == 2  # of 40: the last row fails at the second sample
        assert [str(e) for e in batch] == ["|alpha| exceeded 1000.0 r0 at t=0.1",
                                           "|alpha| exceeded 1000.0 r0 at t=0.05"]


class TestSymmetries:
    def test_global_phase_equivariance(self):
        p = NetworkParams(N=12, d=3, V=1.1, kappa2=0.2)
        rng = np.random.default_rng(5)
        a0 = p.limit_cycle_radius * np.exp(1j * rng.uniform(-np.pi, np.pi, 12))
        theta = 0.83
        t1 = integrate(p, MeanFieldState(0.0, a0), 5.0, dt=1e-2, sample_every=100)
        t2 = integrate(p, MeanFieldState(0.0, np.exp(1j * theta) * a0), 5.0, dt=1e-2, sample_every=100)
        assert np.abs(t2.alphas - np.exp(1j * theta) * t1.alphas).max() < 1e-9

    def test_cyclic_shift_equivariance(self):
        p = NetworkParams(N=12, d=3, V=1.1, kappa2=0.2)
        rng = np.random.default_rng(6)
        a0 = p.limit_cycle_radius * np.exp(1j * rng.uniform(-np.pi, np.pi, 12))
        t1 = integrate(p, MeanFieldState(0.0, a0), 5.0, dt=1e-2, sample_every=100)
        t2 = integrate(p, MeanFieldState(0.0, np.roll(a0, 4)), 5.0, dt=1e-2, sample_every=100)
        assert np.abs(t2.alphas - np.roll(t1.alphas, 4, axis=1)).max() < 1e-9

    def test_v0_converges_from_any_amplitude(self):
        p = NetworkParams(N=5, d=2, V=0.0, kappa2=0.2)
        rng = np.random.default_rng(7)
        a0 = rng.uniform(0.2, 3.0, 5) * np.exp(1j * rng.uniform(-np.pi, np.pi, 5))
        traj = integrate(p, MeanFieldState(0.0, a0), 60.0, dt=1e-2, sample_every=1000)
        assert np.abs(np.abs(traj.alphas[-1]) - R0_02).max() < 1e-6


def frozen_phase_trajectory(p: NetworkParams, phases: np.ndarray, t_end: float = 12.0) -> MeanFieldTrajectory:
    # V=0 on the limit cycle freezes every phase, so this is an exact solution
    assert p.V == 0.0
    times = np.arange(0.0, t_end + 1e-9, 0.1)
    alphas = np.tile(R0_02 * np.exp(1j * phases), (times.size, 1))
    return MeanFieldTrajectory(times=times, alphas=alphas, params=p)


class TestClassify:
    def test_uniform_rotating_is_synchronized(self, paper_params):
        traj = integrate(paper_params, uniform_state(paper_params), 12.0, dt=1e-2, sample_every=10)
        label = classify(traj)
        assert label.regime == SYNCHRONIZED
        assert label.coherent_width == paper_params.N
        assert label.mask.all()

    def test_frozen_random_phases_are_desynchronized(self):
        # |mean of 2d unit phasors| concentrates near 1/sqrt(2d) ~ 0.22
        p = NetworkParams(N=50, d=10, V=0.0, kappa2=0.2)
        rng = np.random.default_rng(2)
        traj = frozen_phase_trajectory(p, rng.uniform(-np.pi, np.pi, 50))
        label = classify(traj)
        assert label.regime == DESYNCHRONIZED
        z = local_order_parameter(p, traj.alphas[-1])
        assert z.mean() < 0.5

    def test_synthetic_chimera(self):
        p = NetworkParams(N=50, d=10, V=0.0, kappa2=0.2)
        rng = np.random.default_rng(3)
        phases = rng.uniform(-np.pi, np.pi, 50)
        phases[:20] = 0.1  # coherent block at sites 1..20
        label = classify(frozen_phase_trajectory(p, phases))
        assert label.regime == CHIMERA
        assert 5 <= label.coherent_width <= 25

    def test_synthetic_chimera_wraps_ring_boundary(self):
        p = NetworkParams(N=50, d=10, V=0.0, kappa2=0.2)
        rng = np.random.default_rng(3)
        phases = rng.uniform(-np.pi, np.pi, 50)
        phases[:20] = 0.1
        rolled = classify(frozen_phase_trajectory(p, np.roll(phases, -10)))
        plain = classify(frozen_phase_trajectory(p, phases))
        assert rolled.regime == CHIMERA
        assert rolled.coherent_width == plain.coherent_width

    def test_insufficient_data(self, paper_params):
        traj = integrate(paper_params, uniform_state(paper_params), 2.0, dt=1e-2, sample_every=10)
        with pytest.raises(InsufficientDataError):
            classify(traj, window=10.0)


class TestLargestBlock:
    def test_all_same(self):
        assert largest_block(np.ones(6, dtype=bool), True) == (0, 6)
        assert largest_block(np.ones(6, dtype=bool), False) == (-1, 0)

    def test_wraparound_run(self):
        mask = np.array([1, 1, 0, 0, 1, 1], dtype=bool)
        start, length = largest_block(mask, True)
        assert length == 4
        assert start == 4

    @staticmethod
    def reference(mask, value):
        """(start, length) by trying every start and every length: the
        longest circular run of ``value``, the smallest start among ties."""
        n = len(mask)
        best = (-1, 0)
        for start in range(n):
            length = 0
            while length < n and mask[(start + length) % n] == value:
                length += 1
            if length > best[1]:
                best = (start, length)
        return best

    def test_every_mask_up_to_twelve_sites(self):
        for n in range(1, 13):
            for bits in itertools.product((False, True), repeat=n):
                mask = np.array(bits)
                for value in (True, False):
                    assert largest_block(mask, value) == self.reference(bits, value), (bits, value)


class TestSpacetimeGrid:
    def test_uniform_rotating_solution(self, paper_params):
        traj = integrate(paper_params, uniform_state(paper_params), 3.0, dt=1e-3, sample_every=300)
        phi, r2 = spacetime_grid(traj)
        assert phi.shape == (50, len(traj))
        assert np.abs(r2 - 2.5).max() < 1e-8  # r0^2 = kappa1 / (2 kappa2)
        # constant across sites, linear ramp mod 2pi in time
        assert np.abs(phi - phi[0]).max() < 1e-9
        expected = np.angle(np.exp(-1j * paper_params.V * traj.times))
        assert np.abs(phi[0] - expected).max() < 1e-8

    def test_phase_wrapping_range(self, paper_params):
        traj = integrate(paper_params, uniform_state(paper_params), 4.0, dt=1e-2, sample_every=10)
        phi, _ = spacetime_grid(traj)
        assert phi.max() <= np.pi
        assert phi.min() > -np.pi
