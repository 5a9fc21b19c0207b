"""Layer probes: direct timings of single library calls at the paper size
(N = 50, d = 10, V = 1.2, kappa2 = 0.2), independent of any workload.

Each probe reports the median of a few repetitions.  A probe whose library
function is missing, or no longer accepts the probe's call, is left out.
"""

from __future__ import annotations

import statistics
import sys
import time


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _mean_field(cq, p, s0, out: dict) -> None:
    if hasattr(cq, "mean_field_rhs"):
        out["probe.mean_field_rhs_us"] = 1e6 * _median_time(
            lambda: [cq.mean_field_rhs(p, s0) for _ in range(200)], 5) / 200

    if hasattr(cq, "integrate_many"):
        for batch, steps in ((1, 1000), (10, 300), (100, 60)):
            states = [s0] * batch
            sec = _median_time(
                lambda: cq.integrate_many(p, states, steps * 1e-2, dt=1e-2, sample_every=steps), 3)
            out[f"probe.rk4_us_per_state.b{batch}"] = 1e6 * sec / (steps * batch)


def _quantum(cq, p, s0, out: dict) -> None:
    seg = cq.integrate(p, s0, 0.5, dt=1e-3, sample_every=10)
    C0 = cq.vacuum_covariance(p)
    box = {}

    def cov500():
        box["traj"] = cq.propagate_covariance(p, seg, C0, dt=1e-3)

    out["probe.propagate_covariance_500_ms"] = 1e3 * _median_time(cov500, 3)
    cov = box["traj"].final_cov
    out["probe.physicality_margin_ms"] = 1e3 * _median_time(
        lambda: cq.physicality_margin(cov.C, p.hbar), 21)
    out["probe.mi_scan_ms"] = 1e3 * _median_time(lambda: cq.mi_scan(p, cov), 7)
    out["probe.build_record_ms"] = 1e3 * _median_time(lambda: cq.build_record(p, cov), 7)


def run_probes() -> dict[str, float]:
    import chimeraq as cq

    p = cq.NetworkParams(N=50, d=10, V=1.2, kappa2=0.2)
    s0 = cq.initial_conditions(p, cq.InitialConditionSpec(seed=1))
    out: dict[str, float] = {}
    for group in (_mean_field, _quantum):
        try:
            group(cq, p, s0, out)
        except (TypeError, AttributeError, KeyError) as exc:
            print(f"probes: {group.__name__} left out: {exc!r}", file=sys.stderr)
    return out
