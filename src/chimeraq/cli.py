"""Experiment runner: mean-field runs, fluctuation propagation, analysis,
and figure-data pipelines, driven by JSON configs.

Every run writes its artifacts plus a ``manifest.json`` echoing the config;
CSV payloads are byte-identical across reruns with the same inputs.

Exit codes: 0 ok, 2 config error, 3 numerical error, 4 partial sweep failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, io
from .analysis import (
    Partition,
    build_record,
    husimi_marginal,
    mi_scan,
    mutual_information,
    squeezing,
    weighted_correlation,
)
from .core import (
    MeanFieldState,
    NetworkParams,
    RangeError,
    validate_params,
)
from .fluctuations import (
    VALIDATED_HORIZON,
    CovarianceTrajectory,
    propagate_covariance,
    vacuum_covariance,
)
from .meanfield import (
    InitialConditionSpec,
    MeanFieldTrajectory,
    _step_count,
    classify,
    initial_conditions,
    integrate,
    integrate_many,
    spacetime_grid,
)

EXPERIMENTS = (
    "meanfield",
    "fluctuations",
    "analyze",
    "scan-mi",
    "reproduce-fig1",
    "reproduce-fig2",
    "reproduce-fig3",
    "reproduce-fig4",
)

#: experiments that stop at the mean-field snapshot (no covariance run)
CLASSICAL = ("meanfield", "reproduce-fig1")

#: experiments that snapshot the FIG_STATES triplet instead of one state at t0
TRIPLET = ("reproduce-fig3", "reproduce-fig4")

#: (label, coupling strength, snapshot time) of the three reference states
FIG_STATES = (
    ("chimera", 1.2, 3000.5),
    ("synchronized", 1.6, 25.5),
    ("desynchronized", 0.8, 8000.5),
)

DEFAULT_T0 = {
    "meanfield": 3000.5,
    "fluctuations": 3000.5,
    "analyze": 3000.5,
    "scan-mi": 3000.5,
    "reproduce-fig1": 3000.5,
    "reproduce-fig2": 3000.0,
}

ENV_OUT = "CHIMERAQ_OUT"


class ConfigError(ValueError):
    """The experiment configuration is unusable."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    params: NetworkParams
    ic: InitialConditionSpec | None
    ic_file: str | None
    t0: float
    delta_t: float
    dt_mf: float
    dt_cov: float
    sample_spacing: float
    window_spacing: float
    classify_window: float
    z_threshold: float
    w_min: int
    mi_partition: int
    outputs: str
    fig_states: tuple = FIG_STATES

    def validate(self) -> "ExperimentConfig":
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment: {self.experiment}")
        try:
            validate_params(self.params)
        except RangeError as exc:
            raise ConfigError(str(exc)) from exc
        if self.ic is not None and self.ic_file is not None:
            raise ConfigError("give either ic or ic_file, not both")
        if self.ic_file is not None and not Path(self.ic_file).exists():
            raise ConfigError(f"ic_file does not exist: {self.ic_file}")
        if self.ic is not None:
            try:
                self.ic.validate()
            except RangeError as exc:
                raise ConfigError(str(exc)) from exc
        for name in _FLOAT_KEYS:
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.t0 < 0:
            raise ConfigError(f"t0 must be >= 0, got {self.t0}")
        if self.delta_t <= 0:
            raise ConfigError(f"delta_t must be > 0, got {self.delta_t}")
        for name in ("dt_mf", "dt_cov", "sample_spacing", "window_spacing", "classify_window"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        if not 0 < self.z_threshold <= 1:
            raise ConfigError(f"z_threshold must be in (0, 1], got {self.z_threshold}")
        if self.w_min < 1:
            raise ConfigError(f"w_min must be >= 1, got {self.w_min}")
        try:
            _step_count(0.0, self.delta_t, self.dt_cov)
        except ValueError as exc:
            raise ConfigError(f"dt_cov must divide delta_t: {exc}") from exc
        if not 1 <= self.mi_partition <= self.params.N - 1:
            raise ConfigError(
                f"mi_partition must be in 1..{self.params.N - 1}, got {self.mi_partition}"
            )
        for name, V, t_snap in self.fig_states:
            if not (math.isfinite(V) and math.isfinite(t_snap)) or V < 0 or t_snap < 0:
                raise ConfigError(
                    f"invalid fig state {name}: V and t0 must be finite and >= 0, "
                    f"got V={V}, t0={t_snap}"
                )
        if self.ic_file is None:
            self.check_grid(0.0)
        return self

    def check_grid(self, start: float) -> None:
        """Reject snapshot times whose mean-field phases from the start
        state's time ``start`` are off the ``dt_mf`` grid, before any
        integration."""
        if self.experiment in TRIPLET:
            times = [t_snap for _, _, t_snap in self.fig_states]
        else:
            times = [self.t0]
        for t_snap in (t for t in times if t > start):
            t_from = start
            for t_end, _ in _phases(start, t_snap, self):
                try:
                    _step_count(t_from, t_end, self.dt_mf)
                except ValueError as exc:
                    raise ConfigError(f"snapshot time is off the dt_mf grid: {exc}") from exc
                t_from = t_end


#: config fields read as floats; each must be finite
_FLOAT_KEYS = (
    "t0",
    "delta_t",
    "dt_mf",
    "dt_cov",
    "sample_spacing",
    "window_spacing",
    "classify_window",
    "z_threshold",
)

_CONFIG_KEYS = {
    "experiment",
    "params",
    "ic",
    "ic_file",
    "t0",
    "delta_t",
    "dt_mf",
    "dt_cov",
    "sample_spacing",
    "window_spacing",
    "classify_window",
    "z_threshold",
    "w_min",
    "mi_partition",
    "outputs",
    "fig_states",
}


def load_config(path: str, experiment: str, seed: int | None, out: str | None) -> ExperimentConfig:
    """Parse and validate a config file against the requested experiment."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(obj) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "experiment" in obj and obj["experiment"] != experiment:
        raise ConfigError(
            f"config names experiment {obj['experiment']!r} but {experiment!r} was requested"
        )
    if "params" not in obj:
        raise ConfigError("config is missing 'params'")
    if "ic" in obj and obj.get("ic_file") is not None:
        raise ConfigError("give either ic or ic_file, not both")
    try:
        params = io.params_from_json(obj["params"])
        ic = None
        if obj.get("ic_file") is None:
            ic = io.ic_spec_from_json(obj.get("ic", {}))
            if seed is not None:
                ic = replace(ic, seed=seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    outputs = out or os.environ.get(ENV_OUT) or obj.get("outputs") or f"runs/{experiment}"
    fig_states = FIG_STATES
    if "fig_states" in obj:
        try:
            fig_states = tuple(
                (str(e["name"]), float(e["V"]), float(e["t0"])) for e in obj["fig_states"]
            )
        except (TypeError, KeyError) as exc:
            raise ConfigError(
                "fig_states entries need name, V, t0"
            ) from exc
    n = params.N
    cfg = ExperimentConfig(
        experiment=experiment,
        params=params,
        ic=ic,
        ic_file=obj.get("ic_file"),
        t0=float(obj.get("t0", DEFAULT_T0.get(experiment, 3000.5))),
        delta_t=float(obj.get("delta_t", 0.5)),
        dt_mf=float(obj.get("dt_mf", 1e-2)),
        dt_cov=float(obj.get("dt_cov", 1e-3)),
        sample_spacing=float(obj.get("sample_spacing", 1.0)),
        window_spacing=float(obj.get("window_spacing", 0.1)),
        classify_window=float(obj.get("classify_window", 10.0)),
        z_threshold=float(obj.get("z_threshold", 0.80)),
        w_min=int(obj.get("w_min", 5)),
        mi_partition=int(obj.get("mi_partition", max(1, min(2 * n // 5, n - 1)))),
        outputs=str(outputs),
        fig_states=fig_states,
    )
    return cfg.validate()


def _initial_state(cfg: ExperimentConfig, p: NetworkParams) -> MeanFieldState:
    if cfg.ic_file is not None:
        try:
            state, file_params = io.load_state(cfg.ic_file)
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"unusable ic_file {cfg.ic_file}: {exc}") from exc
        if file_params.N != p.N:
            raise ConfigError(
                f"ic_file has N={file_params.N}, config has N={p.N}"
            )
        cfg.check_grid(state.t)
        return state
    return initial_conditions(p, cfg.ic)


def _sample_every(spacing: float, dt: float) -> int:
    return max(1, int(round(spacing / dt)))


def _snapshot_run(
    p: NetworkParams, states0: list[MeanFieldState], t0: float, cfg: ExperimentConfig
) -> list[tuple[list[MeanFieldTrajectory], MeanFieldTrajectory | None, MeanFieldState] | Exception]:
    """Integrate start states that share a start time to the snapshot time,
    as one batch, in two phases: a sparsely sampled transient and a finely
    sampled trailing window for classification.

    Returns, per start state, (parts, fine window, snapshot) or the error
    that ended its run; the other states go on without it.
    """
    if not states0 or t0 <= states0[0].t:
        return [([], None, s) for s in states0]
    results: list = [[] for _ in states0]  # parts so far, or the error
    cur = list(states0)
    for t_end, spacing in _phases(states0[0].t, t0, cfg):
        live = [i for i, r in enumerate(results) if isinstance(r, list)]
        trajs = integrate_many(
            p, [cur[i] for i in live], t_end, dt=cfg.dt_mf,
            sample_every=_sample_every(spacing, cfg.dt_mf),
        )
        for i, traj in zip(live, trajs):
            if isinstance(traj, Exception):
                results[i] = traj
            else:
                results[i].append(traj)
                cur[i] = traj.final_state
    return [r if isinstance(r, Exception) else (r, r[-1], r[-1].final_state) for r in results]


def _phases(start: float, t0: float, cfg: ExperimentConfig) -> list[tuple[float, float]]:
    """(end time, sample spacing) of the transient and of the trailing
    classify window from ``start`` to a later snapshot time ``t0``.  The
    window start is rounded onto the ``dt_mf`` grid counted from ``start``."""
    window = min(cfg.classify_window, t0 - start)
    t_mid = start + round((t0 - window - start) / cfg.dt_mf) * cfg.dt_mf
    phases = [(t0, cfg.window_spacing)]
    if t_mid > start + 0.5 * cfg.dt_mf:
        phases.insert(0, (t_mid, cfg.sample_spacing))
    return phases


def _classify_window(
    fine: MeanFieldTrajectory | None, cfg: ExperimentConfig
):
    if fine is None:
        return None
    span = float(fine.times[-1] - fine.times[0])
    if span + 1e-9 < cfg.classify_window:
        return None
    return classify(
        fine, window=cfg.classify_window,
        z_threshold=cfg.z_threshold, w_min=cfg.w_min,
    )


def _covariance_run(
    p: NetworkParams, snapshot: MeanFieldState, cfg: ExperimentConfig
) -> CovarianceTrajectory:
    spacing = max(cfg.dt_cov, cfg.delta_t / 50.0)
    seg = integrate(
        p, snapshot, snapshot.t + cfg.delta_t, dt=cfg.dt_cov,
        sample_every=_sample_every(spacing, cfg.dt_cov),
    )
    return propagate_covariance(p, seg, vacuum_covariance(p, t=snapshot.t), dt=cfg.dt_cov)


def _grid_rows(parts: list[MeanFieldTrajectory], columns: tuple[str, ...]):
    """Rows (t, l, *columns) over consecutive parts, each time written once."""
    t_seen = -np.inf
    for traj in parts:
        grids = dict(zip(("phi", "r2"), spacetime_grid(traj)))
        for k, t in enumerate(traj.times):
            t = float(t)
            if t <= t_seen + 1e-12:
                continue
            t_seen = t
            for l in range(traj.params.N):
                yield (t, l + 1, *(grids[c][l, k] for c in columns))


def _regime_dict(label) -> dict | None:
    if label is None:
        return None
    return {
        "regime": label.regime,
        "coherent_width": int(label.coherent_width),
        "mask": [bool(x) for x in label.mask],
    }


def _state_run(
    cfg: ExperimentConfig, p: NetworkParams, snap, manifest: dict, name: str | None = None,
):
    """Snapshot (one ``_snapshot_run`` result) -> regime label -> covariance
    over ``delta_t``.

    Records the regime, the minimum exact physicality margin, the number of
    samples that passed on a Cholesky certificate and the largest
    ``kappa2 |alpha|^2 / kappa1`` on the segment in ``manifest``, suffixed
    with ``name`` for the fig3/fig4 triplet.  Classical experiments stop
    after the label and return no covariance trajectory.
    """
    if isinstance(snap, Exception):
        raise snap
    parts, fine, snapshot = snap
    label = _classify_window(fine, cfg)
    if name is None:
        manifest["regime"] = _regime_dict(label)
    else:
        manifest["regime"][name] = _regime_dict(label)
    if cfg.experiment in CLASSICAL:
        return parts, snapshot, label, None
    cov_traj = _covariance_run(p, snapshot, cfg)
    suffix = "" if name is None else f"_{name}"
    manifest[f"physicality_margin_min{suffix}"] = cov_traj.min_physicality_margin()
    manifest[f"physicality_certified{suffix}"] = cov_traj.certified
    manifest[f"vacuum_bound_ratio_max{suffix}"] = cov_traj.vacuum_bound_ratio_max()
    return parts, snapshot, label, cov_traj


class _Run:
    """One run in progress: output directory, manifest and its own wall time.

    Opening a run removes any earlier ``manifest.json``, then draws and
    writes the start state.
    """

    def __init__(self, cfg: ExperimentConfig):
        t_start = time.monotonic()
        self.cfg = cfg
        self.outdir = Path(cfg.outputs)
        self.outdir.mkdir(parents=True, exist_ok=True)
        (self.outdir / "manifest.json").unlink(missing_ok=True)
        self.files: list[str] = []
        self.manifest: dict = {
            "experiment": cfg.experiment,
            "version": __version__,
            "config": _config_echo(cfg),
        }
        self.state0 = _initial_state(cfg, cfg.params)
        self.emit("initial_conditions.json", io.save_state, self.state0, cfg.params, cfg.ic)
        self.wall_s = time.monotonic() - t_start

    def emit(self, name: str, writer, *args) -> None:
        writer(self.outdir / name, *args)
        self.files.append(name)


def _attempt(fn, *args):
    """``fn(*args)``, or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # kept per run; the caller decides what to raise
        return exc


def _run_seeds(cfgs: list[ExperimentConfig]) -> tuple[list[dict | Exception], float]:
    """Run configs that differ only in IC seed and output directory.

    Every run first draws and writes its start state.  The mean-field
    transient and classify window to ``t0`` then run once, as one batch (the
    fig3/fig4 triplet integrates its own states inside each run).  Each run
    then classifies, propagates and writes on its own.

    Returns, per config, the manifest or the exception that ended that run,
    and the wall time of the batched transient.  A run's ``wall_time_s``
    counts that transient only when the batch held that run alone.
    """
    runs: list = [_attempt(_Run, cfg) for cfg in cfgs]
    live = [i for i, r in enumerate(runs) if isinstance(r, _Run)]
    cfg = cfgs[0]
    t_start = time.monotonic()
    if cfg.experiment in TRIPLET:
        snaps = [None] * len(live)
    else:
        snaps = _attempt(_snapshot_run, cfg.params, [runs[i].state0 for i in live], cfg.t0, cfg)
        if isinstance(snaps, Exception):
            snaps = [snaps] * len(live)
    transient_s = time.monotonic() - t_start
    for i, snap in zip(live, snaps):
        if len(live) == 1:
            runs[i].wall_s += transient_s
        runs[i] = _attempt(_finish, runs[i], snap)
    return runs, transient_s


def run(cfg: ExperimentConfig) -> dict:
    """Execute the configured experiment; returns the manifest dict."""
    (result,), _ = _run_seeds([cfg])
    if isinstance(result, Exception):
        raise result
    return result


def _finish(r: _Run, snap) -> dict:
    """Classify, propagate and write one run from its snapshot; the manifest
    is written last."""
    t_start = time.monotonic()
    cfg, manifest, emit, state0 = r.cfg, r.manifest, r.emit, r.state0
    p = cfg.params
    if cfg.experiment == "reproduce-fig3":
        _run_fig3(cfg, state0, emit, manifest)
    elif cfg.experiment == "reproduce-fig4":
        _run_fig4(cfg, state0, emit, manifest)
    else:
        parts, snapshot, label, cov_traj = _state_run(cfg, p, snap, manifest)
        emit("snapshot.json", io.save_state, snapshot, p, None)

        if cfg.experiment == "meanfield":
            emit("meanfield_grid.csv", io.write_csv, ["t", "l", "phi", "r2"],
                 _grid_rows(parts, ("phi", "r2")))
        elif cfg.experiment == "reproduce-fig1":
            emit("fig1_phi.csv", io.write_csv, ["t", "l", "phi"], _grid_rows(parts, ("phi",)))
            emit("fig1_r2.csv", io.write_csv, ["t", "l", "r2"], _grid_rows(parts, ("r2",)))
        else:
            cov = cov_traj.final_cov
            if cfg.experiment == "fluctuations":
                emit("covariance.csv", io.write_covariance, cov)
                emit("covariance_meta.json", io.write_json, {
                    "params": io.params_to_json(p),
                    "t_i": snapshot.t,
                    "delta_t": cfg.delta_t,
                    "dt_cov": cfg.dt_cov,
                    "physicality_margin_min": cov_traj.min_physicality_margin(),
                })
            elif cfg.experiment == "scan-mi":
                scan = mi_scan(p, cov)
                emit("mi_scan.csv", io.write_csv, ["L", "I2"], sorted(scan.items()))
            elif cfg.experiment == "analyze":
                record = build_record(p, cov, regime=label)
                emit("analysis.json", io.write_json, _record_dict(record))
                emit("mi_scan.csv", io.write_csv, ["L", "I2"], sorted(record.mi_scan.items()))
                emit("ellipses.csv", io.write_csv,
                     ["l", "lambda_min", "lambda_max", "theta"],
                     [(e.site, e.lambda_min, e.lambda_max, e.theta) for e in record.ellipses])
                manifest["mi_value"] = record.mi_scan[cfg.mi_partition]
                manifest["mi_partition"] = cfg.mi_partition
            elif cfg.experiment == "reproduce-fig2":
                a = snapshot.alphas
                scale = np.sqrt(2.0 * p.hbar)
                emit("fig2_phases.csv", io.write_csv, ["l", "q", "p", "phi", "r"],
                     [(l + 1, scale * a[l].real, scale * a[l].imag,
                       float(np.angle(a[l])), float(np.abs(a[l])))
                      for l in range(p.N)])
                ellipses = squeezing(p, cov)
                emit("fig2_ellipses.csv", io.write_csv,
                     ["l", "lambda_min", "lambda_max", "theta"],
                     [(e.site, e.lambda_min, e.lambda_max, e.theta) for e in ellipses])
                rows = []
                for l in range(1, p.N + 1):
                    H = husimi_marginal(p, cov, l)
                    rows.append((l, H[0, 0], H[0, 1], H[1, 1]))
                emit("fig2_husimi.csv", io.write_csv, ["l", "qq", "qp", "pp"], rows)

    if cfg.experiment not in CLASSICAL:
        manifest["beyond_validated_horizon"] = bool(cfg.delta_t > VALIDATED_HORIZON + 1e-12)
    manifest["files"] = r.files + ["manifest.json"]
    manifest["wall_time_s"] = r.wall_s + time.monotonic() - t_start
    io.write_json(r.outdir / "manifest.json", manifest)
    return manifest


def _run_fig3(cfg: ExperimentConfig, state0: MeanFieldState, emit, manifest: dict) -> None:
    manifest["regime"] = {}
    for tag, (name, V, t_snap) in zip("abc", cfg.fig_states):
        p = replace(cfg.params, V=V)
        (snap,) = _snapshot_run(p, [state0], t_snap, cfg)
        _, snapshot, _, cov_traj = _state_run(cfg, p, snap, manifest, name)
        cov = cov_traj.final_cov
        a = snapshot.alphas
        emit(f"fig3{tag}_phases.csv", io.write_csv, ["l", "phi"],
             [(l + 1, float(np.angle(a[l]))) for l in range(p.N)])
        emit(f"fig3{tag}_covariance.csv", io.write_covariance, cov)
        psi = weighted_correlation(p, cov)
        emit(f"fig3{tag}_psi.csv", io.write_csv, ["l", "psi"],
             [(l + 1, psi[l]) for l in range(p.N)])


def _run_fig4(cfg: ExperimentConfig, state0: MeanFieldState, emit, manifest: dict) -> None:
    manifest["regime"] = {}
    scan_rows = []
    mi_rows = []
    part = Partition(cfg.mi_partition)
    for name, V, t_snap in cfg.fig_states:
        p = replace(cfg.params, V=V)
        (snap,) = _snapshot_run(p, [state0], t_snap, cfg)
        _, _, _, cov_traj = _state_run(cfg, p, snap, manifest, name)
        scan = mi_scan(p, cov_traj.final_cov)
        scan_rows.extend((name, V, L, scan[L]) for L in sorted(scan))
        for k in range(len(cov_traj)):
            mi_rows.append(
                (name, V, float(cov_traj.times[k]),
                 mutual_information(p, cov_traj.cov(k), part))
            )
    emit("fig4a_mi_scan.csv", io.write_csv, ["state", "V", "L", "I2"], scan_rows)
    emit("fig4b_mi_vs_t.csv", io.write_csv, ["state", "V", "t", "I2"], mi_rows)
    manifest["mi_partition"] = cfg.mi_partition


def _config_echo(cfg: ExperimentConfig) -> dict:
    return {
        "experiment": cfg.experiment,
        "params": io.params_to_json(cfg.params),
        "ic": None if cfg.ic is None else io.ic_spec_to_json(cfg.ic),
        "ic_file": cfg.ic_file,
        "t0": cfg.t0,
        "delta_t": cfg.delta_t,
        "dt_mf": cfg.dt_mf,
        "dt_cov": cfg.dt_cov,
        "sample_spacing": cfg.sample_spacing,
        "window_spacing": cfg.window_spacing,
        "classify_window": cfg.classify_window,
        "z_threshold": cfg.z_threshold,
        "w_min": cfg.w_min,
        "mi_partition": cfg.mi_partition,
        "outputs": cfg.outputs,
        "fig_states": [
            {"name": n, "V": v, "t0": t} for n, v, t in cfg.fig_states
        ],
    }


def _record_dict(record) -> dict:
    return {
        "t": record.t,
        "psi": [float(x) for x in record.psi],
        "ellipses": [
            {"site": e.site, "lambda_min": e.lambda_min,
             "lambda_max": e.lambda_max, "theta": e.theta}
            for e in record.ellipses
        ],
        "s2_total": record.s2_total,
        "mi_scan": {str(L): v for L, v in record.mi_scan.items()},
        "regime": _regime_dict(record.regime),
    }


def seed_sweep(cfg: ExperimentConfig, seeds: list[int]) -> tuple[dict, int]:
    """Run the experiment once per seed, with one batched mean-field
    transient for all seeds; summarize regimes and MI values.

    Returns (sweep manifest, exit code); a failed seed yields exit code 4
    and is listed with its error in the report, successful seeds are still
    written.
    """
    if not seeds:
        raise ConfigError("seed sweep needs at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"seed sweep has repeated seeds: {seeds}")
    if cfg.ic is None:
        raise ConfigError("seed sweep requires inline ic, not ic_file")
    outdir = Path(cfg.outputs)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "sweep_manifest.json").unlink(missing_ok=True)

    subs = [
        replace(cfg, ic=replace(cfg.ic, seed=seed), outputs=str(outdir / f"seed_{seed}"))
        for seed in seeds
    ]
    results, transient_s = _run_seeds(subs)
    rows = []
    mi_values = []
    widths = []
    failed = []
    errors = {}
    for seed, res in zip(seeds, results):
        if isinstance(res, Exception):  # collected into the partial-failure report
            failed.append(seed)
            errors[str(seed)] = _error_dict(res)
            rows.append((seed, "failed", "", "", ""))
            continue
        regime = res.get("regime") or {}
        if isinstance(regime, dict) and "regime" in regime:
            reg_name = regime["regime"]
            width = regime["coherent_width"]
            widths.append(width)
        else:
            reg_name, width = "", ""
        mi = res.get("mi_value", "")
        if mi != "":
            mi_values.append(mi)
        rows.append((seed, "ok", reg_name, width, mi))
    for stat, q in (("q1", 25), ("median", 50), ("q3", 75)):
        w = float(np.percentile(widths, q)) if widths else ""
        m = float(np.percentile(mi_values, q)) if mi_values else ""
        rows.append((stat, "", "", w, m))
    io.write_csv(
        outdir / "sweep_summary.csv",
        ["seed", "status", "regime", "coherent_width", "mi_value"],
        rows,
    )
    sweep_manifest = {
        "experiment": cfg.experiment,
        "version": __version__,
        "seeds": seeds,
        "failed_seeds": failed,
        "errors": errors,
        "transient_wall_time_s": transient_s,
        "files": ["sweep_summary.csv", "sweep_manifest.json"]
        + [f"seed_{s}" for s in seeds if s not in failed],
    }
    io.write_json(outdir / "sweep_manifest.json", sweep_manifest)
    return sweep_manifest, (4 if failed else 0)


def _error_dict(exc: Exception) -> dict:
    """Type, message and exit code of a failure: 2 for config errors (every
    ``ValueError``), 3 for numerical and any other module failures."""
    code = 2 if isinstance(exc, ValueError) else 3
    return {"type": type(exc).__name__, "message": str(exc), "exit_code": code}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="chimera-q",
        description="Run oscillator-ring experiments from a JSON config.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--seed", type=int, default=None, help="override the IC seed")
    parser.add_argument(
        "--seeds", default=None,
        help="comma-separated seed list; runs a sweep with per-seed subdirectories",
    )
    parser.add_argument("--out", default=None, help="output directory override")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.experiment, args.seed, args.out)
        if args.seeds is not None:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
            if cfg.ic is None:
                raise ConfigError("seed sweep requires inline ic, not ic_file")
            if len(seeds) == 1:
                cfg = replace(cfg, ic=replace(cfg.ic, seed=seeds[0]))
                run(cfg)
                return 0
            sweep, code = seed_sweep(cfg, seeds)
            for seed, error in sweep["errors"].items():
                print(json.dumps({"seed": int(seed), "error": error}), file=sys.stderr)
            return code
        run(cfg)
        return 0
    except Exception as exc:
        error = _error_dict(exc)
        print(json.dumps({"error": error}), file=sys.stderr)
        return error["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
