"""Experiment runner: mean-field runs, fluctuation propagation, analysis,
and figure-data pipelines, driven by JSON configs.

One loop, ``_run_seeds``, takes every run, sweep or ``reproduce-paper``
to its manifests: each distinct state the runs read (the state at ``t0``,
or a fig3/fig4 triplet entry) is integrated once, each mean-field phase as
one batch over the start states still going, then each run classifies its
states and runs its pipeline on them.

Every run writes its artifacts plus a ``manifest.json`` echoing the config;
CSV payloads are byte-identical across reruns with the same inputs.

Exit codes: 0 ok, 2 config error, 3 numerical error, 4 a failed run of a sweep or paper.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Callable
from dataclasses import astuple, dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, io
from .analysis import (
    _mutual_information,
    build_record,
    husimi_marginal,
    mi_scan,
    squeezing,
    weighted_correlation,
)
from .core import (
    MeanFieldState,
    NetworkParams,
    PathName,
    RangeError,
    check_fields,
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
    RegimeLabel,
    _step_count,
    classify,
    initial_conditions,
    integrate,
    integrate_many,
)


@dataclass(frozen=True)
class FigState:
    """One ``fig_states`` entry: a reference state of the fig3/fig4 triplet,
    integrated with its own coupling strength to its own snapshot time."""

    name: str
    V: float = field(metadata={">=": 0})
    t0: float = field(metadata={">=": 0})

    def __post_init__(self):
        check_fields(self, RangeError)
        if set(self.name) & set(',"\r\n'):  # the name is a CSV cell of fig4a/fig4b
            raise RangeError(f"name must hold no comma, quote or line break, got {self.name!r}")


#: the three reference states of the paper's figures
FIG_STATES = (
    FigState("chimera", 1.2, 3000.5),
    FigState("synchronized", 1.6, 25.5),
    FigState("desynchronized", 0.8, 8000.5),
)

#: file-name tag of each ``fig_states`` entry, in order (``fig3a_*``, ...)
_FIG_TAGS = "abc"

ENV_OUT = "CHIMERAQ_OUT"


class ConfigError(ValueError):
    """The experiment configuration is unusable."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config: each field is a config key, with its kind (the
    annotation), bounds (the metadata) and default.  Building one checks
    every field by one rule, ``core.check_fields`` (an object field by its
    kind alone: its object checked itself), then the rules that join keys.
    Raises ConfigError."""

    experiment: str
    params: NetworkParams
    t0: float = field(metadata={">=": 0})  # default: the experiment's (EXPERIMENTS)
    mi_partition: int  # default: from N, in load_config
    outputs: PathName  # default: runs/<experiment>
    ic: InitialConditionSpec | None = InitialConditionSpec()
    ic_file: PathName | None = None
    delta_t: float = field(default=0.5, metadata={">": 0})
    dt_mf: float = field(default=0.01, metadata={">": 0})
    dt_cov: float = field(default=0.001, metadata={">": 0})
    sample_spacing: float = field(default=1.0, metadata={">": 0})
    window_spacing: float = field(default=0.1, metadata={">": 0})
    classify_window: float = field(default=10.0, metadata={">": 0})
    z_threshold: float = field(default=0.8, metadata={">": 0, "<=": 1})
    w_min: int = field(default=5, metadata={">=": 1})
    fig_states: tuple[FigState, ...] = FIG_STATES
    #: the start state read from ``ic_file`` by load_config; not a key
    ic_state: MeanFieldState | None = field(default=None, compare=False, metadata={"key": False})

    def __post_init__(self):
        check_fields(self, ConfigError)
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment: {self.experiment!r}")
        from_file = self.ic_file is not None
        if (self.ic is None) != from_file or (self.ic_state is None) == from_file:
            raise ConfigError("give exactly one of ic and ic_file, and ic_state with ic_file")
        if self.ic_state is not None and self.ic_state.n_sites != self.params.N:
            raise ConfigError(f"ic_file has N={self.ic_state.n_sites}, "
                              f"config has N={self.params.N}")
        # a step count beyond the float range (OverflowError) is off the grid
        try:
            _step_count(0.0, self.delta_t, self.dt_cov)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"dt_cov must divide delta_t: {exc}") from exc
        if not 1 <= self.mi_partition <= self.params.N - 1:
            raise ConfigError(
                f"mi_partition must be in 1..{self.params.N - 1}, got {self.mi_partition}"
            )
        if not 1 <= len(self.fig_states) <= len(_FIG_TAGS):
            raise ConfigError(
                f"fig_states needs 1 to {len(_FIG_TAGS)} entries, got {len(self.fig_states)}"
            )
        names = [s.name for s in self.fig_states]
        if len(set(names)) != len(names):
            raise ConfigError(f"fig_states has repeated names: {names}")
        # each snapshot time is at or after the start's, its phases on the dt_mf grid
        start = 0.0 if self.ic_state is None else self.ic_state.t
        for name, _, t_snap in self.snapshots():
            key = "t0" if name is None else f"t0 of fig state {name}"
            if t_snap < start:
                raise ConfigError(f"{key} must be >= the ic_file's t={start}, got {t_snap}")
            try:
                _phases(start, t_snap, self)
            except ConfigError:
                raise
            except (ValueError, OverflowError) as exc:
                raise ConfigError(f"{key} is off the dt_mf grid: {exc}") from exc

    def snapshots(self) -> list[tuple[str | None, NetworkParams, float]]:
        """(name, params, snapshot time) of each state the experiment reads:
        the state at ``t0``, or for the triplet each ``fig_states`` entry
        with its own V.  Every state starts from the run's start state."""
        if EXPERIMENTS[self.experiment].triplet:
            return [(s.name, replace(self.params, V=s.V), s.t0) for s in self.fig_states]
        return [(None, self.params, self.t0)]


def load_config(path: str, experiment: str, seed: int | None, out: str | None) -> ExperimentConfig:
    """Parse a config file against the requested experiment and build the
    checked config from it; ``seed`` overrides the inline ``ic`` seed,
    ``out`` the output path.  An ``ic_file`` is read first, so an unusable
    one is a config error too, and the config is built from its state."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment: {experiment!r}")
    if obj.get("experiment", experiment) != experiment:
        raise ConfigError(
            f"config names experiment {obj['experiment']!r} but {experiment!r} was requested"
        )
    if "params" not in obj:
        raise ConfigError("config is missing 'params'")
    try:
        params = io.read_object(NetworkParams, obj["params"], "params")
        ic_file = io.read("ic_file", obj.get("ic_file"), PathName | None)
        outputs = io.read("outputs", obj.get("outputs", f"runs/{experiment}"), PathName)
        ic, state = None, None
        if ic_file is None or "ic" in obj:  # with both, the config is refused
            ic = io.read_object(InitialConditionSpec, obj.get("ic", {}), "ic")
            ic = ic if seed is None else replace(ic, seed=seed)
        elif seed is not None:
            raise ConfigError("a seed override needs inline ic, not ic_file")
        else:
            try:
                state, _ = io.load_state(ic_file)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"unusable ic_file {ic_file}: {exc}") from exc
        n = params.N
        defaults = {"t0": EXPERIMENTS[experiment].t0,
                    "mi_partition": max(1, min(2 * n // 5, n - 1))}
        return io.read_object(
            ExperimentConfig, {**defaults, **obj}, "config",
            experiment=experiment, params=params, ic=ic, ic_file=ic_file, ic_state=state,
            outputs=io.read("--out", out, PathName | None) or os.environ.get(ENV_OUT) or outputs,
            fig_states=_fig_states(obj["fig_states"]) if "fig_states" in obj else FIG_STATES,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _fig_states(entries) -> tuple[FigState, ...]:
    if not isinstance(entries, list):
        raise ValueError(f"fig_states must be a JSON list, got {entries!r}")
    try:
        return tuple(io.read_object(FigState, e, "entry") for e in entries)
    except ValueError as exc:
        raise ValueError(f"fig_states: {exc}") from None


def _phases(start: float, t0: float, cfg: ExperimentConfig) -> list[tuple[float, int]]:
    """(end time, ``sample_every``) of each phase from ``start`` to ``t0``:
    the transient every ``sample_spacing``, then the classify window of
    ``min(classify_window, t0 - start)`` every ``window_spacing``.  Raises
    ValueError or OverflowError if ``t0`` is off the ``dt_mf`` grid from
    ``start``, ConfigError if a length a phase uses is not whole steps (a
    classify window to the absolute 1e-9 of the span check that reads it)."""
    dt = cfg.dt_mf

    def steps(key: str) -> int:
        length = getattr(cfg, key)
        try:
            return _step_count(0.0, length, dt)
        except OverflowError:
            raise ConfigError(f"{key}={length} is too many dt_mf steps to count") from None
        except ValueError:
            raise ConfigError(f"{key}={length} is not a multiple of dt_mf={dt}") from None

    if t0 == start:
        return []
    window = min(cfg.classify_window, t0 - start)
    if window < t0 - start and abs(steps("classify_window") * dt - window) > 1e-9:
        raise ConfigError(f"classify_window={window} is not a multiple of dt_mf={dt}")
    t_mid = start + round((t0 - window - start) / dt) * dt  # start: the window is the run
    _step_count(t_mid, t0, dt)
    phases = [(t0, steps("window_spacing"))]
    if t_mid > start + 0.5 * dt:
        phases.insert(0, (t_mid, steps("sample_spacing")))
    return phases


def _classify_window(parts: list[MeanFieldTrajectory], cfg: ExperimentConfig):
    """The regime of the last part, the fine window, if it is long enough."""
    fine = parts[-1] if parts else None
    if fine is None or fine.times[-1] - fine.times[0] + 1e-9 < cfg.classify_window:
        return None
    return classify(
        fine, window=cfg.classify_window,
        z_threshold=cfg.z_threshold, w_min=cfg.w_min,
    )


#: rows per grid chunk: the phase and r^2 grids are computed this many rows
#: at a time, so a grid's memory does not grow with the length of a part
_GRID_CHUNK_ROWS = 4096

#: each grid column from the amplitudes: the phase in (-pi, pi] and |alpha|^2
_GRID_COLUMNS = {"phi": np.angle, "r2": lambda a: a.real**2 + a.imag**2}


def _grid_blocks(parts: list[MeanFieldTrajectory], columns: tuple[str, ...]):
    """CSV text of the rows (t, l, *columns) over consecutive parts, one
    block per sample time (its N rows).  Each part after the first starts
    at the last sample of the one before, so its first sample is skipped:
    a boundary sample is written once."""
    for j, traj in enumerate(parts):
        n = traj.params.N
        lines = io.line_templates([(l + 1,) for l in range(n)], len(columns))
        step = max(1, _GRID_CHUNK_ROWS // n)
        for k in range(1 if j else 0, len(traj), step):
            a = traj.alphas[k : k + step]
            # (times, N, columns): each sample time's numbers in line order
            cells = np.stack([_GRID_COLUMNS[c](a) for c in columns], axis=-1)
            for t, values in zip(traj.times[k : k + step].tolist(), cells):
                yield io.block(io.fmt(t), lines, values.ravel().tolist())


class _State(NamedTuple):
    """One state an experiment reads (see ``ExperimentConfig.snapshots``):
    its transient parts, snapshot and regime label."""

    name: str | None
    params: NetworkParams
    parts: list[MeanFieldTrajectory]
    snapshot: MeanFieldState
    label: RegimeLabel | None


def _covariance(r: _Run, s: _State, observe=None) -> CovarianceTrajectory:
    """Covariance over ``delta_t`` from a vacuum start at the state's
    snapshot, checked every ``delta_t / 50``; ``observe`` is shown each
    checked sample (see :func:`propagate_covariance`).

    Records in the manifest the smallest physicality margin over the
    samples, the number that passed on a certificate and the largest
    ``kappa2 |alpha|^2 / kappa1`` on the segment, suffixed with the state's
    name for the triplet, and whether ``delta_t`` is beyond the validated
    horizon.
    """
    cfg, p, snapshot = r.cfg, s.params, s.snapshot
    seg = integrate(p, snapshot, snapshot.t + cfg.delta_t, dt=cfg.dt_cov,
                    sample_every=max(1, round(cfg.delta_t / 50.0 / cfg.dt_cov)))
    cov_traj = propagate_covariance(
        p, seg, vacuum_covariance(p, t=snapshot.t), dt=cfg.dt_cov, observe=observe
    )
    suffix = "" if s.name is None else f"_{s.name}"
    r.manifest[f"physicality_margin_min{suffix}"] = cov_traj.margin_min
    r.manifest[f"physicality_certified{suffix}"] = cov_traj.certified
    r.manifest[f"vacuum_bound_ratio_max{suffix}"] = cov_traj.vacuum_bound_ratio_max
    r.manifest["beyond_validated_horizon"] = bool(cfg.delta_t > VALIDATED_HORIZON + 1e-12)
    return cov_traj


class _Run:
    """One run in progress: output directory, manifest, its own wall time
    and the transient parts of each state it reads, by state key.

    Opening a run draws (or takes the ``ic_file``'s) start state, so a
    draw that fails writes nothing, then removes any earlier
    ``manifest.json`` and writes the start state.
    """

    def __init__(self, cfg: ExperimentConfig):
        t_start = time.monotonic()
        self.cfg = cfg
        self.state0 = cfg.ic_state or initial_conditions(cfg.params, cfg.ic)
        self.outdir = _make_dir(Path(cfg.outputs))
        (self.outdir / "manifest.json").unlink(missing_ok=True)
        self.files: list[str] = []
        config = io.to_json(cfg)
        # the key the experiment never reads: the triplet's states have their own t0
        del config["t0" if EXPERIMENTS[cfg.experiment].triplet else "fig_states"]
        self.manifest: dict = {
            "experiment": cfg.experiment,
            "version": __version__,
            "config": config,
        }
        self.emit("initial_conditions.json", io.save_state, self.state0, cfg.params, cfg.ic)
        # all that fixes the parts of each state the run reads but the start state
        start = self.state0.t
        self.keys = [(p, start, cfg.dt_mf, tuple(_phases(start, t, cfg)))
                     for _, p, t in cfg.snapshots()]
        self.parts: dict[tuple, list[MeanFieldTrajectory]] = {}
        self.wall_s = time.monotonic() - t_start

    def emit(self, name: str, writer, *args, **kwargs) -> None:
        writer(self.outdir / name, *args, **kwargs)
        self.files.append(name)


def _make_dir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {path}: {exc}") from exc
    return path


def _attempt(fn, *args):
    """``fn(*args)``, or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # kept per run; the caller decides what to raise
        return exc


def _run_seeds(cfgs: list[ExperimentConfig]) -> tuple[list[dict | Exception], float]:
    """Run configs of one config file, of any experiments and seeds.

    Every run first draws and writes its start state.  Then each distinct
    state the runs read (``_Run.keys``) is integrated once, in the order
    they first read it: each phase of its transient and classify window
    (``_phases``) is one ``integrate_many`` batch with a row per start
    state still going, whose parts every run reading it holds.  A row that
    fails ends its runs, which skip their later states; an exception from
    the batch call ends every run in the batch.  Each run then classifies,
    propagates and writes on its own.

    ``runs[i]`` is run i's one result slot: its ``_Run``, then its manifest
    or the exception that ended it; returns the slots and the wall time of
    the batched transients.  A run's ``wall_time_s`` counts them only when
    the invocation held that run alone.
    """
    runs: list = [_attempt(_Run, c) for c in cfgs]
    alone = sum(isinstance(r, _Run) for r in runs) == 1
    t_start = time.monotonic()
    for key in dict.fromkeys(k for r in runs if isinstance(r, _Run) for k in r.keys):
        p, _, dt, phases = key
        rows: dict[bytes, tuple[list, list[int]]] = {}  # per start state: parts, runs
        for i in [i for i, r in enumerate(runs) if isinstance(r, _Run) and key in r.keys]:
            parts, idx = rows.setdefault(runs[i].state0.alphas.tobytes(), ([], []))
            idx.append(i)
            runs[i].parts[key] = parts
        for t_end, every in phases if rows else ():
            heads = [parts[-1].final_state if parts else runs[idx[0]].state0
                     for parts, idx in rows.values()]
            batch = _attempt(integrate_many, p, heads, t_end, dt, every)
            for row, traj in zip(list(rows),
                                 [batch] * len(rows) if isinstance(batch, Exception) else batch):
                parts, idx = rows[row]
                if isinstance(traj, Exception):
                    del rows[row]
                    for i in idx:
                        runs[i] = traj  # drops the run's parts
                else:
                    parts.append(traj)
    transient_s = time.monotonic() - t_start
    for i, r in enumerate(runs):
        if isinstance(r, _Run):
            r.wall_s += transient_s if alone else 0.0
            runs[i] = _attempt(_finish, r)
    return runs, transient_s


def run(cfg: ExperimentConfig) -> dict:
    """Execute the configured experiment; returns the manifest dict."""
    (result,), _ = _run_seeds([cfg])
    if isinstance(result, Exception):
        raise result
    return result


def _finish(r: _Run) -> dict:
    """Classify the run's transient parts, one list per state, and record
    their regimes (a single state also writes ``snapshot.json``: its last
    part's final state, or the start state), then run the experiment's
    pipeline on them; the manifest is written last."""
    t_start = time.monotonic()
    states = [
        _State(name, p, parts, parts[-1].final_state if parts else r.state0,
               _classify_window(parts, r.cfg))
        for (name, p, _), parts in zip(r.cfg.snapshots(), [r.parts[k] for k in r.keys])
    ]
    experiment = EXPERIMENTS[r.cfg.experiment]
    if experiment.triplet:
        r.manifest["regime"] = io.to_json({s.name: s.label for s in states})
    else:
        (s,) = states
        r.manifest["regime"] = io.to_json(s.label)
        r.emit("snapshot.json", io.save_state, s.snapshot, s.params, None)
    experiment.pipeline(r, states)
    r.manifest["files"] = r.files + ["manifest.json"]
    r.manifest["wall_time_s"] = r.wall_s + time.monotonic() - t_start
    io.write_json(r.outdir / "manifest.json", r.manifest)
    return r.manifest


def _meanfield(r: _Run, states: list[_State]) -> None:
    (s,) = states
    r.emit("meanfield_grid.csv", io.write_csv, ["t", "l", "phi", "r2"],
           blocks=_grid_blocks(s.parts, ("phi", "r2")))


def _fig1(r: _Run, states: list[_State]) -> None:
    (s,) = states
    for column in ("phi", "r2"):
        r.emit(f"fig1_{column}.csv", io.write_csv, ["t", "l", column],
               blocks=_grid_blocks(s.parts, (column,)))


def _fluctuations(r: _Run, states: list[_State]) -> None:
    (s,) = states
    cov_traj = _covariance(r, s)
    r.emit("covariance.csv", io.write_covariance, cov_traj.final_cov)
    r.emit("covariance_meta.json", io.write_json, {
        "params": io.to_json(s.params),
        "t_i": s.snapshot.t,
        "delta_t": r.cfg.delta_t,
        "dt_cov": r.cfg.dt_cov,
        "physicality_margin_min": cov_traj.margin_min,
    })


def _scan_mi(r: _Run, states: list[_State]) -> None:
    (s,) = states
    scan = mi_scan(s.params, _covariance(r, s).final_cov)
    r.emit("mi_scan.csv", io.write_csv, ["L", "I2"], sorted(scan.items()))


def _analyze(r: _Run, states: list[_State]) -> None:
    (s,) = states
    record = build_record(s.params, _covariance(r, s).final_cov, regime=s.label)
    r.emit("analysis.json", io.write_json, io.to_json(record))
    r.emit("mi_scan.csv", io.write_csv, ["L", "I2"], sorted(record.mi_scan.items()))
    r.emit("ellipses.csv", io.write_csv, ["l", "lambda_min", "lambda_max", "theta"],
           [astuple(e) for e in record.ellipses])
    r.manifest["mi_value"] = record.mi_scan[r.cfg.mi_partition]
    r.manifest["mi_partition"] = r.cfg.mi_partition


def _fig2(r: _Run, states: list[_State]) -> None:
    (s,) = states
    p = s.params
    cov = _covariance(r, s).final_cov
    a = s.snapshot.alphas
    scale = np.sqrt(2.0 * p.hbar)
    r.emit("fig2_phases.csv", io.write_csv, ["l", "q", "p", "phi", "r"],
           [(l + 1, scale * a[l].real, scale * a[l].imag,
             float(np.angle(a[l])), float(np.abs(a[l])))
            for l in range(p.N)])
    r.emit("fig2_ellipses.csv", io.write_csv, ["l", "lambda_min", "lambda_max", "theta"],
           [astuple(e) for e in squeezing(p, cov)])
    rows = []
    for l in range(1, p.N + 1):
        H = husimi_marginal(p, cov, l)
        rows.append((l, H[0, 0], H[0, 1], H[1, 1]))
    r.emit("fig2_husimi.csv", io.write_csv, ["l", "qq", "qp", "pp"], rows)


def _fig3(r: _Run, states: list[_State]) -> None:
    for tag, s in zip(_FIG_TAGS, states):
        p = s.params
        cov = _covariance(r, s).final_cov
        a = s.snapshot.alphas
        r.emit(f"fig3{tag}_phases.csv", io.write_csv, ["l", "phi"],
               [(l + 1, float(np.angle(a[l]))) for l in range(p.N)])
        r.emit(f"fig3{tag}_covariance.csv", io.write_covariance, cov)
        psi = weighted_correlation(p, cov)
        r.emit(f"fig3{tag}_psi.csv", io.write_csv, ["l", "psi"],
               [(l + 1, psi[l]) for l in range(p.N)])


def _fig4(r: _Run, states: list[_State]) -> None:
    scan_rows = []
    mi_rows = []  # one I2 per checked covariance sample, as it is produced
    for s in states:
        name, V = s.name, s.params.V

        def observe(t, C):
            mi_rows.append((name, V, t, _mutual_information(C, r.cfg.mi_partition)))

        scan = mi_scan(s.params, _covariance(r, s, observe).final_cov)
        scan_rows.extend((name, V, L, scan[L]) for L in sorted(scan))
    r.emit("fig4a_mi_scan.csv", io.write_csv, ["state", "V", "L", "I2"], scan_rows)
    r.emit("fig4b_mi_vs_t.csv", io.write_csv, ["state", "V", "t", "I2"], mi_rows)
    r.manifest["mi_partition"] = r.cfg.mi_partition


class _Experiment(NamedTuple):
    pipeline: Callable[[_Run, list[_State]], None]
    t0: float  # default snapshot time
    #: reads the ``fig_states`` triplet instead of the one state at ``t0``
    triplet: bool = False


#: every experiment, by name
EXPERIMENTS = {
    "meanfield": _Experiment(_meanfield, 3000.5),
    "fluctuations": _Experiment(_fluctuations, 3000.5),
    "analyze": _Experiment(_analyze, 3000.5),
    "scan-mi": _Experiment(_scan_mi, 3000.5),
    "reproduce-fig1": _Experiment(_fig1, 3000.5),
    "reproduce-fig2": _Experiment(_fig2, 3000.0),
    "reproduce-fig3": _Experiment(_fig3, 3000.5, triplet=True),
    "reproduce-fig4": _Experiment(_fig4, 3000.5, triplet=True),
}


def seed_sweep(cfg: ExperimentConfig, seeds: list[int]) -> tuple[dict, int]:
    """Run the experiment once per seed through one ``_run_seeds`` call and
    summarize regimes (of a single-state experiment) and MI values.  Returns
    (sweep manifest, exit code): 4 if a seed failed, the others still
    written."""
    sweep = _sweep_report(cfg, seeds, *_run_seeds(_sweep_configs(cfg, seeds)))
    return sweep, (4 if sweep["failed_seeds"] else 0)


def _sweep_configs(cfg: ExperimentConfig, seeds: list[int]) -> list[ExperimentConfig]:
    """Each seed's config, into ``seed_<k>/`` of the sweep directory, made."""
    if not seeds:
        raise ConfigError("seed sweep needs at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"seed sweep has repeated seeds: {seeds}")
    if cfg.ic is None:
        raise ConfigError("seed sweep requires inline ic, not ic_file")
    outdir = Path(cfg.outputs)
    try:  # every seed's config is built, so checked, before anything is written
        subs = [
            replace(cfg, ic=replace(cfg.ic, seed=seed), outputs=str(outdir / f"seed_{seed}"))
            for seed in seeds
        ]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    (_make_dir(outdir) / "sweep_manifest.json").unlink(missing_ok=True)
    return subs


def _sweep_report(cfg: ExperimentConfig, seeds: list[int], results, transient_s) -> dict:
    """Write the sweep's summary and manifest from its seeds' results."""
    outdir = Path(cfg.outputs)
    errors = {str(s): _error_dict(r) for s, r in zip(seeds, results) if isinstance(r, Exception)}
    rows = []
    for seed, res in zip(seeds, results):
        if isinstance(res, Exception):
            rows.append((seed, "failed", "", "", ""))
            continue
        regime = {} if EXPERIMENTS[cfg.experiment].triplet else res["regime"] or {}
        rows.append((seed, "ok", regime.get("regime", ""), regime.get("coherent_width", ""),
                     res.get("mi_value", "")))
    # the quartiles of each column over the seeds that have it
    columns = [[row[k] for row in rows if row[k] != ""] for k in (3, 4)]
    rows += [(stat, "", "", *(float(np.percentile(c, q)) if c else "" for c in columns))
             for stat, q in (("q1", 25), ("median", 50), ("q3", 75))]
    io.write_csv(
        outdir / "sweep_summary.csv",
        ["seed", "status", "regime", "coherent_width", "mi_value"],
        rows,
    )
    sweep_manifest = {
        "experiment": cfg.experiment,
        "version": __version__,
        "seeds": seeds,
        "failed_seeds": [int(k) for k in errors],
        "errors": errors,
        "transient_wall_time_s": transient_s,
        # every seed's directory the sweep leaves, a failed seed's included
        "files": ["sweep_summary.csv", "sweep_manifest.json"]
        + [f"seed_{s}" for s in seeds if (outdir / f"seed_{s}").exists()],
    }
    io.write_json(outdir / "sweep_manifest.json", sweep_manifest)
    return sweep_manifest


def _reproduce_paper(cfgs: list[ExperimentConfig], seeds: list[int] | None) -> dict:
    """Run every experiment, once or as a sweep over ``seeds``, into
    ``<top>/<experiment>`` through one ``_run_seeds`` call; returns the
    paper manifest, which lists each failed run."""
    given = {c.outputs for c in cfgs}  # one path if given, else runs/<experiment> each
    top = Path(given.pop() if len(given) == 1 else "runs/reproduce-paper")
    cfgs = [replace(c, outputs=str(top / c.experiment)) for c in cfgs]
    subs = [s for c in cfgs for s in ([c] if seeds is None else _sweep_configs(c, seeds))]
    (_make_dir(top) / "paper_manifest.json").unlink(missing_ok=True)
    results, transient_s = _run_seeds(subs)
    for k, cfg in enumerate(cfgs if seeds is not None else ()):
        _sweep_report(cfg, seeds, results[k * len(seeds) : (k + 1) * len(seeds)], transient_s)
    paper = {
        "experiment": "reproduce-paper",
        "version": __version__,
        "failed": [{"experiment": c.experiment, "seed": None if c.ic is None else c.ic.seed,
                    "error": _error_dict(res)}
                   for c, res in zip(subs, results) if isinstance(res, Exception)],
        "transient_wall_time_s": transient_s,
        "files": [c.experiment for c in cfgs if (top / c.experiment).exists()]
        + ["paper_manifest.json"],
    }
    io.write_json(top / "paper_manifest.json", paper)
    return paper


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
    parser.add_argument("experiment", choices=[*EXPERIMENTS, "reproduce-paper"])
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--seed", type=int, default=None, help="override the IC seed")
    parser.add_argument(
        "--seeds", default=None,
        help="comma-separated seed list; runs a sweep with per-seed subdirectories",
    )
    parser.add_argument("--out", default=None, help="output directory override")
    args = parser.parse_args(argv)

    try:
        seed, sweep_seeds = args.seed, None
        if args.seeds is not None:
            if args.seed is not None:
                raise ConfigError("give either --seed or --seeds, not both")
            try:
                seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
            except ValueError as exc:
                raise ConfigError(
                    f"--seeds must be comma-separated integers, got {args.seeds!r}"
                ) from exc
            if len(seeds) == 1:
                (seed,) = seeds
            else:
                sweep_seeds = seeds
        if args.experiment == "reproduce-paper":
            cfgs = [load_config(args.config, e, seed, args.out) for e in EXPERIMENTS]
            paper = _reproduce_paper(cfgs, sweep_seeds)
            for failure in paper["failed"]:
                print(json.dumps(failure), file=sys.stderr)
            return 4 if paper["failed"] else 0
        cfg = load_config(args.config, args.experiment, seed, args.out)
        if sweep_seeds is not None:
            sweep, code = seed_sweep(cfg, sweep_seeds)
            for failed, error in sweep["errors"].items():
                print(json.dumps({"seed": int(failed), "error": error}), file=sys.stderr)
            return code
        run(cfg)
        return 0
    except Exception as exc:
        error = _error_dict(exc)
        print(json.dumps({"error": error}), file=sys.stderr)
        return error["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
