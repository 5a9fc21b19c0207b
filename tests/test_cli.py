import contextlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import weakref
from dataclasses import MISSING, dataclass, replace
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chimeraq import analysis, cli, io
from chimeraq.cli import main
from chimeraq.core import (
    BOUNDS,
    CovarianceMatrix,
    DivergenceError,
    MeanFieldState,
    NetworkParams,
    RangeError,
)
from chimeraq.meanfield import (
    InitialConditionSpec,
    MeanFieldTrajectory,
    initial_conditions,
    integrate,
    spacetime_grid,
)
from oracles import load_covariance
from test_stepper import oracle_covariance


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "params": {"N": 6, "d": 2, "V": 0.9, "kappa2": 0.2, "hbar": 1.0},
        "ic": {"seed": 1},
        "t0": 12.0,
        "delta_t": 0.5,
        "dt_mf": 1e-2,
        "dt_cov": 1e-3,
        "sample_spacing": 0.5,
        "window_spacing": 0.1,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


#: an ``ic_file`` value that :func:`start_from_state_at_10_5` replaces
STATE_AT_10_5 = "<a state file at t=10.5>"


def start_from_state_at_10_5(cfg: Path) -> None:
    """Make the config at ``cfg`` start from a state file at t=10.5 (N=6,
    beside it) in place of its inline ``ic``."""
    state = cfg.parent / "state.json"
    io.save_state(state, MeanFieldState(10.5, np.full(6, 1.5 + 0.5j)),
                  NetworkParams(N=6, d=2, V=0.9, kappa2=0.2), None)
    obj = json.loads(cfg.read_text())
    del obj["ic"]
    cfg.write_text(json.dumps({**obj, "ic_file": str(state)}))


def oracle_cell(x) -> str:
    """The per-cell rule every CSV payload must reproduce: 17 significant
    digits for floats, numpy floats included; ``str`` for anything else."""
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def oracle_csv(header: list[str], rows) -> bytes:
    lines = [",".join(header)] + [",".join(oracle_cell(x) for x in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def oracle_grid_rows(parts, columns):
    """Rows (t, l, *columns) of ``spacetime_grid`` over consecutive parts,
    each time once."""
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


def oracle_covariance_rows(C: np.ndarray):
    """Lower triangle, row-major, with (site, quadrature) labels."""

    def label(i: int) -> tuple[int, str]:
        return i // 2 + 1, "q" if i % 2 == 0 else "p"

    for i in range(C.shape[0]):
        for j in range(i + 1):
            yield (*label(i), *label(j), C[i, j])


COVARIANCE_HEADER = ["row_site", "row_quad", "col_site", "col_quad", "value"]


def read_manifest(outdir: Path) -> dict:
    return json.loads((outdir / "manifest.json").read_text())


class TestIo:
    def test_state_roundtrip(self, tmp_path, small_params):
        rng = np.random.default_rng(0)
        state = MeanFieldState(3.5, rng.standard_normal(6) + 1j * rng.standard_normal(6))
        io.save_state(tmp_path / "s.json", state, small_params, InitialConditionSpec(seed=4))
        loaded, p = io.load_state(tmp_path / "s.json")
        assert p == small_params
        assert loaded.t == 3.5
        assert np.array_equal(loaded.alphas, state.alphas)

    def test_state_file_layout(self, tmp_path, small_params):
        state = MeanFieldState(0.0, np.arange(6) + 0.5j)
        io.save_state(tmp_path / "s.json", state, small_params, None)
        obj = json.loads((tmp_path / "s.json").read_text())
        assert obj["alphas"][2] == [2.0, 0.5]
        assert obj["params"]["N"] == 6
        assert len(obj["alphas"]) == 6

    def test_params_unknown_key(self):
        with pytest.raises(ValueError, match="unknown"):
            io.read_object(NetworkParams, {"N": 6, "d": 2, "V": 1.0, "kappa2": 0.2, "gamma": 1.0},
                           "params")

    @pytest.mark.parametrize("value", [None, -0.0, 5e-324, 1e308, 1.0 / 3.0])
    def test_covariance_roundtrip(self, tmp_path, value):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((8, 8))
        from chimeraq import CovarianceMatrix

        C = m + m.T
        if value is not None:
            C[5, 2] = C[2, 5] = C[3, 3] = value
        cov = CovarianceMatrix(0.0, C)
        io.write_covariance(tmp_path / "c.csv", cov)
        loaded = load_covariance(tmp_path / "c.csv")
        assert np.array_equal(loaded.C, cov.C)
        assert np.array_equal(np.signbit(loaded.C), np.signbit(cov.C))
        header = (tmp_path / "c.csv").read_text().splitlines()[0]
        assert header == "row_site,row_quad,col_site,col_quad,value"
        assert (tmp_path / "c.csv").read_bytes() == oracle_csv(
            COVARIANCE_HEADER, oracle_covariance_rows(cov.C)
        )

    def test_block_keeps_percent_signs_in_labels(self):
        lines = io.line_templates([("a%s", 2), ("%d",)], 2)
        assert io.block("5%", lines, [0.5, 1.0, 1.0 / 3.0, -0.0]) == (
            "5%,a%s,2,0.5,1\n5%,%d,0.33333333333333331,-0\n"
        )

    def test_to_json(self):
        @dataclass(frozen=True)
        class Inner:
            z: complex
            flag: bool

        @dataclass(frozen=True)
        class Outer:
            a: np.ndarray
            scan: dict
            inner: Inner
            pair: tuple
            alphas: np.ndarray

        x = Outer(
            np.array([[1.0, 2.5], [3.0, -0.0]]),
            {1: np.float64(0.25), 20: np.int64(2), "k": [np.bool_(False)]},
            Inner(np.complex128(1.5 - 2j), np.bool_(True)),
            (np.float64(1.0 / 3.0), None, "s"),
            np.array([1 + 2j, -0.5j]),
        )
        got = io.to_json(x)
        assert got == {
            "a": [[1.0, 2.5], [3.0, -0.0]],
            "scan": {"1": 0.25, "20": 2, "k": [False]},
            "inner": {"z": [1.5, -2.0], "flag": True},
            "pair": [1.0 / 3.0, None, "s"],
            "alphas": [[1.0, 2.0], [0.0, -0.5]],
        }

        def types(v):
            if isinstance(v, dict):
                return set().union(*map(types, v.values()), map(type, v))
            if isinstance(v, list):
                return set().union(*map(types, v))
            return {type(v)}

        # Python scalars only: numpy's are gone, not merely equal
        assert types(got) == {str, float, int, bool, type(None)}
        assert io.to_json(1 + 0j) == [1.0, 0.0]

    def test_csv_float_formatting(self, tmp_path):
        io.write_csv(tmp_path / "x.csv", ["a"], [(1.0 / 3.0,)])
        body = (tmp_path / "x.csv").read_text().splitlines()[1]
        assert body == "0.33333333333333331"


def transient_parts(cfg: cli.ExperimentConfig, p: NetworkParams, t0: float):
    """The parts of a run's transient to ``t0``: one ``integrate`` from the
    drawn start state per phase of ``cli._phases``."""
    state = initial_conditions(cfg.params, cfg.ic)
    parts = []
    for t_end, every in cli._phases(state.t, t0, cfg):
        parts.append(integrate(p, state, t_end, dt=cfg.dt_mf, sample_every=every))
        state = parts[-1].final_state
    return parts


class TestCsvBytes:
    """Grid and covariance payloads, written a block at a time, hold the
    bytes of the per-cell rule applied to the numbers they come from."""

    @staticmethod
    def _run(tmp_path, experiment):
        out = tmp_path / experiment
        cfg_path = write_config(tmp_path / "c.json", outputs=str(out))
        assert main([experiment, "--config", str(cfg_path)]) == 0
        cfg = cli.load_config(str(cfg_path), experiment, None, None)
        return out, cfg, transient_parts(cfg, cfg.params, cfg.t0)

    @pytest.mark.parametrize("experiment, files", [
        ("meanfield", {"meanfield_grid.csv": ("phi", "r2")}),
        ("reproduce-fig1", {"fig1_phi.csv": ("phi",), "fig1_r2.csv": ("r2",)}),
    ])
    def test_grid_bytes(self, tmp_path, experiment, files):
        out, cfg, parts = self._run(tmp_path, experiment)
        # the sparse transient and the classify window share a boundary time
        assert len(parts) == 2
        boundary = float(parts[0].times[-1])
        assert boundary == float(parts[1].times[0])
        for name, columns in files.items():
            data = (out / name).read_bytes()
            assert data == oracle_csv(["t", "l", *columns], oracle_grid_rows(parts, columns))
            at_boundary = [line for line in data.decode().splitlines()
                           if line.startswith(oracle_cell(boundary) + ",")]
            assert len(at_boundary) == cfg.params.N

    @pytest.mark.parametrize("t0", [5.5, 0.0])
    def test_grid_bytes_of_one_part_or_none(self, tmp_path, t0):
        # below classify_window the window is the one part; at the start
        # time there is no part, and the grid is its header alone
        out = tmp_path / "meanfield"
        cfg_path = write_config(tmp_path / "c.json", outputs=str(out), t0=t0)
        assert main(["meanfield", "--config", str(cfg_path)]) == 0
        cfg = cli.load_config(str(cfg_path), "meanfield", None, None)
        parts = transient_parts(cfg, cfg.params, t0) if t0 else []
        assert len(parts) == (1 if t0 else 0)
        assert (out / "meanfield_grid.csv").read_bytes() == oracle_csv(
            ["t", "l", "phi", "r2"], oracle_grid_rows(parts, ("phi", "r2")))

    def test_covariance_bytes(self, tmp_path):
        out, cfg, parts = self._run(tmp_path, "fluctuations")
        p, snapshot = cfg.params, parts[-1].final_state
        # checked every delta_t / 50 = 10 steps of dt_cov, from the vacuum
        seg = integrate(p, snapshot, snapshot.t + cfg.delta_t, dt=cfg.dt_cov, sample_every=10)
        covs, _, _ = oracle_covariance(p, seg, 0.5 * p.hbar * np.eye(2 * p.N), cfg.dt_cov)
        assert (out / "covariance.csv").read_bytes() == oracle_csv(
            COVARIANCE_HEADER, oracle_covariance_rows(covs[-1])
        )

    def test_triplet_bytes(self, tmp_path):
        # the scaled-down triplet of test_fig3_and_fig4_scaled_down; every
        # covariance sample comes from the allocating oracle stepper, so
        # each fig4b row is the I2 of a sample the pipeline never stored
        fig_states = [
            {"name": "chimera", "V": 1.2, "t0": 12.0},
            {"name": "synchronized", "V": 1.6, "t0": 12.0},
            {"name": "desynchronized", "V": 0.8, "t0": 12.0},
        ]
        cfg_path = write_config(tmp_path / "c.json", fig_states=fig_states, mi_partition=2)
        outs = {}
        for experiment in ("reproduce-fig3", "reproduce-fig4"):
            outs[experiment] = tmp_path / experiment
            assert main([experiment, "--config", str(cfg_path),
                         "--out", str(outs[experiment])]) == 0
        cfg = cli.load_config(str(cfg_path), "reproduce-fig4", None, None)
        fig3, scan_rows, mi_rows = {}, [], []
        for tag, fig_state in zip("abc", cfg.fig_states):
            name, V = fig_state.name, fig_state.V
            p = replace(cfg.params, V=V)
            snapshot = transient_parts(cfg, p, fig_state.t0)[-1].final_state
            seg = integrate(p, snapshot, snapshot.t + cfg.delta_t, dt=cfg.dt_cov,
                            sample_every=10)
            covs, _, _ = oracle_covariance(p, seg, 0.5 * p.hbar * np.eye(2 * p.N), cfg.dt_cov)
            assert len(covs) == 51
            final = CovarianceMatrix(float(seg.times[-1]), covs[-1])
            a = snapshot.alphas
            psi = analysis.weighted_correlation(p, final)
            fig3[f"fig3{tag}_phases.csv"] = oracle_csv(
                ["l", "phi"], [(l + 1, float(np.angle(a[l]))) for l in range(p.N)])
            fig3[f"fig3{tag}_covariance.csv"] = oracle_csv(
                COVARIANCE_HEADER, oracle_covariance_rows(covs[-1]))
            fig3[f"fig3{tag}_psi.csv"] = oracle_csv(
                ["l", "psi"], [(l + 1, psi[l]) for l in range(p.N)])
            scan = analysis.mi_scan(p, final)
            scan_rows.extend((name, V, L, scan[L]) for L in sorted(scan))
            mi_rows.extend(
                (name, V, float(t),
                 analysis.mutual_information(p, CovarianceMatrix(float(t), C), cfg.mi_partition))
                for t, C in zip(seg.times, covs)
            )
        fig4 = {
            "fig4a_mi_scan.csv": oracle_csv(["state", "V", "L", "I2"], scan_rows),
            "fig4b_mi_vs_t.csv": oracle_csv(["state", "V", "t", "I2"], mi_rows),
        }
        for experiment, payloads in (("reproduce-fig3", fig3), ("reproduce-fig4", fig4)):
            out = outs[experiment]
            for name, data in payloads.items():
                assert (out / name).read_bytes() == data, name
            assert read_manifest(out)["files"] == (
                ["initial_conditions.json", *payloads, "manifest.json"]
            )

    def test_grid_writer_memory_does_not_grow_with_the_file(self, tmp_path):
        # 100,050 rows: N=50 at 2,001 sample times, in two parts sharing t=1000
        p = NetworkParams(N=50, d=10, V=1.2, kappa2=0.2)
        rng = np.random.default_rng(5)
        parts = [
            MeanFieldTrajectory(
                np.arange(t, t + 1001.0),
                rng.standard_normal((1001, 50)) + 1j * rng.standard_normal((1001, 50)),
                p,
            )
            for t in (0.0, 1000.0)
        ]
        path = tmp_path / "grid.csv"
        tracemalloc.start()
        try:
            io.write_csv(path, ["t", "l", "phi", "r2"],
                         blocks=cli._grid_blocks(parts, ("phi", "r2")))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        data = path.read_bytes()
        assert data.count(b"\n") == 1 + 2001 * 50
        assert data == oracle_csv(["t", "l", "phi", "r2"], oracle_grid_rows(parts, ("phi", "r2")))
        # about 4.6 MB of text; the writer holds one block and one chunk of grid
        assert peak < len(data) / 8


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["meanfield", "--config", str(tmp_path / "nope.json")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["exit_code"] == 2

    def test_invalid_json(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["meanfield", "--config", str(cfg)]) == 2

    def test_empty_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "empty.json"
        cfg.write_text("{}")
        assert main(["meanfield", "--config", str(cfg)]) == 2

    def test_unknown_key(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", extra_knob=1)
        assert main(["meanfield", "--config", str(cfg)]) == 2

    def test_bad_params(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", params={"N": 6, "d": 3, "V": 0.9, "kappa2": 0.2}
        )
        assert main(["meanfield", "--config", str(cfg)]) == 2

    def test_experiment_mismatch(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", experiment="analyze")
        assert main(["meanfield", "--config", str(cfg)]) == 2

    def test_unknown_experiment_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", str(cfg)])
        assert exc.value.code == 2

    def test_ic_and_ic_file_conflict(self, tmp_path):
        icf = tmp_path / "ic.json"
        icf.write_text("{}")
        cfg = write_config(tmp_path / "c.json", ic={"seed": 0}, ic_file=str(icf))
        assert main(["meanfield", "--config", str(cfg)]) == 2

    def test_dt_cov_rejected_before_the_transient(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", outputs=str(out), t0=3000.5, dt_cov=0.0007)
        assert main(["analyze", "--config", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "dt_cov" in err["error"]["message"]
        assert not (out / "snapshot.json").exists()

    def test_off_grid_t0_rejected_before_the_transient(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", outputs=str(out), t0=3000.505)
        assert main(["meanfield", "--config", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "dt_mf grid" in err["error"]["message"]
        assert not (out / "snapshot.json").exists()

    def test_off_grid_fig_state_rejected(self, tmp_path, capsys):
        # two entries are a valid triplet: the config gets to the grid check
        out = tmp_path / "out"
        fig_states = [
            {"name": "chimera", "V": 1.2, "t0": 12.0},
            {"name": "synchronized", "V": 1.6, "t0": 3000.505},
        ]
        cfg = write_config(tmp_path / "c.json", outputs=str(out), fig_states=fig_states)
        assert main(["reproduce-fig3", "--config", str(cfg)]) == 2
        assert "dt_mf grid" in json.loads(capsys.readouterr().err)["error"]["message"]
        assert not out.exists()

    PARAMS = {"N": 6, "d": 2, "V": 0.9, "kappa2": 0.2, "hbar": 1.0}

    def test_snapshot_time_equal_to_the_ic_file_start(self, tmp_path):
        # the one state is the start state itself: no transient runs
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", outputs=str(out), ic_file=STATE_AT_10_5, t0=10.5)
        start_from_state_at_10_5(cfg)
        assert main(["analyze", "--config", str(cfg)]) == 0
        start = json.loads((tmp_path / "state.json").read_text())
        assert json.loads((out / "snapshot.json").read_text()) == start
        assert json.loads((out / "analysis.json").read_text())["t"] == 11.0
        assert read_manifest(out)["regime"] is None

    @pytest.mark.parametrize(
        "experiment, overrides, key",
        [
            ("meanfield", {"params": {**PARAMS, "V": float("nan")}}, "V"),
            ("analyze", {"params": {**PARAMS, "kappa2": float("inf")}}, "kappa2"),
            ("analyze", {"params": {**PARAMS, "hbar": float("inf")}}, "hbar"),
            ("meanfield", {"ic": {"seed": 1, "sigma": float("nan")}}, "sigma"),
            ("analyze", {"t0": float("inf")}, "t0"),
            ("analyze", {"delta_t": float("nan")}, "delta_t"),
            ("meanfield", {"classify_window": 0.0}, "classify_window"),
            ("meanfield", {"classify_window": -5.0}, "classify_window"),
            ("meanfield", {"classify_window": float("inf")}, "classify_window"),
            ("meanfield", {"w_min": -3}, "w_min"),
            ("meanfield", {"z_threshold": 7.0}, "z_threshold"),
            ("meanfield", {"z_threshold": 0.0}, "z_threshold"),
            ("meanfield", {"z_threshold": float("nan")}, "z_threshold"),
            ("reproduce-fig3",
             {"fig_states": [{"name": "chimera", "V": float("nan"), "t0": 12.0}]},
             "fig_states: V must be finite, got nan"),
            ("reproduce-fig3",
             {"fig_states": [{"name": "chimera", "V": 1.2, "t0": float("inf")}]},
             "fig_states: t0 must be finite, got inf"),
            # the triplet writes entries as a, b, c and keys the manifest by
            # name: a fourth entry never ran, though the manifest echoed it,
            # and a repeated name overwrote the first one's keys
            ("reproduce-fig3", {"fig_states": []}, "fig_states needs 1 to 3 entries, got 0"),
            ("reproduce-fig4",
             {"fig_states": [{"name": n, "V": 1.2, "t0": 12.0} for n in "wxyz"]},
             "fig_states needs 1 to 3 entries, got 4"),
            ("reproduce-fig4",
             {"fig_states": [{"name": "chimera", "V": 1.2, "t0": 12.0},
                             {"name": "chimera", "V": 1.6, "t0": 12.0}]},
             "fig_states has repeated names"),
            # integer keys take integral numbers only, float keys numbers only
            ("meanfield", {"w_min": 2.7}, "w_min must be an integer, got 2.7"),
            ("meanfield", {"w_min": True}, "w_min must be an integer, got True"),
            ("meanfield", {"w_min": float("nan")}, "w_min must be an integer, got nan"),
            ("analyze", {"mi_partition": 1.9}, "mi_partition must be an integer"),
            ("meanfield", {"params": {**PARAMS, "N": 50.7}}, "N must be an integer"),
            ("meanfield", {"params": {**PARAMS, "d": True}}, "d must be an integer"),
            ("meanfield", {"ic": {"seed": 3.9}}, "seed must be an integer, got 3.9"),
            ("analyze", {"t0": "abc"}, "t0 must be a number, got 'abc'"),
            ("analyze", {"t0": 10**400}, "t0 must be finite"),
            ("meanfield", {"params": {**PARAMS, "V": "0.9"}}, "V must be a number"),
            ("meanfield", {"ic": {"seed": 1, "r0": False}}, "r0 must be a number"),
            ("reproduce-fig3",
             {"fig_states": [{"name": "chimera", "V": "x", "t0": 12.0}]},
             "fig_states: V must be a number, got 'x'"),
            # values of the wrong JSON type
            ("meanfield", {"params": 5}, "params must be a JSON object, got 5"),
            ("meanfield", {"ic": 5}, "ic must be a JSON object, got 5"),
            ("meanfield", {"ic_file": 5}, "ic_file must be a path string, got 5"),
            # an empty path named the working directory (without ic, the
            # run made its output directory, then exited 3)
            ("meanfield", {"ic_file": ""}, "ic_file must be a path string, got ''"),
            # numpy's bare ValueError, after the output directory was made
            ("meanfield", {"ic": {"seed": -1}}, "seed must be >= 0, got -1"),
            # N passed validation, then the run exited 3 with OverflowError
            ("meanfield", {"params": {**PARAMS, "N": 10**400}},
             "N must be finite, got an integer beyond the float range"),
            # a name ran as the state "5" or "None", an unknown key was ignored
            ("reproduce-fig3", {"fig_states": [{"name": 5, "V": 1.2, "t0": 12.0}]},
             "fig_states: name must be a non-empty string, got 5"),
            ("reproduce-fig3", {"fig_states": [{"name": None, "V": 1.2, "t0": 12.0}]},
             "fig_states: name must be a non-empty string, got None"),
            ("reproduce-fig3", {"fig_states": [{"name": "chimera", "V": 1.2, "t0": 12.0, "dt": 3}]},
             "fig_states: unknown entry keys: ['dt']"),
            # a step count beyond the float range exited 3 with OverflowError
            ("meanfield", {"t0": 1e308}, "t0 is off the dt_mf grid"),
            ("analyze", {"delta_t": 1e308}, "dt_cov must divide delta_t"),
            ("reproduce-fig3", {"fig_states": [{"name": "chimera", "V": 1.2, "t0": 1e308}]},
             "t0 of fig state chimera is off the dt_mf grid"),
            # a snapshot time before the ic_file's ran from the file's time
            # (exit 0, the manifest echoing the earlier t0)
            ("analyze", {"ic_file": STATE_AT_10_5, "t0": 5.5},
             "t0 must be >= the ic_file's t=10.5, got 5.5"),
            ("reproduce-fig3",
             {"ic_file": STATE_AT_10_5, "fig_states": [{"name": "chimera", "V": 1.2, "t0": 10.4}]},
             "t0 of fig state chimera must be >= the ic_file's t=10.5, got 10.4"),
            # a name that is not one CSV cell split the fig4a/fig4b rows
            *[("reproduce-fig4", {"fig_states": [{"name": name, "V": 1.2, "t0": 12.0}]},
               f"fig_states: name must hold no comma, quote or line break, got {name!r}")
              for name in ("chi,mera\nx", 'say "hi"', "chi\rmera")],
            # rates are in units of kappa1, which is not a key
            ("analyze", {"params": {**PARAMS, "kappa1": 1.0}}, "unknown params keys: ['kappa1']"),
        ],
    )
    def test_out_of_range_value_rejected_before_any_write(
        self, tmp_path, capsys, experiment, overrides, key
    ):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", outputs=str(out), **overrides)
        if overrides.get("ic_file") == STATE_AT_10_5:
            start_from_state_at_10_5(cfg)
        assert main([experiment, "--config", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConfigError"
        assert key in err["message"]
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("key", ["sample_spacing", "window_spacing"])
    @pytest.mark.parametrize("experiment, flags", [
        ("meanfield", []),
        ("meanfield", ["--seeds", "1,2"]),
        ("reproduce-paper", []),
    ], ids=["run", "sweep", "paper"])
    def test_a_spacing_too_large_to_count_writes_nothing(
        self, tmp_path, capsys, experiment, flags, key
    ):
        # OverflowError exited 3 after every run had written its start
        # state, and a sweep or paper wrote no summary or manifest
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", **{key: 1e308})
        assert main([experiment, "--config", str(cfg), "--out", str(out), *flags]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "ConfigError", "exit_code": 2,
            "message": f"{key}=1e+308 is too many dt_mf steps to count",
        }
        assert not out.exists()

    @pytest.mark.parametrize("key, value, t0", [
        # the window was sampled every 0.02, the manifest echoing 0.015
        ("window_spacing", 0.015, 12.0),
        # t0 is above classify_window, so the sparse transient runs
        ("sample_spacing", 0.015, 12.0),
        # the window start was rounded to 7.0: the window spanned 5.0, too
        # short to classify, and the run exited 0 with a null regime
        ("classify_window", 5.0025, 12.0),
        # within 1e-9 relative of 1000 steps, but the window of 1000.0 is
        # short of it by more than the span check's absolute 1e-9
        ("classify_window", 1000.0000005, 1012.0),
    ])
    @pytest.mark.parametrize("experiment, flags", [
        ("meanfield", []),
        ("meanfield", ["--seeds", "1,2"]),
        ("reproduce-paper", []),
    ], ids=["run", "sweep", "paper"])
    def test_a_length_off_the_dt_mf_grid_writes_nothing(
        self, tmp_path, capsys, experiment, flags, key, value, t0
    ):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", t0=t0, **{key: value})
        assert main([experiment, "--config", str(cfg), "--out", str(out), *flags]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "ConfigError", "exit_code": 2,
            "message": f"{key}={value} is not a multiple of dt_mf=0.01",
        }
        assert not out.exists()

    def test_a_spacing_no_phase_uses_is_not_counted(self, tmp_path):
        # t0 below classify_window: the run is its window alone, so it reads
        # neither the transient's spacing nor the window's length
        for k, overrides in enumerate([{"sample_spacing": 1e308}, {"sample_spacing": 0.015},
                                       {"classify_window": 5.0025}]):
            out = tmp_path / f"out{k}"
            cfg = write_config(tmp_path / "c.json", t0=5.0, **overrides)
            assert main(["meanfield", "--config", str(cfg), "--out", str(out)]) == 0
            assert read_manifest(out)["regime"] is None

    #: the lengths a phase may use, each drawn as a whole number of dt_mf
    #: steps up to its bound; one of them may be off by a fraction of a step
    LENGTHS = {"sample_spacing": 40, "window_spacing": 40, "classify_window": 200}

    @given(dt=st.sampled_from([0.005, 0.01, 0.02, 0.05]), n=st.integers(1, 200),
           steps=st.fixed_dictionaries({key: st.integers(1, most)
                                        for key, most in LENGTHS.items()}),
           off=st.sampled_from([None, *LENGTHS]), fraction=st.sampled_from([0.001, 0.5, 0.99]))
    @settings(max_examples=100, deadline=None)
    def test_lengths_on_the_grid_run_as_stated(self, dt, n, steps, off, fraction):
        # t0 is n steps: a length off the grid that a phase uses is a config
        # error naming it; otherwise the run samples each phase at its stated
        # spacing, its window spans exactly min(classify_window, t0) and it
        # has a regime exactly when t0 >= classify_window
        t0 = n * dt
        lengths = {key: (k + (fraction if key == off else 0.0)) * dt for key, k in steps.items()}
        window = min(lengths["classify_window"], t0)
        used = ["window_spacing"] + (["classify_window", "sample_spacing"] if window < t0 else [])
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "c.json", Path(tmp) / "out"
            write_config(path, dt_mf=dt, t0=t0, **lengths)
            if off in used:
                with pytest.raises(cli.ConfigError, match=f"^{off}="):
                    cli.load_config(str(path), "meanfield", None, str(out))
                return
            cfg = cli.load_config(str(path), "meanfield", None, str(out))
            assert main(["meanfield", "--config", str(path), "--out", str(out)]) == 0
            rows = (out / "meanfield_grid.csv").read_text().splitlines()[1 :: cfg.params.N]
            times = [float(row.split(",")[0]) for row in rows]
            regime = read_manifest(out)["regime"]
        # each phase from its start to its end, sampled every `spacing`
        t_mid = t0 - window
        want = []
        for t_from, t_end, spacing in [(0.0, t_mid, lengths["sample_spacing"]),
                                       (t_mid, t0, lengths["window_spacing"])]:
            if t_end > t_from:  # from the last time of the part before, if any
                want[-1:] = [*np.arange(t_from, t_end - 1e-9, spacing), t_end]
        assert times == pytest.approx(want, rel=0, abs=1e-9)
        phases = cli._phases(0.0, t0, cfg)
        assert t0 - (phases[-2][0] if len(phases) == 2 else 0.0) == pytest.approx(window, abs=1e-9)
        assert (regime is not None) == (t0 >= lengths["classify_window"])

    @pytest.mark.parametrize("ic, code, message", [
        # rng.uniform raised OverflowError (exit 3) after the output
        # directory was made
        ({"seed": 1, "theta_range": 1e308}, 2,
         "theta_range must be <= 8.988465674311579e+307, got 1e+308"),
        # sigma**2 underflows: two numpy RuntimeWarnings came ahead of the
        # error JSON, and the empty output directory was left
        ({"seed": 1, "sigma": 1e-170}, 3, "non-finite amplitude"),
    ])
    def test_a_start_state_that_cannot_be_drawn_writes_nothing(
        self, tmp_path, capsys, ic, code, message
    ):
        # outside pytest a warning is printed to stderr; here it is recorded
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", ic=ic)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["meanfield", "--config", str(cfg), "--out", str(out)]) == code
        assert [str(w.message) for w in caught] == []
        (line,) = capsys.readouterr().err.splitlines()
        assert message in json.loads(line)["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize("experiment, out, flags", [
        ("meanfield", "a-file", []),
        ("meanfield", "a-file", ["--seeds", "1,2"]),
        ("meanfield", "a-file/sub", []),
        ("reproduce-paper", "a-file", []),
    ], ids=["run", "sweep", "below-a-file", "paper"])
    def test_an_output_path_that_cannot_be_made(self, tmp_path, capsys, experiment, out, flags):
        # FileExistsError or NotADirectoryError exited 3, the code of
        # numerical errors
        cfg = write_config(tmp_path / "c.json")
        (tmp_path / "a-file").write_text("kept\n")
        out = tmp_path / out
        assert main([experiment, "--config", str(cfg), "--out", str(out), *flags]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConfigError"
        assert f"cannot make output directory {out}" in err["message"]
        assert sorted(os.listdir(tmp_path)) == ["a-file", "c.json"]
        assert (tmp_path / "a-file").read_text() == "kept\n"

    @pytest.mark.parametrize("value", [{"a": 1}, 7, True, ""])
    def test_outputs_must_be_a_path_string(self, tmp_path, monkeypatch, capsys, value):
        # str() of these named the run directory ({'a': 1}, 7, True), and
        # an empty path fell back to runs/<experiment>
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(cli.ENV_OUT, raising=False)
        cfg = write_config(tmp_path / "c.json", outputs=value)
        assert main(["meanfield", "--config", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConfigError"
        assert f"outputs must be a path string, got {value!r}" in err["message"]
        assert os.listdir(tmp_path) == ["c.json"]

    def test_empty_out_flag(self, tmp_path, monkeypatch, capsys):
        # it fell back to the config's outputs, or to runs/<experiment>
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(cli.ENV_OUT, raising=False)
        cfg = write_config(tmp_path / "c.json")
        assert main(["meanfield", "--config", str(cfg), "--out", ""]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConfigError"
        assert "--out must be a path" in err["message"]
        assert os.listdir(tmp_path) == ["c.json"]

    @pytest.mark.parametrize("flags", [["--seed", "5"], ["--seeds", "5"]])
    def test_seed_override_with_ic_file(self, tmp_path, capsys, flags):
        # --seed was ignored (seeds 5 and 9 wrote the same grid); both flags
        # now meet one check in load_config
        first = tmp_path / "first"
        cfg = write_config(tmp_path / "c1.json", outputs=str(first))
        assert main(["meanfield", "--config", str(cfg)]) == 0
        obj = json.loads(cfg.read_text())
        del obj["ic"]
        out = tmp_path / "second"
        obj.update(ic_file=str(first / "initial_conditions.json"), outputs=str(out))
        (tmp_path / "c2.json").write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["meanfield", "--config", str(tmp_path / "c2.json"), *flags]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConfigError"
        assert "seed override needs inline ic, not ic_file" in err["message"]
        assert not out.exists()

    def test_off_grid_t0_from_ic_file_start(self, tmp_path, capsys):
        first = tmp_path / "first"
        cfg = write_config(tmp_path / "c1.json", outputs=str(first), t0=12.0)
        assert main(["meanfield", "--config", str(cfg)]) == 0
        obj = json.loads(write_config(tmp_path / "c2.json").read_text())
        del obj["ic"]
        obj.update(ic_file=str(first / "snapshot.json"), t0=3012.505,
                   outputs=str(tmp_path / "second"))
        (tmp_path / "c2.json").write_text(json.dumps(obj))
        assert main(["meanfield", "--config", str(tmp_path / "c2.json")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "3012.505]" in err["error"]["message"]
        assert not (tmp_path / "second" / "initial_conditions.json").exists()

    @pytest.mark.parametrize("edit, message", [
        # each made the output directory first: the directory exited 3
        # (IsADirectoryError), t=Infinity exited 0 with a header-only grid
        # and a snapshot.json that is not JSON, t=NaN exited 2 as a bare
        # ValueError, t=true ran from t=1, a NaN amplitude exited 3
        # (DivergenceError) and a list exited 2
        (None, "Is a directory"),
        ({"t": float("inf")}, "t must be finite, got inf"),
        ({"t": float("nan")}, "t must be finite, got nan"),
        ({"t": True}, "t must be a number, got True"),
        ({"alphas": [[float("nan"), 0.0]] + [[1.0, 0.0]] * 5}, "alphas must be finite, got nan"),
        ([], "a state file holds a JSON object, got list"),
        # the file's params were read, then dropped unchecked: exit 0
        ({"params": {"N": 6, "d": 2, "V": -1, "kappa2": 0.2, "hbar": 1.0}},
         "V must be >= 0, got -1"),
    ], ids=["directory", "t-inf", "t-nan", "t-bool", "nan-amplitude", "list", "params-V"])
    def test_unusable_ic_file_rejected_before_any_write(
        self, tmp_path, small_params, capsys, edit, message
    ):
        path = tmp_path / "state.json"
        if edit is None:
            path.mkdir()
        else:
            io.save_state(path, MeanFieldState(0.0, np.ones(6)), small_params)
            state = json.loads(path.read_text())
            path.write_text(json.dumps({**state, **edit} if isinstance(edit, dict) else edit))
        obj = json.loads(write_config(tmp_path / "c.json").read_text())
        del obj["ic"]
        out = tmp_path / "out"
        obj.update(ic_file=str(path), outputs=str(out))
        (tmp_path / "c.json").write_text(json.dumps(obj))
        assert main(["meanfield", "--config", str(tmp_path / "c.json")]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConfigError"
        assert f"unusable ic_file {path}" in err["message"]
        assert message in err["message"]
        assert not out.exists()

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            params={"N": 3, "d": 1, "V": 0.5, "kappa2": 0.2},
            ic={"seed": 0, "r0": 4.0},
            t0=10.0,
            dt_mf=5.0,
            window_spacing=5.0,
            sample_spacing=5.0,
            outputs=str(tmp_path / "out"),
        )
        assert main(["meanfield", "--config", str(cfg)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "DivergenceError"


#: where each config object sits, as the README's key column writes it,
#: and the dataclass whose fields are its keys
SCHEMA = {
    "": cli.ExperimentConfig,
    "params.": NetworkParams,
    "ic.": InitialConditionSpec,
    "fig_states[].": cli.FigState,
}
KEYS = [(prefix, f) for prefix, cls in SCHEMA.items() for f in io.keys(cls)]


class TestFigState:
    @pytest.mark.parametrize("field, value", [
        *[(field, value) for field in ("V", "t0")
          for value in (-1.0, float("nan"), float("inf"), -float("inf"))],
        *[("name", name) for name in ("chi,mera", 'say "hi"', "chi\nmera", "chi\rmera")],
        # "" built a state with an empty CSV cell, 3 raised a bare TypeError
        *[("name", name) for name in ("", 3, None)],
    ])
    def test_building_checks_every_field(self, field, value):
        with pytest.raises(RangeError, match=rf"\b{field}\b"):
            replace(cli.FigState("chimera", 1.2, 12.0), **{field: value})


#: a valid object of each config dataclass, built in code
BUILT = {
    "": cli.ExperimentConfig("analyze", NetworkParams(6, 2, 0.9, 0.2), 12.0, 2, "x"),
    "params.": NetworkParams(6, 2, 0.9, 0.2),
    "ic.": InitialConditionSpec(seed=1, r0=1.0, mu=3.0),
    "fig_states[].": cli.FigState("chimera", 1.2, 12.0),
}
NUMERIC_KEYS = [(prefix, f) for prefix, f in KEYS
                if f.type.removesuffix(" | None") in ("int", "float")]


class TestBuiltInCode:
    """Objects built in code, not read from JSON, check the kind of each
    field too, numbers, strings, paths and objects, and name the field
    when it is wrong."""

    @pytest.mark.parametrize("value", ["0.9", True, np.True_, [1.0], 1j])
    @pytest.mark.parametrize("key", NUMERIC_KEYS, ids=lambda k: k[0] + k[1].name)
    def test_a_non_number_names_its_field(self, key, value):
        prefix, f = key
        error = cli.ConfigError if prefix == "" else RangeError
        noun = "an integer" if f.type == "int" else "a number"
        with pytest.raises(error, match=rf"^{f.name} must be {noun}, got "):
            replace(BUILT[prefix], **{f.name: value})

    @pytest.mark.parametrize("key", [k for k in NUMERIC_KEYS if k[1].type != "int"],
                             ids=lambda k: k[0] + k[1].name)
    def test_an_int_beyond_the_float_range_names_its_field(self, key):
        prefix, f = key
        error = cli.ConfigError if prefix == "" else RangeError
        with pytest.raises(error, match=rf"\b{f.name} must be finite"):
            replace(BUILT[prefix], **{f.name: 10**400})

    def test_numpy_scalars_are_numbers(self):
        p = NetworkParams(np.int64(6), np.int32(2), np.float64(0.9), np.float64(0.2))
        assert p == NetworkParams(6, 2, 0.9, 0.2)
        assert InitialConditionSpec(seed=np.uint8(3)).seed == 3

    @pytest.mark.parametrize("changes, message", [
        # "" wrote the run's files into the working directory, 5 raised a
        # bare TypeError
        ({"outputs": ""}, "outputs must be a path string, got ''"),
        ({"outputs": 5}, "outputs must be a path string, got 5"),
        ({"ic": None, "ic_file": ""}, "ic_file must be a path string, got ''"),
        # the run made its directory, then raised AttributeError on ic.r0
        ({"ic": None}, "give exactly one of ic and ic_file"),
        # the run started from the inline ic and echoed the ic_file
        ({"ic_file": "nowhere.json"}, "give exactly one of ic and ic_file"),
        ({"ic": None, "ic_file": "nowhere.json"}, "and ic_state with ic_file"),
        ({"ic_state": MeanFieldState(0.0, np.ones(6))}, "and ic_state with ic_file"),
    ])
    def test_strings_paths_and_the_start_are_checked(self, changes, message):
        with pytest.raises(cli.ConfigError, match=re.escape(message)):
            replace(BUILT[""], **changes)

    @pytest.mark.parametrize("changes, message", [
        # the config built, and a run failed in initial_conditions on ic.r0
        ({"ic": 5}, "ic must be of type InitialConditionSpec, got 5"),
        # a bare AttributeError from __post_init__
        ({"params": {"N": 6}}, "params must be of type NetworkParams, got {'N': 6}"),
        ({"fig_states": ("chimera",)},
         "fig_states must be a tuple of FigState, got ('chimera',)"),
        ({"ic": None, "ic_file": "x.json", "ic_state": 5},
         "ic_state must be of type MeanFieldState, got 5"),
        # a list built a config that is not hashable
        ({"fig_states": [cli.FigState("chimera", 1.2, 12.0)]},
         "fig_states must be a tuple of FigState, got [FigState("),
    ])
    def test_object_fields_are_checked_by_kind(self, changes, message):
        with pytest.raises(cli.ConfigError, match=re.escape(message)):
            replace(BUILT[""], **changes)

    def test_unknown_experiment_is_a_config_error(self):
        with pytest.raises(cli.ConfigError, match="unknown experiment: 'bogus'"):
            replace(BUILT[""], experiment="bogus")


class TestConfigSchema:
    def test_readme_table_lists_every_key_and_default(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split("### Config keys", 1)[1].split("\n#", 1)[0]
        rows = [[c.strip() for c in line.strip("|").split("|")]
                for line in section.splitlines() if line.startswith("| `")]
        defaults = {key.strip("`"): default for key, _, default, _ in rows}
        ranges = {key.strip("`"): cell for key, _, _, cell in rows}
        assert sorted(key.strip("`") for key, *_ in rows) == sorted(
            prefix + f.name for prefix, f in KEYS
        )
        for prefix, f in KEYS:
            cell = defaults[prefix + f.name]
            if f.default is MISSING or not isinstance(f.default, (int, float, str, type(None))):
                # required, computed in load_config, or an object
                assert not cell.startswith("`"), (f.name, cell)
            else:
                assert cell == f"`{json.dumps(f.default)}`", (f.name, cell)
            # the Range cell states exactly the bounds the field declares
            declared = {f"{op} {bound}" for op, bound in f.metadata.items() if op in BOUNDS}
            stated = set(re.findall(r"(?<![<>=])[<>]=? -?\d[\d.e+-]*", ranges[prefix + f.name]))
            assert stated == declared, (f.name, ranges[prefix + f.name])

    def test_the_payload_digest_breaks_every_declared_bound(self):
        # the digest prints the message of each break, so that two versions
        # of the code show every bound message they word differently
        path = Path(__file__).resolve().parents[1] / "tools" / "payload_digest.py"
        spec = importlib.util.spec_from_file_location("payload_digest", path)
        digest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(digest)
        for prefix, f in KEYS:
            for op, bound in f.metadata.items():
                if op in BOUNDS:
                    assert any(key == prefix + f.name and not BOUNDS[op](value, bound)
                               for key, value in digest.BREAKS), (f.name, op, bound)

    #: the one numeric key that takes any finite value (the envelope centre)
    UNBOUNDED = {"mu"}

    @given(
        key=st.sampled_from(KEYS),
        how=st.sampled_from(["wrong type", "nan", "inf", "out of range", "empty string",
                             "beyond the float range", "unknown key"]),
        n=st.integers(5, 9),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_broken_key_is_a_config_error_before_any_write(self, key, how, n, seed):
        prefix, f = key
        kind = f.type.removesuffix(" | None")
        numeric = kind in ("int", "float")
        if how == "out of range":
            assume(numeric and f.name not in self.UNBOUNDED)
        cfg = {
            "params": {"N": n, "d": 1 + seed % ((n - 1) // 2), "V": 0.9, "kappa2": 0.2},
            "ic": {"seed": seed},
            "t0": 12.0,
            "sample_spacing": 0.5,
            "fig_states": [{"name": "chimera", "V": 1.2, "t0": 12.0}],
        }
        obj = {"": cfg, "params.": cfg["params"], "ic.": cfg["ic"],
               "fig_states[].": cfg["fig_states"][0]}[prefix]
        name = f.name
        if how == "unknown key":
            name = f.name + "_x"
            obj[name] = 1
        else:
            obj[name] = {
                "wrong type": "x" if numeric else 5,
                "nan": float("nan"),
                "inf": float("inf"),
                "out of range": -1,
                "empty string": "",
                "beyond the float range": 10**400,
            }[how]
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "c.json", Path(tmp) / "out"
            path.write_text(json.dumps(cfg))
            stderr = StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main(["meanfield", "--config", str(path), "--out", str(out)])
            assert code == 2
            err = json.loads(stderr.getvalue())["error"]
            assert err["type"] == "ConfigError"
            assert re.search(rf"\b{name}\b", err["message"]), err["message"]
            assert not out.exists()

    @given(experiment=st.sampled_from(sorted(cli.EXPERIMENTS)), n=st.integers(3, 8),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_valid_small_config_runs_or_fails_numerically(self, experiment, n, data):
        # every d the ring admits, the all-to-all d = (N+1)/2 of odd N too
        d = data.draw(st.sampled_from(
            [*range(1, (n - 1) // 2 + 1), *([(n + 1) // 2] if n % 2 else [])]))
        # snapshot times on the dt_mf grid, spans on the dt_cov grid
        t0 = st.integers(0, 8).map(lambda k: 0.5 * k)
        names = data.draw(st.lists(st.sampled_from(["chimera", "synchronized", "desynchronized"]),
                                   min_size=1, max_size=3, unique=True))
        cfg = {
            "params": {"N": n, "d": d, "V": data.draw(st.floats(0.0, 2.0)),
                       "kappa2": data.draw(st.floats(0.05, 0.5)),
                       "hbar": data.draw(st.floats(0.5, 2.0))},
            "ic": {"seed": data.draw(st.integers(0, 2**32))},
            "t0": data.draw(t0),
            "delta_t": data.draw(st.integers(1, 4).map(lambda k: 0.05 * k)),
            "classify_window": data.draw(st.sampled_from([1.0, 2.0, 10.0])),
            "mi_partition": data.draw(st.integers(1, n - 1)),
            "fig_states": [{"name": name, "V": data.draw(st.floats(0.0, 2.0)),
                            "t0": data.draw(t0)} for name in names],
        }
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "c.json", Path(tmp) / "out"
            path.write_text(json.dumps(cfg))
            stderr = StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main([experiment, "--config", str(path), "--out", str(out)])
            assert code in (0, 3), stderr.getvalue()
            if code == 0:
                assert sorted(read_manifest(out)["files"]) == sorted(os.listdir(out))


class TestBlasThreads:
    def test_payload_bytes_do_not_depend_on_the_thread_count(self, tmp_path):
        # an N=50 analyze in two children, with one and with two BLAS threads
        # set in each child's environment; at N=200 the bytes differ (README)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "params": {"N": 50, "d": 10, "V": 1.2, "kappa2": 0.2},
            "ic": {"seed": 3}, "t0": 10.5, "delta_t": 0.5, "dt_cov": 1e-3,
        }))
        src = str(Path(cli.__file__).resolve().parents[1])
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            subprocess.run(
                [sys.executable, "-m", "chimeraq.cli", "analyze",
                 "--config", str(cfg), "--out", str(out)],
                env=env, check=True, timeout=300,
            )
            manifest = json.loads((out / "manifest.json").read_text())
            del manifest["wall_time_s"], manifest["config"]["outputs"]
            payloads = {name: (out / name).read_bytes()
                        for name in manifest["files"] if name != "manifest.json"}
            runs.append((manifest, payloads))
        (m1, p1), (m2, p2) = runs
        assert m1 == m2
        assert set(p1) == {"initial_conditions.json", "snapshot.json", "analysis.json",
                           "mi_scan.csv", "ellipses.csv"}
        for name in p1:
            assert p1[name] == p2[name], name


class TestErrorTaxonomy:
    """Numerical failures in the analysis record exit 3, not 2."""

    def test_negative_mutual_information(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(analysis, "_scan_and_logdet", lambda cov: ({1: -1.0}, 0.0))
        cfg = write_config(tmp_path / "c.json", outputs=str(tmp_path / "out"))
        assert main(["analyze", "--config", str(cfg)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "SingularMatrixError"

    def test_non_finite_covariance(self, tmp_path, monkeypatch, capsys):
        def nan_start(p, t=0.0):
            C = 0.5 * p.hbar * np.eye(2 * p.N)
            C[0, 1] = C[1, 0] = np.nan
            return CovarianceMatrix(t, C)

        monkeypatch.setattr(cli, "vacuum_covariance", nan_start)
        cfg = write_config(tmp_path / "c.json", outputs=str(tmp_path / "out"))
        assert main(["analyze", "--config", str(cfg)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "PhysicalityError"
        assert "non-finite" in err["error"]["message"]

    def test_non_finite_correlation_profile(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(analysis, "weighted_correlation", lambda p, cov: np.full(p.N, np.nan))
        cfg = write_config(tmp_path / "c.json", outputs=str(tmp_path / "out"))
        assert main(["analyze", "--config", str(cfg)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "DivergenceError"


class TestRunPipelines:
    def test_meanfield_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", outputs=str(out))
        assert main(["meanfield", "--config", str(cfg)]) == 0
        manifest = read_manifest(out)
        for name in manifest["files"]:
            assert (out / name).exists(), name
        listed = set(manifest["files"])
        on_disk = {f.name for f in out.iterdir()}
        assert listed == on_disk
        assert manifest["regime"]["regime"] in ("synchronized", "desynchronized", "chimera")
        body = (out / "meanfield_grid.csv").read_text().splitlines()
        assert body[0] == "t,l,phi,r2"

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg1 = write_config(tmp_path / "c1.json", outputs=str(out1))
        cfg2 = write_config(tmp_path / "c2.json", outputs=str(out2))
        assert main(["analyze", "--config", str(cfg1)]) == 0
        assert main(["analyze", "--config", str(cfg2)]) == 0
        for name in ("mi_scan.csv", "ellipses.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_fluctuations_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", outputs=str(out))
        assert main(["fluctuations", "--config", str(cfg)]) == 0
        manifest = read_manifest(out)
        # 51 samples over delta_t = 0.5 from a vacuum start: the start is
        # exact, and every later sample is certified above its margin 0.0
        assert manifest["physicality_margin_min"] == 0.0
        assert manifest["physicality_certified"] == 50
        snapshot, p = io.load_state(out / "snapshot.json")
        ratio = p.kappa2 * np.abs(snapshot.alphas) ** 2
        assert ratio.max() <= manifest["vacuum_bound_ratio_max"] <= 1.0
        assert manifest["beyond_validated_horizon"] is False
        meta = json.loads((out / "covariance_meta.json").read_text())
        assert meta["t_i"] == pytest.approx(12.0)
        loaded = load_covariance(out / "covariance.csv")
        assert loaded.C.shape == (12, 12)

    def test_analyze_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", outputs=str(out), mi_partition=3)
        assert main(["analyze", "--config", str(cfg)]) == 0
        manifest = read_manifest(out)
        record = json.loads((out / "analysis.json").read_text())
        assert manifest["mi_value"] == record["mi_scan"]["3"]
        assert len(record["psi"]) == 6
        assert len(record["ellipses"]) == 6
        lines = (out / "ellipses.csv").read_text().splitlines()
        assert lines[0] == "l,lambda_min,lambda_max,theta"
        assert len(lines) == 7

    def test_scan_mi_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", outputs=str(out))
        assert main(["scan-mi", "--config", str(cfg)]) == 0
        lines = (out / "mi_scan.csv").read_text().splitlines()
        assert lines[0] == "L,I2"
        assert len(lines) == 6  # L = 1..5

    def test_fig1_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", outputs=str(out), t0=15.0)
        assert main(["reproduce-fig1", "--config", str(cfg)]) == 0
        manifest = read_manifest(out)
        assert "fig1_phi.csv" in manifest["files"]
        assert "fig1_r2.csv" in manifest["files"]

    def test_fig2_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", outputs=str(out))
        assert main(["reproduce-fig2", "--config", str(cfg)]) == 0
        lines = (out / "fig2_husimi.csv").read_text().splitlines()
        assert lines[0] == "l,qq,qp,pp"
        assert len(lines) == 7

    def test_fig3_and_fig4_scaled_down(self, tmp_path):
        fig_states = [
            {"name": "chimera", "V": 1.2, "t0": 12.0},
            {"name": "synchronized", "V": 1.6, "t0": 12.0},
            {"name": "desynchronized", "V": 0.8, "t0": 12.0},
        ]
        out3 = tmp_path / "f3"
        cfg3 = write_config(tmp_path / "c3.json", outputs=str(out3), fig_states=fig_states)
        assert main(["reproduce-fig3", "--config", str(cfg3)]) == 0
        for tag in "abc":
            assert (out3 / f"fig3{tag}_phases.csv").exists()
            assert (out3 / f"fig3{tag}_covariance.csv").exists()
            assert (out3 / f"fig3{tag}_psi.csv").exists()
        manifest = read_manifest(out3)
        for state in ("chimera", "synchronized", "desynchronized"):
            assert manifest[f"physicality_margin_min_{state}"] == 0.0
            assert manifest[f"physicality_certified_{state}"] == 50
            assert 0.0 < manifest[f"vacuum_bound_ratio_max_{state}"] <= 1.0

        out4 = tmp_path / "f4"
        cfg4 = write_config(
            tmp_path / "c4.json", outputs=str(out4), fig_states=fig_states, mi_partition=2
        )
        assert main(["reproduce-fig4", "--config", str(cfg4)]) == 0
        scan_lines = (out4 / "fig4a_mi_scan.csv").read_text().splitlines()
        assert scan_lines[0] == "state,V,L,I2"
        assert len(scan_lines) == 1 + 3 * 5
        mi_lines = (out4 / "fig4b_mi_vs_t.csv").read_text().splitlines()
        assert mi_lines[0] == "state,V,t,I2"
        states = {line.split(",")[0] for line in mi_lines[1:]}
        assert states == {"chimera", "synchronized", "desynchronized"}

    def test_triplet_manifest_does_not_echo_t0(self, tmp_path):
        # the triplet reads each fig state's own t0: a top-level t0 before
        # the ic_file's t ran, and the manifest echoed it as config.t0
        out = tmp_path / "out"
        fig_states = [{"name": "chimera", "V": 1.2, "t0": 12.5}]
        cfg = write_config(tmp_path / "c.json", outputs=str(out), t0=5.5, fig_states=fig_states)
        start_from_state_at_10_5(cfg)
        assert main(["reproduce-fig3", "--config", str(cfg)]) == 0
        config = read_manifest(out)["config"]
        assert "t0" not in config
        assert config["fig_states"] == fig_states

    def test_single_state_manifest_does_not_echo_fig_states(self, tmp_path):
        # a single-state experiment reads t0 alone: its echo held the
        # fig_states triplet it never reads
        out = tmp_path / "out"
        fig_states = [{"name": "chimera", "V": 1.2, "t0": 12.5}]
        cfg = write_config(tmp_path / "c.json", outputs=str(out), fig_states=fig_states)
        assert main(["meanfield", "--config", str(cfg)]) == 0
        config = read_manifest(out)["config"]
        assert "fig_states" not in config
        assert config["t0"] == 12.0

    def test_ic_file_reuse(self, tmp_path):
        out1 = tmp_path / "a"
        cfg = write_config(tmp_path / "c.json", outputs=str(out1))
        assert main(["meanfield", "--config", str(cfg)]) == 0
        cfg2 = write_config(
            tmp_path / "c2.json", outputs=str(tmp_path / "b"),
        )
        obj = json.loads(cfg2.read_text())
        del obj["ic"]
        obj["ic_file"] = str(out1 / "initial_conditions.json")
        cfg2.write_text(json.dumps(obj))
        assert main(["meanfield", "--config", str(cfg2)]) == 0
        a = json.loads((out1 / "initial_conditions.json").read_text())
        b = json.loads((tmp_path / "b" / "initial_conditions.json").read_text())
        assert a["alphas"] == b["alphas"]

    def test_ic_file_start_off_the_new_grid(self, tmp_path):
        # t=12.005 is on the dt_mf=0.01 grid counted from 12.005, not from 0
        first = tmp_path / "first"
        cfg = write_config(tmp_path / "c1.json", outputs=str(first), t0=12.005, dt_mf=0.005)
        assert main(["meanfield", "--config", str(cfg)]) == 0
        obj = json.loads(write_config(tmp_path / "c2.json").read_text())
        del obj["ic"]
        obj.update(ic_file=str(first / "snapshot.json"), t0=32.005,
                   outputs=str(tmp_path / "second"))
        (tmp_path / "c2.json").write_text(json.dumps(obj))
        assert main(["meanfield", "--config", str(tmp_path / "c2.json")]) == 0
        snap, _ = io.load_state(tmp_path / "second" / "snapshot.json")
        assert snap.t == pytest.approx(32.005, abs=1e-9)

    def test_out_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", outputs=str(tmp_path / "ignored"))
        out = tmp_path / "flag"
        assert main(["meanfield", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_env_var_overrides_config_outputs(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "c.json", outputs=str(tmp_path / "ignored"))
        env_out = tmp_path / "from_env"
        monkeypatch.setenv("CHIMERAQ_OUT", str(env_out))
        assert main(["meanfield", "--config", str(cfg)]) == 0
        assert (env_out / "manifest.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_empty_env_var_is_unset(self, tmp_path, monkeypatch):
        out = tmp_path / "from_config"
        cfg = write_config(tmp_path / "c.json", outputs=str(out))
        monkeypatch.setenv("CHIMERAQ_OUT", "")
        assert main(["meanfield", "--config", str(cfg)]) == 0
        assert (out / "manifest.json").exists()

    def test_out_flag_beats_env_var(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "c.json")
        monkeypatch.setenv("CHIMERAQ_OUT", str(tmp_path / "env"))
        out = tmp_path / "flag"
        assert main(["meanfield", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()
        assert not (tmp_path / "env").exists()


class TestFailedRerun:
    """A failed rerun into a directory never leaves a manifest that
    describes other files."""

    def assert_consistent(self, out: Path):
        if not (out / "manifest.json").exists():
            return
        manifest = read_manifest(out)
        assert set(manifest["files"]) == {f.name for f in out.iterdir()}
        ic = json.loads((out / "initial_conditions.json").read_text())
        assert manifest["config"]["ic"]["seed"] == ic["ic"]["seed"]

    def test_rerun_with_bad_dt_cov(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c1.json", outputs=str(out))
        assert main(["analyze", "--config", str(cfg)]) == 0
        cfg = write_config(
            tmp_path / "c2.json", outputs=str(out), ic={"seed": 2}, dt_cov=0.0007
        )
        assert main(["analyze", "--config", str(cfg)]) == 2
        self.assert_consistent(out)

    def test_rerun_that_diverges(self, tmp_path):
        out = tmp_path / "out"
        common = dict(
            params={"N": 3, "d": 1, "V": 0.5, "kappa2": 0.2},
            t0=10.0, window_spacing=5.0, sample_spacing=5.0, outputs=str(out),
        )
        cfg = write_config(tmp_path / "c1.json", ic={"seed": 1, "r0": 4.0}, **common)
        assert main(["meanfield", "--config", str(cfg)]) == 0
        assert (out / "manifest.json").exists()
        cfg = write_config(
            tmp_path / "c2.json", ic={"seed": 2, "r0": 4.0}, dt_mf=5.0, **common
        )
        assert main(["meanfield", "--config", str(cfg)]) == 3
        assert (out / "initial_conditions.json").exists()
        assert not (out / "manifest.json").exists()

    def test_sweep_rerun_that_fails(self, tmp_path):
        out = tmp_path / "sweep"
        cfg = write_config(tmp_path / "c1.json", outputs=str(out))
        assert main(["meanfield", "--config", str(cfg), "--seeds", "1,2"]) == 0
        assert (out / "sweep_manifest.json").exists()
        # a summary write that fails after the sweep has started
        (out / "sweep_summary.csv").unlink()
        (out / "sweep_summary.csv").mkdir()
        assert main(["meanfield", "--config", str(cfg), "--seeds", "3,4"]) == 3
        assert not (out / "sweep_manifest.json").exists()


class TestSeedSweep:
    def test_two_seed_sweep(self, tmp_path):
        out = tmp_path / "sweep"
        cfg = write_config(tmp_path / "c.json", outputs=str(out), mi_partition=3)
        assert main(["analyze", "--config", str(cfg), "--seeds", "1,2"]) == 0
        lines = (out / "sweep_summary.csv").read_text().splitlines()
        assert lines[0] == "seed,status,regime,coherent_width,mi_value"
        assert len(lines) == 1 + 2 + 3  # per-seed rows plus q1/median/q3
        assert (out / "seed_1" / "manifest.json").exists()
        assert (out / "seed_2" / "manifest.json").exists()
        sweep = json.loads((out / "sweep_manifest.json").read_text())
        assert sweep["failed_seeds"] == []

    def test_single_seed_behaves_like_run(self, tmp_path):
        out = tmp_path / "single"
        cfg = write_config(tmp_path / "c.json", outputs=str(out))
        assert main(["meanfield", "--config", str(cfg), "--seeds", "7"]) == 0
        manifest = read_manifest(out)
        assert manifest["config"]["ic"]["seed"] == 7

    def test_partial_failure(self, tmp_path):
        out = tmp_path / "sweep"
        # seed-independent divergence never happens here; force failure by
        # seeding one run with an amplitude that blows up at this step size
        cfg = write_config(
            tmp_path / "c.json",
            params={"N": 3, "d": 1, "V": 0.5, "kappa2": 0.2},
            t0=10.0,
            dt_mf=5.0,
            window_spacing=5.0,
            sample_spacing=5.0,
            ic={"seed": 0, "r0": 4.0},
            outputs=str(out),
        )
        code = main(["meanfield", "--config", str(cfg), "--seeds", "1,2"])
        assert code == 4
        sweep = json.loads((out / "sweep_manifest.json").read_text())
        assert sweep["failed_seeds"] == [1, 2]
        error = {
            "type": "DivergenceError",
            "message": "|alpha| exceeded 1000.0 r0 at t=5",
            "exit_code": 3,
        }
        assert sweep["errors"] == {"1": error, "2": error}
        # the failed seeds' directories, each holding its start state, are listed
        assert set(sweep["files"]) == {path.name for path in out.iterdir()}

    def test_one_diverging_seed(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "sweep"
        cfg = write_config(tmp_path / "c.json", outputs=str(out))
        solo = tmp_path / "solo"
        assert main(["meanfield", "--config", str(cfg), "--seed", "1", "--out", str(solo)]) == 0

        draw = cli.initial_conditions

        def blow_up_seed_2(p, ic):
            s = draw(p, ic)
            return MeanFieldState(s.t, 40.0 * s.alphas) if ic.seed == 2 else s

        monkeypatch.setattr(cli, "initial_conditions", blow_up_seed_2)
        capsys.readouterr()
        assert main(["meanfield", "--config", str(cfg), "--seeds", "1,2"]) == 4
        sweep = json.loads((out / "sweep_manifest.json").read_text())
        assert sweep["failed_seeds"] == [2]
        assert sweep["errors"]["2"]["type"] == "DivergenceError"
        assert sweep["errors"]["2"]["exit_code"] == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"seed": 2, "error": sweep["errors"]["2"]}
        # the failed seed's directory, holding its start state, is listed too
        assert sweep["files"] == ["sweep_summary.csv", "sweep_manifest.json", "seed_1", "seed_2"]
        assert {f.name for f in (out / "seed_2").iterdir()} == {"initial_conditions.json"}

        good = out / "seed_1"
        assert {f.name for f in good.iterdir()} == {f.name for f in solo.iterdir()}
        for name in ("initial_conditions.json", "snapshot.json", "meanfield_grid.csv"):
            assert (good / name).read_bytes() == (solo / name).read_bytes(), name
        a, b = read_manifest(good), read_manifest(solo)
        for m in (a, b):
            del m["wall_time_s"], m["config"]["outputs"]
        assert a == b

    def test_one_diverging_seed_of_a_triplet(self, tmp_path, monkeypatch):
        # two states batched over two seeds; seed 2 diverges in its first
        # batch and skips the rest, seed 1 runs on as it would alone
        fig_states = [{"name": "chimera", "V": 1.2, "t0": 12.0},
                      {"name": "desynchronized", "V": 0.8, "t0": 20.0}]
        out = tmp_path / "sweep"
        cfg = write_config(tmp_path / "c.json", outputs=str(out), fig_states=fig_states)
        solo = tmp_path / "solo"
        assert main(["reproduce-fig3", "--config", str(cfg), "--seed", "1",
                     "--out", str(solo)]) == 0

        draw, batch = cli.initial_conditions, cli.integrate_many

        def blow_up_seed_2(p, ic):
            s = draw(p, ic)
            return MeanFieldState(s.t, 40.0 * s.alphas) if ic.seed == 2 else s

        rows = []  # per batch call: each row's start amplitudes, and its result

        def recorded(p, states0, *args, **kwargs):
            got = batch(p, states0, *args, **kwargs)
            rows.append(list(zip((s.alphas for s in states0), got)))
            return got

        monkeypatch.setattr(cli, "initial_conditions", blow_up_seed_2)
        monkeypatch.setattr(cli, "integrate_many", recorded)
        assert main(["reproduce-fig3", "--config", str(cfg), "--seeds", "1,2"]) == 4
        sweep = json.loads((out / "sweep_manifest.json").read_text())
        assert sweep["failed_seeds"] == [2]
        assert sweep["errors"]["2"]["type"] == "DivergenceError"
        # the failed seed's directory, holding its start state, is listed too
        assert sweep["files"] == ["sweep_summary.csv", "sweep_manifest.json", "seed_1", "seed_2"]
        assert {f.name for f in (out / "seed_2").iterdir()} == {"initial_conditions.json"}

        # a transient and a classify window per state: only the first call
        # holds seed 2, whose row is its error; every later one holds seed 1
        # alone, its window going on from its transient and its second
        # state from its start
        assert [len(r) for r in rows] == [2, 1, 1, 1]
        (start_1, transient), (_, error) = rows[0]
        assert isinstance(error, DivergenceError)
        assert np.array_equal(rows[1][0][0], transient.final_state.alphas)
        assert np.array_equal(rows[2][0][0], start_1)

        good = out / "seed_1"
        assert {f.name for f in good.iterdir()} == {f.name for f in solo.iterdir()}
        for f in solo.iterdir():
            if f.name != "manifest.json":
                assert (good / f.name).read_bytes() == f.read_bytes(), f.name
        a, b = read_manifest(good), read_manifest(solo)
        for m in (a, b):
            del m["wall_time_s"], m["config"]["outputs"]
        assert a == b

    def test_failed_run_drops_its_parts(self, tmp_path, monkeypatch):
        # seed 2 fails in the first batch of the second state: by the next
        # batch, nothing holds the parts of its first state any more
        fig_states = [{"name": "chimera", "V": 1.2, "t0": 12.0},
                      {"name": "desynchronized", "V": 0.8, "t0": 20.0}]
        cfg = write_config(tmp_path / "c.json", outputs=str(tmp_path / "sweep"),
                           fig_states=fig_states)
        batch = cli.integrate_many
        held, freed = [], []

        def failing(p, states0, *args, **kwargs):
            freed.append([ref() is None for ref in held])
            got = batch(p, states0, *args, **kwargs)
            if len(freed) <= 2:
                held.append(weakref.ref(got[1]))
            elif len(freed) == 3:
                got[1] = DivergenceError("seed 2 fails here")
            return got

        monkeypatch.setattr(cli, "integrate_many", failing)
        assert main(["reproduce-fig3", "--config", str(cfg), "--seeds", "1,2"]) == 4
        assert freed == [[], [False], [False, False], [True, True]]

    def test_diverging_sweep_writes_only_json_to_stderr(self, tmp_path, capsys):
        # outside pytest a warning is printed to stderr; here it is recorded
        cfg = write_config(tmp_path / "c.json", ic={"seed": 1, "r0": 60.0},
                           outputs=str(tmp_path / "sweep"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["meanfield", "--config", str(cfg), "--seeds", "1,2"]) == 4
        assert [str(w.message) for w in caught] == []
        lines = capsys.readouterr().err.splitlines()
        assert [json.loads(line)["seed"] for line in lines] == [1, 2]

    @pytest.mark.parametrize(
        "flags, key",
        [(["--seed", "9", "--seeds", "1,2"], "--seed or --seeds"), (["--seeds", "1,a"], "--seeds")],
    )
    def test_bad_seed_flags_rejected(self, tmp_path, capsys, flags, key):
        out = tmp_path / "sweep"
        cfg = write_config(tmp_path / "c.json", outputs=str(out))
        assert main(["meanfield", "--config", str(cfg), *flags]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConfigError"
        assert key in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--seeds=-1,2"], ["--seeds=2,-1"]])
    def test_negative_seed_rejected_before_any_write(self, tmp_path, capsys, flags):
        # --seed exited 2 with numpy's bare ValueError after making the
        # output directory; a sweep exited 4 and left an empty seed_-1/
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", outputs=str(out))
        assert main(["meanfield", "--config", str(cfg), *flags]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConfigError"
        assert "seed must be >= 0, got -1" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["meanfield", "reproduce-paper"])
    def test_repeated_seeds_rejected(self, tmp_path, capsys, experiment):
        out = tmp_path / "sweep"
        cfg = write_config(tmp_path / "c.json", outputs=str(out))
        assert main([experiment, "--config", str(cfg), "--seeds", "3,3"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"
        assert not out.exists()

    @pytest.mark.parametrize("experiment, overrides, files", [
        ("meanfield", {}, ["meanfield_grid.csv"]),
        # the triplet's states, each batched over the seeds
        ("reproduce-fig4",
         {"fig_states": [{"name": "chimera", "V": 1.2, "t0": 12.0},
                         {"name": "desynchronized", "V": 0.8, "t0": 20.0}],
          "mi_partition": 2},
         ["fig4a_mi_scan.csv", "fig4b_mi_vs_t.csv"]),
    ], ids=["meanfield", "fig4"])
    def test_sweep_grids_match_solo_runs(self, tmp_path, experiment, overrides, files):
        out = tmp_path / "sweep"
        cfg = write_config(tmp_path / "c.json", outputs=str(out), **overrides)
        assert main([experiment, "--config", str(cfg), "--seeds", "1,2"]) == 0
        for seed in (1, 2):
            solo = tmp_path / f"solo_{seed}"
            assert main(
                [experiment, "--config", str(cfg), "--seed", str(seed), "--out", str(solo)]
            ) == 0
            for name in files:
                data = (out / f"seed_{seed}" / name).read_bytes()
                assert data == (solo / name).read_bytes(), name

    def test_sweep_of_states_too_short_to_classify(self, tmp_path):
        # a t0 below classify_window leaves each seed's regime null
        out = tmp_path / "sweep"
        cfg = write_config(tmp_path / "c.json", outputs=str(out), t0=5.0, mi_partition=3)
        assert main(["analyze", "--config", str(cfg), "--seeds", "1,2"]) == 0
        assert read_manifest(out / "seed_1")["regime"] is None
        rows = [line.split(",") for line in (out / "sweep_summary.csv").read_text().splitlines()]
        assert [row[:4] for row in rows[1:]] == [
            ["1", "ok", "", ""], ["2", "ok", "", ""],
            ["q1", "", "", ""], ["median", "", "", ""], ["q3", "", "", ""]]
        mi = [read_manifest(out / f"seed_{s}")["mi_value"] for s in (1, 2)]
        assert [float(row[4]) for row in rows[1:3]] == mi
        assert float(rows[4][4]) == float(np.percentile(mi, 50))

    def test_triplet_sweep_summary(self, tmp_path):
        # a state named "regime" made the summary read the name-keyed
        # regimes as one label: KeyError after every seed ran
        out = tmp_path / "sweep"
        fig_states = [{"name": "regime", "V": 1.2, "t0": 12.0},
                      {"name": "sync", "V": 1.6, "t0": 12.0}]
        cfg = write_config(tmp_path / "c.json", outputs=str(out), fig_states=fig_states)
        assert main(["reproduce-fig3", "--config", str(cfg), "--seeds", "1,2"]) == 0
        lines = (out / "sweep_summary.csv").read_text().splitlines()
        assert lines[1:3] == ["1,ok,,,", "2,ok,,,"]
        sweep = json.loads((out / "sweep_manifest.json").read_text())
        assert sweep["files"] == ["sweep_summary.csv", "sweep_manifest.json", "seed_1", "seed_2"]
        assert set(read_manifest(out / "seed_1")["regime"]) == {"regime", "sync"}


#: the N=6 fig4 config of CI's console-script step: three distinct states,
#: V=0.9 at 12.0 (single-state experiments) and the triplet's two
CI_FIG4 = dict(mi_partition=2, fig_states=[{"name": "chimera", "V": 1.2, "t0": 12.0},
                                           {"name": "desynchronized", "V": 0.8, "t0": 20.0}])

#: a triplet whose chimera is the single-state experiments' state and whose
#: second state has its V but a later time: two distinct states
SHARED_CHIMERA = dict(mi_partition=2, fig_states=[{"name": "chimera", "V": 0.9, "t0": 12.0},
                                                  {"name": "later", "V": 0.9, "t0": 20.0}])


def stable_manifest(path: Path) -> dict:
    """A manifest without the keys that differ on every run."""

    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items()
                    if k != "outputs" and not k.endswith("wall_time_s")}
        return obj

    return strip(json.loads(path.read_text()))


class TestReproducePaper:
    def count_batches(self, monkeypatch) -> list:
        batch, calls = cli.integrate_many, []

        def counted(p, states0, *args, **kwargs):
            calls.append(len(states0))
            return batch(p, states0, *args, **kwargs)

        monkeypatch.setattr(cli, "integrate_many", counted)
        return calls

    @pytest.mark.parametrize("overrides, flags, batches", [
        (CI_FIG4, ["--seed", "1"], [1] * 6),
        (CI_FIG4, ["--seeds", "1,2"], [2] * 6),
        (SHARED_CHIMERA, ["--seeds", "1,2"], [2] * 4),
    ], ids=["seed", "seeds", "shared-chimera"])
    def test_equals_the_solo_runs(self, tmp_path, monkeypatch, capsys, overrides, flags, batches):
        cfg = write_config(tmp_path / "c.json", **overrides)
        calls = self.count_batches(monkeypatch)
        paper = tmp_path / "paper"
        assert main(["reproduce-paper", "--config", str(cfg), "--out", str(paper), *flags]) == 0
        assert capsys.readouterr().err == ""
        # each distinct state once: its transient and its classify window
        assert calls == batches
        manifest = json.loads((paper / "paper_manifest.json").read_text())
        assert manifest["failed"] == []
        assert manifest["files"] == [*cli.EXPERIMENTS, "paper_manifest.json"]
        assert sorted(manifest["files"]) == sorted(os.listdir(paper))

        del calls[:]
        for experiment in cli.EXPERIMENTS:
            solo = tmp_path / "solo" / experiment
            assert main([experiment, "--config", str(cfg), "--out", str(solo), *flags]) == 0
            shared = paper / experiment
            files = sorted(p.relative_to(solo) for p in solo.rglob("*") if p.is_file())
            assert files == sorted(p.relative_to(shared) for p in shared.rglob("*") if p.is_file())
            for name in files:
                if name.name.endswith("manifest.json"):
                    assert stable_manifest(shared / name) == stable_manifest(solo / name), name
                else:
                    assert (shared / name).read_bytes() == (solo / name).read_bytes(), name
        assert len(calls) == 20

    def test_runs_reading_a_state_hold_the_same_parts(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "c.json", **SHARED_CHIMERA)
        finish, parts = cli._finish, {}  # (experiment, seed, state name): parts

        def recorded(r):
            for (name, _, _), key in zip(r.cfg.snapshots(), r.keys):
                parts[r.cfg.experiment, r.cfg.ic.seed, name] = r.parts[key]
            return finish(r)

        monkeypatch.setattr(cli, "_finish", recorded)
        out = tmp_path / "paper"
        assert main(["reproduce-paper", "--config", str(cfg), "--out", str(out),
                     "--seeds", "1,2"]) == 0
        for seed in (1, 2):
            chimera = parts["analyze", seed, None]
            assert len(chimera) == 2  # a transient and a classify window
            for (_, s, name), held in parts.items():
                assert (held is chimera) == (s == seed and name in (None, "chimera"))

    def test_diverging_seeds_fail_every_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", ic={"seed": 1, "r0": 60.0}, **CI_FIG4)
        out = tmp_path / "paper"
        assert main(["reproduce-paper", "--config", str(cfg), "--out", str(out),
                     "--seeds", "1,2"]) == 4
        manifest = json.loads((out / "paper_manifest.json").read_text())
        assert [(f["experiment"], f["seed"]) for f in manifest["failed"]] == [
            (e, seed) for e in cli.EXPERIMENTS for seed in (1, 2)]
        assert {f["error"]["type"] for f in manifest["failed"]} == {"DivergenceError"}
        lines = capsys.readouterr().err.splitlines()
        assert [json.loads(line) for line in lines] == manifest["failed"]
        # each experiment's sweep directory, as its solo sweep leaves it
        assert sorted(manifest["files"]) == sorted(os.listdir(out))
        for e in cli.EXPERIMENTS:
            sweep = json.loads((out / e / "sweep_manifest.json").read_text())
            assert sweep["failed_seeds"] == [1, 2]
