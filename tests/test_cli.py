import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from chimeraq import analysis, cli, io
from chimeraq.cli import main
from chimeraq.core import CovarianceMatrix, MeanFieldState
from chimeraq.meanfield import InitialConditionSpec


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

    def test_params_kappa1_fixed(self):
        with pytest.raises(ValueError, match="kappa1"):
            io.params_from_json({"N": 6, "d": 2, "V": 1.0, "kappa2": 0.2, "kappa1": 2.0})

    def test_params_unknown_key(self):
        with pytest.raises(ValueError, match="unknown"):
            io.params_from_json({"N": 6, "d": 2, "V": 1.0, "kappa2": 0.2, "gamma": 1.0})

    def test_covariance_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((8, 8))
        from chimeraq import CovarianceMatrix

        cov = CovarianceMatrix(0.0, m + m.T)
        io.write_covariance(tmp_path / "c.csv", cov)
        loaded = io.load_covariance(tmp_path / "c.csv")
        assert np.array_equal(loaded.C, cov.C)
        header = (tmp_path / "c.csv").read_text().splitlines()[0]
        assert header == "row_site,row_quad,col_site,col_quad,value"

    def test_csv_float_formatting(self, tmp_path):
        io.write_csv(tmp_path / "x.csv", ["a"], [(1.0 / 3.0,)])
        body = (tmp_path / "x.csv").read_text().splitlines()[1]
        assert body == "0.33333333333333331"


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

    def test_off_grid_fig_state_rejected(self, tmp_path):
        out = tmp_path / "out"
        fig_states = [
            {"name": "chimera", "V": 1.2, "t0": 12.0},
            {"name": "synchronized", "V": 1.6, "t0": 3000.505},
        ]
        cfg = write_config(tmp_path / "c.json", outputs=str(out), fig_states=fig_states)
        assert main(["reproduce-fig3", "--config", str(cfg)]) == 2
        assert not out.exists()

    PARAMS = {"N": 6, "d": 2, "V": 0.9, "kappa2": 0.2, "hbar": 1.0}

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
             {"fig_states": [{"name": "chimera", "V": float("nan"), "t0": 12.0}]}, "V=nan"),
            ("reproduce-fig3",
             {"fig_states": [{"name": "chimera", "V": 1.2, "t0": float("inf")}]}, "t0=inf"),
        ],
    )
    def test_out_of_range_value_rejected_before_any_write(
        self, tmp_path, capsys, experiment, overrides, key
    ):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", outputs=str(out), **overrides)
        assert main([experiment, "--config", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ConfigError"
        assert key in err["message"]
        assert not out.exists() or not any(out.iterdir())

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


class TestErrorTaxonomy:
    """Numerical failures in the analysis record exit 3, not 2."""

    def test_negative_mutual_information(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(analysis, "_scan_and_logdet", lambda p, cov, anchor: ({1: -1.0}, 0.0))
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
        assert manifest["physicality_margin_min"] >= -1e-9
        # 51 samples over delta_t = 0.5; the first and the last are exact
        assert manifest["physicality_certified"] == 49
        snapshot, p = io.load_state(out / "snapshot.json")
        ratio = p.kappa2 * np.abs(snapshot.alphas) ** 2 / p.kappa1
        assert ratio.max() <= manifest["vacuum_bound_ratio_max"] <= 1.0
        assert manifest["beyond_validated_horizon"] is False
        meta = json.loads((out / "covariance_meta.json").read_text())
        assert meta["t_i"] == pytest.approx(12.0)
        loaded = io.load_covariance(out / "covariance.csv")
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
            assert manifest[f"physicality_margin_min_{state}"] >= -1e-9
            assert manifest[f"physicality_certified_{state}"] == 49
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
        assert sweep["files"] == ["sweep_summary.csv", "sweep_manifest.json", "seed_1"]
        assert {f.name for f in (out / "seed_2").iterdir()} == {"initial_conditions.json"}

        good = out / "seed_1"
        assert {f.name for f in good.iterdir()} == {f.name for f in solo.iterdir()}
        for name in ("initial_conditions.json", "snapshot.json", "meanfield_grid.csv"):
            assert (good / name).read_bytes() == (solo / name).read_bytes(), name
        a, b = read_manifest(good), read_manifest(solo)
        for m in (a, b):
            del m["wall_time_s"], m["config"]["outputs"]
        assert a == b

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

    def test_repeated_seeds_rejected(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        cfg = write_config(tmp_path / "c.json", outputs=str(out))
        assert main(["meanfield", "--config", str(cfg), "--seeds", "3,3"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ConfigError"
        assert not out.exists()

    def test_sweep_grids_match_solo_runs(self, tmp_path):
        out = tmp_path / "sweep"
        cfg = write_config(tmp_path / "c.json", outputs=str(out))
        assert main(["meanfield", "--config", str(cfg), "--seeds", "1,2"]) == 0
        for seed in (1, 2):
            solo = tmp_path / f"solo_{seed}"
            assert main(
                ["meanfield", "--config", str(cfg), "--seed", str(seed), "--out", str(solo)]
            ) == 0
            grid = (out / f"seed_{seed}" / "meanfield_grid.csv").read_bytes()
            assert grid == (solo / "meanfield_grid.csv").read_bytes()
