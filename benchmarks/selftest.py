#!/usr/bin/env python3
"""Self-test of the benchmark's output checks: a correct artifact set passes
and each kind of corruption fails.  Also checks that the tracer counts
integration steps once and leaves out metrics it could not count.

    python3 benchmarks/selftest.py

Uses a tiny ring (N = 8) so that it runs in a few seconds.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import chimeraq as cq  # noqa: E402
from chimeraq import cli, meanfield  # noqa: E402
from tracing import Span, Tracer, instrument, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    CheckFailed,
    Workload,
    check_analyze,
    check_reference,
    check_sweep,
)

TINY = {"N": 8, "d": 2, "V": 1.2, "kappa2": 0.2, "hbar": 1.0}
SWEEP_CFG = {"params": TINY, "ic": {"seed": 0}, "t0": 20.5}
ANALYZE_CFG = {"params": TINY, "ic": {"seed": 0}, "t0": 10.5, "delta_t": 0.5, "dt_cov": 1e-3}
SEEDS = [5, 6]


def _run(tmp: Path, experiment: str, config: dict, extra: list[str]) -> Path:
    cfg = tmp / f"{experiment}.json"
    cfg.write_text(json.dumps(config))
    out = tmp / f"{experiment}-out"
    code = cli.main([experiment, "--config", str(cfg), "--out", str(out), *extra])
    if code != 0:
        raise RuntimeError(f"{experiment} exited {code}")
    return out


class ChecksCatchCorruption(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls._tmp = tempfile.TemporaryDirectory()
        tmp = Path(cls._tmp.name)
        cls.sweep = _run(tmp, "meanfield", SWEEP_CFG, ["--seeds", ",".join(map(str, SEEDS))])
        cls.analyze = _run(tmp, "analyze", ANALYZE_CFG, ["--seed", "5"])

    @classmethod
    def tearDownClass(cls):
        cls._tmp.cleanup()

    def copy(self, src: Path) -> Path:
        dst = Path(self._tmp.name) / f"{self.id().rsplit('.', 1)[-1]}"
        shutil.copytree(src, dst)
        return dst

    def test_intact_outputs_pass(self):
        check_sweep(self.sweep, SWEEP_CFG, SEEDS)
        values = check_analyze(self.analyze, ANALYZE_CFG)
        check_reference(values, dict(values))

    def test_stray_file_fails(self):
        out = self.copy(self.analyze)
        (out / "stray.csv").write_text("x\n")
        with self.assertRaisesRegex(CheckFailed, "lists"):
            check_analyze(out, ANALYZE_CFG)

    def test_missing_file_fails(self):
        out = self.copy(self.sweep)
        (out / f"seed_{SEEDS[0]}" / "snapshot.json").unlink()
        with self.assertRaisesRegex(CheckFailed, "lists"):
            check_sweep(out, SWEEP_CFG, SEEDS)

    def test_mi_csv_mismatch_fails(self):
        out = self.copy(self.analyze)
        rows = (out / "mi_scan.csv").read_text().splitlines()
        L, value = rows[3].split(",")
        rows[3] = f"{L},{float(value) * (1 + 1e-12)!r}"
        (out / "mi_scan.csv").write_text("\n".join(rows) + "\n")
        with self.assertRaisesRegex(CheckFailed, "differs"):
            check_analyze(out, ANALYZE_CFG)

    def test_negative_margin_fails(self):
        out = self.copy(self.analyze)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["physicality_margin_min"] = -1e-6
        (out / "manifest.json").write_text(json.dumps(manifest))
        with self.assertRaisesRegex(CheckFailed, "physicality"):
            check_analyze(out, ANALYZE_CFG)

    def test_negative_mi_fails(self):
        out = self.copy(self.analyze)
        record = json.loads((out / "analysis.json").read_text())
        record["mi_scan"]["1"] = -1e-6
        (out / "analysis.json").write_text(json.dumps(record))
        rows = (out / "mi_scan.csv").read_text().splitlines()
        rows[1] = "1,-1e-06"
        (out / "mi_scan.csv").write_text("\n".join(rows) + "\n")
        with self.assertRaisesRegex(CheckFailed, "negative"):
            check_analyze(out, ANALYZE_CFG)

    def test_malformed_row_fails(self):
        out = self.copy(self.analyze)
        rows = (out / "mi_scan.csv").read_text().splitlines()
        rows[2] = "2"
        (out / "mi_scan.csv").write_text("\n".join(rows) + "\n")
        workload = Workload("analyze", "analyze", ANALYZE_CFG, 1, "", ANALYZE_CFG)
        with self.assertRaisesRegex(CheckFailed, "malformed"):
            workload.check(out, ANALYZE_CFG, [5])

    def test_reference_drift_fails(self):
        values = check_analyze(self.analyze, ANALYZE_CFG)
        drifted = dict(values, s2_total=values["s2_total"] * (1 + 1e-5))
        with self.assertRaisesRegex(CheckFailed, "s2_total"):
            check_reference(values, drifted)

    def test_dropped_grid_row_fails(self):
        out = self.copy(self.sweep)
        grid = out / f"seed_{SEEDS[1]}" / "meanfield_grid.csv"
        grid.write_text("".join(grid.read_text().splitlines(keepends=True)[:-1]))
        with self.assertRaisesRegex(CheckFailed, "grid rows"):
            check_sweep(out, SWEEP_CFG, SEEDS)

    def test_nonfinite_r2_fails(self):
        out = self.copy(self.sweep)
        grid = out / f"seed_{SEEDS[0]}" / "meanfield_grid.csv"
        lines = grid.read_text().splitlines()
        lines[5] = ",".join(lines[5].split(",")[:3] + ["nan"])
        grid.write_text("\n".join(lines) + "\n")
        with self.assertRaisesRegex(CheckFailed, "bad grid row"):
            check_sweep(out, SWEEP_CFG, SEEDS)

    def test_unknown_regime_fails(self):
        out = self.copy(self.sweep)
        path = out / f"seed_{SEEDS[0]}" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["regime"]["regime"] = "turbulent"
        path.write_text(json.dumps(manifest))
        with self.assertRaisesRegex(CheckFailed, "regime label"):
            check_sweep(out, SWEEP_CFG, SEEDS)


class TracingCounts(unittest.TestCase):
    def test_nested_integrate_counted_once(self):
        p = cq.NetworkParams(**TINY)
        s0 = cq.initial_conditions(p, cq.InitialConditionSpec(seed=1))
        tracer = Tracer()
        wrapped, undo = instrument(tracer)
        try:
            cli.integrate(p, s0, s0.t + 1.0, dt=1e-2)  # calls meanfield.integrate_many inside
            meanfield.integrate_many(p, [s0, s0], s0.t + 1.0, dt=1e-2)
        finally:
            undo()
        self.assertEqual([s.name for s in tracer.spans], ["meanfield.integrate"] * 2)
        m = layer_metrics(tracer.spans, wrapped, 1)
        self.assertEqual(m["meanfield.rk4_state_steps"], 300)

    def test_failed_counter_leaves_metrics_out(self):
        name = "fluctuations.propagate_covariance"
        spans = [Span(1, name, None, 0, 0.0, 1.0, counts=None)]
        m = layer_metrics(spans, {name}, 1)
        self.assertEqual(m[name + ".self_s"], 1.0)
        for dependent in ("fluctuations.cov_steps", "fluctuations.us_per_cov_step",
                          "fluctuations.gflop_per_s", "mem.cov_traj_mb"):
            self.assertNotIn(dependent, m)


if __name__ == "__main__":
    unittest.main()
