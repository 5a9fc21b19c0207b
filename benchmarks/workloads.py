"""Workload definitions: generated configs, CLI arguments and output checks.

Each invocation gets its own config file and output directory inside a
scratch directory; the program sees nothing but the config and its CLI
arguments.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

PAPER = {"N": 50, "d": 10, "V": 1.2, "kappa2": 0.2, "hbar": 1.0}
WIDE = {"N": 200, "d": 40, "V": 1.2, "kappa2": 0.2, "hbar": 1.0}

#: IC seed whose analyze outputs are compared against ``reference.json``
REFERENCE_SEED = 1
REFERENCE_RTOL = 1e-6
NEG_TOL = 1e-9
REGIMES = {"synchronized", "desynchronized", "chimera"}


class CheckFailed(Exception):
    """An artifact of a successful exit is wrong or inconsistent."""


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    config: dict
    seeds_per_invocation: int
    why: str
    #: a much shorter config of the same shape, run once before timing
    warmup_config: dict

    def seeds(self, base: int, k: int) -> list[int]:
        """IC seeds of the k-th timed invocation of a run with seed ``base``."""
        first = base * 1000 + k * self.seeds_per_invocation
        return list(range(first, first + self.seeds_per_invocation))

    def argv(self, config_path: Path, out: Path, seeds: list[int]) -> list[str]:
        args = [self.experiment, "--config", str(config_path), "--out", str(out)]
        if len(seeds) == 1:
            return args + ["--seed", str(seeds[0])]
        return args + ["--seeds", ",".join(str(s) for s in seeds)]

    def sim_time(self, config: dict) -> float:
        """Simulated time units one invocation advances: every trajectory
        to t0, plus the covariance horizon where there is one."""
        if self.experiment == "meanfield":
            return self.seeds_per_invocation * config["t0"]
        return config["t0"] + config["delta_t"]

    def check(self, out: Path, config: dict, seeds: list[int]) -> dict:
        """Raise CheckFailed unless ``out`` holds a correct result.

        Returns the analysis values compared against references (empty for
        the mean-field sweep).
        """
        try:
            if self.experiment == "meanfield":
                check_sweep(out, config, seeds)
                return {}
            return check_analyze(out, config)
        except (ValueError, IndexError, KeyError, TypeError, AttributeError) as exc:
            raise CheckFailed(f"malformed artifact: {exc!r}") from exc


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-transient",
            experiment="meanfield",
            config={"params": PAPER, "ic": {"seed": 0}, "t0": 100.5},
            seeds_per_invocation=4,
            why="4-seed meanfield sweep to t0=100.5 at N=50: classical RK4, the CLI thread pool "
                "and the grid CSV writer; the quantum layer does not run",
            warmup_config={"params": PAPER, "ic": {"seed": 0}, "t0": 20.5},
        ),
        Workload(
            name="analyze-paper",
            experiment="analyze",
            config={"params": PAPER, "ic": {"seed": 0}, "t0": 10.5,
                    "delta_t": 0.5, "dt_cov": 1e-3},
            seeds_per_invocation=1,
            why="sequential analyze at N=50, t0=10.5, delta_t=0.5: per-run latency of the "
                "quantum layer (500 covariance steps, 51 margins, one MI scan)",
            warmup_config={"params": PAPER, "ic": {"seed": 0}, "t0": 10.5,
                           "delta_t": 0.5, "dt_cov": 1e-3},
        ),
        Workload(
            name="analyze-wide",
            experiment="analyze",
            config={"params": WIDE, "ic": {"seed": 0}, "t0": 10.5,
                    "delta_t": 0.05, "dt_cov": 1e-3},
            seeds_per_invocation=1,
            why="analyze at N=200, d=40, delta_t=0.05: dense linear algebra (400x400 margin, "
                "O(N^4) MI scan) and about 4x the memory of the paper size",
            warmup_config={"params": WIDE, "ic": {"seed": 0}, "t0": 10.5,
                           "delta_t": 0.05, "dt_cov": 1e-3},
        ),
    )
}


def _read_json(path: Path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"unreadable {path.name}: {exc}") from exc


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CheckFailed(f"unreadable {path.name}: {exc}") from exc
    if not rows:
        raise CheckFailed(f"{path.name} is empty")
    return rows[0], rows[1:]


def _float(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise CheckFailed(f"{where}: not a number: {text!r}") from exc


def check_manifest(out: Path, manifest_name: str = "manifest.json") -> dict:
    """The manifest lists exactly the entries present in ``out``."""
    manifest = _read_json(out / manifest_name)
    listed = manifest.get("files")
    if not isinstance(listed, list) or len(set(listed)) != len(listed):
        raise CheckFailed(f"{out.name}/{manifest_name}: files is not a list of distinct names")
    present = sorted(p.name for p in out.iterdir())
    if sorted(listed) != present:
        raise CheckFailed(
            f"{out.name}/{manifest_name} lists {sorted(listed)}, directory holds {present}"
        )
    return manifest


def _sample_count(span: float, dt: float, spacing: float) -> int:
    steps = int(round(span / dt))
    every = max(1, int(round(spacing / dt)))
    return steps // every + 1 + (1 if steps % every else 0)


def expected_grid_times(config: dict) -> int:
    """Distinct sample times of the mean-field grid for a run from t = 0."""
    t0 = config["t0"]
    dt = config.get("dt_mf", 1e-2)
    window = min(config.get("classify_window", 10.0), t0)
    t_mid = round((t0 - window) / dt) * dt
    fine = _sample_count(t0 - t_mid, dt, config.get("window_spacing", 0.1))
    if t_mid <= 0.5 * dt:
        return fine
    return _sample_count(t_mid, dt, config.get("sample_spacing", 1.0)) + fine - 1


def check_sweep(out: Path, config: dict, seeds: list[int]) -> None:
    n = config["params"]["N"]
    sweep = check_manifest(out, "sweep_manifest.json")
    if sweep.get("failed_seeds"):
        raise CheckFailed(f"failed seeds {sweep['failed_seeds']}")
    if sorted(sweep.get("seeds", [])) != sorted(seeds):
        raise CheckFailed(f"sweep ran seeds {sweep.get('seeds')}, asked for {seeds}")
    rows_expected = expected_grid_times(config) * n
    for seed in seeds:
        sub = out / f"seed_{seed}"
        if not sub.is_dir():
            raise CheckFailed(f"missing {sub.name}")
        manifest = check_manifest(sub)
        regime = (manifest.get("regime") or {}).get("regime")
        if regime not in REGIMES:
            raise CheckFailed(f"seed {seed}: regime label {regime!r} not in {sorted(REGIMES)}")
        header, rows = _read_csv(sub / "meanfield_grid.csv")
        if header != ["t", "l", "phi", "r2"]:
            raise CheckFailed(f"seed {seed}: grid header {header}")
        if len(rows) != rows_expected:
            raise CheckFailed(f"seed {seed}: {len(rows)} grid rows, expected {rows_expected}")
        for row in rows:
            if len(row) != 4 or not math.isfinite(_float(row[3], f"seed {seed} r2")):
                raise CheckFailed(f"seed {seed}: bad grid row {row}")
    _, summary = _read_csv(out / "sweep_summary.csv")
    labels = {row[2] for row in summary if row and row[1] == "ok"}
    if len([r for r in summary if r and r[1] == "ok"]) != len(seeds) or not labels <= REGIMES:
        raise CheckFailed(f"sweep summary disagrees with the per-seed runs: {summary}")


def check_analyze(out: Path, config: dict) -> dict:
    hbar = config["params"].get("hbar", 1.0)
    manifest = check_manifest(out)
    margin = manifest.get("physicality_margin_min")
    if not isinstance(margin, (int, float)) or not margin >= -NEG_TOL * hbar:
        raise CheckFailed(f"physicality_margin_min {margin!r} below -{NEG_TOL} hbar")
    record = _read_json(out / "analysis.json")
    scan = {int(L): float(v) for L, v in record.get("mi_scan", {}).items()}
    n = config["params"]["N"]
    if sorted(scan) != list(range(1, n)):
        raise CheckFailed(f"analysis.json mi_scan covers {len(scan)} partitions, expected {n - 1}")
    header, rows = _read_csv(out / "mi_scan.csv")
    csv_scan = {int(r[0]): _float(r[1], "mi_scan.csv I2") for r in rows}
    if header != ["L", "I2"] or csv_scan != scan:
        raise CheckFailed("mi_scan.csv differs from analysis.json")
    low = min(scan.values())
    if not low >= -NEG_TOL:
        raise CheckFailed(f"negative mutual information {low!r}")
    L = manifest.get("mi_partition")
    if L not in scan or manifest.get("mi_value") != scan[L]:
        raise CheckFailed(f"manifest mi_value at L={L} differs from the scan")
    s2 = record.get("s2_total")
    if not isinstance(s2, (int, float)) or not math.isfinite(s2):
        raise CheckFailed(f"s2_total {s2!r} is not finite")
    return {"mi_partition": L, "mi_value": scan[L], "s2_total": s2}


def check_reference(values: dict, reference: dict) -> None:
    """I2 at mi_partition and s2_total agree with the recorded references."""
    for key in ("mi_value", "s2_total"):
        want = reference[key]
        got = values[key]
        if not abs(got - want) <= REFERENCE_RTOL * abs(want):
            raise CheckFailed(f"{key} = {got!r}, reference {want!r} (rtol {REFERENCE_RTOL})")
    if values["mi_partition"] != reference["mi_partition"]:
        raise CheckFailed(f"mi_partition {values['mi_partition']} != {reference['mi_partition']}")
