#!/usr/bin/env python3
"""Benchmark of the chimera-q command line.

    python3 benchmarks/run.py --workload analyze-paper --seed 1 --seconds 30 --trace 0

Drives ``chimeraq.cli.main`` in this process, from one thread, as a closed
loop: one invocation after another on generated configs until ``--seconds``
have passed.  Every invocation's artifacts are checked.  With ``--trace 0``
the end-to-end metrics are reported; with ``--trace 1`` the per-layer
metrics of a traced pass, layer probes and a one-thread BLAS pass.
``--workload all`` runs every workload in turn, each in its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every invocation exited 0 and passed its checks.

The program is imported from ``src/`` of the checkout that holds this file;
scratch files go to ``.bench_tmp/`` there and are removed on exit.
"""

from __future__ import annotations

import argparse
import os
import sys

#: BLAS threads of the main pass (the one-thread layer pass uses 1); pinned
#: so that every commit runs alike
BLAS_THREADS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--layer-pass", action="store_true",
                    help="only the traced pass and probes, with one BLAS thread; "
                         "used for the .1t metrics of --trace 1")
    return ap.parse_args(argv)


sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

if __name__ == "__main__":
    ARGS = _args(sys.argv[1:])
    # Must happen before numpy is imported anywhere in this process.
    for _var in THREAD_VARS:
        os.environ[_var] = "1" if ARGS.layer_pass else str(BLAS_THREADS)

import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import REFERENCE_SEED, WORKLOADS, CheckFailed, check_reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
SETUP_SAMPLES = 15
#: time a child process may take beyond the seconds it is asked to measure
CHILD_TIMEOUT_S = 150

#: layer metrics that depend on the BLAS thread count; repeated with a .1t suffix
BLAS_HEAVY = (
    "meanfield.us_per_state_step",
    "fluctuations.propagate_covariance.self_s",
    "fluctuations.us_per_cov_step",
    "fluctuations.gflop_per_s",
    "fluctuations.physicality_margin.self_s",
    "fluctuations.physicality_margin.ms_per_call",
    "analysis.build_record.self_s",
    "analysis.mi_scan.self_s",
    "analysis.mutual_information.self_s",
)


# Time from a fresh interpreter to "ready to integrate".  time.monotonic is
# CLOCK_MONOTONIC on Linux, one clock for parent and child.
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import chimeraq
from chimeraq.cli import load_config
cfg = load_config(sys.argv[2], sys.argv[3], int(sys.argv[4]), sys.argv[5])
chimeraq.initial_conditions(cfg.params, cfg.ic)
print(time.monotonic())
"""


def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the end_to_end or per_layer metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_program():
    """Import chimeraq from this checkout's src/, or exit 2 if it is absent."""
    if not (SRC / "chimeraq" / "cli.py").is_file():
        log(f"benchmark: no program source at {SRC}/chimeraq; run from a repository checkout")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import chimeraq
    import chimeraq.cli

    if Path(chimeraq.__file__).resolve().parent != (SRC / "chimeraq").resolve():
        log(f"benchmark: imported chimeraq from {chimeraq.__file__}, not from {SRC}")
        sys.exit(2)


def provenance(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: v for k, v in blas.items() if not k.endswith("directory")}
    except (TypeError, KeyError):
        blas = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": _sha256((SRC / "chimeraq").glob("*.py")),
        "bench_sha256": _sha256(HERE.glob("*.py")),
    }


def _sha256(paths) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Runner:
    """Invokes the CLI for one workload and counts attempts and failures."""

    def __init__(self, workload, seed: int, scratch: Path):
        from chimeraq import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.k = 0
        with open(HERE / "reference.json") as fh:
            self.reference = json.load(fh).get(workload.name)

    def invoke(self, config: dict, seeds: list[int], tracer=None):
        """One CLI invocation; returns (wall seconds, checked values or None)."""
        self.attempted += 1
        work = self.scratch / f"inv{self.attempted}"
        work.mkdir()
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = work / "out"
        argv = self.workload.argv(cfg_path, out, seeds)
        span = tracer.open("cli.main") if tracer is not None else None
        t = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is one failed invocation, the run goes on
            code = "uncaught exception:\n" + traceback.format_exc()
        wall = time.perf_counter() - t
        if span is not None:
            tracer.close(span)
        values = None
        try:
            if code != 0:
                raise CheckFailed(f"exit code {code}")
            values = self.workload.check(out, config, seeds)
        except CheckFailed as exc:
            self.failed += 1
            log(f"FAILED {self.workload.name} {' '.join(argv[:1] + argv[5:])}: {exc}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return wall, values

    def warmup(self) -> None:
        """One untimed invocation at the reference seed, checked against the
        recorded reference values where the workload has them."""
        seeds = [REFERENCE_SEED + i for i in range(self.workload.seeds_per_invocation)]
        _, values = self.invoke(self.workload.warmup_config, seeds)
        if values and self.reference is not None:
            try:
                check_reference(values, self.reference)
            except CheckFailed as exc:
                self.failed += 1
                log(f"FAILED {self.workload.name} reference check: {exc}")

    def loop(self, seconds: float, tracer=None, between=None) -> list[float]:
        """Closed loop of timed invocations for ``seconds`` (at least one).

        ``between(elapsed_share)`` runs after each invocation, untimed.
        """
        walls = []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            seeds = self.workload.seeds(self.seed, self.k)
            self.k += 1
            wall, _ = self.invoke(self.workload.config, seeds, tracer)
            walls.append(wall)
            if between is not None:
                between((time.perf_counter() - start) / seconds)
        return walls


class SetupSampler:
    """Fresh-process set-up times, spread evenly over the measured run."""

    def __init__(self, workload, seed: int, scratch: Path):
        self.workload = workload
        self.seed = seed
        self.cfg_path = scratch / "setup_config.json"
        self.cfg_path.write_text(json.dumps(workload.config))
        self.out = scratch / "setup_out"
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(self.cfg_path),
             self.workload.experiment, str(self.seed * 1000 + len(self.samples)), str(self.out)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        self.samples.append(float(proc.stdout.split()[-1]) - t0)

    def __call__(self, elapsed_share: float) -> None:
        """Catch up to the share of SETUP_SAMPLES due by now."""
        while len(self.samples) < min(SETUP_SAMPLES, int(elapsed_share * SETUP_SAMPLES)):
            self.sample()

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_SAMPLES:
            self.sample()
        return self.samples


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs from /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def tail(walls: list[float]) -> tuple[float, float] | None:
    """Highest of p99.9/p99/p90/p75/p50 with at least ten samples beyond it."""
    ordered = sorted(walls)
    for q in (99.9, 99, 90, 75, 50):
        if len(ordered) * (1 - q / 100) >= 10:
            return q, statistics.quantiles(ordered, n=1000, method="inclusive")[int(q * 10) - 1]
    return None


def end_to_end(args, runner: Runner, scratch: Path) -> tuple[dict, list[str]]:
    sampler = SetupSampler(runner.workload, args.seed, scratch)
    runner.warmup()
    ticks0 = cpu_ticks()
    walls = runner.loop(args.seconds, between=sampler)
    ticks1 = cpu_ticks()
    setup = sampler.finish()
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s.p50": statistics.median(walls),
        "sim_time_per_s": runner.workload.sim_time(runner.workload.config) * len(walls) / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [f"setup samples = " + " ".join(f"{w:.4g}" for w in setup),
             f"invocations = {len(walls)}: " + " ".join(f"{w:.4g}" for w in walls)]
    tl = tail(walls)
    if tl is not None:
        notes.append(f"wall_s.tail = {tl[1]:.6g} s (p{tl[0]:g}, n = {len(walls)})")
    notes.append(f"error_rate = {runner.failed / runner.attempted:.6g} "
                 f"({runner.failed}/{runner.attempted})")
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        # CPU time the hypervisor gave to other guests while this run measured
        notes.append(f"host steal share = {(ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1]):.4f}")
    return metrics, notes


def layer_pass(args, runner: Runner, seconds: float) -> dict:
    """Traced invocations for ``seconds``, then the layer probes."""
    from probes import run_probes
    from tracing import Tracer, instrument, layer_metrics

    tracer = Tracer()
    wrapped, undo = instrument(tracer)
    try:
        walls = runner.loop(seconds, tracer)
    finally:
        undo()
    metrics = layer_metrics(tracer.spans, wrapped | {"cli.main"}, len(walls))
    metrics["traced_wall_s.p50"] = statistics.median(walls)
    metrics.update(run_probes())
    return metrics


def one_thread_pass(args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds / 3), "--trace", "1",
           "--layer-pass"]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=args.seconds / 3 + CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"one-thread pass exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced(args, runner: Runner) -> tuple[dict, list[str]]:
    runner.warmup()
    untraced = runner.loop(args.seconds / 3)
    metrics = layer_pass(args, runner, args.seconds / 3)
    metrics["trace.overhead_s"] = metrics.pop("traced_wall_s.p50") - statistics.median(untraced)
    one = one_thread_pass(args)
    runner.attempted += one["attempted"]
    runner.failed += one["failed"]
    for name, value in one["metrics"].items():
        if name in BLAS_HEAVY or name.startswith("probe."):
            metrics[name + ".1t"] = value
    return metrics, [f"untraced invocations = {len(untraced)}"]


def run_all(args) -> int:
    """Every workload in its own process; prints a combined summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        worst = max(worst, proc.returncode)
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            log(f"benchmark: workload {name} printed no result")
            return worst or 1
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, val in res["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = val
    print(json.dumps(combined))
    return worst or (0 if combined["correct"] else 1)


class Terminated(BaseException):
    """SIGTERM, raised so that scratch files and child processes are cleaned up."""


def _terminate(*_):
    raise Terminated


def main(args) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    import_program()
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=SCRATCH))
    try:
        runner = Runner(workload, args.seed, scratch)
        if args.layer_pass:
            runner.warmup()
            metrics = layer_pass(args, runner, args.seconds)
            print(json.dumps({"attempted": runner.attempted, "failed": runner.failed,
                              "metrics": metrics}))
            return 0
        print("provenance " + json.dumps(provenance(args)), flush=True)
        if args.trace:
            metrics, notes = traced(args, runner)
        else:
            metrics, notes = end_to_end(args, runner, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    spec = declared_metrics("per_layer" if args.trace else "end_to_end")
    if set(spec) != set(metrics):
        log(f"benchmark: metrics differ from BENCHMARK.json: missing {sorted(set(spec) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(spec))}")
    for name in sorted(metrics):
        print(f"{workload.name} {name} = {metrics[name]:.6g} {spec.get(name, '')}")
    for note in notes:
        print(f"{workload.name} {note}")
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": spec.get(k, "")} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main(ARGS))
    except Terminated:
        sys.exit(143)
