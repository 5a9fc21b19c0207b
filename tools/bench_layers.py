"""Time each layer of the package and write a ``BENCH_<label>.json`` record.

Each entry is a single library call at a fixed size, repeated; the record
holds the median and quartiles of its per-call figure:

* mean-field RK4 (``integrate_many``), in us per state-step, at B = 1, 3,
  10 and 100 rows of N=50 and B = 1 and 5 of N=200;
* one joint covariance step (``propagate_covariance`` over a short
  segment, whose one checked sample is included), in ms per step, at
  N = 50 and 200;
* each tier of the physicality check (block dominance, Cholesky, the
  exact margin), ``mi_scan`` and ``build_record``, in ms per call, at
  N = 50 and 200, on a covariance 0.05 after a vacuum start;
* writing the phase and r^2 grid (N=50) and the covariance (N=200), in
  MB/s;
* end to end in seconds per ``chimera-q`` call (:data:`E2E`): ``analyze``
  and ``reproduce-paper`` at the paper config (N=50, seed 1, t0 3000.5).
  The three benchmark workloads are timed end to end by
  ``benchmarks/run.py``, not here.

A ring of N sites has d = N/5, V = 1.2 and kappa2 = 0.2, and starts from
the seed-1 initial conditions.  Every entry runs in its own child process,
once with 1 and once with 2 BLAS threads, the thread variables set before
numpy loads, and times ``REPS`` calls (an end-to-end entry ``E2E_REPS``,
with no untimed call before them).  The list is swept ``ROUNDS`` times,
so that each entry's quartiles span the drift of a shared host over the
whole run and not only the few seconds of one child.  The record also holds
the provenance: versions, BLAS, core count, a digest of the imported package
and of this tool, and the load average before and after.

Only the package is imported: a ``PYTHONPATH`` comes first, this
checkout's ``src/`` last, so another checkout's code can be measured from
here.  No figure is a gate.  Usage::

    python tools/bench_layers.py --label <label>     # writes BENCH_<label>.json
    python tools/bench_layers.py --compare OLD.json  # measures, then compares
    python tools/bench_layers.py --compare OLD.json NEW.json
    python tools/bench_layers.py --quick             # tiny sizes, e2e at N=6, schema only

``--compare`` prints the ratio new/old of each median and flags a move
only when it exceeds both files' interquartile spreads.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = ("1", "2")
SCHEMA = 1
#: timed calls per entry, thread setting and sweep, and sweeps over the
#: entries: of a full run, and of ``--quick``
REPS, ROUNDS = 5, 3
QUICK_REPS, QUICK_ROUNDS = 3, 1
#: timed calls per end-to-end entry, thread setting and sweep, of a full
#: run (a paper-config reproduce-paper takes over a minute) and of --quick
E2E_REPS, QUICK_E2E_REPS = 1, 2
#: seconds a child may take
CHILD_TIMEOUT_S = 600

#: name -> (unit, better, what to time and its size); sizes are for a full
#: run, and ``--quick`` divides the step and sample counts by 10
ENTRIES = {
    **{f"meanfield.rk4.N{N}.B{B}": ("us/state-step", "lower", ("rk4", N, B, steps))
       for N, B, steps in ((50, 1, 500), (50, 3, 300), (50, 10, 150), (50, 100, 30),
                           (200, 1, 300), (200, 5, 100))},
    **{f"fluctuations.cov_step.N{N}": ("ms/step", "lower", ("cov_step", N, steps))
       for N, steps in ((50, 50), (200, 10))},
    **{f"fluctuations.{tier}.N{N}": ("ms/call", "lower", (tier, N))
       for tier in ("block_dominance", "cholesky", "exact_margin") for N in (50, 200)},
    **{f"analysis.{f}.N{N}": ("ms/call", "lower", (f, N))
       for f in ("mi_scan", "build_record") for N in (50, 200)},
    "io.grid_csv.N50": ("MB/s", "higher", ("grid_csv", 50, 2000)),
    "io.covariance_csv.N200": ("MB/s", "higher", ("covariance_csv", 200)),
}

#: the paper config: N=50, seed 1, each experiment's default snapshot times
PAPER_CONFIG = {"params": {"N": 50, "d": 10, "V": 1.2, "kappa2": 0.2}, "ic": {"seed": 1}}

#: name -> (unit, better, (experiment, config)) of each end-to-end entry,
#: at N=6 with --quick
E2E = {
    name: ("s/call", "lower", ("e2e", experiment, PAPER_CONFIG))
    for name, experiment in (("e2e.analyze_paper_config", "analyze"),
                             ("e2e.reproduce_paper", "reproduce-paper"))
}


def _quick_config(config: dict) -> dict:
    """``config`` at N=6, every snapshot time 12.5."""
    states = [{"name": name, "V": V, "t0": 12.5}
              for name, V in (("chimera", 1.2), ("synchronized", 1.6), ("desynchronized", 0.8))]
    return {**config, "params": {**config["params"], "N": 6, "d": 2},
            "t0": 12.5, "fig_states": states}


def _import_package():
    sys.path.append(str(ROOT / "src"))
    import chimeraq

    return chimeraq


def _ring(cq, N: int):
    p = cq.NetworkParams(N=N, d=N // 5, V=1.2, kappa2=0.2)
    return p, cq.initial_conditions(p, cq.InitialConditionSpec(seed=1))


def _covariance(cq, p, s0):
    seg = cq.integrate(p, s0, 0.05, dt=1e-3, sample_every=50)
    return cq.propagate_covariance(p, seg, cq.vacuum_covariance(p), dt=1e-3).final_cov


def _setup(cq, spec: tuple, quick: bool, scratch: Path):
    """(call, figure): ``call()`` is the timed work and ``figure(seconds)``
    its entry's value for one call."""
    import numpy as np
    from chimeraq import cli, fluctuations, io

    if spec[0] == "e2e":
        experiment, config = spec[1:]
        path = scratch / "config.json"
        path.write_text(json.dumps(_quick_config(config) if quick else config))
        calls = itertools.count()

        def run():  # each call into a directory of its own
            argv = [experiment, "--config", str(path), "--out", str(scratch / f"{next(calls)}")]
            if cli.main(argv) != 0:
                raise RuntimeError(f"chimera-q {' '.join(argv)} failed")

        return run, lambda sec: sec
    kind, N, *size = spec
    scale = 10 if quick else 1
    p, s0 = _ring(cq, N)
    if kind == "rk4":
        B, steps = size[0], max(2, size[1] // scale)
        states = [cq.initial_conditions(p, cq.InitialConditionSpec(seed=s)) for s in range(B)]
        return (lambda: cq.integrate_many(p, states, steps * 1e-2, dt=1e-2, sample_every=steps),
                lambda sec: 1e6 * sec / (B * steps))
    if kind == "cov_step":
        steps = max(2, size[0] // scale)
        seg = cq.integrate(p, s0, steps * 1e-3, dt=1e-3, sample_every=steps)
        C0 = cq.vacuum_covariance(p)
        return (lambda: cq.propagate_covariance(p, seg, C0, dt=1e-3),
                lambda sec: 1e3 * sec / steps)
    if kind == "grid_csv":
        samples = max(2, size[0] // scale)
        parts = [cq.integrate(p, s0, samples * 1e-2, dt=1e-2)]
        path = scratch / "grid.csv"
        return (lambda: io.write_csv(path, ["t", "l", "phi", "r2"],
                                     blocks=cli._grid_blocks(parts, ("phi", "r2"))),
                lambda sec: path.stat().st_size / 1e6 / sec)
    cov = _covariance(cq, p, s0)
    if kind == "covariance_csv":
        path = scratch / "covariance.csv"
        return lambda: io.write_covariance(path, cov), lambda sec: path.stat().st_size / 1e6 / sec

    def per_call(sec):
        return 1e3 * sec

    C, hbar = cov.C, p.hbar
    shift = 0.5 * hbar + fluctuations.PHYSICALITY_TOL * hbar
    if kind == "block_dominance":
        work = np.empty_like(C)
        return lambda: fluctuations._block_dominant(C, shift, work), per_call
    if kind == "cholesky":
        D = C - shift * np.eye(C.shape[0])
        return lambda: fluctuations._factorizes(D), per_call
    if kind == "exact_margin":
        return lambda: cq.physicality_margin(C, hbar), per_call
    if kind == "mi_scan":
        return lambda: cq.mi_scan(p, cov), per_call
    if kind == "build_record":
        return lambda: cq.build_record(p, cov), per_call
    raise ValueError(f"unknown entry kind {kind!r}")


def child(name: str, quick: bool) -> list[float]:
    """The entry's figure for each of the timed calls, after one untimed
    call (none for an end-to-end entry)."""
    cq = _import_package()
    e2e = name in E2E
    reps = (QUICK_E2E_REPS if e2e else QUICK_REPS) if quick else (E2E_REPS if e2e else REPS)
    with tempfile.TemporaryDirectory() as tmp:
        call, figure = _setup(cq, {**ENTRIES, **E2E}[name][2], quick, Path(tmp))
        if not e2e:
            call()
        values = []
        for _ in range(reps):
            t = time.perf_counter()
            call()
            values.append(figure(time.perf_counter() - t))
    return values


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _run_child(name: str, threads: str, quick: bool) -> list[float]:
    env = {**os.environ, **{v: threads for v in THREAD_VARS}}
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", name]
    done = subprocess.run(cmd + (["--quick"] if quick else []), env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{name} at {threads} BLAS threads failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def _sha256(paths) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(quick: bool) -> dict:
    import numpy as np

    cq = _import_package()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: v for k, v in blas.items() if not k.endswith("directory")}
    except (TypeError, KeyError):
        blas = None
    package = Path(cq.__file__).resolve().parent
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: list(THREADS) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        # the package measured: this checkout's src/, or one a PYTHONPATH named
        "src_is_checkout": package == (ROOT / "src" / "chimeraq").resolve(),
        "src_sha256": _sha256(package.glob("*.py")),
        "tool_sha256": _sha256([Path(__file__).resolve()]),
        "reps": QUICK_REPS if quick else REPS,
        "e2e_reps": QUICK_E2E_REPS if quick else E2E_REPS,
        "rounds": QUICK_ROUNDS if quick else ROUNDS,
        "quick": quick,
    }


def measure(label: str, quick: bool) -> dict:
    """The record of the sweeps over ENTRIES and E2E; the thread setting
    that goes first alternates from sweep to sweep."""
    record = {"schema": SCHEMA, "label": label, "provenance": provenance(quick)}
    record["provenance"]["loadavg_before"] = list(os.getloadavg())
    entries = {**ENTRIES, **E2E}
    values = {name: {t: [] for t in THREADS} for name in entries}
    rounds = QUICK_ROUNDS if quick else ROUNDS
    for r in range(rounds):
        for name in entries:
            for t in THREADS[:: 1 if r % 2 == 0 else -1]:
                values[name][t] += _run_child(name, t, quick)
        print(f"round {r + 1} of {rounds} done", file=sys.stderr, flush=True)
    record["provenance"]["loadavg_after"] = list(os.getloadavg())
    record["entries"] = {
        name: {"unit": unit, "better": better,
               "threads": {t: _summary(values[name][t]) for t in THREADS}}
        for name, (unit, better, _) in entries.items()
    }
    check_schema(record)
    return record


def check_schema(record: dict) -> None:
    """Raise ValueError unless every entry of ``record`` has a unit, a
    direction and, per thread setting, a median between its quartiles over
    at least one call.  An entry's name is not checked: a record made before
    an entry was added, renamed or dropped still loads, and ``compare``
    skips what one side lacks.  An entry the tool still has must keep its
    unit and direction."""
    if record.get("schema") != SCHEMA or not isinstance(record.get("label"), str):
        raise ValueError("not a layer record of schema 1 with a label")
    prov = record.get("provenance", {})
    for key in ("python", "numpy", "nproc", "src_sha256", "loadavg_before", "loadavg_after"):
        if key not in prov:
            raise ValueError(f"provenance lacks {key!r}")
    entries = record.get("entries")
    if not isinstance(entries, dict) or not entries:
        raise ValueError("the record has no entries")
    for name, entry in entries.items():
        unit, better = entry.get("unit"), entry.get("better")
        if not isinstance(unit, str) or better not in ("lower", "higher"):
            raise ValueError(f"{name}: bad unit or direction {unit!r}, {better!r}")
        known = ENTRIES.get(name) or E2E.get(name)
        if known and known[:2] != (unit, better):
            raise ValueError(f"{name}: unit or direction is not {known[:2]}")
        if not isinstance(entry.get("threads"), dict) or not entry["threads"]:
            raise ValueError(f"{name}: no thread settings")
        for t, s in entry["threads"].items():
            if not (s["n"] >= 1 and 0 < s["q1"] <= s["median"] <= s["q3"]):
                raise ValueError(f"{name} at {t} threads: bad summary {s}")


def compare(old: dict, new: dict) -> list[str]:
    """One line per entry and thread setting in both records: the ratio
    new/old of the medians, flagged ``faster`` or ``slower`` only when the
    medians differ by more than each record's interquartile spread."""
    lines = []
    for name, entry in new["entries"].items():
        if name not in old["entries"]:
            continue
        for t, s in entry["threads"].items():
            o = old["entries"][name]["threads"].get(t)
            if o is None:
                continue
            move = s["median"] - o["median"]
            flag = ""
            if abs(move) > max(s["q3"] - s["q1"], o["q3"] - o["q1"]):
                better = (move < 0) == (entry["better"] == "lower")
                flag = "  faster" if better else "  slower"
            lines.append(f"{name} [{t}t] {entry['unit']}: {o['median']:.4g} -> "
                         f"{s['median']:.4g}  x{s['median'] / o['median']:.3f}{flag}")
    return lines


def _load(path: str) -> dict:
    with open(path) as fh:
        record = json.load(fh)
    check_schema(record)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", help="names the record BENCH_<label>.json at the repo root")
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes and every e2e entry at N=6, one round; checks the schema, "
                         "writes nothing")
    ap.add_argument("--compare", nargs="+", metavar="JSON",
                    help="OLD [NEW]: compare NEW, or a fresh measurement, with OLD")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child, args.quick)))
        return 0
    if args.compare and len(args.compare) > 2:
        ap.error("--compare takes OLD and at most one NEW")
    if args.compare and len(args.compare) == 2:
        old, new = map(_load, args.compare)
    else:
        old = _load(args.compare[0]) if args.compare else None
        if args.quick:
            new = measure("quick", True)
            print(f"schema {SCHEMA} holds for {len(new['entries'])} entries")
        else:
            if not args.label:
                ap.error("a measurement needs --label")
            new = measure(args.label, False)
            path = ROOT / f"BENCH_{args.label}.json"
            path.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
            print(f"wrote {path.name}")
    if old is not None:
        print("\n".join(compare(old, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
