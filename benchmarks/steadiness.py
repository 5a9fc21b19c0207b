#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how much each metric spreads.

    python3 benchmarks/steadiness.py --seeds 1-10 --out benchmarks/results/steadiness.json

For every workload and end-to-end metric it records the ten values, their
median and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from BENCHMARK.json.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="range such as 1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        run_s = []
        notes = []
        provenance = None
        for seed in args.seeds:
            t = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            run_s.append(time.perf_counter() - t)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            provenance = provenance or json.loads(lines[0].partition(" ")[2])
            notes.append(lines[1:-1])
            for name, m in json.loads(lines[-1])["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        metrics = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            metrics[name] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                             "spread": spread, "bound": bounds.get(name)}
            print(f"{workload:16s} {name:16s} median {med:.6g}  spread {spread:.4f}"
                  f"  bound {bounds.get(name)}", flush=True)
        report["workloads"][workload] = {"metrics": metrics, "run_wall_s": run_s,
                                         "samples": notes, "provenance": provenance}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
