"""Print a sha256 digest of every file a fixed set of CLI runs writes.

Runs in one process, into a temporary directory:

* each of the eight experiments at N=20;
* ``analyze`` from the ``meanfield`` run's ``snapshot.json`` and
  ``reproduce-fig3`` from its ``initial_conditions.json``, through
  ``ic_file``;
* the grid writer's edge cases: ``meanfield`` from that ``snapshot.json``
  at its own time (no mean-field part, a grid of its header alone) and
  ``reproduce-fig1`` at a ``t0`` below ``classify_window`` (one part);
* two-seed ``analyze`` and ``reproduce-fig4`` sweeps, and a sweep whose
  seeds diverge;
* ``reproduce-paper`` with one seed and with ``--seeds 1,2``: each of its
  ``<experiment>/`` files hashes as the solo run's (or sweep's) file;
* ``analyze`` at the ``analyze-paper`` and ``analyze-wide`` benchmark
  configs;
* hostile configs that must exit without writing: those of CI's
  console-script step, two lengths off the ``dt_mf`` grid, a start state
  whose draw is not finite, an ``--out`` that names a file, and one value
  just outside each bound a config key declares (:data:`BREAKS`).

For each run it prints the exit code, then each line the run wrote to
stderr (``stderr  <line>``), then one ``<sha256>  <run>/<path>`` line per
file, in path order, or ``empty  <run>/`` for an output directory left
empty.  The runs start in the temporary directory,
and an ``ic_file`` is named relative to it, so that the manifest echoes
the same path on every run.  A manifest (``manifest.json``,
``sweep_manifest.json`` or ``paper_manifest.json``) is hashed without its
``*wall_time_s`` keys and its ``outputs`` echo, which differ on every run.
The package imported is named on stderr.

Two runs of the same code print the same lines; so do two versions of the
code that write the same payloads, save the error messages they word
differently.  Usage::

    python tools/payload_digest.py > a.txt
    PYTHONPATH=<other checkout>/src python tools/payload_digest.py > b.txt
    diff a.txt b.txt
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# a PYTHONPATH or an installed package comes first; this checkout's src/ last
sys.path.append(str(ROOT / "src"))
sys.path.append(str(ROOT / "benchmarks"))

import chimeraq  # noqa: E402
from chimeraq.cli import main  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = {
    "params": {"N": 20, "d": 4, "V": 1.2, "kappa2": 0.2, "hbar": 1.0},
    "ic": {"seed": 1},
    "t0": 12.5,
    "sample_spacing": 0.5,
    "fig_states": [
        {"name": "chimera", "V": 1.2, "t0": 12.5},
        {"name": "synchronized", "V": 1.6, "t0": 15.5},
        {"name": "desynchronized", "V": 0.8, "t0": 20.5},
    ],
}

#: SMALL without its ``ic``, for the runs that start from an ``ic_file``
FROM_FILE = {k: v for k, v in SMALL.items() if k != "ic"}

EXPERIMENTS = ("meanfield", "fluctuations", "analyze", "scan-mi", "reproduce-fig1",
               "reproduce-fig2", "reproduce-fig3", "reproduce-fig4")

#: (run name, experiment, config, extra CLI arguments)
RUNS = [
    *((e, e, SMALL, []) for e in EXPERIMENTS),
    ("analyze-from-snapshot", "analyze",
     {**FROM_FILE, "ic_file": "meanfield/snapshot.json", "t0": 22.5}, []),
    ("fig3-from-start", "reproduce-fig3",
     {**FROM_FILE, "ic_file": "meanfield/initial_conditions.json"}, []),
    ("meanfield-at-snapshot", "meanfield",
     {**FROM_FILE, "ic_file": "meanfield/snapshot.json", "t0": SMALL["t0"]}, []),
    ("fig1-one-part", "reproduce-fig1", {**SMALL, "t0": 5.5}, []),
    ("analyze-sweep", "analyze", SMALL, ["--seeds", "1,2"]),
    ("fig4-sweep", "reproduce-fig4", SMALL, ["--seeds", "1,2"]),
    ("diverging-sweep", "meanfield", {**SMALL, "ic": {"seed": 1, "r0": 60.0}},
     ["--seeds", "1,2"]),
    ("reproduce-paper", "reproduce-paper", SMALL, []),
    ("reproduce-paper-sweep", "reproduce-paper", SMALL, ["--seeds", "1,2"]),
    *((name, "analyze", WORKLOADS[name].config, [])
      for name in ("analyze-paper", "analyze-wide")),
]

#: (key, value) of each break of a declared bound: the value lies just
#: outside one bound of the key, as the README's Range column states it
BREAKS = [
    ("params.N", 1), ("params.d", 0), ("params.V", -1.0), ("params.kappa2", 0.0),
    ("params.hbar", 0.0), ("ic.seed", -1), ("ic.r0", 0.0), ("ic.sigma", 0.0),
    ("ic.theta_range", 0.0), ("ic.theta_range", 1e308), ("t0", -1.0), ("delta_t", 0.0),
    ("dt_mf", 0.0), ("dt_cov", 0.0), ("sample_spacing", 0.0), ("window_spacing", 0.0),
    ("classify_window", 0.0), ("z_threshold", 0.0), ("z_threshold", 2.0), ("w_min", 0),
    ("fig_states[].V", -1.0), ("fig_states[].t0", -1.0),
]


def _broken(key: str, value) -> tuple[str, dict]:
    """The experiment that reads ``key`` and SMALL with ``key`` set to
    ``value`` (a ``fig_states`` key in the first entry)."""
    config = copy.deepcopy(SMALL)
    *path, name = key.split(".")
    obj = config
    for part in path:
        obj = obj["fig_states"][0] if part == "fig_states[]" else obj[part]
    obj[name] = value
    return ("reproduce-fig3" if path == ["fig_states[]"] else "meanfield"), config


HOSTILE = [
    # those of CI's console-script step, at N=20: an ic_file that names a
    # directory, a t0 whose step count is beyond the float range, a t0
    # before the ic_file's t (12.5), a fig state with a negative V and a
    # sample spacing too large to count in dt_mf steps
    ("directory-ic-file", "meanfield", {**FROM_FILE, "ic_file": "not-a-state"}, []),
    ("far-t0", "meanfield", {**SMALL, "t0": 1e308}, []),
    ("t0-before-ic-file", "analyze",
     {**FROM_FILE, "ic_file": "meanfield/snapshot.json", "t0": 5.5}, []),
    ("negative-fig-v", "reproduce-fig3",
     {**SMALL, "fig_states": [{"name": "chimera", "V": -1, "t0": 12.0}]}, []),
    ("uncountable-spacing-sweep", "meanfield", {**SMALL, "sample_spacing": 1e308},
     ["--seeds", "1,2"]),
    # lengths off the dt_mf grid: a window spacing between two step counts,
    # and a classify window whose start is 7.4975, between two steps
    ("off-grid-window-spacing", "meanfield", {**SMALL, "window_spacing": 0.015}, []),
    ("off-grid-classify-window", "meanfield", {**SMALL, "classify_window": 5.0025}, []),
    # sigma**2 underflows: the draw is not finite
    ("tiny-sigma", "meanfield", {**SMALL, "ic": {"seed": 1, "sigma": 1e-170}}, []),
    # the last --out wins: one that names a file
    ("out-names-a-file", "meanfield", SMALL, ["--out", "a-file"]),
    *((f"break-{key}={value!r}", *_broken(key, value), []) for key, value in BREAKS),
]

MANIFESTS = ("manifest.json", "sweep_manifest.json", "paper_manifest.json")


def _stable(obj):
    """A manifest without the keys that differ on every run."""
    if isinstance(obj, dict):
        return {k: _stable(v) for k, v in obj.items()
                if k != "outputs" and not k.endswith("wall_time_s")}
    return obj


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name in MANIFESTS:
        data = json.dumps(_stable(json.loads(data))).encode()
    return hashlib.sha256(data).hexdigest()


def main_() -> int:
    print(f"chimeraq from {Path(chimeraq.__file__).parent}", file=sys.stderr)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        os.chdir(tmp)
        (tmp / "not-a-state").mkdir()
        (tmp / "a-file").write_text("")
        try:
            for name, experiment, config, extra in RUNS + HOSTILE:
                cfg = tmp / f"{name}.json"
                cfg.write_text(json.dumps(config))
                out = tmp / name
                stderr = io.StringIO()
                with contextlib.redirect_stderr(stderr):
                    try:
                        code = main([experiment, "--config", str(cfg), "--out", str(out), *extra])
                    except SystemExit as exc:  # a CLI that does not know the experiment
                        code = exc.code
                print(f"exit {code}  {name}")
                for line in stderr.getvalue().splitlines():
                    print(f"stderr  {line}")
                files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
                for path in files:
                    print(f"{digest(path)}  {path.relative_to(tmp)}")
                if out.exists() and not files:
                    print(f"empty  {name}/")
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main_())
