"""File formats: CSV payloads with fixed layouts and JSON sidecars.

Floats are written with 17 significant digits so that reruns with identical
inputs produce byte-identical CSV files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import CovarianceMatrix, MeanFieldState, NetworkParams
from .meanfield import InitialConditionSpec


def fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(x) for x in row) + "\n")


def write_json(path: Path, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def params_to_json(p: NetworkParams) -> dict:
    return {"N": p.N, "d": p.d, "V": p.V, "kappa2": p.kappa2, "hbar": p.hbar}


def params_from_json(obj: dict) -> NetworkParams:
    """Parse the parameter object; kappa1 is fixed to 1 in files."""
    known = {"N", "d", "V", "kappa2", "hbar", "kappa1"}
    unknown = set(obj) - known
    if unknown:
        raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
    for key in ("N", "d", "V", "kappa2"):
        if key not in obj:
            raise ValueError(f"missing parameter key: {key}")
    if obj.get("kappa1", 1.0) != 1.0:
        raise ValueError("kappa1 is fixed to 1 in parameter files")
    return NetworkParams(
        N=int(obj["N"]),
        d=int(obj["d"]),
        V=float(obj["V"]),
        kappa2=float(obj["kappa2"]),
        hbar=float(obj.get("hbar", 1.0)),
    )


def ic_spec_to_json(ic: InitialConditionSpec) -> dict:
    return {
        "seed": ic.seed,
        "r0": ic.r0,
        "sigma": ic.sigma,
        "mu": ic.mu,
        "theta_range": ic.theta_range,
    }


def ic_spec_from_json(obj: dict) -> InitialConditionSpec:
    known = {"seed", "r0", "sigma", "mu", "theta_range"}
    unknown = set(obj) - known
    if unknown:
        raise ValueError(f"unknown initial-condition keys: {sorted(unknown)}")
    defaults = InitialConditionSpec()
    return InitialConditionSpec(
        seed=int(obj.get("seed", defaults.seed)),
        r0=None if obj.get("r0") is None else float(obj["r0"]),
        sigma=float(obj.get("sigma", defaults.sigma)),
        mu=None if obj.get("mu") is None else float(obj["mu"]),
        theta_range=float(obj.get("theta_range", defaults.theta_range)),
    )


def save_state(
    path: Path,
    state: MeanFieldState,
    p: NetworkParams,
    ic: InitialConditionSpec | None = None,
) -> None:
    """Persist oscillator amplitudes as [re, im] pairs with their provenance."""
    obj = {
        "t": state.t,
        "alphas": [[float(a.real), float(a.imag)] for a in state.alphas],
        "params": params_to_json(p),
        "ic": None if ic is None else ic_spec_to_json(ic),
    }
    write_json(path, obj)


def load_state(path: Path) -> tuple[MeanFieldState, NetworkParams]:
    with open(path) as fh:
        obj = json.load(fh)
    p = params_from_json(obj["params"])
    alphas = np.array([complex(re, im) for re, im in obj["alphas"]])
    if alphas.shape[0] != p.N:
        raise ValueError(
            f"state file holds {alphas.shape[0]} amplitudes, params say N={p.N}"
        )
    return MeanFieldState(t=float(obj.get("t", 0.0)), alphas=alphas), p


def write_covariance(path: Path, cov: CovarianceMatrix) -> None:
    """Lower triangle, row-major, with (site, quadrature) labels per index."""

    def label(i: int) -> tuple[int, str]:
        return i // 2 + 1, "q" if i % 2 == 0 else "p"

    def rows():
        for i in range(cov.C.shape[0]):
            si, qi = label(i)
            for j in range(i + 1):
                sj, qj = label(j)
                yield si, qi, sj, qj, cov.C[i, j]

    write_csv(path, ["row_site", "row_quad", "col_site", "col_quad", "value"], rows())


def load_covariance(path: Path, t: float = 0.0) -> CovarianceMatrix:
    rows = Path(path).read_text().strip().split("\n")[1:]
    entries = []
    for line in rows:
        si, qi, sj, qj, value = line.split(",")
        i = 2 * (int(si) - 1) + (0 if qi == "q" else 1)
        j = 2 * (int(sj) - 1) + (0 if qj == "q" else 1)
        entries.append((i, j, float(value)))
    n2 = max(i for i, _, _ in entries) + 1
    C = np.zeros((n2, n2))
    for i, j, value in entries:
        C[i, j] = value
        C[j, i] = value
    return CovarianceMatrix(t=t, C=C)
