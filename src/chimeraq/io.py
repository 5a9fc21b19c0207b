"""File formats: CSV payloads with fixed layouts and JSON sidecars.

One rule turns a value into CSV text (:func:`fmt`): floats, numpy floats
included, get 17 significant digits, so that reruns with identical inputs
produce byte-identical CSV files; anything else is written with ``str``.
Small tables are formatted row by row with that rule.  Large payloads
(space-time grids, covariances) are formatted one block of lines per ``%``
call, from line templates built once per table with the same rule, and
written as they are made: at most one block of text is held.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import CovarianceMatrix, MeanFieldState, NetworkParams
from .meanfield import InitialConditionSpec


#: the conversion of a float cell: 17 significant digits
FLOAT = "%.17g"


def fmt(x) -> str:
    """``x`` as CSV text: :data:`FLOAT` for floats (numpy floats included),
    ``str`` for anything else."""
    return (FLOAT if isinstance(x, (float, np.floating)) else "%s") % (x,)


def _literal(text: str) -> str:
    """``text`` as it must appear in a ``%`` template to come out unchanged."""
    return text.replace("%", "%%")


def line_templates(labels, n_floats: int) -> list[str]:
    """Per label tuple, the ``%`` template of a CSV line after its leading
    cell: ``,<label cells>`` and then ``n_floats`` float cells."""
    tail = ("," + FLOAT) * n_floats + "\n"
    return [_literal("".join("," + fmt(x) for x in label)) + tail for label in labels]


def block(lead: str, templates: list[str], values) -> str:
    """One line per template, each starting with the cell text ``lead``,
    its float cells filled from ``values`` (Python floats, as
    ``ndarray.tolist()`` gives them) in order."""
    return _literal(lead).join(["", *templates]) % tuple(values)


def write_csv(path: Path, header: list[str], rows=(), blocks=()) -> None:
    """Write ``header``, then ``rows`` (tuples, formatted cell by cell with
    :func:`fmt`), then ``blocks`` (text of whole lines, see :func:`block`),
    consuming both as it writes."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(x) for x in row) + "\n")
        fh.writelines(blocks)


def write_json(path: Path, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_int(obj: dict, key: str, default: int | None = None) -> int:
    """``obj[key]``, or ``default`` when given and the key is absent, as an
    int.  Raises ValueError naming the key unless the value is an integral
    JSON number (a bool is not one); KeyError if it is missing."""
    x = obj[key] if default is None else obj.get(key, default)
    if isinstance(x, bool) or not isinstance(x, (int, float)) or (
        isinstance(x, float) and not x.is_integer()
    ):
        raise ValueError(f"{key} must be an integer, got {x!r}")
    return int(x)


def read_float(obj: dict, key: str, default: float | None = None) -> float:
    """``obj[key]``, or ``default`` when given and the key is absent, as a
    float.  Raises ValueError naming the key unless the value is a JSON
    number (a bool is not one); KeyError if it is missing."""
    x = obj[key] if default is None else obj.get(key, default)
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"{key} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{key} must be finite, got an integer beyond the float range") from None


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
    if read_float(obj, "kappa1", 1.0) != 1.0:
        raise ValueError("kappa1 is fixed to 1 in parameter files")
    return NetworkParams(
        N=read_int(obj, "N"),
        d=read_int(obj, "d"),
        V=read_float(obj, "V"),
        kappa2=read_float(obj, "kappa2"),
        hbar=read_float(obj, "hbar", 1.0),
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
        seed=read_int(obj, "seed", defaults.seed),
        r0=None if obj.get("r0") is None else read_float(obj, "r0"),
        sigma=read_float(obj, "sigma", defaults.sigma),
        mu=None if obj.get("mu") is None else read_float(obj, "mu"),
        theta_range=read_float(obj, "theta_range", defaults.theta_range),
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
    """Lower triangle, row-major, with (site, quadrature) labels per index;
    one block of lines per matrix row."""
    labels = [(i // 2 + 1, "qp"[i % 2]) for i in range(cov.C.shape[0])]
    lines = line_templates(labels, 1)
    blocks = (
        block(",".join(map(fmt, label)), lines[: i + 1], cov.C[i, : i + 1].tolist())
        for i, label in enumerate(labels)
    )
    write_csv(path, ["row_site", "row_quad", "col_site", "col_quad", "value"], blocks=blocks)

