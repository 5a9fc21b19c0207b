"""File formats: CSV payloads with fixed layouts and JSON sidecars.

One rule turns a value into CSV text (:func:`fmt`): floats, numpy floats
included, get 17 significant digits, so that reruns with identical inputs
produce byte-identical CSV files; anything else is written with ``str``.
Small tables are formatted row by row with that rule.  Large payloads
(space-time grids, covariances) are formatted one block of lines per ``%``
call, from line templates built once per table with the same rule, and
written as they are made: at most one block of text is held.

Every JSON object is read by one reader, :func:`read_object`, from the
fields of its dataclass, its values by the rule that checks every field
(:func:`read`), and written through one rule, :func:`to_json`.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, Field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .core import CovarianceMatrix, MeanFieldState, NetworkParams, check_value, field_kinds
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


def read(key: str, x, kind):
    """The JSON value ``x`` of ``key`` as ``kind``, a resolved annotation, by
    the one rule of :func:`core.check_value` (null is None), save that an
    ``int`` takes an integral float, as JSON may write 3 as ``3.0``.
    Raises ValueError naming the key."""
    if kind is int and isinstance(x, float) and x.is_integer():
        x = int(x)
    return check_value(key, x, kind, ValueError)


def keys(cls) -> list[Field]:
    """The fields of the dataclass ``cls`` that are keys of its JSON object:
    all but those whose metadata holds ``"key": False``."""
    return [f for f in fields(cls) if f.metadata.get("key", True)]


def read_object(cls, obj, what: str, **given):
    """The dataclass ``cls`` from the JSON object ``obj`` named ``what``:
    the fields in ``given`` take those values, every other key of ``obj``
    is read as its field's kind by :func:`read`, and the remaining fields
    take their defaults.  Raises ValueError if ``obj`` is not an object,
    holds a key that is not one of :func:`keys`, or lacks a required one."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r}")
    table = {f.name: f for f in keys(cls)}
    unknown = set(obj) - set(table)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    kinds = field_kinds(cls)
    kw = {k: read(k, x, kinds[k]) for k, x in obj.items() if k not in given}
    for f in table.values():
        if f.name not in kw and f.name not in given and f.default is MISSING:
            raise ValueError(f"missing {what} key: {f.name}")
    return cls(**kw, **given)


def to_json(x):
    """``x`` as JSON data: a dataclass as the object of its :func:`keys`, a
    dict with its keys as strings, a tuple, list or array as a list, a
    complex number as ``[re, im]``, a numpy scalar as a Python one."""
    if is_dataclass(x):
        return {f.name: to_json(getattr(x, f.name)) for f in keys(type(x))}
    if isinstance(x, dict):
        return {str(k): to_json(v) for k, v in x.items()}
    if isinstance(x, (tuple, list, np.ndarray)):
        return [to_json(v) for v in x]
    x = x.item() if isinstance(x, np.generic) else x
    return [x.real, x.imag] if isinstance(x, complex) else x


def save_state(
    path: Path,
    state: MeanFieldState,
    p: NetworkParams,
    ic: InitialConditionSpec | None = None,
) -> None:
    """Persist oscillator amplitudes as [re, im] pairs with their provenance."""
    write_json(path, {**to_json(state), "params": to_json(p), "ic": to_json(ic)})


def load_state(path: Path) -> tuple[MeanFieldState, NetworkParams]:
    """Read a state file written by :func:`save_state`, its numbers through
    :func:`read`.  Raises OSError if the file cannot be read, ValueError if
    it holds no such state or a number that is not finite."""
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"a state file holds a JSON object, got {type(obj).__name__}")
    p = read_object(NetworkParams, obj.get("params"), "params")
    t = read("t", obj.get("t", 0.0), float)
    pairs = obj.get("alphas")
    if not (isinstance(pairs, list) and all(isinstance(a, list) and len(a) == 2 for a in pairs)):
        raise ValueError("alphas must be a list of [re, im] pairs")
    alphas = np.array([complex(*(read("alphas", x, float) for x in a)) for a in pairs])
    if len(alphas) != p.N:
        raise ValueError(f"state file holds {len(alphas)} amplitudes, params say N={p.N}")
    return MeanFieldState(t=t, alphas=alphas), p


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

