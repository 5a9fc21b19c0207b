"""In-memory span recorder and the per-layer metrics computed from it.

Spans are recorded from the benchmark's side of the API: ``instrument``
replaces public module attributes of ``chimeraq`` with timing wrappers, so
the program itself is not modified.  Each span keeps its thread id and its
parent; a span opened on a worker thread with nothing open on that thread
takes as parent the innermost span open on the thread that installed the
tracer (the program's sweep pool runs on behalf of that thread).

A wrapped call made while a span of the same name is innermost on its
thread is not recorded again, so ``cli.integrate`` and the
``integrate_many`` it calls count once.  A count extractor that fails on a
changed signature or result leaves the metrics built on that count out.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    cpu_start: float = 0.0
    cpu_end: float = 0.0
    #: values of the span's count extractor; None when the extractor failed
    counts: dict | None = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[Span]] = {}
        self._home = threading.get_ident()

    def _stack(self, tid: int) -> list[Span]:
        return self._stacks.setdefault(tid, [])

    def innermost(self) -> Span | None:
        """The innermost span open on the calling thread, if any."""
        stack = self._stack(threading.get_ident())
        return stack[-1] if stack else None

    def open(self, name: str) -> Span:
        tid = threading.get_ident()
        stack = self._stack(tid)
        if stack:
            parent = stack[-1].id
        else:
            home = self._stacks.get(self._home) if tid != self._home else None
            parent = home[-1].id if home else None
        span = Span(next(self._ids), name, parent, tid, time.perf_counter(),
                    cpu_start=time.process_time())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu_end = time.process_time()
        self._stack(span.thread).pop()
        self.spans.append(span)


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _steps(times, dt: float) -> int:
    return int(round(float(times[-1] - times[0]) / dt))


def _count_integrate(a: dict, result) -> dict:
    """State steps of ``integrate`` (one trajectory) or ``integrate_many``
    (a list of them): steps x batch."""
    trajs = result if isinstance(result, (list, tuple)) else [result]
    return {"rk4_state_steps": sum(_steps(t.times, a["dt"]) for t in trajs)}


def _count_covariance(a: dict, result) -> dict:
    samples, n2, _ = result.covs.shape
    steps = _steps(result.times, a["dt"])
    return {
        "cov_steps": steps,
        "flops": 8 * n2**3 * steps,
        "cov_traj_bytes": samples * n2 * n2 * 8,
    }


def _count_csv(a: dict, result) -> dict:
    with open(a["path"], "rb") as fh:
        data = fh.read()
    return {"rows": data.count(b"\n") - 1, "bytes": len(data)}


def _count_json(a: dict, result) -> dict:
    return {"bytes": os.path.getsize(a["path"])}


def targets() -> list[tuple]:
    """(module, attribute, span name, count extractor) of every wrapped name.

    A missing attribute is skipped by ``instrument``, so metrics that depend
    on it are absent rather than failing.
    """
    from chimeraq import analysis, cli, fluctuations, io, meanfield

    out = [
        (cli, "seed_sweep", "cli.seed_sweep", None),
        (cli, "integrate", "meanfield.integrate", _count_integrate),
        (cli, "integrate_many", "meanfield.integrate", _count_integrate),
        (meanfield, "integrate_many", "meanfield.integrate", _count_integrate),
        (cli, "classify", "meanfield.classify", None),
        (cli, "propagate_covariance", "fluctuations.propagate_covariance", _count_covariance),
        (cli, "build_record", "analysis.build_record", None),
        (cli, "mi_scan", "analysis.mi_scan", None),
        (fluctuations, "physicality_margin", "fluctuations.physicality_margin", None),
        (analysis, "mi_scan", "analysis.mi_scan", None),
        (analysis, "mutual_information", "analysis.mutual_information", None),
    ]
    counters = {"write_csv": _count_csv, "write_json": _count_json}
    for attr in sorted(vars(io)):
        if attr.startswith("write_") and callable(getattr(io, attr)):
            out.append((io, attr, f"io.{attr}", counters.get(attr)))
    return out


def instrument(tracer: Tracer):
    """Wrap every available target; returns (wrapped span names, undo)."""
    saved = []
    names = set()
    for module, attr, name, counter in targets():
        orig = getattr(module, attr, None)
        if orig is None:
            continue

        def wrapper(*args, _orig=orig, _name=name, _counter=counter, **kwargs):
            inner = tracer.innermost()
            if inner is not None and inner.name == _name:
                return _orig(*args, **kwargs)
            span = tracer.open(_name)
            try:
                result = _orig(*args, **kwargs)
            finally:
                tracer.close(span)
            if _counter is not None:
                try:
                    span.counts = _counter(_bind(_orig, args, kwargs), result)
                except (TypeError, KeyError, AttributeError, ValueError, OSError):
                    span.counts = None
            return result

        functools.update_wrapper(wrapper, orig)
        setattr(module, attr, wrapper)
        saved.append((module, attr, orig))
        names.add(name)

    def undo():
        for module, attr, orig in reversed(saved):
            setattr(module, attr, orig)

    return names, undo


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def aggregate(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, cpu seconds, counts.

    Self time is a span's duration minus the union of its children's
    intervals, children on worker threads included.  ``counts`` is None for
    a name when any of its spans could not be counted.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[str, dict] = {}
    for s in spans:
        agg = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "cpu_s": 0.0, "counts": {}})
        dur = s.end - s.start
        kids = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, [])]
        agg["calls"] += 1
        agg["total_s"] += dur
        agg["self_s"] += dur - _union([k for k in kids if k[1] > k[0]])
        agg["cpu_s"] += s.cpu_end - s.cpu_start
        if s.counts is None or agg["counts"] is None:
            agg["counts"] = None
            continue
        for key, val in s.counts.items():
            agg["counts"][key] = agg["counts"].get(key, 0) + val
    return out


def layer_metrics(spans: list[Span], wrapped: set[str], invocations: int) -> dict[str, float]:
    """Per-invocation layer metrics from one traced pass.

    A span name that was wrapped but never entered reports zero work; a
    name that could not be wrapped, or whose calls could not be counted,
    leaves out the metrics that depend on it.
    """
    agg = aggregate(spans)
    n = max(1, invocations)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "cpu_s": 0.0, "counts": {}}
    m: dict[str, float] = {}

    def get(name):
        return agg.get(name, zero) if name in wrapped or name in agg else None

    if (root := get("cli.main")) is not None:
        m["cli.self_s"] = root["self_s"] / n
    if (sw := get("cli.seed_sweep")) is not None:
        m["cli.seed_sweep.self_s"] = sw["self_s"] / n
        m["cli.seed_sweep.cpu_over_wall"] = sw["cpu_s"] / sw["total_s"] if sw["total_s"] else 0.0
    if (it := get("meanfield.integrate")) is not None:
        m["meanfield.integrate.self_s"] = it["self_s"] / n
        if it["counts"] is not None:
            steps = it["counts"].get("rk4_state_steps", 0)
            m["meanfield.rk4_state_steps"] = steps / n
            m["meanfield.us_per_state_step"] = 1e6 * it["self_s"] / steps if steps else 0.0
    if (cl := get("meanfield.classify")) is not None:
        m["meanfield.classify.self_s"] = cl["self_s"] / n
    if (pc := get("fluctuations.propagate_covariance")) is not None:
        m["fluctuations.propagate_covariance.self_s"] = pc["self_s"] / n
        if pc["counts"] is not None:
            steps = pc["counts"].get("cov_steps", 0)
            flops = pc["counts"].get("flops", 0)
            m["fluctuations.cov_steps"] = steps / n
            m["fluctuations.us_per_cov_step"] = 1e6 * pc["self_s"] / steps if steps else 0.0
            m["fluctuations.gflop_per_s"] = flops / pc["self_s"] / 1e9 if flops else 0.0
            traj = pc["counts"].get("cov_traj_bytes", 0)
            m["mem.cov_traj_mb"] = traj / pc["calls"] / 1e6 if pc["calls"] else 0.0
    if (pm := get("fluctuations.physicality_margin")) is not None:
        m["fluctuations.physicality_margin.calls"] = pm["calls"] / n
        m["fluctuations.physicality_margin.self_s"] = pm["self_s"] / n
        m["fluctuations.physicality_margin.ms_per_call"] = 1e3 * pm["self_s"] / pm["calls"] if pm["calls"] else 0.0
    if (br := get("analysis.build_record")) is not None:
        m["analysis.build_record.self_s"] = br["self_s"] / n
    if (ms := get("analysis.mi_scan")) is not None:
        m["analysis.mi_scan.self_s"] = ms["self_s"] / n
    if (mi := get("analysis.mutual_information")) is not None:
        m["analysis.mutual_information.calls"] = mi["calls"] / n
        m["analysis.mutual_information.self_s"] = mi["self_s"] / n
    if (csv := get("io.write_csv")) is not None:
        m["io.write_csv.self_s"] = csv["self_s"] / n
        if csv["counts"] is not None:
            m["io.rows_written"] = csv["counts"].get("rows", 0) / n
    if (js := get("io.write_json")) is not None:
        m["io.write_json.self_s"] = js["self_s"] / n
    writers = [a for a in (csv, js) if a is not None]
    if writers and all(a["counts"] is not None for a in writers):
        m["io.bytes_written"] = sum(a["counts"].get("bytes", 0) for a in writers) / n
    return m
