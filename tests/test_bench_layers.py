"""The per-layer record of ``tools/bench_layers.py``: the committed records
keep its schema, and its comparison flags only moves beyond both spreads."""

import copy
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "tools" / "bench_layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_records_keep_the_schema(bench):
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        bench._load(str(path))


def test_compare_flags_only_moves_beyond_both_spreads(bench):
    old = bench._load(str(sorted(ROOT.glob("BENCH_*.json"))[0]))
    new = copy.deepcopy(old)
    name, write = "meanfield.rk4.N50.B1", "io.grid_csv.N50"
    for entry in (name, write):  # three times the median, with no spread
        s = new["entries"][entry]["threads"]["1"]
        s["median"] = s["q1"] = s["q3"] = 3.0 * s["median"]
    lines = {line.split(":")[0]: line for line in bench.compare(old, new)}
    assert lines[f"{name} [1t] us/state-step"].endswith("x3.000  slower")
    assert lines[f"{write} [1t] MB/s"].endswith("x3.000  faster")
    assert all(line.endswith("x1.000") for key, line in lines.items()
               if not key.startswith((f"{name} [1t]", f"{write} [1t]")))


def test_a_record_of_other_entries_still_loads_and_compares(bench):
    old = bench._load(str(sorted(ROOT.glob("BENCH_*.json"))[0]))
    new = copy.deepcopy(old)
    dropped, added = "meanfield.rk4.N50.B1", "io.not_an_entry_of_the_tool"
    del new["entries"][dropped]
    new["entries"][added] = copy.deepcopy(old["entries"]["io.grid_csv.N50"])
    bench.check_schema(new)
    keys = [line.split(" [")[0] for line in bench.compare(old, new)]
    assert dropped not in keys and added not in keys
    assert len(keys) == 2 * (len(old["entries"]) - 1)


def test_a_record_without_e2e_entries_still_loads_and_compares(bench):
    # the committed records hold both kinds: ones made before the tool had
    # end-to-end entries, and one with them; each compares with the other
    # on the layer entries they share
    records = [bench._load(str(path)) for path in sorted(ROOT.glob("BENCH_*.json"))]
    without = [r for r in records if not set(bench.E2E) & set(r["entries"])]
    with_e2e = [r for r in records if set(bench.E2E) <= set(r["entries"])]
    assert without and with_e2e
    old, new = without[0], with_e2e[-1]
    shared = set(old["entries"]) & set(new["entries"])
    assert shared and not shared & set(bench.E2E)
    for a, b in ((old, new), (new, old)):
        assert {line.split(" [")[0] for line in bench.compare(a, b)} == shared


@pytest.mark.parametrize("spoil, match", [
    (lambda e: e["threads"]["1"].update(q1=2 * e["threads"]["1"]["median"]), "bad summary"),
    (lambda e: e.update(better="sideways"), "bad unit or direction"),
    (lambda e: e.update(unit="ms/call"), "unit or direction is not"),
    (lambda e: e.update(threads={}), "no thread settings"),
])
def test_a_malformed_entry_is_refused(bench, spoil, match):
    record = bench._load(str(sorted(ROOT.glob("BENCH_*.json"))[0]))
    spoil(record["entries"]["meanfield.rk4.N50.B1"])
    with pytest.raises(ValueError, match=match):
        bench.check_schema(record)
