"""``BENCHMARK.json`` stays within the driver's limits and names this benchmark."""

import json
import re
from pathlib import Path

from benchmarks.e2e import spec
from benchmarks.e2e.workloads import BUILDERS

ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_names_units_and_counts_are_within_the_limits():
    names = [row[0] for row in spec.END_TO_END + spec.PER_LAYER] + list(spec.WORKLOADS)
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert all(UNIT.match(row[1]) for row in spec.END_TO_END + spec.PER_LAYER)
    assert all(row[2] in ("lower", "higher") for row in spec.END_TO_END + spec.PER_LAYER)
    assert 1 <= len(spec.END_TO_END) <= 16
    assert 1 <= len(spec.PER_LAYER) <= 128
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert all(len(why) <= 200 and "\n" not in why for why in spec.WORKLOADS.values())
    assert all(0 < row[3] <= 0.25 for row in spec.END_TO_END)
    assert ("setup_s", "s", "lower") in [row[:3] for row in spec.END_TO_END]
    assert 1 <= spec.RUN_SECONDS <= 60


def test_benchmark_json_names_this_benchmark_and_nothing_else():
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    assert len(raw) <= 64 * 1024
    document = json.loads(raw)
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert document["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert document["paths"] == ["benchmarks/e2e"]
    assert list(spec.WORKLOADS) == list(BUILDERS)
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in document["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in document["per_layer"])
