"""What the benchmark reports: workloads, metric names, units and bounds.

``BENCHMARK.json`` at the repo root is the one table — the driver reads it,
and so does this module.  Why each bound has the value it has is in the
README (*Bounds*).
"""

from __future__ import annotations

import json
from pathlib import Path

_DOCUMENT = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)

#: how long one run measures, in seconds (``--seconds`` default)
RUN_SECONDS: int = _DOCUMENT["run_seconds"]

#: workload name -> one-line reason it exists
WORKLOADS = {entry["name"]: entry["why"] for entry in _DOCUMENT["workloads"]}

#: (name, unit, better, bound) — bound is the share of the parent's median
#: by which the metric may worsen before a change counts as a regression
END_TO_END = tuple(
    (m["name"], m["unit"], m["better"], m["bound"]) for m in _DOCUMENT["end_to_end"]
)

#: (name, unit, better) — time metrics are mean milliseconds per request of
#: the workload unless the README says otherwise
PER_LAYER = tuple((m["name"], m["unit"], m["better"]) for m in _DOCUMENT["per_layer"])
