"""Indexed execution engine: one shared scan layer under every detector.

Layering (see ``docs/engine.md``):

* **storage** — :class:`~repro.relational.instance.RelationInstance` owns a
  mutation version counter and lazily-built hash indexes
  (:mod:`repro.engine.indexes`);
* **planning** — :mod:`repro.engine.planner` groups a dependency set by the
  indexes its members share (relation + canonical LHS signature for
  FD/CFD/eCFD, target key signature for IND/CIND);
* **execution** — :mod:`repro.engine.executor` partitions each relation
  once per signature and evaluates every pattern tuple of every member
  against the shared partitions;
* **delta** — :mod:`repro.engine.delta` maintains the full violation set
  under batched inserts/deletes/cell-updates (:class:`Changeset`),
  returning added/removed violations per batch (used by repair and the
  streaming workload); ``DeltaEngine.probe`` is the single-edit what-if;
* **reference** — :mod:`repro.engine.naive` keeps the original full-scan
  detectors as the correctness oracle and benchmark baseline.
"""

from repro.engine.delta import (
    Changeset,
    DeltaEngine,
    DeltaStats,
    StaleEngineError,
    ViolationDelta,
    violation_multiset,
)
from repro.engine.executor import (
    ExecutionStats,
    detect_violations_indexed,
    execute_plan,
)
from repro.engine.indexes import IndexStats, RelationIndexes, canonical_signature
from repro.engine.naive import detect_violations_naive, naive_violations
from repro.engine.planner import (
    DetectionPlan,
    InclusionGroup,
    ScanGroup,
    plan_detection,
)
from repro.engine.scan import ScanTask

__all__ = [
    "Changeset",
    "DeltaEngine",
    "DeltaStats",
    "DetectionPlan",
    "ExecutionStats",
    "StaleEngineError",
    "ViolationDelta",
    "InclusionGroup",
    "IndexStats",
    "RelationIndexes",
    "ScanGroup",
    "ScanTask",
    "canonical_signature",
    "detect_violations_indexed",
    "detect_violations_naive",
    "execute_plan",
    "naive_violations",
    "plan_detection",
    "violation_multiset",
]
