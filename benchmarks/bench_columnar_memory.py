"""COLUMNAR — bytes per tuple: a dict of ``Tuple`` objects vs the column store,
and what a warm served session holds per tuple.

Both stores hold the same customer relation; memory is measured by a
``sys.getsizeof`` deep walk over everything each one owns (containers
followed recursively, shared values counted once via ``id``).  The
"object" side is a plain ``{Tuple: None}`` dict of materialised tuples —
what per-object storage holds — and pays a ``Tuple`` object, its
value-tuple and a dict slot per row;
the columnar store pays one machine-word code per cell plus one interned
representative per *distinct* value, so bytes/tuple shrink with value
repetition — the ``compression`` field is the per-size ratio.

A session holds more than its store: layouts, kernel flags, the delta
engine, encoded report fragments and, with a state directory, its
journal.  ``tracemalloc`` counts the bytes an in-process
:class:`~repro.server.core.ServiceCore` still holds after
create → detect → first apply, once in memory and once durable; the
``*_session_tuples_per_mb`` fields are those figures inverted, so a
session that starts keeping a ``Tuple`` per row (or an index per group)
shows as a drop the regression gate catches.  Every request goes in as
raw bytes, parsed under the trace, so ``create_peak_bytes_per_tuple`` is
the create request's peak with its body's parse included — ingest that
keeps a per-row object, or holds the parsed rows while it encodes, lifts
it above the parse; ``create_peak_tuples_per_mb`` is it inverted, gated.

Run standalone to produce ``BENCH_columnar.json``:

    python benchmarks/bench_columnar_memory.py [--out BENCH_columnar.json]

or under pytest for the smoke assertion (columnar strictly smaller).
"""

from __future__ import annotations

import gc
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple as PyTuple

if __name__ == "__main__":  # allow running without an installed package
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.registry import encode
from repro.relational.instance import RelationInstance
from repro.relational.tuples import Tuple
from repro.rules_json import database_schema_to_dict
from repro.server import DEFAULT_DEGRADED_AFTER
from repro.server.core import ServiceCore, body_reader
from repro.server.hosting import ServerMetrics, SessionManager
from repro.workloads.customer import CustomerConfig, generate_customers

SIZES = [10_000, 100_000]


def deep_sizeof(root: object) -> int:
    """Total ``sys.getsizeof`` of ``root`` and every object reachable from
    it through containers and ``__slots__``/``__dict__``, counted once."""
    seen: Set[int] = set()
    total = 0
    stack: List[object] = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            attrs = getattr(obj, "__dict__", None)
            if attrs is not None:
                stack.append(attrs)
            for name in getattr(type(obj), "__slots__", ()):
                if hasattr(obj, name):
                    stack.append(getattr(obj, name))
    return total


def _object_bytes(schema, rows: Iterable[tuple]) -> int:
    return deep_sizeof({Tuple(schema, row): None for row in rows})


def _columnar_bytes(schema, rows: Iterable[tuple]) -> int:
    instance = RelationInstance(schema)
    instance.extend_rows(rows, validate=False)
    return deep_sizeof(instance)


def _first_changeset(relation) -> Dict[str, Any]:
    """Ten edits over spread-out rows: four inserts under fresh phone
    numbers, three deletes, three name updates."""
    names = relation.schema.attribute_names
    rows = [dict(zip(names, values)) for values in relation.to_rows()]
    step = len(rows) // 11
    ops: List[Dict[str, Any]] = []
    for k in range(1, 5):
        row = dict(rows[k * step])
        row["phn"] = 9_000_000_000 + k
        ops.append({"op": "insert", "relation": "customer", "row": row})
    for k in range(5, 8):
        ops.append({"op": "delete", "relation": "customer", "row": rows[k * step]})
    for k in range(8, 11):
        ops.append({
            "op": "update", "relation": "customer", "row": rows[k * step],
            "cells": {"name": "Zed"},
        })
    return {"ops": ops}


def _session_bytes(workload, state_dir: Optional[Path]) -> PyTuple[int, int]:
    """Bytes an in-process service still holds after create → detect →
    first apply of one session, and the create request's peak
    (``tracemalloc``, after a collection).  Each request arrives as raw
    bytes and is parsed under the trace, through ``body_reader``, as a
    transport hands it over — so the values the store keeps are counted,
    and so is the create's parsed body while it lives."""
    relation = workload.db.relation("customer")
    names = relation.schema.attribute_names
    create = {
        "schema": database_schema_to_dict(workload.db.schema),
        "rules": [encode(rule) for rule in workload.cfds()],
        "data": {"customer": [dict(zip(names, v)) for v in relation.to_rows()]},
        "id": "s",
    }
    requests = [
        ("POST", "/v1/sessions", create),
        ("POST", "/v1/sessions/s/detect", {"include_violations": True}),
        ("POST", "/v1/sessions/s/apply", _first_changeset(relation)),
    ]
    bodies = [(m, t, json.dumps(document).encode()) for m, t, document in requests]
    del create, requests
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        manager = SessionManager(state_dir=state_dir, fsync=False)
        core = ServiceCore(manager, ServerMetrics(), DEFAULT_DEGRADED_AFTER)
        create_peak = 0
        for method, target, raw in bodies:
            response = core.handle(method, target, body_reader(raw))
            if response.status >= 300:
                raise RuntimeError(f"{method} {target}: {response.body[:200]!r}")
            if not create_peak:
                create_peak = tracemalloc.get_traced_memory()[1] - before
        del response
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    manager.close_all()
    return held, create_peak


def measure(n_tuples: int) -> Dict:
    workload = generate_customers(
        CustomerConfig(n_tuples=n_tuples, error_rate=0.005, seed=17)
    )
    relation = workload.db.relation("customer")
    rows = relation.to_rows()
    object_bytes = _object_bytes(relation.schema, rows)
    columnar_bytes = _columnar_bytes(relation.schema, rows)
    memory_bytes, create_peak = _session_bytes(workload, None)
    with tempfile.TemporaryDirectory() as state_dir:
        durable_bytes, _ = _session_bytes(workload, Path(state_dir))
    return {
        "n_tuples": n_tuples,
        "object_bytes": object_bytes,
        "columnar_bytes": columnar_bytes,
        "object_bytes_per_tuple": object_bytes / n_tuples,
        "columnar_bytes_per_tuple": columnar_bytes / n_tuples,
        "compression": object_bytes / columnar_bytes,
        "memory_session_bytes_per_tuple": memory_bytes / n_tuples,
        "durable_session_bytes_per_tuple": durable_bytes / n_tuples,
        "memory_session_tuples_per_mb": n_tuples * 1e6 / memory_bytes,
        "durable_session_tuples_per_mb": n_tuples * 1e6 / durable_bytes,
        "create_peak_bytes_per_tuple": create_peak / n_tuples,
        "create_peak_tuples_per_mb": n_tuples * 1e6 / create_peak,
    }


def run(sizes=SIZES) -> Dict:
    series = [measure(n) for n in sizes]
    top = series[-1]
    return {
        "benchmark": "columnar_memory",
        "workload": "customer",
        "sizes": sizes,
        "series": series,
        "top_compression": top["compression"],
    }


def test_columnar_memory_smoke():
    """Columnar must be strictly smaller per tuple than a dict of Tuples,
    and a durable session must hold what an in-memory one does: its
    snapshots read columns, they cache no ``Tuple`` per row."""
    result = measure(5_000)
    assert result["columnar_bytes"] < result["object_bytes"]
    assert result["compression"] > 1.0
    assert (
        result["durable_session_bytes_per_tuple"]
        < 1.1 * result["memory_session_bytes_per_tuple"]
    )


def main(argv: List[str]) -> int:
    out = Path("BENCH_columnar.json")
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
    sizes = SIZES
    if "--quick" in argv:
        sizes = [2_000, 10_000]
    result = run(sizes)
    out.write_text(json.dumps(result, indent=2) + "\n")
    for row in result["series"]:
        print(
            f"n={row['n_tuples']:>6}  "
            f"object={row['object_bytes_per_tuple']:.0f} B/tuple  "
            f"columnar={row['columnar_bytes_per_tuple']:.0f} B/tuple  "
            f"compression={row['compression']:.1f}x  "
            f"session={row['memory_session_bytes_per_tuple']:.0f} B/tuple "
            f"(durable {row['durable_session_bytes_per_tuple']:.0f})  "
            f"create peak={row['create_peak_bytes_per_tuple']:.0f} B/tuple"
        )
    print(f"top compression: {result['top_compression']:.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
