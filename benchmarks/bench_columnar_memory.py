"""COLUMNAR — bytes per tuple: a dict of ``Tuple`` objects vs the column store.

Both hold the same customer relation; memory is measured by a
``sys.getsizeof`` deep walk over everything each one owns (containers
followed recursively, shared values counted once via ``id``).  The
"object" side is a plain ``{Tuple: None}`` dict of materialised tuples —
what per-object storage holds — and pays a ``Tuple`` object, its
value-tuple and a dict slot per row;
the columnar store pays one machine-word code per cell plus one interned
representative per *distinct* value, so bytes/tuple shrink with value
repetition — the ``compression`` field is the per-size ratio.

Run standalone to produce ``BENCH_columnar.json``:

    python benchmarks/bench_columnar_memory.py [--out BENCH_columnar.json]

or under pytest for the smoke assertion (columnar strictly smaller).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Set

if __name__ == "__main__":  # allow running without an installed package
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.relational.instance import RelationInstance
from repro.relational.tuples import Tuple
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


def measure(n_tuples: int) -> Dict:
    workload = generate_customers(
        CustomerConfig(n_tuples=n_tuples, error_rate=0.005, seed=17)
    )
    relation = workload.db.relation("customer")
    rows = relation.to_rows()
    object_bytes = _object_bytes(relation.schema, rows)
    columnar_bytes = _columnar_bytes(relation.schema, rows)
    return {
        "n_tuples": n_tuples,
        "object_bytes": object_bytes,
        "columnar_bytes": columnar_bytes,
        "object_bytes_per_tuple": object_bytes / n_tuples,
        "columnar_bytes_per_tuple": columnar_bytes / n_tuples,
        "compression": object_bytes / columnar_bytes,
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
    """Columnar must be strictly smaller per tuple than a dict of Tuples."""
    result = measure(5_000)
    assert result["columnar_bytes"] < result["object_bytes"]
    assert result["compression"] > 1.0


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
            f"compression={row['compression']:.1f}x"
        )
    print(f"top compression: {result['top_compression']:.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
