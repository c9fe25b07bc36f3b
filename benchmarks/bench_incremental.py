"""INCREMENTAL — delta maintenance vs. full indexed re-detection.

The repair/monitoring loop applies a batch of edits and needs the
violation set again.  PR 1's answer was to re-run the full indexed
detection (each relation re-partitioned once per signature — already ≥10×
over naive).  The delta engine answers from the batch itself: it patches
its maintained partitions and re-evaluates only the partition keys and
inclusion keys the batch touched, so per-batch cost tracks the batch size,
not the relation size.

The workload is the scaled customer relation (10k tuples at the top size)
under the full CFD/FD rule set, absorbing seeded 100-edit batches of
mixed inserts/deletes/cell-updates.  Two mirrored instances receive every
batch; per batch we time

* ``delta``  — ``DeltaEngine.apply(changeset)`` on the engine's instance
  (apply the edits + maintain the violation set), and
* ``full``   — the same changeset applied to the mirror instance followed
  by ``detect_violations_indexed`` with its then-cold index caches (what
  apply-then-re-detect costs without the delta engine),

assert both report the identical violation multiset, and record the
aggregate speedup.  The ratio has no fixed target: its denominator is a
re-detect every engine change has made faster (11.8× when PR 2 recorded
it against a hash-partition re-detect, 2.4× against the columnar one),
so the gate is ``check_bench_regression.py``'s tolerance band against
the committed file — ``speedup`` and ``build_seconds``.

The engine is built after one detect (the layouts a session has by its
first write) and what it does lazily must show somewhere: ``build_seconds``
is the build alone, fastest of five, and ``first_batch_delta_seconds`` the
first batch — which pays the first touch of every partition key it edits —
next to the steady ones; the speedup is over *all* batches, the first
included.

Run standalone to produce ``BENCH_incremental.json``:

    python benchmarks/bench_incremental.py [--out BENCH_incremental.json]
    python benchmarks/bench_incremental.py --smoke   # CI-sized quick run

or under pytest for the smoke assertion (equivalence + speedup).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List

if __name__ == "__main__":  # allow running without an installed package
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.engine.delta import DeltaEngine, violation_multiset
from repro.engine.executor import detect_violations_indexed
from repro.session import Session
from repro.workloads.customer import CustomerConfig, CustomerWorkload, generate_customers
from repro.workloads.stream import StreamConfig, stream_edits

SIZES = [1_000, 3_000, 10_000]
N_BATCHES = 10
BATCH_SIZE = 100
BUILD_REPEATS = 5


def rules() -> list:
    """The customer CFDs plus the traditional FDs — a mixed Σ with shared
    LHS signatures, the shape the engine's planner optimizes for."""
    return list(CustomerWorkload.cfds()) + list(CustomerWorkload.fds())


def measure(n_tuples: int, n_batches: int = N_BATCHES, batch_size: int = BATCH_SIZE) -> Dict:
    workload = generate_customers(
        CustomerConfig(n_tuples=n_tuples, error_rate=0.01, seed=23)
    )
    db = workload.db
    mirror = db.copy()
    deps = rules()
    detect_violations_indexed(db, deps)
    build_seconds: List[float] = []
    for _ in range(BUILD_REPEATS):
        started = time.perf_counter()
        engine = DeltaEngine(db, deps)
        build_seconds.append(time.perf_counter() - started)
    session = Session.from_instance(db, deps, engine=engine)

    delta_seconds: List[float] = []
    full_seconds: List[float] = []
    batch_stats: List[Dict] = []
    config = StreamConfig(n_batches=n_batches, batch_size=batch_size, seed=31)
    for index, batch in enumerate(stream_edits(db, config)):
        started = time.perf_counter()
        delta = session.apply(batch)
        delta_elapsed = time.perf_counter() - started

        # The path without a delta engine: apply the same batch to the
        # mirror instance, then re-detect.  The mutations bumped the
        # mirror's relation versions, so the cached indexes are invalid and
        # this timing includes the re-partitioning a fresh detection pays.
        started = time.perf_counter()
        batch.apply_to(mirror)
        report = detect_violations_indexed(mirror, deps)
        full_elapsed = time.perf_counter() - started

        if violation_multiset(engine.violations()) != violation_multiset(report.violations):
            raise AssertionError(
                f"delta and full re-detection disagree at n={n_tuples}, "
                f"batch={index}: {engine.total_violations()} vs {report.total}"
            )
        delta_seconds.append(delta_elapsed)
        full_seconds.append(full_elapsed)
        batch_stats.append(
            {
                "batch": index,
                "added": len(delta.added),
                "removed": len(delta.removed),
                "violations": delta.remaining,
                "delta_seconds": delta_elapsed,
                "full_seconds": full_elapsed,
            }
        )

    total_delta = sum(delta_seconds)
    total_full = sum(full_seconds)
    return {
        "n_tuples": n_tuples,
        "n_dependencies": len(deps),
        "n_batches": n_batches,
        "batch_size": batch_size,
        "keys_reevaluated": engine.stats.keys_reevaluated,
        "build_seconds": min(build_seconds),
        "first_batch_delta_seconds": delta_seconds[0],
        "delta_seconds_total": total_delta,
        "full_seconds_total": total_full,
        "delta_seconds_per_batch": total_delta / n_batches,
        "full_seconds_per_batch": total_full / n_batches,
        "speedup": total_full / total_delta,
        "batches": batch_stats,
    }


def run(sizes=SIZES) -> Dict:
    series = [measure(n) for n in sizes]
    top = series[-1]
    return {
        "benchmark": "incremental_delta_maintenance",
        "workload": "customer + stream edits",
        "sizes": sizes,
        "batch_size": BATCH_SIZE,
        "n_batches": N_BATCHES,
        "series": series,
        "top_speedup": top["speedup"],
    }


SMOKE_SPEEDUP = 1.5  # at small sizes fixed overheads dominate


def test_incremental_smoke():
    """Small-size smoke: identical violations (asserted inside measure),
    and the delta path clearly beats paying a full re-detection per
    batch."""
    result = measure(2_000, n_batches=4, batch_size=50)
    assert result["speedup"] > SMOKE_SPEEDUP
    # maintenance work tracks the batches, not the relation
    assert result["keys_reevaluated"] < 2_000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_incremental.json")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run: small relation, fewer batches",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        result = {
            "benchmark": "incremental_delta_maintenance (smoke)",
            "series": [measure(1_000, n_batches=3, batch_size=50)],
        }
        result["top_speedup"] = result["series"][-1]["speedup"]
    else:
        result = run()
    Path(args.out).write_text(json.dumps(result, indent=2))
    for row in result["series"]:
        print(
            f"n={row['n_tuples']:>6}  "
            f"build={row['build_seconds'] * 1e3:7.2f} ms  "
            f"first batch={row['first_batch_delta_seconds'] * 1e3:7.2f} ms  "
            f"delta/batch={row['delta_seconds_per_batch'] * 1e3:8.2f} ms  "
            f"full/batch={row['full_seconds_per_batch'] * 1e3:8.2f} ms  "
            f"speedup={row['speedup']:6.1f}x"
        )
    # measure() asserted delta == full on every batch; the timing gate is
    # check_bench_regression.py against the committed document
    print(f"top speedup {result['top_speedup']:.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
