"""CI gate: compare fresh ``BENCH_*.json`` speedups against committed baselines.

Every benchmark driver records per-size figures in a JSON document that
is committed at the repo root.  In CI the smoke benchmarks overwrite those
files, so the workflow first copies the committed documents aside and then
runs this checker::

    cp BENCH_*.json ci-baselines/
    python benchmarks/bench_engine_scaling.py --quick --out BENCH_engine.json
    ...
    python benchmarks/check_bench_regression.py --baseline-dir ci-baselines \
        BENCH_engine.json BENCH_incremental.json \
        BENCH_columnar.json BENCH_concurrency.json

Every gated figure is higher-is-better: a speedup, a duration inverted
to a rate, or a session's ``tracemalloc`` bytes inverted to tuples per MB.

Speedups are size-dependent (they grow with the data), and the smoke
drivers run smaller sizes than the committed full-size baselines — so
comparisons are made **per size**: each fresh data point is matched to
the baseline point at the same ``n_tuples``, falling back to the largest
baseline size at or below it (the nearest comparable scale; a smaller
reference only makes the check stricter).  A fresh speedup may fall short
of its matched baseline by the tolerance band (default 50% — CI runners
are noisy) but not further; any harder drop fails the job.

Comparisons that carry no signal on the host are *skipped*, not failed:

* the concurrency benchmark needs >=4 CPUs (both in the fresh run and
  now) — single-core runners record honest numbers that say nothing
  about a code regression;
* baseline points below 1x are skipped for the same reason.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: req/s under many clients only means anything with real cores behind it
CONCURRENCY_MIN_CPUS = 4


def _series_metric(field: str) -> Callable[[Dict[str, Any]], Dict[int, float]]:
    def extract(document: Dict[str, Any]) -> Dict[int, float]:
        points: Dict[int, float] = {}
        for entry in document.get("series", []):
            size, value = entry.get("n_tuples"), entry.get(field)
            if isinstance(size, int) and isinstance(value, (int, float)):
                points[size] = float(value)
        return points

    return extract


def _rate_metric(field: str) -> Callable[[Dict[str, Any]], Dict[int, float]]:
    """A per-size duration as a rate (1 / seconds): higher is better, so
    the tolerance band applies to it the way it does to a speedup."""
    seconds = _series_metric(field)

    def extract(document: Dict[str, Any]) -> Dict[int, float]:
        return {size: 1.0 / value for size, value in seconds(document).items() if value}

    return extract


def _concurrency_metric(document: Dict[str, Any]) -> Dict[int, float]:
    """Per-client-count snapshot-hit req/s (the concurrency benchmark's
    "size" axis is clients, not tuples)."""
    points: Dict[int, float] = {}
    for entry in document.get("series", []):
        size, value = entry.get("clients"), entry.get("requests_per_second")
        if isinstance(size, int) and isinstance(value, (int, float)):
            points[size] = float(value)
    return points


#: benchmark name -> [(metric label, per-size extractor)]
METRICS: Dict[str, List[Tuple[str, Callable[[Dict[str, Any]], Dict[int, float]]]]] = {
    "engine_scaling": [
        ("speedup_warm", _series_metric("speedup_warm")),
        ("speedup_cold", _series_metric("speedup_cold")),
    ],
    "columnar_memory": [
        ("compression", _series_metric("compression")),
        # a warm session's bytes, inverted so that higher is better
        ("memory_session_tuples_per_mb",
         _series_metric("memory_session_tuples_per_mb")),
        ("durable_session_tuples_per_mb",
         _series_metric("durable_session_tuples_per_mb")),
        # a create request's peak, its body's parse included, inverted
        ("create_peak_tuples_per_mb",
         _series_metric("create_peak_tuples_per_mb")),
    ],
    "incremental_delta_maintenance": [
        ("speedup", _series_metric("speedup")),
        ("builds_per_second", _rate_metric("build_seconds")),
    ],
    "snapshot_hit_throughput": [
        ("requests_per_second", _concurrency_metric)
    ],
}


def _load(path: Path) -> Optional[Dict[str, Any]]:
    if not path.exists():
        return None
    with open(path) as handle:
        return json.load(handle)


def _bench_name(document: Dict[str, Any]) -> str:
    """The document's benchmark name, minus size-variant suffixes —
    ``incremental_delta_maintenance (smoke)`` compares against the
    committed full-size ``incremental_delta_maintenance`` baseline."""
    name = str(document.get("benchmark", "?"))
    return name.split(" (")[0].strip()


def _match_baseline_size(
    fresh_size: int, baseline_sizes: List[int]
) -> Optional[int]:
    """The baseline size a fresh point compares against: exact, else the
    largest baseline size at or below it (a smaller reference only makes
    the check stricter, since speedups grow with size).  ``None`` when
    every baseline point is *larger* — comparing a small fresh run
    against a bigger-scale baseline would flag scale, not regressions."""
    at_or_below = [s for s in baseline_sizes if s <= fresh_size]
    return max(at_or_below) if at_or_below else None


def _skip_reason(name: str, fresh: Dict[str, Any]) -> Optional[str]:
    if name == "snapshot_hit_throughput":
        host_cpus = os.cpu_count() or 1
        recorded_cpus = fresh.get("cpu_count", host_cpus)
        if min(host_cpus, recorded_cpus) < CONCURRENCY_MIN_CPUS:
            return (
                f"host has {min(host_cpus, recorded_cpus)} CPUs "
                f"({name} gate needs >={CONCURRENCY_MIN_CPUS})"
            )
    return None


def check_document(
    fresh: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float,
) -> Tuple[List[str], List[str]]:
    """Compare one fresh document against its baseline.

    Returns ``(failures, notes)`` — human-readable lines; empty failures
    means the document passed (or was skipped, explained in notes).
    """
    name = _bench_name(fresh)
    if name != _bench_name(baseline):
        return (
            [
                f"benchmark mismatch: fresh is {name!r}, baseline is "
                f"{_bench_name(baseline)!r}"
            ],
            [],
        )
    metrics = METRICS.get(name)
    if metrics is None:
        return [], [f"{name}: no registered metrics, nothing to check"]
    reason = _skip_reason(name, fresh)
    if reason is not None:
        return [], [f"{name}: skipped ({reason})"]

    failures: List[str] = []
    notes: List[str] = []
    for label, extract in metrics:
        fresh_points = extract(fresh)
        base_points = extract(baseline)
        if not fresh_points or not base_points:
            notes.append(
                f"{name}.{label}: no per-size data on one side "
                f"(fresh sizes {sorted(fresh_points)}, baseline sizes "
                f"{sorted(base_points)}), skipped"
            )
            continue
        for fresh_size in sorted(fresh_points):
            base_size = _match_baseline_size(fresh_size, sorted(base_points))
            if base_size is None:
                notes.append(
                    f"{name}.{label} at {fresh_size}: every baseline size "
                    f"is larger ({sorted(base_points)}), skipped"
                )
                continue
            fresh_value = fresh_points[fresh_size]
            base_value = base_points[base_size]
            where = (
                f"at {fresh_size}"
                if base_size == fresh_size
                else f"at {fresh_size} (baseline size {base_size})"
            )
            if base_value < 1.0:
                notes.append(
                    f"{name}.{label} {where}: baseline {base_value:.2f} "
                    "(below 1x) carries no signal, skipped"
                )
                continue
            floor = base_value * (1.0 - tolerance)
            line = (
                f"{name}.{label} {where}: fresh {fresh_value:.2f} vs "
                f"baseline {base_value:.2f} (floor {floor:.2f})"
            )
            if fresh_value >= floor:
                notes.append(f"{line} -> ok")
            else:
                failures.append(f"{line} -> REGRESSION")
    return failures, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "fresh",
        nargs="+",
        help="fresh BENCH_*.json documents written by the bench drivers",
    )
    parser.add_argument(
        "--baseline-dir",
        default=None,
        help=(
            "directory holding the committed baseline documents under the "
            "same file names (default: compare each file against itself — "
            "useful only as a smoke check of this script)"
        ),
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help=(
            "allowed fractional shortfall against the baseline speedup "
            "(default 0.5: fresh must reach 50%% of baseline)"
        ),
    )
    parser.add_argument(
        "--require-all",
        action="store_true",
        help="fail if any named document is missing (default: warn + skip)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error("--tolerance must be in [0, 1)")

    all_failures: List[str] = []
    for entry in args.fresh:
        fresh_path = Path(entry)
        baseline_path = (
            Path(args.baseline_dir) / fresh_path.name
            if args.baseline_dir
            else fresh_path
        )
        fresh = _load(fresh_path)
        baseline = _load(baseline_path)
        if fresh is None or baseline is None:
            missing = fresh_path if fresh is None else baseline_path
            line = f"{fresh_path.name}: {missing} missing, skipped"
            if args.require_all:
                all_failures.append(line)
            else:
                print(f"  [skip] {line}")
            continue
        failures, notes = check_document(fresh, baseline, args.tolerance)
        for note in notes:
            print(f"  [ok]   {note}")
        for failure in failures:
            print(f"  [FAIL] {failure}")
        all_failures.extend(failures)

    if all_failures:
        print(
            f"\n{len(all_failures)} benchmark regression(s) beyond the "
            f"{args.tolerance:.0%} tolerance band",
            file=sys.stderr,
        )
        return 1
    print("\nno benchmark regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
