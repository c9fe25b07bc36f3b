"""Request-shaped benchmark of the default asyncio ``repro serve``.

    python3 benchmarks/e2e/run.py --seed 7                 # all four workloads
    python3 benchmarks/e2e/run.py --seed 7 --trace         # per-layer metrics
    python3 benchmarks/e2e/run.py --seed 7 --selfcheck     # run twice, compare
    python3 benchmarks/e2e/run.py --workload hot_reads --seed 7 --seconds 18 --trace 0

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See
``README.md`` beside this file for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]


def _bootstrap() -> None:
    """Import the program from this checkout's ``src``, nowhere else."""
    if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmarks/e2e: no src/repro under {REPO_ROOT}; nothing to benchmark")
    if os.environ.get("PYTHONHASHSEED") != "0":
        # generator and server both run with a pinned hash seed
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]


def _provenance(args: argparse.Namespace) -> Dict[str, Any]:
    import numpy

    commit = "unknown"
    if (REPO_ROOT / ".git").exists():
        result = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = result.stdout.strip() or commit
    return {
        "commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


def run_once(args: argparse.Namespace, names: List[str], work_dir: Path) -> Dict[str, Dict[str, Any]]:
    """Each named workload once: untraced, or traced with ``--trace 1``."""
    from benchmarks.e2e import harness, tracing
    from benchmarks.e2e.workloads import BUILDERS

    results: Dict[str, Dict[str, Any]] = {}
    for name in names:
        workload = BUILDERS[name](args.seed, 0.2 if args.smoke else 1.0)
        started = time.perf_counter()
        if args.trace:
            result = tracing.trace_workload(workload, work_dir, args.seconds, args.out)
        else:
            result = harness.run_workload(
                workload, work_dir, args.seconds,
                boots=(1, 0) if args.smoke else harness.SETUP_BOOTS,
            )
        result["wall_s"] = time.perf_counter() - started
        results[name] = result
    return results


def print_results(results: Dict[str, Dict[str, Any]], traced: bool) -> None:
    from benchmarks.e2e.spec import END_TO_END, PER_LAYER

    key = "per_layer" if traced else "end_to_end"
    table = PER_LAYER if traced else END_TO_END
    for name, result in results.items():
        print(f"\n{name}: attempted {result['attempted']}, failed {result['failed']}"
              f" ({result['wall_s']:.1f} s)")
        for row in table:
            bound = f"  bound {row[3]:.2f}" if not traced else ""
            print(f"  {row[0]:<46} {result[key][row[0]]:>14.4f} {row[1]:<6}{bound}")
        for note in result["failures"]:
            print(f"  FAILED: {note}")


def driver_line(result: Dict[str, Any], traced: bool) -> str:
    """The one JSON object the driver reads from the last line."""
    from benchmarks.e2e.spec import END_TO_END, PER_LAYER

    key = "per_layer" if traced else "end_to_end"
    units = {row[0]: row[1] for row in (PER_LAYER if traced else END_TO_END)}
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result[key].items()
        },
    })


def selfcheck(first: Dict[str, Dict[str, Any]], second: Dict[str, Dict[str, Any]]) -> bool:
    """Two sets from the same tree must agree within each metric's bound."""
    from benchmarks.e2e.spec import END_TO_END

    agreed = True
    for name in first:
        spins = [
            "/".join(f"{ms:.1f}" for ms in run[name]["diagnostics"]["machine_spin_ms"])
            for run in (first, second)
        ]
        print(f"\n{name}: machine_spin_ms before/after {spins[0]} then {spins[1]}")
        for metric, unit, better, bound in END_TO_END:
            a = first[name]["end_to_end"][metric]
            b = second[name]["end_to_end"][metric]
            worse = (b - a) / a if better == "lower" else (a - b) / a
            verdict = "ok" if abs(worse) <= bound else "DISAGREE"
            agreed = agreed and verdict == "ok"
            print(f"  {metric:<22} {a:>12.4f} {b:>12.4f} {unit:<6}"
                  f" {worse:+7.2%}  bound {bound:.2f}  {verdict}")
    return agreed


def main() -> int:
    _bootstrap()
    # a terminated benchmark still stops its server: unwind the finally blocks
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    from benchmarks.e2e.spec import RUN_SECONDS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run one workload and end with the driver's JSON line")
    parser.add_argument("--seconds", type=float, default=None, help=f"seconds measured per workload (default {RUN_SECONDS}; 1 with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1), help="traced run: per-layer metrics and trace-<workload>.json")
    parser.add_argument("--smoke", action="store_true", help="small data, two blocks, one boot: a seconds-long plumbing check")
    parser.add_argument("--selfcheck", action="store_true", help="run everything twice and compare against the bounds")
    parser.add_argument("--out", type=Path, default=HERE / "out", help="where results and traces go (default benchmarks/e2e/out)")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(RUN_SECONDS)
    args.out = args.out.resolve()

    names = [args.workload] if args.workload else list(WORKLOADS)
    work_dir = args.out / f"work-{os.getpid()}"
    try:
        first = run_once(args, names, work_dir)
        second = run_once(args, names, work_dir) if args.selfcheck else None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    document = {"provenance": _provenance(args), "runs": [first] + ([second] if second else [])}
    kind = "trace" if args.trace else "results"
    if args.workload:
        kind += "-" + args.workload
    (args.out / f"{kind}-seed{args.seed}.json").write_text(json.dumps(document, indent=1) + "\n")

    failed = sum(result["failed"] for run in document["runs"] for result in run.values())
    agreed = True
    if second is not None:
        agreed = selfcheck(first, second)
        print("\nselfcheck:", "agreed" if agreed else "DISAGREED")
    else:
        print_results(first, bool(args.trace))
    if args.workload:
        print(driver_line(first[args.workload], bool(args.trace)))
    return 0 if failed == 0 and agreed else 1


if __name__ == "__main__":
    sys.exit(main())
