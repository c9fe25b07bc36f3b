"""Command-line interface: detect, repair, discover, stream over CSV files.

Usage::

    python -m repro.cli detect  --schema schema.json --rules rules.json data.csv
    python -m repro.cli repair  --schema schema.json --rules rules.json \
                                --output clean.csv data.csv
    python -m repro.cli discover --schema schema.json --max-lhs 2 \
                                 --min-support 5 data.csv
    python -m repro.cli stream  --schema schema.json --rules rules.json \
                                --batches 10 --batch-size 100 data.csv

Every subcommand builds a :class:`repro.session.Session` from the files and
drives it; rules files may contain any constraint class registered in
:mod:`repro.registry` (FDs, CFDs, eCFDs, INDs, CINDs, denial constraints).
Multi-relation schemas pass one CSV per relation as ``relation=path``
positional arguments.

``detect`` prints one line per violation and exits nonzero when the data
is dirty, so it slots into shell pipelines and CI checks; ``repair``
writes the repaired relation as CSV and a summary to stderr; ``discover``
emits a rules JSON document on stdout; ``stream`` feeds seeded random edit
batches through the delta engine and prints one violation-delta line per
batch (``--verify`` cross-checks every batch against full re-detection).
``detect`` and ``stream`` take ``--format json`` for machine-readable
output on stdout.

``stream --format json`` omits wall-clock timings unless ``--timings``
is given, so its document is byte-identical across runs for a given seed.

``serve`` runs the long-lived HTTP/JSON constraint service
(:mod:`repro.server`): many named warm sessions behind
create/detect/apply/repair/rules endpoints, with ``/healthz`` and
``/metrics`` for operations.  See ``docs/server.md``.

``soak`` drives a spawned (or ``--url``) server with seeded multi-tenant
load — Zipf-skewed traffic, bursty edit batches, eviction pressure and
SIGKILL crash/restart cycles — while byte-verifying every tenant's
served detect document against an offline replay
(:mod:`repro.workloads.soak`).  Exit 0 means zero byte divergences.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Mapping, Sequence, Union

from repro.relational.csvio import dump_csv
from repro.rules_json import rules_to_list
from repro.session import Session

__all__ = ["main", "build_parser"]


def _add_data_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "data",
        nargs="+",
        help=(
            "CSV file (header row required); for multi-relation schemas "
            "pass one relation=path argument per relation"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="dependency-based data quality: detect, repair, discover",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser("detect", help="report dependency violations")
    detect.add_argument("--schema", required=True, help="schema JSON")
    detect.add_argument("--rules", required=True, help="rules JSON")
    detect.add_argument(
        "--summary-only", action="store_true", help="print only the summary line"
    )
    detect.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json: one machine-readable document on stdout)",
    )
    _add_data_argument(detect)

    repair = sub.add_parser("repair", help="repair under a §5.1 model")
    repair.add_argument("--schema", required=True)
    repair.add_argument("--rules", required=True)
    repair.add_argument("--output", required=True, help="repaired CSV path")
    repair.add_argument(
        "--strategy",
        choices=("u", "x", "s"),
        default="u",
        help="repair model: u=value modification, x=deletions, s=symmetric diff",
    )
    repair.add_argument(
        "--relation",
        help="relation to write to --output (required for multi-relation schemas)",
    )
    repair.add_argument(
        "--max-passes", type=int, default=25, help="heuristic pass cap (u-repair)"
    )
    _add_data_argument(repair)

    discover = sub.add_parser("discover", help="profile CFDs from data")
    discover.add_argument("--schema", required=True)
    discover.add_argument("--relation", help="relation to profile (default: only one)")
    discover.add_argument("--max-lhs", type=int, default=2)
    discover.add_argument("--min-support", type=int, default=3)
    _add_data_argument(discover)

    serve = sub.add_parser(
        "serve", help="run the long-lived HTTP/JSON constraint service"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8765, help="bind port")
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=64,
        metavar="N",
        help="hosted warm sessions before LRU eviction kicks in",
    )
    serve.add_argument(
        "--data-root",
        default=None,
        metavar="DIR",
        help=(
            "directory server-side schema/rules/data paths resolve against "
            "(default: the working directory)"
        ),
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help=(
            "make sessions durable: changeset WAL + snapshots under DIR, "
            "crash-safe recovery on restart (default: in-memory only)"
        ),
    )
    serve.add_argument(
        "--degraded-after",
        type=int,
        default=None,
        metavar="K",
        help=(
            "consecutive 5xx handler failures before a session is gated "
            "degraded (503 until a recovery probe succeeds; 0 disables; "
            "default: 5)"
        ),
    )
    serve.add_argument(
        "--quiet",
        action="store_true",
        help="do not print the listening banner (the one line serve prints)",
    )

    soak = sub.add_parser(
        "soak",
        help=(
            "multi-tenant soak: seeded load over real HTTP with live "
            "byte-verification against offline replay"
        ),
    )
    soak.add_argument(
        "--smoke",
        action="store_true",
        help="the ~30s CI preset (16 tenants, 1 crash/restart cycle)",
    )
    soak.add_argument("--tenants", type=int, default=None, metavar="N")
    soak.add_argument("--ops", type=int, default=None, metavar="N")
    soak.add_argument("--seed", type=int, default=None)
    soak.add_argument("--workers", type=int, default=None, metavar="N")
    soak.add_argument(
        "--restarts",
        type=int,
        default=None,
        metavar="N",
        help="SIGKILL crash/restart cycles mid-run (default: 1)",
    )
    soak.add_argument(
        "--max-sessions",
        type=int,
        default=None,
        metavar="N",
        help="server residency cap; small values force eviction churn",
    )
    soak.add_argument(
        "--verify-every",
        type=int,
        default=None,
        metavar="N",
        help="ops per tenant between online verification checkpoints",
    )
    soak.add_argument(
        "--degraded-after", type=int, default=None, metavar="K"
    )
    soak.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="durable state dir for the spawned server (default: a tempdir)",
    )
    soak.add_argument(
        "--url",
        default=None,
        help="soak an already-running server instead of spawning one",
    )
    soak.add_argument(
        "--artifacts",
        default=None,
        metavar="DIR",
        help="write report.json, reproducer, diagnostics and a Prometheus "
        "scrape under DIR",
    )

    stream = sub.add_parser(
        "stream", help="feed random edit batches through the delta engine"
    )
    stream.add_argument("--schema", required=True)
    stream.add_argument("--rules", required=True)
    stream.add_argument("--batches", type=int, default=10)
    stream.add_argument("--batch-size", type=int, default=100)
    stream.add_argument("--seed", type=int, default=7)
    stream.add_argument(
        "--verify",
        action="store_true",
        help="cross-check every batch against full indexed re-detection",
    )
    stream.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json: one machine-readable document on stdout)",
    )
    stream.add_argument(
        "--timings",
        action="store_true",
        help=(
            "include per-batch wall-clock seconds in --format json output "
            "(omitted by default so the document is deterministic)"
        ),
    )
    _add_data_argument(stream)

    return parser


def _data_mapping(entries: Sequence[str]) -> Union[str, Mapping[str, str]]:
    """One bare path stays a path; ``relation=path`` entries become a map."""
    if len(entries) == 1 and "=" not in entries[0]:
        return entries[0]
    mapping: Dict[str, str] = {}
    for entry in entries:
        relation, sep, path = entry.partition("=")
        if not sep or not relation or not path:
            raise SystemExit(
                f"data argument {entry!r} is not of the form relation=path"
            )
        mapping[relation] = path
    return mapping


def _session(args, with_rules: bool = True) -> Session:
    return Session.from_files(
        args.schema,
        args.rules if with_rules else None,
        _data_mapping(args.data),
    )


def _cmd_detect(args) -> int:
    session = _session(args)
    report = session.detect()
    if args.format == "json":
        document = report.to_dict(include_violations=not args.summary_only)
        json.dump(document, sys.stdout, indent=2, default=str)
        print()
    else:
        if not args.summary_only:
            for violation in report.violations:
                print(violation.reason)
        print(report.summary())
    return 1 if report.total else 0


def _cmd_repair(args) -> int:
    session = _session(args)
    if args.relation is None and len(session.schema.relation_names) > 1:
        raise SystemExit(
            f"schema has relations {list(session.schema.relation_names)}; "
            "pass --relation to choose the one to write"
        )
    report = session.repair(strategy=args.strategy, max_passes=args.max_passes)
    relation = args.relation or session.schema.relation_names[0]
    dump_csv(report.repaired.relation(relation), args.output)
    unit = "cells" if args.strategy == "u" else "tuples"
    print(
        f"{report.changed} {unit} changed, cost {report.cost:.3f}, "
        f"resolved={report.resolved}",
        file=sys.stderr,
    )
    return 0 if report.resolved else 2


def _cmd_discover(args) -> int:
    session = _session(args, with_rules=False)
    discovered = session.discover(
        relation=args.relation,
        max_lhs=args.max_lhs,
        min_support=args.min_support,
    )
    documents = rules_to_list([d.cfd for d in discovered])
    for doc, found in zip(documents, discovered):
        doc["support"] = found.support
        doc["kind"] = found.kind
    json.dump(documents, sys.stdout, indent=2, default=str)
    print()
    return 0


def _cmd_stream(args) -> int:
    from repro.workloads.stream import StreamConfig

    session = _session(args)
    start = session.engine.total_violations()
    print(f"start: {start} violations", file=sys.stderr)
    config = StreamConfig(
        n_batches=args.batches, batch_size=args.batch_size, seed=args.seed
    )
    report = session.stream(config, verify=args.verify)
    if args.format == "json":
        json.dump(
            {
                "start_violations": start,
                # "seconds" is opt-in (--timings): without it the document
                # is deterministic — byte-identical across runs for a
                # given seed.
                "batches": [
                    {
                        "batch": b.index,
                        "edits": b.edits,
                        "added": b.added,
                        "removed": b.removed,
                        "violations": b.total,
                        **({"seconds": b.seconds} if args.timings else {}),
                    }
                    for b in report.batches
                ],
                "final_violations": report.final_violations,
                "total_edits": report.total_edits,
                "verified": report.verified,
            },
            sys.stdout,
            indent=2,
        )
        print()
    else:
        for batch in report.batches:
            print(
                # ASCII only: this line goes to redirected stdout in pipelines,
                # where the locale encoding may not cover U+2212
                f"batch {batch.index}: {batch.edits} edits, "
                f"+{batch.added} -{batch.removed} violations, "
                f"{batch.total} total, {batch.seconds * 1e3:.2f} ms"
            )
    print(report.summary(), file=sys.stderr)
    return 1 if report.final_violations else 0


def _cmd_serve(args) -> int:
    from repro.server import DEFAULT_DEGRADED_AFTER, serve

    return serve(
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        data_root=args.data_root,
        state_dir=args.state_dir,
        degraded_after=(
            args.degraded_after
            if args.degraded_after is not None
            else DEFAULT_DEGRADED_AFTER
        ),
        quiet=args.quiet,
    )


def _cmd_soak(args) -> int:
    # all clock/randomness lives in repro.workloads.soak; the CLI module
    # stays deterministic (the static checker's REP001 scope)
    from repro.workloads.soak import run_from_args

    return run_from_args(args)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "detect": _cmd_detect,
        "repair": _cmd_repair,
        "discover": _cmd_discover,
        "stream": _cmd_stream,
        "serve": _cmd_serve,
        "soak": _cmd_soak,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
