"""Repo-invariant static checker.

Whole-program ``ast`` analysis encoding the contracts the test suite can
only catch after the fact: report determinism (REP001), server lock
discipline (REP002), WAL durability ordering (REP003), registry
completeness (REP004) and exception hygiene (REP006).  See
``docs/analysis.md`` for the catalogue and the pragma/baseline workflow.

Run as ``python -m repro.analysis [--baseline FILE] [paths...]``.
"""

from repro.analysis.core import (
    Analyzer,
    Baseline,
    Finding,
    ModuleInfo,
    Project,
    Rule,
)
from repro.analysis.rules import ALL_RULES, default_rules

__all__ = [
    "ALL_RULES",
    "Analyzer",
    "Baseline",
    "Finding",
    "ModuleInfo",
    "Project",
    "Rule",
    "default_rules",
]
