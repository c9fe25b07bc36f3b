"""Framework for the repo-invariant static checker (:mod:`repro.analysis`).

This module is rule-agnostic: it knows how to load Python modules into
:class:`ModuleInfo` records (source, AST, parent links, pragma tables),
drive a list of :class:`Rule` instances over them (per-file passes plus a
whole-program ``finish`` pass), filter findings through inline
``# repro: allow[REP0xx]`` pragmas, and ratchet the result against a
committed :class:`Baseline` so adoption starts green and only *new*
findings fail CI.  The rules themselves — the repo's real contracts —
live in :mod:`repro.analysis.rules`.

Suppression pragmas:

``# repro: allow[REP001]``
    Suppress the named code(s) on this line, or — when the pragma heads
    a contiguous block of comment-only lines — on the first code line
    below the block, so justifications may span several comment lines.
    Several codes separate with commas: ``# repro: allow[REP001,REP006]``.
    Every pragma should carry a justification.

``# repro: lock-held``
    Marks the ``def`` it annotates (same line or the line directly
    above) as running with the owning lock already held — the lock
    discipline rule (REP002) then accepts watched-state mutations in
    its body.
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "Analyzer",
    "Baseline",
    "Finding",
    "ModuleInfo",
    "Project",
    "Rule",
    "load_module",
    "collect_files",
]


_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Z0-9, ]+)\]")
_LOCK_HELD_RE = re.compile(r"#\s*repro:\s*lock-held\b")


class Finding:
    """One rule hit: a contract violation at a concrete source location.

    The baseline identity deliberately excludes the line number — a
    finding keyed ``(path, code, message)`` survives unrelated edits
    shifting the file, so the committed baseline does not churn.
    """

    __slots__ = ("code", "path", "line", "col", "message")

    def __init__(
        self, code: str, path: str, line: int, col: int, message: str
    ) -> None:
        self.code = code
        self.path = path
        self.line = line
        self.col = col
        self.message = message

    def key(self) -> Tuple[str, str, str]:
        """The baseline identity (line numbers excluded, see class doc)."""
        return (self.path, self.code, self.message)

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def __repr__(self) -> str:
        return f"Finding({self.render()!r})"


class ModuleInfo:
    """One parsed source file: module name, AST + parent map, pragmas."""

    def __init__(
        self, path: Path, display_path: str, module: str, source: str
    ) -> None:
        self.path = path
        #: the path findings are reported (and baselined) under
        self.display_path = display_path
        #: dotted module name (``repro.engine.delta``); rules scope on it
        self.module = module
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        #: line → frozenset of allowed codes (from ``# repro: allow[...]``)
        self.allow: Dict[int, frozenset] = {}
        #: lines carrying a ``# repro: lock-held`` marker
        self.lock_held_lines: set = set()
        for lineno, text in enumerate(self.lines, start=1):
            match = _ALLOW_RE.search(text)
            if match:
                codes = frozenset(
                    c.strip() for c in match.group(1).split(",") if c.strip()
                )
                self.allow[lineno] = codes
            if _LOCK_HELD_RE.search(text):
                self.lock_held_lines.add(lineno)
        #: child AST node → parent AST node (lexical walks for the rules)
        self.parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent

    def allowed(self, code: str, line: int) -> bool:
        """True iff a pragma allows ``code`` here.

        A pragma applies on its own line and, when it heads a contiguous
        block of comment-only lines, on the first code line below that
        block — so justifications may span several comment lines.
        """
        codes = self.allow.get(line)
        if codes and code in codes:
            return True
        candidate = line - 1
        while candidate >= 1:
            text = self.lines[candidate - 1].strip()
            if not text.startswith("#"):
                break
            codes = self.allow.get(candidate)
            if codes and code in codes:
                return True
            candidate -= 1
        return False

    def is_lock_held_marked(self, node: ast.AST) -> bool:
        """True iff a ``# repro: lock-held`` marker annotates this ``def``."""
        line = getattr(node, "lineno", 0)
        return bool(
            self.lock_held_lines & {line, line - 1}
        )

    def parent_chain(self, node: ast.AST) -> Iterator[ast.AST]:
        """The node's ancestors, innermost first."""
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def finding(
        self, code: str, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            code,
            self.display_path,
            getattr(node, "lineno", 0),
            getattr(node, "col_offset", 0) + 1,
            message,
        )


class Project:
    """Every module of one analysis run (the cross-module pass input)."""

    def __init__(self, modules: List[ModuleInfo]) -> None:
        self.modules = modules
        self.by_name: Dict[str, ModuleInfo] = {m.module: m for m in modules}

    def module_names(self) -> List[str]:
        return sorted(self.by_name)


class Rule:
    """Base class for one checked contract.

    ``check_module`` runs once per file; ``finish`` runs once after every
    file has been seen and receives the whole :class:`Project` — the hook
    for cross-module contracts (registry completeness).  Either may be a
    no-op.
    """

    code: str = ""
    name: str = ""
    rationale: str = ""

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        return ()

    def finish(self, project: Project) -> Iterable[Finding]:
        return ()


def _module_name(path: Path) -> str:
    """Dotted module name; anchored at the last ``repro`` path component
    so both ``src/repro/...`` checkouts and test fixture trees resolve."""
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return ".".join(parts[index:])
    return ".".join(parts[-2:]) if len(parts) >= 2 else parts[-1]


def collect_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``*.py`` files."""
    found: List[Path] = []
    for path in paths:
        if path.is_dir():
            found.extend(
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if "__pycache__" not in candidate.parts
            )
        elif path.suffix == ".py":
            found.append(path)
    seen: Dict[Path, None] = {}
    for path in found:
        seen.setdefault(path, None)
    return list(seen)


def _display_path(path: Path) -> str:
    """Report paths relative to the working directory when possible —
    the committed baseline then reads the same on every checkout."""
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def load_module(path: Path) -> ModuleInfo:
    source = path.read_text(encoding="utf-8")
    return ModuleInfo(path, _display_path(path), _module_name(path), source)


class Analyzer:
    """Drive a rule list over a file set; pragma-filter; count hits."""

    def __init__(self, rules: Iterable[Rule]) -> None:
        self.rules = list(rules)
        #: per-rule raw hit counts of the last run (pre-pragma findings
        #: are *not* counted: an allowed line is not a hit)
        self.stats: Dict[str, int] = {}
        self.files_scanned = 0

    def run(self, paths: Iterable[Path]) -> List[Finding]:
        files = collect_files(paths)
        modules: List[ModuleInfo] = []
        findings: List[Finding] = []
        for path in files:
            module = load_module(path)
            modules.append(module)
            for rule in self.rules:
                findings.extend(rule.check_module(module))
        project = Project(modules)
        for rule in self.rules:
            findings.extend(rule.finish(project))
        by_path = {m.display_path: m for m in modules}
        kept = [
            finding
            for finding in findings
            if not (
                finding.path in by_path
                and by_path[finding.path].allowed(finding.code, finding.line)
            )
        ]
        kept.sort(key=Finding.sort_key)
        self.files_scanned = len(files)
        self.stats = {rule.code: 0 for rule in self.rules}
        for finding in kept:
            self.stats[finding.code] = self.stats.get(finding.code, 0) + 1
        return kept


class Baseline:
    """The committed debt ledger: keyed finding counts.

    ``new`` findings are those whose key is absent from the ledger or
    occurs more often than the ledger records — the ratchet only ever
    lets the counts shrink.  ``stale`` entries (recorded but no longer
    observed) are reported so the ledger can be re-written smaller.
    """

    VERSION = 1

    def __init__(
        self, counts: Optional[Dict[Tuple[str, str, str], int]] = None
    ) -> None:
        self.counts: Dict[Tuple[str, str, str], int] = dict(counts or {})

    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        counts: Dict[Tuple[str, str, str], int] = {}
        for finding in findings:
            key = finding.key()
            counts[key] = counts.get(key, 0) + 1
        return cls(counts)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        document = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(document, dict) or "findings" not in document:
            raise ValueError(
                f"{path} is not an analysis baseline document "
                "(expected {'version': ..., 'findings': [...]})"
            )
        counts: Dict[Tuple[str, str, str], int] = {}
        for entry in document["findings"]:
            key = (entry["path"], entry["code"], entry["message"])
            counts[key] = counts.get(key, 0) + int(entry.get("count", 1))
        return cls(counts)

    def dump(self, path: Path) -> None:
        entries = [
            {"path": p, "code": c, "message": m, "count": n}
            for (p, c, m), n in sorted(self.counts.items())
        ]
        document = {"version": self.VERSION, "findings": entries}
        path.write_text(
            json.dumps(document, indent=2, sort_keys=False) + "\n",
            encoding="utf-8",
        )

    def diff(
        self, findings: Iterable[Finding]
    ) -> Tuple[List[Finding], List[Tuple[str, str, str]]]:
        """Split findings into (new, stale-ledger-keys) against the ledger."""
        remaining = dict(self.counts)
        new: List[Finding] = []
        for finding in findings:
            key = finding.key()
            if remaining.get(key, 0) > 0:
                remaining[key] -= 1
            else:
                new.append(finding)
        stale = sorted(key for key, count in remaining.items() if count > 0)
        return new, stale
