"""The shipped rules: the repo's contracts as machine-checked passes.

Each rule encodes an invariant the test suite can only catch *after* a
violation ships (see ``docs/analysis.md`` for the incident history
behind each one).  Rules are syntactic — no type inference — so each one
errs on the side of flagging and relies on ``# repro: allow[...]``
pragmas, with justifications, for the provably-safe sites.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import Finding, ModuleInfo, Project, Rule

__all__ = [
    "ALL_RULES",
    "DeterminismRule",
    "LockDisciplineRule",
    "DurabilityOrderingRule",
    "RegistryCompletenessRule",
    "ExceptionHygieneRule",
    "default_rules",
]


def _in_scope(module: str, prefixes: Tuple[str, ...]) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".") for prefix in prefixes
    )


def _call_name(node: ast.AST) -> Optional[str]:
    """``foo(...)`` → ``foo``; anything else → None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _attr_call(node: ast.AST) -> Optional[Tuple[str, str]]:
    """``base.method(...)`` with a Name base → (base, method)."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
    ):
        return (node.func.value.id, node.func.attr)
    return None


def _enclosing_function(
    module: ModuleInfo, node: ast.AST
) -> "Optional[ast.FunctionDef | ast.AsyncFunctionDef]":
    for ancestor in module.parent_chain(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor
    return None


class DeterminismRule(Rule):
    """REP001 — reports must be byte-identical run to run.

    Flags, inside the engine / relational / report-emission scope:
    iteration over ``set``/``frozenset``/set comprehensions and over
    ``dict.keys()``; filesystem enumeration (``os.listdir``, ``glob``,
    ``Path.iterdir`` ...) not immediately wrapped in ``sorted()``;
    ``set(...)`` rebuilt inside a comprehension (order *and* cost bug);
    and wall-clock / randomness / uuid / builtin-``hash`` use (hash of
    ``str`` is PYTHONHASHSEED-dependent; ``__hash__`` bodies exempt).
    """

    code = "REP001"
    name = "determinism"
    rationale = (
        "Reports are contractually byte-identical across executors "
        "(naive / indexed / delta / served) and runs."
    )

    SCOPES = ("repro.engine", "repro.relational", "repro.cfd", "repro.deps",
              "repro.session", "repro.cli", "repro.registry")
    # Server metrics/timestamps are wall-clock by design; workloads and
    # benchmarks generate data and may use randomness freely.
    CLOCK_EXEMPT = ("repro.workloads", "repro.server")
    ORDER_EXEMPT = ("repro.workloads",)

    FS_ENUM_ATTRS = {
        "listdir", "scandir", "walk", "iglob", "iterdir", "rglob",
    }
    FS_ENUM_GLOB = {"glob"}
    CLOCK_MODULES = {"time", "random", "uuid"}

    def _is_setlike(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        name = _call_name(node)
        return name in {"set", "frozenset"}

    def _iter_targets(self, module: ModuleInfo) -> Iterator[Tuple[ast.AST, str]]:
        """Yield (iterated-expression, context) pairs for every loop."""
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield node.iter, "for-loop"
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for generator in node.generators:
                    yield generator.iter, "comprehension"

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        findings: List[Finding] = []
        order_scoped = _in_scope(module.module, self.SCOPES) and not _in_scope(
            module.module, self.ORDER_EXEMPT
        )
        clock_scoped = _in_scope(module.module, self.SCOPES) and not _in_scope(
            module.module, self.CLOCK_EXEMPT
        )
        if order_scoped:
            findings.extend(self._check_order(module))
        if clock_scoped:
            findings.extend(self._check_clock(module))
        return findings

    def _check_order(self, module: ModuleInfo) -> Iterator[Finding]:
        for target, context in self._iter_targets(module):
            if self._is_setlike(target):
                yield module.finding(
                    self.code,
                    target,
                    f"iteration over a set in a {context} has "
                    "PYTHONHASHSEED-dependent order; wrap in sorted()",
                )
            attr = _attr_call(target)
            if attr and attr[1] == "keys":
                yield module.finding(
                    self.code,
                    target,
                    "iterating dict.keys() — iterate the dict directly, or "
                    "sorted(...) if order reaches output",
                )
        for node in ast.walk(module.tree):
            finding = self._check_fs_enum(module, node)
            if finding is not None:
                yield finding
        yield from self._check_set_in_comp(module)

    def _check_fs_enum(
        self, module: ModuleInfo, node: ast.AST
    ) -> Optional[Finding]:
        if not isinstance(node, ast.Call):
            return None
        label: Optional[str] = None
        attr = _attr_call(node)
        if attr and attr[1] in self.FS_ENUM_ATTRS:
            label = f"{attr[0]}.{attr[1]}()"
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in (self.FS_ENUM_ATTRS | self.FS_ENUM_GLOB)
        ):
            label = f"...{node.func.attr}()"
        elif _call_name(node) in (self.FS_ENUM_ATTRS | self.FS_ENUM_GLOB):
            label = f"{_call_name(node)}()"
        if label is None:
            return None
        parent = module.parents.get(node)
        if isinstance(parent, ast.Call) and _call_name(parent) in {
            "sorted", "len", "set", "frozenset",
        }:
            return None
        return module.finding(
            self.code,
            node,
            f"filesystem enumeration {label} yields OS-dependent order; "
            "wrap in sorted()",
        )

    def _check_set_in_comp(self, module: ModuleInfo) -> Iterator[Finding]:
        """``[a for a in xs if a in set(ys)]`` rebuilds the set per element."""
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                     ast.GeneratorExp)):
                continue
            interior: List[ast.AST] = []
            for generator in node.generators:
                interior.extend(generator.ifs)
            if isinstance(node, ast.DictComp):
                interior.extend((node.key, node.value))
            else:
                interior.append(node.elt)
            for part in interior:
                for sub in ast.walk(part):
                    if not isinstance(sub, ast.Compare):
                        continue
                    for op, comparator in zip(sub.ops, sub.comparators):
                        if (
                            isinstance(op, (ast.In, ast.NotIn))
                            and _call_name(comparator) in {"set", "frozenset"}
                            and getattr(comparator, "args", None)
                        ):
                            yield module.finding(
                                self.code,
                                comparator,
                                "membership test against set(...) rebuilt "
                                "per comprehension element; hoist the set "
                                "before the comprehension",
                            )

    def _check_clock(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            attr = _attr_call(node)
            if attr and attr[0] in self.CLOCK_MODULES:
                yield module.finding(
                    self.code,
                    node,
                    f"{attr[0]}.{attr[1]}() is non-deterministic; keep "
                    "clocks/randomness out of report paths",
                )
                continue
            if _call_name(node) == "hash":
                enclosing = _enclosing_function(module, node)
                if enclosing is not None and enclosing.name == "__hash__":
                    continue
                yield module.finding(
                    self.code,
                    node,
                    "builtin hash() outside __hash__ is PYTHONHASHSEED-"
                    "dependent for str/bytes; use a stable key instead",
                )


class LockDisciplineRule(Rule):
    """REP002 — server session/store state mutates only under a lock.

    Watched attributes of ``self`` (session maps, undo ledgers, metric
    counters) may only be assigned/mutated inside a ``with ...lock...:``
    block, in ``__init__``, or in a function annotated ``# repro:
    lock-held`` (callers own the lock).
    """

    code = "REP002"
    name = "lock-discipline"
    rationale = (
        "SessionManager and HostedSession state is shared across the "
        "server's verb-pool worker threads (PR 7)."
    )

    SCOPES = ("repro.server",)
    WATCHED = {
        "_sessions", "_rehydrating", "_undo", "_undo_counter",
        "_auto_counter", "created_total", "evicted_total", "closed_total",
        "counters", "requests_total",
        "connections_accepted_total", "connections_open",
        # degraded gating + lock-wait aggregates (PR 9)
        "failures", "degraded_since", "degraded_total", "last_error",
        "probe_in_flight", "lock_acquisitions", "lock_wait_seconds_total",
        "lock_wait_seconds_max", "lock_contended",
        # the encoded-report cache (PR 16)
        "_entries", "encoded_last",
    }
    MUTATORS = {
        "pop", "popitem", "clear", "update", "move_to_end", "append",
        "extend", "add", "remove", "discard", "setdefault", "insert",
    }

    def _watched_self_attr(self, node: ast.AST) -> Optional[str]:
        """``self.<watched>`` or ``self.<watched>[...]`` → attr name."""
        if isinstance(node, ast.Subscript):
            node = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in self.WATCHED
        ):
            return node.attr
        return None

    def _under_lock(self, module: ModuleInfo, node: ast.AST) -> bool:
        for ancestor in module.parent_chain(node):
            if isinstance(ancestor, (ast.With, ast.AsyncWith)):
                for item in ancestor.items:
                    try:
                        text = ast.unparse(item.context_expr)
                    except Exception:  # pragma: no cover - unparse is total
                        text = ""
                    if "lock" in text.lower():
                        return True
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if ancestor.name == "__init__":
                    return True
                if module.is_lock_held_marked(ancestor):
                    return True
                return False
        return True  # module level: import time, single-threaded

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        if not _in_scope(module.module, self.SCOPES):
            return ()
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            attr: Optional[str] = None
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets = (
                    node.targets
                    if isinstance(node, (ast.Assign, ast.Delete))
                    else [node.target]
                )
                for target in targets:
                    attr = self._watched_self_attr(target)
                    if attr:
                        break
            elif isinstance(node, ast.Call):
                pair = None
                if isinstance(node.func, ast.Attribute):
                    if node.func.attr in self.MUTATORS:
                        name = self._watched_self_attr(node.func.value)
                        if name:
                            pair = name
                attr = pair
            if attr and not self._under_lock(module, node):
                findings.append(
                    module.finding(
                        self.code,
                        node,
                        f"mutation of self.{attr} outside a with-lock scope; "
                        "hold the owning lock or mark the function "
                        "'# repro: lock-held'",
                    )
                )
        return findings


class DurabilityOrderingRule(Rule):
    """REP003 — mutate → journal → respond; no raw writes bypass the WAL.

    (a) In ``repro.server`` outside ``durability`` itself, raw
    filesystem writes (``open(..., 'w')``, ``write_text``, ``rmtree``,
    ``rename`` ...) are forbidden — all session state flows through
    ``repro.server.durability``.
    (b) In the methods of ``HostedSession`` — the one write path — every
    state mutator needs a following journal write (a WAL append or a
    snapshot), no mutator may run after the last journal write, and every
    journal write must sit in a ``try`` whose handler re-raises, so a
    failure rolls back rather than acknowledges.
    (c) A ``_handle_*`` verb never mutates the session itself — no
    ``session.apply`` / ``replace_rules`` / ``add_rules`` /
    ``swap_database``, no adopting ``session.repair``, no undo-table
    method: it calls the ``HostedSession`` write method, which journals.
    """

    code = "REP003"
    name = "durability-ordering"
    rationale = (
        "PR 7's crash-safety contract: a response must never be sent "
        "for state that is not yet fsynced to the WAL."
    )

    SCOPES = ("repro.server",)
    EXEMPT_MODULES = ("repro.server.durability",)
    RAW_WRITE_ATTRS = {
        "write_text", "write_bytes", "rmtree", "unlink", "truncate",
        "rmdir", "mkdir", "makedirs",
    }
    # These names collide with non-filesystem methods (list.remove,
    # SessionManager.remove, str.replace) — only flag them on fs modules.
    AMBIGUOUS_WRITE_ATTRS = {"remove", "rename", "replace", "removedirs"}
    FS_BASES = {"os", "shutil"}
    WRITE_MODES = ("w", "a", "x", "+")
    #: the class whose methods are the write path
    WRITE_PATH = "HostedSession"
    #: session mutators, called on ``session`` / ``<x>.session``
    SESSION_MUTATORS = {"apply", "replace_rules", "add_rules", "swap_database"}
    UNDO_TABLE = {
        "remember_undo", "consume_undo", "clear_undo", "restore_undo_state",
    }
    JOURNAL_WRITES = {
        "log_apply", "log_undo", "log_rules", "write_snapshot",
        "persist_snapshot",
    }

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        if not _in_scope(module.module, self.SCOPES):
            return ()
        findings: List[Finding] = []
        if not _in_scope(module.module, self.EXEMPT_MODULES):
            findings.extend(self._check_raw_writes(module))
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and node.name == self.WRITE_PATH:
                for method in node.body:
                    if isinstance(method, ast.FunctionDef):
                        findings.extend(self._check_write_method(module, method))
            elif isinstance(node, ast.FunctionDef) and node.name.startswith(
                "_handle_"
            ):
                findings.extend(self._check_handler(module, node))
        return findings

    def _check_raw_writes(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if _call_name(node) == "open":
                mode = ""
                if len(node.args) >= 2 and isinstance(
                    node.args[1], ast.Constant
                ):
                    mode = str(node.args[1].value)
                for keyword in node.keywords:
                    if keyword.arg == "mode" and isinstance(
                        keyword.value, ast.Constant
                    ):
                        mode = str(keyword.value.value)
                if any(flag in mode for flag in self.WRITE_MODES):
                    yield module.finding(
                        self.code,
                        node,
                        f"raw open(..., {mode!r}) in server code bypasses "
                        "repro.server.durability; route writes through the "
                        "journal",
                    )
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
                pair = _attr_call(node)
                ambiguous_on_fs = (
                    name in self.AMBIGUOUS_WRITE_ATTRS
                    and pair is not None
                    and pair[0] in self.FS_BASES
                )
                if name in self.RAW_WRITE_ATTRS or ambiguous_on_fs:
                    yield module.finding(
                        self.code,
                        node,
                        f"raw filesystem write .{name}() in server "
                        "code bypasses repro.server.durability",
                    )

    def _in_except(self, module: ModuleInfo, node: ast.AST) -> bool:
        return any(
            isinstance(a, ast.ExceptHandler) for a in module.parent_chain(node)
        )

    @staticmethod
    def _adopting(call: ast.Call) -> bool:
        """A ``repair(...)`` call that may swap the instance: its ``adopt``
        keyword is anything but a literal ``False``."""
        for keyword in call.keywords:
            if keyword.arg == "adopt":
                value = keyword.value
                return not (isinstance(value, ast.Constant) and value.value is False)
        return False

    @staticmethod
    def _on_session(receiver: ast.expr) -> bool:
        """``session`` or ``<anything>.session``."""
        if isinstance(receiver, ast.Attribute):
            return receiver.attr == "session"
        return isinstance(receiver, ast.Name) and receiver.id == "session"

    def _mutates(self, call: ast.Call) -> bool:
        assert isinstance(call.func, ast.Attribute)
        name = call.func.attr
        if name == "repair":
            return self._adopting(call)
        return name in self.SESSION_MUTATORS or name in self.UNDO_TABLE

    def _check_write_method(
        self, module: ModuleInfo, method: ast.FunctionDef
    ) -> Iterator[Finding]:
        mutator_calls: List[ast.Call] = []
        journal_calls: List[ast.Call] = []
        for node in ast.walk(method):
            if not isinstance(node, ast.Call) or not isinstance(
                node.func, ast.Attribute
            ):
                continue
            if node.func.attr in self.JOURNAL_WRITES:
                journal_calls.append(node)
            elif self._mutates(node) and not self._in_except(module, node):
                mutator_calls.append(node)
        if not mutator_calls:
            return
        if not journal_calls:
            yield module.finding(
                self.code,
                method,
                f"write method {method.name} mutates session state but "
                "never writes the journal",
            )
            return
        last_journal_line = max(call.lineno for call in journal_calls)
        for call in mutator_calls:
            if call.lineno > last_journal_line:
                yield module.finding(
                    self.code,
                    call,
                    f"state mutation after the last journal write in "
                    f"{method.name}; the response would acknowledge "
                    "unjournaled state",
                )
        for call in journal_calls:
            if not self._persist_guarded(module, call):
                yield module.finding(
                    self.code,
                    call,
                    f"journal write in {method.name} is not inside a try "
                    "whose except re-raises; journal failures must roll "
                    "back, not acknowledge",
                )

    def _check_handler(
        self, module: ModuleInfo, handler: ast.FunctionDef
    ) -> Iterator[Finding]:
        for node in ast.walk(handler):
            if not isinstance(node, ast.Call) or not isinstance(
                node.func, ast.Attribute
            ):
                continue
            name = node.func.attr
            if name in self.UNDO_TABLE or (
                self._on_session(node.func.value) and self._mutates(node)
            ):
                yield module.finding(
                    self.code,
                    node,
                    f"handler {handler.name} calls {name} itself; a write "
                    f"goes through the {self.WRITE_PATH} write method, "
                    "which journals it and rolls it back on failure",
                )

    def _persist_guarded(self, module: ModuleInfo, call: ast.Call) -> bool:
        for ancestor in module.parent_chain(call):
            if isinstance(ancestor, ast.Try):
                for except_handler in ancestor.handlers:
                    if any(
                        isinstance(sub, ast.Raise)
                        for sub in ast.walk(except_handler)
                    ):
                        return True
        return False


class RegistryCompletenessRule(Rule):
    """REP004 — every concrete Dependency subclass has a registered codec.

    Cross-module: collects the ``Dependency`` subclass closure from class
    definitions everywhere in the tree, then the set of classes passed to
    ``ConstraintCodec(tag, CLS, ...)`` / ``register_constraint``.  A
    concrete subclass with no codec cannot round-trip through changeset
    WALs or the HTTP API.
    """

    code = "REP004"
    name = "registry-completeness"
    rationale = (
        "Unregistered constraint classes fail at serve/persist time, not "
        "import time (PR 5/7 registry + WAL format)."
    )

    ROOT = "Dependency"

    def finish(self, project: Project) -> Iterable[Finding]:
        bases: Dict[str, Set[str]] = {}
        abstract: Set[str] = set()
        defined_in: Dict[str, ModuleInfo] = {}
        def_nodes: Dict[str, ast.ClassDef] = {}
        registered: Set[str] = set()
        for name in project.module_names():
            module = project.by_name[name]
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    base_names = set()
                    for base in node.bases:
                        if isinstance(base, ast.Name):
                            base_names.add(base.id)
                        elif isinstance(base, ast.Attribute):
                            base_names.add(base.attr)
                    bases[node.name] = base_names
                    defined_in.setdefault(node.name, module)
                    def_nodes.setdefault(node.name, node)
                    if base_names & {"ABC", "ABCMeta"} or self._has_abstract(
                        node
                    ):
                        abstract.add(node.name)
                    for keyword in node.keywords:
                        if keyword.arg == "metaclass":
                            abstract.add(node.name)
                elif isinstance(node, ast.Call):
                    if _call_name(node) == "ConstraintCodec" and len(
                        node.args
                    ) >= 2:
                        cls_arg = node.args[1]
                        if isinstance(cls_arg, ast.Name):
                            registered.add(cls_arg.id)
                    for keyword in (
                        node.keywords
                        if _call_name(node) == "ConstraintCodec"
                        else ()
                    ):
                        if keyword.arg == "cls" and isinstance(
                            keyword.value, ast.Name
                        ):
                            registered.add(keyword.value.id)
        descendants: Set[str] = set()
        frontier = {self.ROOT}
        while frontier:
            frontier = {
                cls
                for cls, cls_bases in bases.items()
                if cls_bases & frontier and cls not in descendants
            }
            descendants |= frontier
        findings: List[Finding] = []
        for cls in sorted(descendants):
            if cls in abstract or cls in registered:
                continue
            module = defined_in[cls]
            findings.append(
                module.finding(
                    self.code,
                    def_nodes[cls],
                    f"concrete Dependency subclass {cls} has no registered "
                    "ConstraintCodec; it cannot round-trip through the "
                    "registry or the session WAL",
                )
            )
        return findings

    def _has_abstract(self, node: ast.ClassDef) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in sub.decorator_list:
                    name = None
                    if isinstance(decorator, ast.Name):
                        name = decorator.id
                    elif isinstance(decorator, ast.Attribute):
                        name = decorator.attr
                    if name in {"abstractmethod", "abstractproperty"}:
                        return True
        return False


class ExceptionHygieneRule(Rule):
    """REP006 — engine and server code must not swallow exceptions.

    ``except:`` is always flagged; ``except Exception:`` (or
    ``BaseException``, alone or in a tuple) is flagged when its body
    only passes/continues.  Recovery paths that genuinely must proceed
    carry an ``# repro: allow[REP006]`` pragma with the justification.
    """

    code = "REP006"
    name = "exception-hygiene"
    rationale = (
        "PR 7's review found WAL losses hidden by blanket excepts; "
        "failures must surface as typed ReproErrors."
    )

    SCOPES = ("repro.engine", "repro.server", "repro.session")
    BLANKET = {"Exception", "BaseException"}

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        if not _in_scope(module.module, self.SCOPES):
            return ()
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                findings.append(
                    module.finding(
                        self.code,
                        node,
                        "bare 'except:' catches SystemExit/KeyboardInterrupt; "
                        "name the exception types",
                    )
                )
                continue
            if self._is_blanket(node.type) and self._swallows(node):
                findings.append(
                    module.finding(
                        self.code,
                        node,
                        "blanket except silently swallows the exception; "
                        "raise a typed ReproError or pragma with a reason",
                    )
                )
        return findings

    def _is_blanket(self, node: ast.expr) -> bool:
        names: List[ast.expr] = (
            list(node.elts) if isinstance(node, ast.Tuple) else [node]
        )
        for name in names:
            if isinstance(name, ast.Name) and name.id in self.BLANKET:
                return True
        return False

    def _swallows(self, handler: ast.ExceptHandler) -> bool:
        for statement in handler.body:
            if isinstance(statement, ast.Pass):
                continue
            if isinstance(statement, ast.Continue):
                continue
            if isinstance(statement, ast.Expr) and isinstance(
                statement.value, ast.Constant
            ):
                continue  # docstring / Ellipsis
            return False
        return True


ALL_RULES = (
    DeterminismRule,
    LockDisciplineRule,
    DurabilityOrderingRule,
    RegistryCompletenessRule,
    ExceptionHygieneRule,
)


def default_rules() -> List[Rule]:
    return [cls() for cls in ALL_RULES]
