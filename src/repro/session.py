"""The unified session facade: one API over detect / repair / discover / stream.

The paper is one coherent story — a single class of conditional
dependencies driving detection, repairing and consistent query answering —
and :class:`Session` is the one object that tells it: it owns a
:class:`~repro.relational.instance.DatabaseInstance`, a rule set drawn from
any class registered in :mod:`repro.registry`, and a lazily-constructed
delta engine, and exposes the whole lifecycle::

    session = Session.from_files("schema.json", "rules.json", "data.csv")
    report  = session.detect()                    # ViolationReport
    fixed   = session.repair(strategy="u")        # RepairReport
    rules   = session.discover(min_support=5)     # profiling
    delta   = session.apply(changeset)            # incremental maintenance
    stats   = session.stream(StreamConfig(...))   # batched edit workload
    session.save_rules("rules.json")              # registry round trip

``apply``/``stream`` ride the delta engine (PR 2), constructed on first
use and kept warm across calls.  ``detect`` reads the violation set that
engine already maintains whenever it is warm and current — the same list,
in the same order, as a fresh run — and otherwise runs the indexed batch
executor (PR 1); a read never builds the engine.  The CLI
(:mod:`repro.cli`), the examples and the benchmark drivers all sit on this
facade; the older free functions remain as thin shims.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Union,
)

from repro.cfd.detect import DetectionReport, detect_violations
from repro.cfd.discovery import DiscoveredCFD, discover_cfds
from repro.cfd.model import CFD, fd_as_cfd
from repro.deps.base import Dependency, Violation
from repro.deps.fd import FD
from repro.engine.config import EXECUTOR, check_executor
from repro.engine.delta import Changeset, DeltaEngine, StaleEngineError, ViolationDelta
from repro.errors import RepairError, ReproError, SchemaError
from repro.relational.csvio import dump_csv, load_csv
from repro.relational.instance import DatabaseInstance, Savepoint
from repro.relational.schema import DatabaseSchema

if TYPE_CHECKING:
    from repro.repair.models import CostModel
    from repro.workloads.stream import StreamConfig, StreamReport

__all__ = ["Session", "ViolationReport", "RepairReport"]


class ViolationReport(DetectionReport):
    """A detection report with a machine-readable rendering.

    Identical to :class:`~repro.cfd.detect.DetectionReport` (same violation
    objects, same summary) plus :meth:`to_dict` for ``--format json``
    pipelines and service responses.
    """

    @staticmethod
    def _violation_to_dict(violation: Violation) -> Dict[str, Any]:
        dep = violation.dependency
        return {
            "dependency": getattr(dep, "name", repr(dep)),
            "reason": violation.reason,
            "tuples": [
                {"relation": relation, "values": t.as_dict()}
                for relation, t in violation.tuples
            ],
        }

    def to_dict(self, include_violations: bool = True) -> Dict[str, Any]:
        """JSON-ready document: totals, per-dependency counts, witnesses.

        ``include_violations=False`` omits the per-violation witness list
        (the summary-only shape).
        """
        # One pass.  Aggregate by display name, in first-appearance order:
        # distinct rule objects can share one (e.g. two CFDs on the same
        # embedded FD with different tableaux).  The name is looked up when
        # the dependency changes, not per violation: FD and IND have no
        # ``name`` and ``repr`` is ~3 µs, which per violation would cost
        # more than the rest of this loop.
        per_dependency: Dict[str, int] = {}
        single = pairs = 0
        involved: Set[Any] = set()
        dep: Optional[Dependency] = None
        name = ""
        for violation in self.violations:
            if violation.dependency is not dep:
                dep = violation.dependency
                name = getattr(dep, "name", repr(dep))
            per_dependency[name] = per_dependency.get(name, 0) + 1
            witnesses = violation.tuples
            if len(witnesses) == 1:
                single += 1
            elif witnesses:
                pairs += 1
            involved.update(witnesses)
        document: Dict[str, Any] = {
            "total": self.total,
            "single_tuple": single,
            "pairs": pairs,
            "tuples_involved": len(involved),
            "per_dependency": per_dependency,
        }
        if include_violations:
            document["violations"] = [
                self._violation_to_dict(v) for v in self.violations
            ]
        return document


class RepairReport:
    """Outcome of :meth:`Session.repair`: the repaired instance plus stats.

    ``cost`` is the strategy's own metric — aggregate w·dis cell cost for
    U-repair, tuples deleted for X-repair, symmetric-difference size for
    S-repair.  ``residual`` is a full re-detection on the repaired instance
    against *all* session rules (so a U-repair that only consumes FDs/CFDs
    still reports inclusion violations it could not address).
    """

    def __init__(
        self,
        strategy: str,
        repaired: DatabaseInstance,
        cost: float,
        changed: int,
        resolved: bool,
        residual: ViolationReport,
        passes: Optional[int] = None,
        changes: Optional[Sequence[Any]] = None,
    ) -> None:
        self.strategy = strategy
        self.repaired = repaired
        self.cost = cost
        self.changed = changed  # cells (u) or tuples (x/s) edited
        self.resolved = resolved
        self.residual = residual
        self.passes = passes
        self.changes = list(changes) if changes is not None else None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready document (omits the repaired instance itself)."""
        return {
            "strategy": self.strategy,
            "cost": self.cost,
            "changed": self.changed,
            "resolved": self.resolved,
            "passes": self.passes,
            "residual_violations": self.residual.total,
        }

    def __repr__(self) -> str:
        return (
            f"RepairReport({self.strategy}-repair: {self.changed} changed, "
            f"cost={self.cost:.3f}, resolved={self.resolved}, "
            f"residual={self.residual.total})"
        )


def _load_data_files(
    db_schema: DatabaseSchema,
    data: Union[str, Path, Mapping[str, Union[str, Path]]],
) -> DatabaseInstance:
    """Build an instance from CSV path(s): one path for single-relation
    schemas, a {relation: path} mapping otherwise."""
    db = DatabaseInstance(db_schema)
    if isinstance(data, (str, Path)):
        names = db_schema.relation_names
        if len(names) != 1:
            raise SchemaError(
                f"schema has relations {list(names)}; pass data as a "
                "{relation: path} mapping (or relation=path on the CLI)"
            )
        data = {names[0]: data}
    for name, path in data.items():
        db.adopt(name, load_csv(db.relation(name).schema, path))
    return db


class Session:
    """One database instance + one rule set + the engines that serve them.

    Detection has one path (:meth:`detect`).  ``executor`` names it for
    callers that still pass it: only ``"indexed"`` is accepted, and a
    retired name (``"naive"``, ``"parallel"``) is refused by name
    (:func:`repro.engine.config.check_executor`).
    """

    def __init__(
        self,
        db: DatabaseInstance,
        rules: Iterable[Dependency] = (),
        engine: Optional[DeltaEngine] = None,
        executor: str = EXECUTOR,
    ) -> None:
        check_executor(executor)
        self._db = db
        self._rules: List[Dependency] = list(rules)
        if engine is not None and engine.database is not db:
            raise ReproError("engine was built over a different database instance")
        self._engine: Optional[DeltaEngine] = engine

    # -- construction ----------------------------------------------------

    @classmethod
    def from_instance(
        cls,
        db: DatabaseInstance,
        rules: Iterable[Dependency] = (),
        engine: Optional[DeltaEngine] = None,
        executor: str = EXECUTOR,
    ) -> "Session":
        """Wrap an in-memory database (and optionally a live delta engine)."""
        return cls(db, rules, engine=engine, executor=executor)

    @classmethod
    def from_files(
        cls,
        schema: Union[str, Path],
        rules: Union[str, Path, None],
        data: Union[str, Path, Mapping[str, Union[str, Path]]],
    ) -> "Session":
        """Load schema JSON + rules JSON + CSV data into a session.

        The schema document may declare one relation or a ``"relations"``
        list; ``data`` is a CSV path (single relation) or a
        ``{relation: path}`` mapping.  ``rules`` may be ``None`` (e.g. for
        discovery-only sessions).
        """
        from repro.rules_json import load_database_schema, load_rules

        db_schema = load_database_schema(schema)
        parsed = load_rules(rules, db_schema) if rules is not None else []
        return cls(_load_data_files(db_schema, data), parsed)

    # -- state -----------------------------------------------------------

    @property
    def database(self) -> DatabaseInstance:
        """The live database instance the session owns."""
        return self._db

    @property
    def schema(self) -> DatabaseSchema:
        """The database schema."""
        return self._db.schema

    @property
    def rules(self) -> tuple:
        """The session's rule set (read-only view)."""
        return tuple(self._rules)

    def add_rules(self, *rules: Dependency) -> "Session":
        """Add rules; the delta engine is rebuilt on next use."""
        self._rules.extend(rules)
        self._engine = None
        return self

    def replace_rules(self, rules: Iterable[Dependency]) -> "Session":
        """Swap the whole rule set; the delta engine is rebuilt on next use."""
        self._rules = list(rules)
        self._engine = None
        return self

    def close(self) -> None:
        """Release engine resources: the warm delta engine state and the
        relations' cached indexes.

        This is the eviction hook the server layer calls — a closed session
        stays usable (engines and indexes lazily rebuild on the next call),
        it just holds no warm state until then; a session dropped after it
        takes its data along at once (see
        :meth:`~repro.relational.instance.RelationInstance.drop_indexes`).
        """
        self._engine = None
        for relation in self._db:
            relation.drop_indexes()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def state_fingerprint(self) -> tuple:
        """A version fingerprint of everything a detect answer depends on.

        Database identity, rule identities, per-relation versions: two
        calls returning equal fingerprints bracket a window with no
        observable mutation — relation versions are bumped on every
        mutation, rule-set edits swap the rules list, and repair-adopt
        swaps the database object.  Callers comparing fingerprints must
        hold strong references to the session (id reuse after collection
        would alias).
        """
        return (
            id(self._db),
            tuple(id(rule) for rule in self._rules),
            tuple((rel.schema.name, rel.version) for rel in self._db),
        )

    @property
    def has_warm_engine(self) -> bool:
        """True iff the delta engine is built (warm maintained state)."""
        return self._engine is not None

    @property
    def warm_engine(self) -> Optional[DeltaEngine]:
        """The delta engine if already built, else ``None`` — unlike
        :attr:`engine` this never triggers a lazy build (introspection
        surfaces like the server's ``/metrics`` must not construct
        engine state on a read path)."""
        return self._engine

    @property
    def engine(self) -> DeltaEngine:
        """The delta engine over the session's instance (built on first use)."""
        if self._engine is None:
            self._engine = DeltaEngine(self._db, self._rules)
        return self._engine

    def _current_engine(self) -> Optional[DeltaEngine]:
        """The warm engine iff its maintained state answers for this session
        as it is now: built, over this database object, for these rule
        objects, every relation at the version it last saw.  Reads consult
        nothing else; a stale engine is left for ``apply`` to report."""
        engine = self._engine
        if engine is None or engine.database is not self._db:
            return None
        maintained = engine.dependencies
        if len(maintained) != len(self._rules) or any(
            ours is not theirs for ours, theirs in zip(self._rules, maintained)
        ):
            return None
        return engine if engine.is_current() else None

    def report_epoch(self) -> Optional[int]:
        """What names the report a maintained ``detect()`` returns now:
        the current engine's :attr:`DeltaEngine.report_epoch`, or ``None``
        when no engine answers for this session (not built, other rules
        or database, a relation changed behind it).  Two equal non-``None``
        reads bracket edits that changed no violation, witness or order —
        the server keeps a cached report across such a write."""
        engine = self._current_engine()
        return None if engine is None else engine.report_epoch

    # -- detection -------------------------------------------------------

    def detect(self) -> ViolationReport:
        """Batch violation detection: the list the planned batch executor
        returns (:func:`repro.cfd.detect.detect_violations`).

        When the delta engine is warm and current (an ``apply`` built it
        and nothing has changed behind it), the report is read from the
        set that engine maintains — :meth:`DeltaEngine.ordered_violations`,
        the same list, without partitioning anything.  Otherwise the
        executor runs; a detect never builds the engine.
        """
        maintained = self._current_engine()
        if maintained is not None:
            maintained.stats.reports_served += 1
            return ViolationReport(maintained.ordered_violations())
        return ViolationReport(detect_violations(self._db, self._rules).violations)

    def is_clean(self) -> bool:
        """True iff the instance currently satisfies every rule (the
        maintained count when the engine is warm and current, else a
        detect)."""
        engine = self._current_engine()
        if engine is not None:
            return engine.is_clean()
        return self.detect().is_clean()

    # -- repair ----------------------------------------------------------

    def _value_rules(self) -> List[CFD]:
        return [
            rule if isinstance(rule, CFD) else fd_as_cfd(rule)
            for rule in self._rules
            if isinstance(rule, (CFD, FD))
        ]

    def repair(
        self,
        strategy: str = "u",
        *,
        max_passes: int = 25,
        cost_model: Optional["CostModel"] = None,
        limit: int = 100_000,
        adopt: bool = False,
    ) -> RepairReport:
        """Repair the instance under one of the paper's three models (§5.1).

        ``strategy`` selects the model: ``"u"`` — cost-based value
        modification over the FDs/CFDs in the rule set; ``"x"`` — greedy
        maximal consistent subset (tuple deletions); ``"s"`` — exact
        ⊆-minimal symmetric difference search (bounded by ``limit``), the
        lowest-cost repair found.  With ``adopt=True`` the session swaps to
        the repaired instance (and drops its engine state).
        """
        from repro.repair.srepair import all_s_repairs, symmetric_difference
        from repro.repair.urepair import repair_cfds
        from repro.repair.xrepair import greedy_x_repair

        passes: Optional[int] = None
        changes: Optional[Sequence[Any]] = None
        if strategy == "u":
            value_rules = self._value_rules()
            if not value_rules:
                raise RepairError(
                    "U-repair needs at least one FD or CFD in the rule set"
                )
            result = repair_cfds(
                self._db,
                value_rules,
                cost_model=cost_model,
                max_passes=max_passes,
            )
            repaired = result.repaired
            cost = result.cost
            changed = result.changed_cells()
            passes = result.passes
            changes = result.changes
        elif strategy == "x":
            repaired = greedy_x_repair(self._db, self._rules)
            changed = self._db.total_tuples() - repaired.total_tuples()
            cost = float(changed)
        elif strategy == "s":
            candidates = all_s_repairs(self._db, self._rules, limit=limit)
            if not candidates:
                raise RepairError("S-repair search found no consistent instance")
            diffed = [
                (symmetric_difference(self._db, c), c) for c in candidates
            ]
            diff, repaired = min(
                diffed, key=lambda pair: (len(pair[0]), sorted(map(repr, pair[0])))
            )
            changed = len(diff)
            cost = float(changed)
        else:
            raise RepairError(
                f"unknown repair strategy {strategy!r}; expected 'u', 'x' or 's'"
            )

        residual = ViolationReport(
            detect_violations(repaired, self._rules).violations
        )
        report = RepairReport(
            strategy,
            repaired,
            cost,
            changed,
            resolved=residual.is_clean(),
            residual=residual,
            passes=passes,
            changes=changes,
        )
        if adopt:
            self.swap_database(repaired)
        return report

    def swap_database(self, db: DatabaseInstance) -> None:
        """Make ``db`` the session's instance; the delta engine is rebuilt
        on next use.  ``repair(adopt=True)`` swaps in the repaired instance
        this way, and a server rolling a failed adopt back swaps the
        previous one back in."""
        self._db = db
        self._engine = None

    def discover(
        self,
        relation: Optional[str] = None,
        max_lhs: int = 2,
        min_support: int = 3,
        rhs_attributes: Optional[Sequence[str]] = None,
    ) -> List[DiscoveredCFD]:
        """Profile CFDs from the session's data (CTANE/CFDMiner-style)."""
        name = relation or self._single_relation_name()
        return discover_cfds(
            self._db.relation(name),
            max_lhs=max_lhs,
            min_support=min_support,
            rhs_attributes=rhs_attributes,
        )

    # -- incremental maintenance -----------------------------------------

    def apply(self, changeset: Changeset) -> ViolationDelta:
        """Apply a batch of edits through the delta engine; returns the
        added/removed violations plus the undo changeset.  Atomic: a failed
        batch leaves the rows as they were, and an engine whose rebuild
        then raised is dropped (a stale one is still reported)."""
        try:
            return self.engine.apply(changeset)
        except StaleEngineError:
            raise
        except BaseException:
            self._settle_engine()
            raise

    def _settle_engine(self) -> None:
        """:meth:`DeltaEngine.settle` the warm engine; one whose rebuild
        raises is half-built, so it is dropped and the next ``apply``
        builds a fresh one."""
        engine = self._engine
        if engine is not None:
            try:
                engine.settle()
            except Exception:
                self._engine = None

    def savepoint(self) -> "SessionSavepoint":
        """A :class:`Savepoint` over the session's database that keeps the
        delta engine right; see :class:`SessionSavepoint`."""
        return SessionSavepoint(self)

    def stream(
        self,
        config: Optional["StreamConfig"] = None,
        *,
        batches: Optional[Iterable[Changeset]] = None,
        verify: bool = False,
    ) -> "StreamReport":
        """Feed an edit stream through the delta engine, batch by batch.

        ``batches`` may be any iterable of changesets; by default a seeded
        random stream (:func:`repro.workloads.stream.stream_edits`) under
        ``config`` is generated against the live instance.  With
        ``verify=True`` every batch is cross-checked against full indexed
        re-detection — the engine's ordered read must equal the fresh
        report as a list, witness objects included (ReproError on
        divergence).  Returns a
        :class:`~repro.workloads.stream.StreamReport`.
        """
        import time

        from repro.engine.delta import violation_sequence
        from repro.engine.executor import detect_violations_indexed
        from repro.workloads.stream import (
            BatchResult,
            StreamConfig,
            StreamReport,
            stream_edits,
        )

        if batches is None:
            batches = stream_edits(self._db, config or StreamConfig())
        engine = self.engine
        results: List[BatchResult] = []
        for index, batch in enumerate(batches):
            started = time.perf_counter()  # repro: allow[REP001]
            delta = engine.apply(batch)
            # timings are opt-in diagnostics, excluded from the
            # byte-stable report surface
            elapsed = time.perf_counter() - started  # repro: allow[REP001]
            results.append(
                BatchResult(
                    index,
                    len(batch),
                    len(delta.added),
                    len(delta.removed),
                    delta.remaining,
                    elapsed,
                )
            )
            if verify:
                fresh = detect_violations_indexed(self._db, self._rules)
                maintained = violation_sequence(engine.ordered_violations())
                recomputed = violation_sequence(fresh.violations)
                if maintained != recomputed:
                    raise ReproError(
                        f"delta engine diverged from full re-detection at "
                        f"batch {index}: {len(maintained)} vs "
                        f"{len(recomputed)} violations"
                    )
        return StreamReport(results, verified=verify)

    # -- persistence -----------------------------------------------------

    def rules_documents(self) -> List[Dict[str, Any]]:
        """The rule set as registry documents (JSON-ready)."""
        from repro.rules_json import rules_to_list

        return rules_to_list(self._rules)

    def save_rules(self, path: Union[str, Path]) -> None:
        """Write the rule set as a rules JSON document."""
        Path(path).write_text(
            json.dumps(self.rules_documents(), indent=2, default=str) + "\n"
        )

    def schema_document(self) -> Dict[str, Any]:
        """The database schema as a schema JSON document."""
        from repro.rules_json import database_schema_to_dict, schema_to_dict

        names = self.schema.relation_names
        if len(names) == 1:
            return schema_to_dict(self.schema.relation(names[0]))
        return database_schema_to_dict(self.schema)

    def save_schema(self, path: Union[str, Path]) -> None:
        """Write the schema as a schema JSON document."""
        Path(path).write_text(
            json.dumps(self.schema_document(), indent=2, default=str) + "\n"
        )

    def save_data(
        self, path: Union[str, Path], relation: Optional[str] = None
    ) -> None:
        """Write one relation (default: the only one) as CSV."""
        name = relation or self._single_relation_name()
        dump_csv(self._db.relation(name), path)

    def data_documents(self) -> Dict[str, List[Dict[str, Any]]]:
        """Every relation's live rows as JSON-ready documents.

        ``{relation: [row mapping, ...]}`` in live insertion order — the
        same shape the server's session-creation endpoint accepts as
        inline ``data``, and what the durability layer snapshots.
        Rebuilding a relation by adding these rows in order reproduces
        the instance exactly (detection output is byte-identical).  Rows
        are read off the columns: no ``Tuple`` is built or cached.
        """
        return {rel.schema.name: list(rel.row_documents()) for rel in self._db}

    # -- helpers ---------------------------------------------------------

    def _single_relation_name(self) -> str:
        names = self.schema.relation_names
        if len(names) != 1:
            raise SchemaError(
                f"database has relations {list(names)}; name one explicitly"
            )
        return names[0]

    def __repr__(self) -> str:
        engine = "warm" if self._engine is not None else "cold"
        return (
            f"Session({self._db!r}, {len(self._rules)} rules, "
            f"engine={engine})"
        )


class SessionSavepoint(Savepoint):
    """A :class:`Savepoint` over a session's database that keeps the
    session's delta engine right: its rollback and its close (which runs
    the compaction it held) rebuild the engine iff rows moved under it
    (:meth:`DeltaEngine.settle`), and drop one whose rebuild raises."""

    __slots__ = ("_session",)

    def __init__(self, session: Session) -> None:
        super().__init__(session.database)
        self._session = session

    def rollback(self) -> None:
        super().rollback()
        self._session._settle_engine()

    def close(self) -> None:
        super().close()
        self._session._settle_engine()
