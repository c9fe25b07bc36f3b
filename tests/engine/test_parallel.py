"""Unit tests for the sharded parallel execution engine.

The differential corpus (``test_differential.py``) and the hypothesis
properties (``test_parallel_properties.py``) pin the parallel paths to
their serial twins in bulk; this module covers the machinery itself —
stable shard assignment, environment resolution, job accounting, the
process-pool path, and the serial fallbacks for non-decomposable work.
"""

from __future__ import annotations

import pytest

from repro.cfd.model import CFD, UNNAMED
from repro.deps.denial import DenialConstraint
from repro.deps.fd import FD
from repro.deps.ind import IND
from repro.engine.delta import Changeset, DeltaEngine, violation_multiset
from repro.engine.executor import detect_violations_indexed
from repro.engine.parallel import (
    ParallelExecutor,
    default_shards,
    detect_violations_parallel,
    resolve_shards,
    stable_shard,
)
from repro.relational.domains import STRING
from repro.relational.instance import DatabaseInstance
from repro.relational.predicates import And, Comparison
from repro.relational.schema import DatabaseSchema, RelationSchema


def _schema() -> DatabaseSchema:
    return DatabaseSchema(
        [
            RelationSchema("R", [("A", STRING), ("B", STRING)]),
            RelationSchema("S", [("X", STRING)]),
        ]
    )


def _db(r_rows=(), s_rows=()) -> DatabaseInstance:
    db = DatabaseInstance(_schema())
    for row in r_rows:
        db.relation("R").add(row)
    for row in s_rows:
        db.relation("S").add(row)
    return db


class TestStableShard:
    def test_deterministic_and_in_range(self):
        keys = [("a",), ("a", "b"), (1, 2.5), (None,), ("a", None, 3)]
        for key in keys:
            for shards in (1, 2, 3, 8, 64):
                shard = stable_shard(key, shards)
                assert 0 <= shard < shards
                assert shard == stable_shard(key, shards)  # stable across calls

    def test_single_shard_short_circuits(self):
        assert stable_shard(("anything",), 1) == 0

    def test_spreads_keys(self):
        shards = {stable_shard((f"k{i}",), 8) for i in range(100)}
        assert len(shards) > 1  # not everything hashes to one shard

    def test_congruent_with_dict_key_equality(self):
        # Partition keys are dict keys: 1 == 1.0 == True and 0.0 == -0.0,
        # so equal keys must land in the same shard even when reprs differ.
        for shards in (2, 3, 8):
            assert stable_shard((1,), shards) == stable_shard((1.0,), shards)
            assert stable_shard((1,), shards) == stable_shard((True,), shards)
            assert stable_shard((0.0,), shards) == stable_shard((-0.0,), shards)
            assert stable_shard((0,), shards) == stable_shard((False,), shards)
        # ...while the string "1" is a different key from the number 1
        # (allowed to differ; asserting documents the type tagging)
        assert isinstance(stable_shard(("1",), 8), int)

    def test_mixed_numeric_representations_detect_equally(self):
        # Regression: repr-based sharding split the logical partition
        # {A: 1} across shards when rows carried int 1 and float 1.0,
        # hiding FD pair violations and fabricating IND violations.
        from repro.relational.domains import FLOAT

        schema = DatabaseSchema(
            [
                RelationSchema("R", [("A", FLOAT), ("B", STRING)]),
                RelationSchema("S", [("X", FLOAT)]),
            ]
        )
        db = DatabaseInstance(schema)
        db.relation("R").add((1, "x"))
        db.relation("R").add((1.0, "y"))  # same A-partition as int 1
        db.relation("R").add((2.5, "z"))
        db.relation("S").add((1.0,))  # provides the key for int 1 demands
        deps = [FD("R", ["A"], ["B"]), IND("R", ["A"], "S", ["X"])]
        serial = violation_multiset(detect_violations_indexed(db, deps).violations)
        for shards in (2, 3, 8):
            report = detect_violations_parallel(
                db, deps, shards=shards, use_pool=False
            )
            assert violation_multiset(report.violations) == serial, shards
            engine = DeltaEngine(db.copy(), deps, shards=shards)
            assert violation_multiset(engine.violations()) == serial, shards


class TestResolveShards:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEFAULT_SHARDS", "7")
        assert resolve_shards(3) == 3

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEFAULT_SHARDS", "4")
        assert resolve_shards(None) == 4
        assert default_shards() == 4

    def test_unset_and_garbage_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEFAULT_SHARDS", raising=False)
        assert resolve_shards(None) == 1
        monkeypatch.setenv("REPRO_DEFAULT_SHARDS", "not-a-number")
        assert resolve_shards(None) == 1

    def test_invalid_explicit_count(self):
        with pytest.raises(ValueError):
            resolve_shards(0)


def _mixed_case():
    db = _db(
        r_rows=[("a", "b"), ("a", "c"), ("d", "b"), ("e", "x")],
        s_rows=[("a",), ("d",)],
    )
    deps = [
        FD("R", ["A"], ["B"]),
        CFD("R", ["A"], ["B"], [{"A": "a", "B": "b"}, {"A": UNNAMED, "B": UNNAMED}]),
        IND("R", ["A"], "S", ["X"]),
        DenialConstraint(
            ("R",), And([Comparison("@t0.A", "=", "e")]), name="deny-e"
        ),
    ]
    return db, deps


class TestParallelExecutor:
    def test_stats_account_for_jobs_and_serial_work(self):
        db, deps = _mixed_case()
        executor = ParallelExecutor(shards=3, use_pool=False)
        report = executor.detect(db, deps)
        stats = executor.stats
        assert stats.shards == 3
        assert stats.pool_workers == 0  # inline run
        # FD+CFD share one scan group: 3 shard jobs; IND: 3 shard jobs.
        assert stats.scan_jobs == 3
        assert stats.inclusion_jobs == 3
        assert stats.serial_deps == 1  # the denial constraint
        assert report.total == len(
            detect_violations_indexed(db, deps).violations
        )

    def test_pool_path_matches_inline(self):
        db, deps = _mixed_case()
        inline = detect_violations_parallel(db, deps, shards=4, use_pool=False)
        executor = ParallelExecutor(shards=4, workers=2, use_pool=True)
        pooled = executor.detect(db, deps)
        assert executor.stats.pool_workers == 2
        assert violation_multiset(pooled.violations) == violation_multiset(
            inline.violations
        )
        # rebound violations reference the caller's dependency objects
        assert {id(v.dependency) for v in pooled.violations} <= {
            id(dep) for dep in deps
        }

    def test_self_inclusion_runs_serially(self):
        schema = DatabaseSchema(
            [RelationSchema("R", [("A", STRING), ("B", STRING)])]
        )
        db = DatabaseInstance(schema)
        for row in [("a", "b"), ("b", "c"), ("x", "y")]:
            db.relation("R").add(row)
        dep = IND("R", ["B"], "R", ["A"])  # every B value must appear as an A
        executor = ParallelExecutor(shards=4, use_pool=False)
        report = executor.detect(db, [dep])
        assert executor.stats.serial_deps == 1
        assert executor.stats.inclusion_jobs == 0
        assert violation_multiset(report.violations) == violation_multiset(
            detect_violations_indexed(db, [dep]).violations
        )

    def test_empty_database(self):
        _, deps = _mixed_case()
        report = detect_violations_parallel(_db(), deps, shards=4, use_pool=False)
        assert report.total == 0

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ParallelExecutor(shards=2, workers=0)


class TestShardedDeltaEngine:
    def test_engine_exposes_shard_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEFAULT_SHARDS", raising=False)
        db, deps = _mixed_case()
        assert DeltaEngine(db.copy(), deps).shards == 1
        assert DeltaEngine(db.copy(), deps, shards=5).shards == 5

    def test_env_default_shards(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEFAULT_SHARDS", "3")
        db, deps = _mixed_case()
        engine = DeltaEngine(db, deps)
        assert engine.shards == 3
        assert violation_multiset(engine.violations()) == violation_multiset(
            detect_violations_indexed(db, deps).violations
        )

    def test_partitions_merge_across_shards(self):
        db, deps = _mixed_case()
        serial = DeltaEngine(db.copy(), deps)
        sharded = DeltaEngine(db.copy(), deps, shards=4)
        signature = ("A",)
        keys = {(t["A"],) for t in db.relation("R")}
        assert len(keys) > 1
        for key in keys:
            members = serial.partition("R", signature, key)
            assert members and sharded.partition("R", signature, key) == members
        assert sharded.partition("R", signature, ("no such key",)) == []

    def test_refresh_preserves_shard_count(self):
        db, deps = _mixed_case()
        engine = DeltaEngine(db, deps, shards=4)
        db.relation("R").add(("z", "z"))  # behind the engine's back
        engine.refresh()
        assert engine.shards == 4
        assert violation_multiset(engine.violations()) == violation_multiset(
            detect_violations_indexed(db, deps).violations
        )


class TestSessionKnobs:
    def test_session_parallel_executor_and_shards(self):
        from repro.session import Session

        db, deps = _mixed_case()
        session = Session.from_instance(
            db, deps, executor="parallel", shards=4
        )
        assert session.shards == 4
        report = session.detect()
        assert violation_multiset(report.violations) == violation_multiset(
            detect_violations_indexed(db, deps).violations
        )
        assert session.engine.shards == 4

    def test_session_rejects_unknown_executor(self):
        from repro.errors import ReproError
        from repro.session import Session

        db, _ = _mixed_case()
        with pytest.raises(ReproError):
            Session.from_instance(db, executor="mapreduce")

    def test_detect_call_level_override(self):
        from repro.session import Session

        db, deps = _mixed_case()
        session = Session.from_instance(db, deps)  # indexed by default
        serial = session.detect()
        overridden = session.detect(executor="parallel", shards=3)
        assert violation_multiset(overridden.violations) == violation_multiset(
            serial.violations
        )

    def test_detect_shards_alone_implies_parallel(self):
        from repro.errors import ReproError
        from repro.session import Session

        db, deps = _mixed_case()
        session = Session.from_instance(db, deps)  # indexed by default
        serial = session.detect()
        # shards= alone opts the call into the parallel engine (CLI parity)
        sharded = session.detect(shards=4)
        assert violation_multiset(sharded.violations) == violation_multiset(
            serial.violations
        )
        # ...but contradicting an explicit non-parallel executor is an error
        with pytest.raises(ReproError):
            session.detect(executor="indexed", shards=4)
        with pytest.raises(ReproError):
            session.detect(engine=False, shards=4)

    def test_session_reuses_warm_parallel_executor(self):
        from repro.session import Session

        db, deps = _mixed_case()
        with Session.from_instance(
            db, deps, executor="parallel", shards=3
        ) as session:
            first = session.detect()
            executor = session._parallel
            assert executor is not None
            second = session.detect()
            assert session._parallel is executor  # cached across calls
            assert violation_multiset(first.violations) == violation_multiset(
                second.violations
            )
            # mutating the instance invalidates the executor's fingerprint
            session.apply(Changeset().insert("R", ("q", "q")))
            third = session.detect()
            assert violation_multiset(third.violations) == violation_multiset(
                detect_violations_indexed(db, deps).violations
            )
        assert session._parallel is None  # close() released it
