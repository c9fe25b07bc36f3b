"""The Session facade: one API over detect / repair / discover / stream.

The acceptance bar for the facade is *exact* agreement with the free
functions it fronts: ``Session.detect()``, ``Session.apply()`` /
``Session.stream()`` and ``Session.repair()`` are pinned against
``detect_violations`` / ``DeltaEngine`` / ``repair_cfds`` over the same
220-seed corpus the engine differential harness uses.
"""

from __future__ import annotations

import gc
import json
import random
import weakref

import pytest

from repro.cfd.detect import detect_violations
from repro.cfd.model import CFD
from repro.deps.fd import FD
from repro.engine.delta import (
    Changeset,
    DeltaEngine,
    StaleEngineError,
    violation_multiset,
    violation_sequence,
)
from repro.engine.executor import detect_violations_indexed
from repro.errors import RepairError, ReproError, SchemaError
from repro.paper import fig1_instance, fig2_cfds
from repro.repair.urepair import repair_cfds
from repro.session import RepairReport, Session, ViolationReport

from tests.engine.test_delta import RaisingCheck
from tests.engine.test_differential import (
    N_CASES,
    _random_batch,
    _random_dependencies,
    _random_instance,
    _random_schema,
)


def _case(seed: int):
    rng = random.Random(10_000 + seed)
    schema = _random_schema(rng)
    db = _random_instance(schema, rng)
    deps = _random_dependencies(schema, rng)
    return rng, db, deps


class TestDetectDifferential:
    def test_detect_matches_free_function_on_corpus(self):
        """Session.detect == detect_violations over all 220 corpus seeds."""
        for seed in range(N_CASES):
            _, db, deps = _case(seed)
            session = Session.from_instance(db, deps)
            facade = session.detect()
            free = detect_violations(db, deps)
            assert violation_multiset(facade.violations) == violation_multiset(
                free.violations
            ), f"seed={seed}"
            assert isinstance(facade, ViolationReport)

    def test_apply_matches_delta_engine_on_corpus(self):
        """Session.apply == DeltaEngine.apply batch by batch (mirrored)."""
        for seed in range(0, N_CASES, 2):
            rng, db, deps = _case(seed)
            mirror = db.copy()
            session = Session.from_instance(db, deps)
            reference = DeltaEngine(mirror, deps)
            for batch_index in range(rng.randrange(1, 4)):
                batch = _random_batch(db, rng)
                facade_delta = session.apply(batch)
                reference_delta = reference.apply(batch)
                context = f"seed={seed} batch={batch_index}"
                assert facade_delta.remaining == reference_delta.remaining, context
                assert violation_multiset(
                    facade_delta.added
                ) == violation_multiset(reference_delta.added), context
                assert violation_multiset(
                    facade_delta.removed
                ) == violation_multiset(reference_delta.removed), context


class TestRepairDifferential:
    def test_u_repair_matches_free_function_on_corpus(self):
        """Session.repair('u') == repair_cfds on every corpus case that has
        at least one FD/CFD (the classes U-repair consumes)."""
        compared = 0
        for seed in range(N_CASES):
            _, db, deps = _case(seed)
            value_rules = [
                d for d in deps if isinstance(d, (FD, CFD))
            ]
            if not value_rules:
                continue
            session = Session.from_instance(db.copy(), deps)
            report = session.repair(strategy="u", max_passes=5)
            free = repair_cfds(
                db.copy(), session._value_rules(), max_passes=5
            )
            context = f"seed={seed}"
            assert report.repaired == free.repaired, context
            assert report.cost == pytest.approx(free.cost), context
            assert report.changed == free.changed_cells(), context
            assert report.passes == free.passes, context
            compared += 1
        assert compared >= 100  # the corpus is FD/CFD-heavy


class TestStreamDifferential:
    def test_stream_accepts_explicit_batches(self):
        db = fig1_instance()
        rules = list(fig2_cfds().values())
        session = Session.from_instance(db, rules)
        t = db.relation("customer").tuples()[0]
        report = session.stream(
            batches=[Changeset().delete("customer", t)], verify=True
        )
        assert len(report.batches) == 1
        assert report.batches[0].edits == 1
        assert report.verified


class TestRepairStrategies:
    def test_u_repair_report_fields(self):
        session = Session.from_instance(fig1_instance(), list(fig2_cfds().values()))
        report = session.repair(strategy="u")
        assert isinstance(report, RepairReport)
        assert report.resolved and report.residual.is_clean()
        assert report.passes >= 1
        assert report.cost > 0 and report.changed == len(report.changes)
        assert report.to_dict()["residual_violations"] == 0

    def test_x_repair_deletes_tuples(self):
        session = Session.from_instance(fig1_instance(), list(fig2_cfds().values()))
        before = session.database.total_tuples()
        report = session.repair(strategy="x")
        assert report.resolved
        assert report.repaired.total_tuples() == before - report.changed
        # the session still owns the unrepaired instance
        assert session.database.total_tuples() == before

    def test_s_repair_minimal_on_small_case(self):
        session = Session.from_instance(fig1_instance(), list(fig2_cfds().values()))
        report = session.repair(strategy="s", limit=50_000)
        assert report.resolved
        assert report.changed == report.cost

    def test_adopt_swaps_the_instance(self):
        session = Session.from_instance(fig1_instance(), list(fig2_cfds().values()))
        assert not session.is_clean()
        report = session.repair(strategy="u", adopt=True)
        assert session.database is report.repaired
        assert session.is_clean()

    def test_unknown_strategy_rejected(self):
        session = Session.from_instance(fig1_instance(), list(fig2_cfds().values()))
        with pytest.raises(RepairError):
            session.repair(strategy="z")

    def test_u_repair_needs_value_rules(self):
        session = Session.from_instance(fig1_instance(), [])
        with pytest.raises(RepairError):
            session.repair(strategy="u")


class TestLifecycle:
    def test_detect_report_to_dict(self):
        session = Session.from_instance(fig1_instance(), list(fig2_cfds().values()))
        document = session.detect().to_dict()
        assert document["total"] == 4
        assert set(document) >= {"per_dependency", "violations", "single_tuple"}
        assert all("reason" in v and "tuples" in v for v in document["violations"])
        json.dumps(document, default=str)  # JSON-ready

    @pytest.mark.parametrize("executor", ["mapreduce", "parallel", "naive"])
    def test_session_rejects_unknown_executor(self, executor):
        # detection has one path: "indexed" is the only name a session
        # takes, and a retired one ("parallel" named the sharded engine,
        # "naive" the per-dependency loop) is refused by name — in the
        # one text every layer shares
        from repro.engine.config import check_executor

        with pytest.raises(ReproError) as shared:
            check_executor(executor)
        named = {
            "mapreduce": "executor 'mapreduce' is unknown",
            "parallel": "executor 'parallel' was removed with the sharded engine",
            "naive": "executor 'naive' was removed: detection has one path",
        }
        assert str(shared.value).startswith(named[executor])
        for refused in (
            lambda: Session(fig1_instance(), executor=executor),
            lambda: Session.from_instance(fig1_instance(), executor=executor),
        ):
            with pytest.raises(ReproError) as err:
                refused()
            assert str(err.value) == str(shared.value)
        kept = Session.from_instance(fig1_instance(), executor="indexed")
        assert kept.detect().total == 0

    def test_engine_is_lazy_and_cached(self):
        session = Session.from_instance(fig1_instance(), list(fig2_cfds().values()))
        assert session._engine is None
        engine = session.engine
        assert session.engine is engine
        session.add_rules(FD("customer", ["zip"], ["street"]))
        assert session._engine is None  # rebuilt on next use
        assert len(session.engine.dependencies) == 4

    def test_apply_undo_round_trip(self):
        session = Session.from_instance(fig1_instance(), list(fig2_cfds().values()))
        before = session.engine.total_violations()
        t = session.database.relation("customer").tuples()[0]
        delta = session.apply(Changeset().delete("customer", t))
        session.apply(delta.undo)
        assert session.engine.total_violations() == before

    def test_a_rebuild_that_raises_drops_the_engine(self):
        """A failed apply whose rebuild raises too would leave a half-built
        engine that answers every later apply with ``StaleEngineError``;
        the session drops it, the rows are back, and the next apply builds
        a fresh one."""
        db = fig1_instance()
        check = RaisingCheck("customer")
        session = Session.from_instance(db, list(fig2_cfds().values()) + [check])
        relation = db.relation("customer")
        session.apply(Changeset().delete("customer", relation.tuples()[-1]))
        rows = relation.tuples()
        report = violation_sequence(session.detect().violations)
        check.failures = 99  # the maintenance and every rebuild after it
        with pytest.raises(RuntimeError):
            session.apply(Changeset().delete("customer", rows[0]))
        assert session.warm_engine is None
        assert all(a is b for a, b in zip(relation.tuples(), rows, strict=True))
        check.failures = 0
        assert violation_sequence(session.detect().violations) == report
        session.apply(Changeset().delete("customer", rows[1]))
        assert session.warm_engine.is_current()
        assert violation_sequence(session.detect().violations) == violation_sequence(
            detect_violations(db, session.rules).violations
        )

    def test_close_lets_a_dropped_session_take_its_data_along(self):
        """A relation and its index cache point at each other; ``close()``
        cuts that, so an evicted or deleted session's rows are freed with
        it — not whenever the cyclic collector next runs (a server's peak
        RSS is two sessions high otherwise)."""
        db = fig1_instance()
        session = Session.from_instance(db, list(fig2_cfds().values()))
        t = db.relation("customer").tuples()[0]
        session.detect()
        session.apply(Changeset().delete("customer", t))
        relation = weakref.ref(db.relation("customer"))
        gc.collect()
        gc.disable()
        try:
            session.close()
            assert session.detect().total >= 0  # still usable: caches rebuild
            session.close()
            del session, db
            assert relation() is None
        finally:
            gc.enable()

    def test_save_and_reload_round_trip(self, tmp_path):
        session = Session.from_instance(fig1_instance(), list(fig2_cfds().values()))
        schema_path = tmp_path / "schema.json"
        rules_path = tmp_path / "rules.json"
        data_path = tmp_path / "customer.csv"
        session.save_schema(schema_path)
        session.save_rules(rules_path)
        session.save_data(data_path)
        reloaded = Session.from_files(schema_path, rules_path, data_path)
        # rule objects are reparsed, so compare reasons, not identities
        assert sorted(v.reason for v in reloaded.detect().violations) == sorted(
            v.reason for v in session.detect().violations
        )
        assert reloaded.rules_documents() == session.rules_documents()

    def test_from_files_single_path_needs_single_relation(self, tmp_path):
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(
            json.dumps(
                {
                    "relations": [
                        {"name": "a", "attributes": [{"name": "x"}]},
                        {"name": "b", "attributes": [{"name": "y"}]},
                    ]
                }
            )
        )
        data = tmp_path / "a.csv"
        data.write_text("x\n1\n")
        with pytest.raises(SchemaError):
            Session.from_files(schema_path, None, data)

    def test_discover_delegates(self):
        session = Session.from_instance(fig1_instance())
        found = session.discover(max_lhs=1, min_support=2)
        assert found and all(d.cfd.relation_name == "customer" for d in found)


class TestMaintainedReads:
    """``detect`` / ``is_clean`` read the delta engine's maintained set iff
    the engine is warm and current; nothing else is ever consulted, and a
    read never builds the engine."""

    @staticmethod
    def _customers(n=300, error_rate=0.0):
        from repro.workloads.customer import CustomerConfig, generate_customers

        generated = generate_customers(
            CustomerConfig(n_tuples=n, error_rate=error_rate, seed=11)
        )
        return Session.from_instance(generated.db, generated.cfds())

    @staticmethod
    def _breaking_row(session):
        """A new row that breaks cfd-area-city (city constant) and cfd-f2
        (differs from its (CC, AC) group's first row)."""
        first = session.database.relation("customer").tuples()[0]
        wrong = "NYC" if first["city"] != "NYC" else "EDI"
        return first.replace(city=wrong, phn=1)

    @staticmethod
    def _count_executions(monkeypatch):
        from repro.engine import executor

        calls = []
        run = executor.execute_plan

        def counted(*args, **kwargs):
            calls.append(1)
            return run(*args, **kwargs)

        monkeypatch.setattr(executor, "execute_plan", counted)
        return calls

    def test_is_clean_never_answers_from_a_stale_engine(self):
        session = self._customers()
        assert session.is_clean()
        engine = session.engine
        assert session.is_clean()
        session.database.relation("customer").add(self._breaking_row(session))
        assert not engine.is_current()
        assert session.detect().total == 2
        assert not session.is_clean()
        # the stale engine is apply's to report, as before
        with pytest.raises(StaleEngineError):
            session.apply(Changeset())
        assert engine.stats.reports_served == 0

    def test_foreign_rules_engine_is_not_consulted(self, monkeypatch):
        session = self._customers()
        relation = session.database.relation("customer")
        relation.add(self._breaking_row(session))
        other_rules = [FD("customer", ["zip"], ["zip"])]
        foreign = DeltaEngine(session.database, other_rules)
        assert foreign.is_clean()
        adopted = Session(session.database, session.rules, engine=foreign)
        calls = self._count_executions(monkeypatch)
        assert adopted.detect().total == 2 and len(calls) == 1
        assert not adopted.is_clean() and len(calls) == 2
        assert foreign.stats.reports_served == 0

    def test_warm_detect_reads_the_maintained_set(self, monkeypatch):
        session = self._customers(error_rate=0.05)
        relation = session.database.relation("customer")
        cold = session.detect()
        assert cold.total > 0 and not session.has_warm_engine
        victim = relation.tuples()[0]  # a group's pivot row
        delta = session.apply(Changeset().delete("customer", victim))
        calls = self._count_executions(monkeypatch)
        builds = relation.indexes.stats.builds
        warm = session.detect()
        assert len(calls) == 0 and relation.indexes.stats.builds == builds
        assert session.engine.stats.reports_served == 1
        assert violation_sequence(warm.violations) == violation_sequence(
            detect_violations_indexed(session.database, session.rules).violations
        )
        session.apply(delta.undo)
        assert session.detect().total == cold.total
        assert len(calls) == 1  # only the reference run above
        assert session.engine.stats.reports_served == 2

    def test_overrides_never_take_the_maintained_path(self, monkeypatch):
        session = self._customers(error_rate=0.05)
        engine = session.engine
        total = engine.total_violations()
        served = []
        read = DeltaEngine.ordered_violations
        monkeypatch.setattr(
            DeltaEngine,
            "ordered_violations",
            lambda self: served.append(1) or read(self),
        )
        # detect() takes no selection: every old spelling of one is a
        # TypeError before anything is read
        for override in ({"executor": "naive"}, {"executor": "indexed"}, {"engine": False}):
            with pytest.raises(TypeError):
                session.detect(**override)
        assert not served and engine.stats.reports_served == 0
        assert session.detect().total == total
        assert len(served) == 1

    def test_dropped_engine_means_one_executor_run(self, monkeypatch):
        session = self._customers(error_rate=0.05)
        session.apply(Changeset())
        calls = self._count_executions(monkeypatch)
        session.detect()
        assert len(calls) == 0
        session.replace_rules(session.rules)
        session.detect()
        assert len(calls) == 1 and not session.has_warm_engine
        session.apply(Changeset())
        session.detect()
        assert len(calls) == 1
        session.repair(strategy="u", adopt=True)  # its residual is one run
        before = len(calls)
        session.detect()
        assert len(calls) == before + 1 and not session.has_warm_engine
