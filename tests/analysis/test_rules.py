"""Per-rule fixture corpus: one triggering and one clean snippet each."""

from __future__ import annotations


# -- REP001 determinism ----------------------------------------------------


def test_rep001_flags_set_iteration_in_engine(tree):
    tree.write(
        "repro/engine/bad.py",
        """
        def emit(rows):
            out = []
            for row in {r for r in rows}:
                out.append(row)
            return out
        """,
    )
    assert "REP001" in tree.codes()


def test_rep001_sorted_set_iteration_is_clean(tree):
    tree.write(
        "repro/engine/good.py",
        """
        def emit(rows):
            out = []
            for row in sorted({r for r in rows}):
                out.append(row)
            return out
        """,
    )
    assert tree.codes() == []


def test_rep001_flags_dict_keys_iteration(tree):
    tree.write(
        "repro/relational/bad.py",
        """
        def names(columns):
            return [k for k in columns.keys()]
        """,
    )
    assert "REP001" in tree.codes()


def test_rep001_flags_unsorted_glob(tree):
    tree.write(
        "repro/engine/loader.py",
        """
        def load(directory):
            return [p.name for p in directory.glob("*.csv")]
        """,
    )
    findings = tree.by_code()["REP001"]
    assert any("glob" in f.message for f in findings)


def test_rep001_sorted_glob_is_clean(tree):
    tree.write(
        "repro/engine/loader.py",
        """
        def load(directory):
            return [p.name for p in sorted(directory.glob("*.csv"))]
        """,
    )
    assert tree.codes() == []


def test_rep001_flags_membership_against_rebuilt_set(tree):
    tree.write(
        "repro/deps/bad.py",
        """
        def shared(left, right):
            return [a for a in left if a in set(right)]
        """,
    )
    findings = tree.by_code()["REP001"]
    assert any("rebuilt" in f.message for f in findings)


def test_rep001_hoisted_membership_set_is_clean(tree):
    tree.write(
        "repro/deps/good.py",
        """
        def shared(left, right):
            members = set(right)
            return [a for a in left if a in members]
        """,
    )
    assert tree.codes() == []


def test_rep001_flags_clock_and_hash_in_engine(tree):
    tree.write(
        "repro/engine/clocky.py",
        """
        import time


        def stamp(name):
            return (time.time(), hash(name))
        """,
    )
    findings = tree.by_code()["REP001"]
    assert any("time.time" in f.message for f in findings)
    assert any("hash()" in f.message for f in findings)


def test_rep001_hash_inside_dunder_hash_is_clean(tree):
    tree.write(
        "repro/relational/hashy.py",
        """
        class Key:
            def __init__(self, parts):
                self._parts = parts

            def __hash__(self):
                return hash(self._parts)
        """,
    )
    assert tree.codes() == []


def test_rep001_workloads_are_exempt(tree):
    tree.write(
        "repro/workloads/gen.py",
        """
        import random


        def noise(rows):
            for row in {r for r in rows}:
                yield random.random()
        """,
    )
    assert tree.codes() == []


# -- REP002 lock discipline ------------------------------------------------


def test_rep002_flags_unlocked_mutation(tree):
    tree.write(
        "repro/server/manager.py",
        """
        class SessionManager:
            def evict(self, session_id):
                self._sessions.pop(session_id, None)
                self.evicted_total += 1
        """,
    )
    assert tree.codes().count("REP002") == 2


def test_rep002_with_lock_scope_is_clean(tree):
    tree.write(
        "repro/server/manager.py",
        """
        class SessionManager:
            def evict(self, session_id):
                with self._lock:
                    self._sessions.pop(session_id, None)
                    self.evicted_total += 1
        """,
    )
    assert tree.codes() == []


def test_rep002_lock_held_marker_is_clean(tree):
    tree.write(
        "repro/server/manager.py",
        """
        class SessionManager:
            # repro: lock-held — callers own self._lock
            def evict_locked(self, session_id):
                self._sessions.pop(session_id, None)
        """,
    )
    assert tree.codes() == []


def test_rep002_init_is_exempt(tree):
    tree.write(
        "repro/server/manager.py",
        """
        class SessionManager:
            def __init__(self):
                self._sessions = {}
                self.evicted_total = 0
        """,
    )
    assert tree.codes() == []


# -- REP003 durability ordering --------------------------------------------


def test_rep003_flags_handler_without_persist(tree):
    tree.write(
        "repro/server/hosting.py",
        """
        class HostedSession:
            # repro: lock-held
            def apply(self, changeset):
                delta = self.session.apply(changeset)
                token = self.remember_undo(delta.undo)
                return delta, token
        """,
    )
    findings = tree.by_code()["REP003"]
    assert any("never writes the journal" in f.message for f in findings)


def test_rep003_flags_mutation_after_last_persist(tree):
    tree.write(
        "repro/server/hosting.py",
        """
        class HostedSession:
            # repro: lock-held
            def apply(self, changeset):
                delta = self.session.apply(changeset)
                try:
                    self.journal.log_apply(changeset.to_dict(), "t")
                except BaseException:
                    raise
                token = self.remember_undo(delta.undo)
                return delta, token
        """,
    )
    findings = tree.by_code()["REP003"]
    assert any("after the last journal write" in f.message for f in findings)


def test_rep003_flags_unguarded_persist(tree):
    tree.write(
        "repro/server/hosting.py",
        """
        class HostedSession:
            # repro: lock-held
            def apply(self, changeset):
                delta = self.session.apply(changeset)
                token = self.remember_undo(delta.undo)
                self.journal.log_apply(changeset.to_dict(), token)
                return delta, token
        """,
    )
    findings = tree.by_code()["REP003"]
    assert any("re-raises" in f.message for f in findings)


def test_rep003_flags_unguarded_adopt_snapshot(tree):
    """A snapshot is the journal write of an adopt, and is guarded like
    any other: an adopt that cannot roll back acknowledges nothing."""
    tree.write(
        "repro/server/hosting.py",
        """
        class HostedSession:
            # repro: lock-held
            def repair(self, strategy, adopt):
                report = self.session.repair(strategy, adopt=adopt)
                self.clear_undo()
                self.persist_snapshot()
                return report
        """,
    )
    findings = tree.by_code()["REP003"]
    assert any("re-raises" in f.message for f in findings)


def test_rep003_canonical_handler_shape_is_clean(tree):
    tree.write(
        "repro/server/hosting.py",
        """
        class HostedSession:
            # repro: lock-held
            def apply(self, changeset):
                saved = self.undo_state()
                delta = self.session.apply(changeset)
                token = self.remember_undo(delta.undo)
                try:
                    self._journal(
                        lambda journal: journal.log_apply(changeset, token)
                    )
                except BaseException:
                    self.session.apply(delta.undo)
                    self.restore_undo_state(saved)
                    raise
                return delta, token

            # repro: lock-held
            def repair(self, strategy, adopt):
                if not adopt:
                    return self.session.repair(strategy)
                previous = self.session.database
                report = self.session.repair(strategy, adopt=True)
                try:
                    self.persist_snapshot()
                except BaseException:
                    self.session.swap_database(previous)
                    raise
                return report
        """,
    )
    assert "REP003" not in tree.codes()


def test_rep003_flags_handler_mutating_the_session_itself(tree):
    tree.write(
        "repro/server/core.py",
        """
        def _handle_apply(hosted, body):
            delta = hosted.session.apply(body)
            return 200, {"remaining": delta.remaining}


        def _handle_undo(hosted, body):
            hosted.consume_undo(body["token"])
            return 200, {}


        def _handle_repair(hosted, body):
            report = hosted.session.repair(adopt=body["adopt"])
            return 200, report.to_dict()
        """,
    )
    findings = tree.by_code()["REP003"]
    assert len(findings) == 3
    assert all("itself" in f.message for f in findings)


def test_rep003_handler_calling_the_write_path_is_clean(tree):
    tree.write(
        "repro/server/core.py",
        """
        def _handle_apply(hosted, body):
            delta, token = hosted.apply(body)
            return 200, {"undo_token": token}


        def _handle_repair(hosted, body):
            if body.get("adopt"):
                report = hosted.repair("u", True)
            else:
                report = hosted.session.repair("u", adopt=False)
            return 200, report.to_dict()
        """,
    )
    assert "REP003" not in tree.codes()


def test_rep003_flags_raw_write_bypassing_journal(tree):
    tree.write(
        "repro/server/sneaky.py",
        """
        import os
        import shutil


        def stash(path, payload, root):
            path.write_text(payload)
            shutil.rmtree(root)
            os.remove(path)
            with open(path, "w") as handle:
                handle.write(payload)
        """,
    )
    assert tree.codes().count("REP003") == 4


def test_rep003_durability_module_itself_may_write(tree):
    tree.write(
        "repro/server/durability.py",
        """
        def write_snapshot(path, payload):
            path.write_text(payload)
        """,
    )
    assert "REP003" not in tree.codes()


def test_rep003_non_fs_remove_and_read_open_are_clean(tree):
    tree.write(
        "repro/server/ok.py",
        """
        def close(manager, session_id, path):
            manager.remove(session_id)
            with open(path) as handle:
                return handle.read()
        """,
    )
    assert "REP003" not in tree.codes()


# -- REP004 registry completeness ------------------------------------------


def test_rep004_flags_unregistered_concrete_dependency(tree):
    tree.write(
        "repro/deps/base.py",
        """
        from abc import ABC, abstractmethod


        class Dependency(ABC):
            @abstractmethod
            def violations(self):
                ...
        """,
    )
    tree.write(
        "repro/deps/orphan.py",
        """
        from repro.deps.base import Dependency


        class OrphanConstraint(Dependency):
            def violations(self):
                return []
        """,
    )
    findings = tree.by_code()["REP004"]
    assert any("OrphanConstraint" in f.message for f in findings)


def test_rep004_registered_subclass_is_clean(tree):
    tree.write(
        "repro/deps/base.py",
        """
        from abc import ABC, abstractmethod


        class Dependency(ABC):
            @abstractmethod
            def violations(self):
                ...


        class FD(Dependency):
            def violations(self):
                return []
        """,
    )
    tree.write(
        "repro/registry.py",
        """
        from repro.deps.base import FD


        class ConstraintCodec:
            def __init__(self, tag, cls, to_dict, from_dict):
                self.tag = tag
                self.cls = cls


        CODEC = ConstraintCodec("fd", FD, None, None)
        """,
    )
    assert "REP004" not in tree.codes()


def test_rep004_abstract_intermediate_is_exempt(tree):
    tree.write(
        "repro/deps/base.py",
        """
        from abc import ABC, abstractmethod


        class Dependency(ABC):
            @abstractmethod
            def violations(self):
                ...


        class Conditional(Dependency):
            @abstractmethod
            def tableau(self):
                ...
        """,
    )
    assert "REP004" not in tree.codes()


# -- REP006 exception hygiene ----------------------------------------------


def test_rep006_flags_bare_except(tree):
    tree.write(
        "repro/engine/swallow.py",
        """
        def run(step):
            try:
                step()
            except:
                return None
        """,
    )
    findings = tree.by_code()["REP006"]
    assert any("bare" in f.message for f in findings)


def test_rep006_flags_swallowed_blanket_except(tree):
    tree.write(
        "repro/server/swallow.py",
        """
        def run(step):
            try:
                step()
            except Exception:
                pass
        """,
    )
    assert "REP006" in tree.codes()


def test_rep006_reraising_blanket_except_is_clean(tree):
    tree.write(
        "repro/engine/ok.py",
        """
        def run(step, engine):
            try:
                step()
            except Exception:
                engine.refresh()
                raise
        """,
    )
    assert tree.codes() == []


def test_rep006_typed_except_is_clean(tree):
    tree.write(
        "repro/engine/ok.py",
        """
        def run(step):
            try:
                step()
            except ValueError:
                pass
        """,
    )
    assert tree.codes() == []
