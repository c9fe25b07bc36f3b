"""Streaming edit workload: generation, application, verification."""

import pytest

from repro.deps.fd import FD
from repro.deps.ind import IND
from repro.engine.delta import DeltaEngine
from repro.errors import ReproError
from repro.relational.domains import STRING
from repro.relational.instance import DatabaseInstance
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.workloads.customer import CustomerConfig, CustomerWorkload, generate_customers
from repro.session import Session
from repro.workloads.stream import StreamConfig, stream_edits


def _small_db():
    r = RelationSchema("R", [("A", STRING), ("B", STRING)])
    s = RelationSchema("S", [("X", STRING)])
    return DatabaseInstance(
        DatabaseSchema([r, s]),
        {"R": [("a", "x"), ("b", "y"), ("c", "z")], "S": [("a",), ("b",)]},
    )


class TestStreamEdits:
    def test_batches_have_requested_size(self):
        db = _small_db()
        config = StreamConfig(n_batches=4, batch_size=6, seed=3)
        batches = []
        for batch in stream_edits(db, config):
            batches.append(batch)
            batch.apply_to(db)  # generator reads the live instance
        assert len(batches) == 4
        assert all(len(b) == 6 for b in batches)

    def test_deterministic_given_seed(self):
        first = [repr(b) for b in _collect(seed=11)]
        second = [repr(b) for b in _collect(seed=11)]
        assert first == second

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StreamConfig(n_batches=0)


def _collect(seed):
    db = _small_db()
    out = []
    for batch in stream_edits(db, StreamConfig(n_batches=3, batch_size=5, seed=seed)):
        out.append(batch)
        batch.apply_to(db)
    return out


class TestRunStream:
    def _deps(self):
        return [FD("R", ["A"], ["B"]), IND("R", ["A"], "S", ["X"])]

    def test_verified_run_on_small_db(self):
        db = _small_db()
        report = Session.from_instance(db, self._deps()).stream(
            StreamConfig(n_batches=5, batch_size=4, seed=2), verify=True
        )
        assert report.verified
        assert len(report.batches) == 5
        assert report.total_edits == 20

    def test_maintained_total_matches_engine(self):
        db = _small_db()
        deps = self._deps()
        engine = DeltaEngine(db, deps)
        report = Session.from_instance(db, deps, engine=engine).stream(
            StreamConfig(n_batches=3, batch_size=5, seed=9)
        )
        assert report.final_violations == engine.total_violations()

    def test_customer_workload_stream_verifies(self):
        workload = generate_customers(CustomerConfig(n_tuples=300, seed=5))
        deps = CustomerWorkload.cfds()
        report = Session.from_instance(workload.db, deps).stream(
            StreamConfig(n_batches=3, batch_size=20, seed=4), verify=True
        )
        assert report.verified
        assert report.total_seconds >= 0
