"""Streaming edit workload: batched inserts/deletes/updates over time.

Production monitoring is not detect-once: the relation keeps changing and
the violation set must keep up.  This workload turns any database instance
into a seeded stream of edit batches — each batch mixing fresh inserts,
deletions of live tuples, and single-cell updates drawn from the active
domains — and drives them through the delta engine
(:class:`~repro.engine.delta.DeltaEngine`), recording what every batch did
to the violation set and how long maintenance took.

The generator reads the live instance at every step (deletes and updates
target tuples that exist *now*, after all previous batches), so it must be
consumed interleaved with application — exactly what
:meth:`repro.session.Session.stream` does, and what the ``repro.cli
stream`` subcommand and ``benchmarks/bench_incremental.py`` build on.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List

from repro.engine.delta import Changeset
from repro.errors import ReproError
from repro.relational.instance import DatabaseInstance

__all__ = ["StreamConfig", "BatchResult", "StreamReport", "stream_edits"]


class StreamConfig:
    """Knobs for the edit stream."""

    def __init__(
        self,
        n_batches: int = 10,
        batch_size: int = 100,
        seed: int = 7,
        insert_weight: float = 1.0,
        delete_weight: float = 1.0,
        update_weight: float = 2.0,
    ):
        if n_batches < 1 or batch_size < 1:
            raise ValueError("stream needs at least one batch of one edit")
        self.n_batches = n_batches
        self.batch_size = batch_size
        self.seed = seed
        self.weights = (insert_weight, delete_weight, update_weight)


def _fresh_row(relation, rng: random.Random) -> List:
    """A new row assembled from per-attribute active domains.

    Cross-combining attribute values from different live tuples yields rows
    that are domain-valid but can break any dependency — the realistic
    shape of dirty inserts.
    """
    row = []
    for attr in relation.schema.attribute_names:
        pool = relation.active_domain(attr)
        row.append(rng.choice(pool) if pool else relation.schema.domain(attr).fresh_value())
    return row


def stream_edits(
    db: DatabaseInstance, config: StreamConfig
) -> Iterator[Changeset]:
    """Yield ``config.n_batches`` changesets against the *live* ``db``.

    Lazy by design: each batch is built from the instance as it stands when
    the batch is requested, so apply each yielded changeset before pulling
    the next.  Tuples already targeted within a batch are not targeted
    again (a batch never updates a tuple it just deleted): the live-tuple
    pool is materialized once per relation per batch and victims are
    popped from it, so generation costs O(|relation|) per batch, not per
    edit.
    """
    rng = random.Random(config.seed)
    kinds = ("insert", "delete", "update")
    relations = [rel.schema.name for rel in db if len(rel.schema) > 0]
    if not relations:
        raise ReproError("stream workload needs at least one relation")
    for _ in range(config.n_batches):
        batch = Changeset()
        pools: Dict[str, list] = {}
        for _ in range(config.batch_size):
            name = rng.choice(relations)
            relation = db.relation(name)
            pool = pools.get(name)
            if pool is None:
                pool = pools[name] = relation.tuples()
            kind = rng.choices(kinds, weights=config.weights)[0]
            if kind == "insert" or not pool:
                batch.insert(name, _fresh_row(relation, rng))
            elif kind == "delete":
                batch.delete(name, pool.pop(rng.randrange(len(pool))))
            else:
                victim = pool.pop(rng.randrange(len(pool)))
                attr = rng.choice(list(relation.schema.attribute_names))
                batch.update(
                    name,
                    victim,
                    **{attr: rng.choice(relation.active_domain(attr))},
                )
        yield batch


class BatchResult:
    """What one applied batch did, and how long maintenance took."""

    __slots__ = ("index", "edits", "added", "removed", "total", "seconds")

    def __init__(
        self, index: int, edits: int, added: int, removed: int, total: int, seconds: float
    ):
        self.index = index
        self.edits = edits
        self.added = added
        self.removed = removed
        self.total = total
        self.seconds = seconds

    def __repr__(self) -> str:
        return (
            f"BatchResult(#{self.index}: {self.edits} edits, "
            f"+{self.added} -{self.removed} violations, {self.total} total, "
            f"{self.seconds * 1e3:.2f} ms)"
        )


class StreamReport:
    """Aggregated outcome of a streamed run."""

    def __init__(self, batches: List[BatchResult], verified: bool):
        self.batches = batches
        #: True iff every batch was cross-checked against full re-detection
        self.verified = verified

    @property
    def total_edits(self) -> int:
        return sum(b.edits for b in self.batches)

    @property
    def total_seconds(self) -> float:
        return sum(b.seconds for b in self.batches)

    @property
    def final_violations(self) -> int:
        return self.batches[-1].total if self.batches else 0

    def summary(self) -> str:
        return (
            f"{len(self.batches)} batches, {self.total_edits} edits, "
            f"{self.final_violations} violations now live, "
            f"{self.total_seconds * 1e3:.2f} ms maintenance"
            + (", verified against full re-detection" if self.verified else "")
        )

    def __repr__(self) -> str:
        return f"StreamReport({self.summary()})"
