"""The four seeded request sequences.

Each workload is a sequence of *cycles*; a cycle is a short list of
requests that ends in the row set it began with (edits are undone through
their undo token, created sessions are deleted).  The seed picks the rows
— which ones are dirty, which ones get edited, in which order — while the
*amount* of work is fixed in this file: row counts, the number of injected
errors and therefore of violations, changeset sizes and op mixes.  That is
what lets ten runs on ten seeds be compared: the stock customer generator
at its default error rate yields 252 to 1949 violations at 10k rows
depending on the seed, because one corrupted group-leading row re-pivots
every pair of its group.

Request bodies are built directly as wire documents, exactly as
``repro.client.ServerClient`` would serialise them (``tests/test_workloads``
pins that), so the same bytes can be replayed without the client.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.registry import encode
from repro.rules_json import database_schema_to_dict
from repro.workloads.customer import CustomerConfig, generate_customers

RELATION = "customer"

#: injected errors per 10k rows: a wrong city breaks ``cfd-area-city`` (one
#: single-tuple violation) and ``cfd-f2`` (one pair), a UK street typo breaks
#: ``cfd-zip-street-UK`` (one pair): 2 * 97 + 75 = 269 violations
CITY_ERRORS_PER_10K = 97
STREET_ERRORS_PER_10K = 75

#: durable_stream: changesets per block and ops per changeset
#: (insert : delete : update = 1 : 1 : 2)
STREAM_CHANGESETS = 32
STREAM_INSERTS = 25
STREAM_DELETES = 25
STREAM_NAME_UPDATES = 20
STREAM_CITY_UPDATES = 15
STREAM_STREET_UPDATES = 15

_CITIES = ("EDI", "GLA", "LDN", "MH", "NYC", "SFO")
_NAMES = ("Mike", "Rick", "Joe", "Anna", "Wei", "Sara", "Tom", "Lena", "Omar", "Ivy")


class Step(NamedTuple):
    """One request of a cycle."""

    #: ``create`` | ``detect`` | ``apply`` | ``undo`` | ``delete``
    op: str
    #: the JSON body (``None`` for delete; undo's token is filled in at run
    #: time from the preceding apply's response)
    body: Optional[Dict[str, Any]]
    #: the violation count the answer must report (``total`` for detect,
    #: ``remaining`` for apply/undo); ``None`` where there is none
    expect: Optional[int]
    #: answered from the asyncio front end's snapshot cache by construction
    snapshot_hit: bool = False


@dataclass
class Workload:
    """A seeded request sequence plus the sizes one block of it has."""

    name: str
    primary_op: str
    session_id: str
    durable: bool
    #: the session created during set-up (``None``: the cycle creates it)
    create_body: Optional[Dict[str, Any]]
    cycles_per_block: int
    cycle: Callable[[int], Sequence[Step]]
    #: the rows every cycle must leave behind
    base_rows: Sequence[Dict[str, Any]]

    def block(self, index: int) -> List[Sequence[Step]]:
        """The cycles of block ``index`` (block 0 is the warm-up block)."""
        start = index * self.cycles_per_block
        return [self.cycle(start + i) for i in range(self.cycles_per_block)]


class CustomerData:
    """Seed-derived customer rows with a fixed number of injected errors."""

    def __init__(self, seed: int, n_tuples: int) -> None:
        generated = generate_customers(
            CustomerConfig(n_tuples=n_tuples, error_rate=0.0, seed=seed)
        )
        relation = generated.db.relation(RELATION)
        self.schema = database_schema_to_dict(generated.db.schema)
        self.rules = [encode(rule) for rule in generated.cfds()]
        self.rows: List[Dict[str, Any]] = [t.as_dict() for t in relation]
        self.rng = random.Random(seed * 1_000_003 + n_tuples)

        # The first row of a (CC, zip) group — and so of its (CC, AC) group
        # — is the pivot every pair violation of the group is reported
        # against.  Corrupting or moving one re-pivots the whole group, so
        # those rows are never touched.
        seen: set = set()
        pivots = set()
        for index, row in enumerate(self.rows):
            if row["zip"] not in seen:
                seen.add(row["zip"])
                pivots.add(index)
        candidates = [i for i in range(n_tuples) if i not in pivots]
        self.rng.shuffle(candidates)

        n_city = CITY_ERRORS_PER_10K * n_tuples // 10_000
        n_street = STREET_ERRORS_PER_10K * n_tuples // 10_000
        city_rows = candidates[:n_city]
        rest = candidates[n_city:]
        street_rows = [i for i in rest if self.rows[i]["CC"] == 44][:n_street]
        for index in city_rows:
            self.rows[index]["city"] = self.other_city(self.rows[index]["city"])
        for index in street_rows:
            self.rows[index]["street"] += "x"
        self.violations = 2 * len(city_rows) + len(street_rows)
        dirty = set(city_rows) | set(street_rows)
        #: clean non-pivot rows in seeded order: the rows edits may touch
        self.clean = [i for i in rest if i not in dirty]
        self.clean_uk = [i for i in self.clean if self.rows[i]["CC"] == 44]

    def other_city(self, city: str) -> str:
        return self.rng.choice([c for c in _CITIES if c != city])

    def create_body(self, session_id: str) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "engine": {"executor": "indexed"},
            "rules": self.rules,
            "data": {RELATION: self.rows},
            "id": session_id,
        }

    def changeset(
        self,
        phone_base: int,
        inserts: int,
        deletes: int,
        names: int,
        cities: int,
        streets: int,
    ) -> Dict[str, Any]:
        """One changeset over distinct clean rows.

        Inserts copy a clean row under a fresh phone number and deletes drop
        clean rows, so neither changes a violation; a name update changes
        none, a city update adds two and a UK street update adds one.
        """
        rng = self.rng
        picked = rng.sample(self.clean, inserts + deletes + names + cities)
        taken = set(picked)
        street_rows = rng.sample(
            [i for i in self.clean_uk if i not in taken], streets
        )
        ops: List[Dict[str, Any]] = []
        it = iter(picked)
        for k in range(inserts):
            row = dict(self.rows[next(it)])
            row["phn"] = phone_base + k
            ops.append({"op": "insert", "relation": RELATION, "row": row})
        for _ in range(deletes):
            ops.append({"op": "delete", "relation": RELATION, "row": self.rows[next(it)]})
        for _ in range(names):
            row = self.rows[next(it)]
            name = rng.choice([n for n in _NAMES if n != row["name"]])
            ops.append(_update(row, {"name": name}))
        for _ in range(cities):
            row = self.rows[next(it)]
            ops.append(_update(row, {"city": self.other_city(row["city"])}))
        for index in street_rows:
            row = self.rows[index]
            ops.append(_update(row, {"street": row["street"] + "y"}))
        rng.shuffle(ops)
        return {"ops": ops}


def _update(row: Dict[str, Any], cells: Dict[str, Any]) -> Dict[str, Any]:
    return {"op": "update", "relation": RELATION, "row": row, "cells": cells}


_DETECT_FULL = {"include_violations": True}
_DETECT_SUMMARY = {"include_violations": False}


def read_after_write(seed: int, scale: float = 1.0) -> Workload:
    data = CustomerData(seed, int(10_000 * scale))
    total = data.violations
    pool = data.clean

    def cycle(index: int) -> Sequence[Step]:
        # a row no earlier cycle of this run has touched
        row = data.rows[pool[index % len(pool)]]
        delete = {"ops": [{"op": "delete", "relation": RELATION, "row": row}]}
        return (
            Step("apply", delete, total),
            Step("detect", _DETECT_FULL, total),
            Step("undo", None, total),
        )

    return Workload(
        "read_after_write", "detect", "raw", False,
        data.create_body("raw"), 8, cycle, data.rows,
    )


def hot_reads(seed: int, scale: float = 1.0) -> Workload:
    data = CustomerData(seed, int(10_000 * scale))
    steps = (Step("detect", _DETECT_FULL, data.violations, snapshot_hit=True),)
    return Workload(
        "hot_reads", "detect", "hot", False,
        data.create_body("hot"), 100, lambda index: steps,
        data.rows,
    )


def durable_stream(seed: int, scale: float = 1.0) -> Workload:
    data = CustomerData(seed, int(10_000 * scale))
    total = data.violations
    added = 2 * STREAM_CITY_UPDATES + STREAM_STREET_UPDATES
    # a block is STREAM_CHANGESETS cycles = 2 * STREAM_CHANGESETS WAL
    # records = one whole --snapshot-every 64 period, and every block
    # replays the same changesets: equal work, one snapshot each
    changesets = [
        data.changeset(
            2_000_000 + 1000 * k, STREAM_INSERTS, STREAM_DELETES,
            STREAM_NAME_UPDATES, STREAM_CITY_UPDATES, STREAM_STREET_UPDATES,
        )
        for k in range(STREAM_CHANGESETS)
    ]
    cycles = [
        (Step("apply", changeset, total + added), Step("undo", None, total))
        for changeset in changesets
    ]
    return Workload(
        "durable_stream", "apply", "stream", True,
        data.create_body("stream"), STREAM_CHANGESETS,
        lambda index: cycles[index % STREAM_CHANGESETS], data.rows,
    )


def onboard(seed: int, scale: float = 1.0) -> Workload:
    data = CustomerData(seed, int(20_000 * scale))
    total = data.violations
    first_apply = data.changeset(2_000_000, 2, 2, 4, 2, 0)
    steps = (
        Step("create", data.create_body("onboard"), None),
        Step("detect", _DETECT_SUMMARY, total),
        Step("apply", first_apply, total + 4),
        Step("delete", None, None),
    )
    return Workload(
        "onboard", "create", "onboard", False,
        None, 1, lambda index: steps, (),
    )


BUILDERS: Dict[str, Callable[..., Workload]] = {
    "read_after_write": read_after_write,
    "hot_reads": hot_reads,
    "durable_stream": durable_stream,
    "onboard": onboard,
}
