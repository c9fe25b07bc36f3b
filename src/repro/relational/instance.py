"""Relation and database instances.

A :class:`RelationInstance` is a bag-free (set-semantics) collection of
:class:`~repro.relational.tuples.Tuple` preserving insertion order, which
keeps examples and error reports deterministic.  A
:class:`DatabaseInstance` maps relation names to relation instances and is
the object every dependency's ``holds_on`` / violation detector consumes.

Rows live in a dictionary-encoded
:class:`~repro.relational.columnar.ColumnStore`: one code column per
attribute, an alive map for O(1) deletes, lazy ``Tuple`` materialization
at the violation-report boundary, and zero-copy views for the vectorized
scan kernels in :mod:`repro.engine`.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from itertools import repeat
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.errors import DomainError, SchemaError
from repro.relational.columnar import ColumnStore
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.tuples import Tuple, row_values

__all__ = ["RelationInstance", "DatabaseInstance", "Savepoint"]

if os.environ.get("REPRO_STORAGE", "").strip().lower() not in ("", "columnar"):
    raise RuntimeError(
        "REPRO_STORAGE: the object storage backend was removed and every "
        "relation runs on the columnar store; unset REPRO_STORAGE"
    )


class RelationInstance:
    """A finite set of tuples over one relation schema (insertion-ordered)."""

    def __init__(
        self,
        schema: RelationSchema,
        tuples: Iterable[Tuple | Mapping | Sequence] = (),
    ):
        self.schema = schema
        self._store = ColumnStore(schema)
        self._version = 0
        self._indexes = None
        for t in tuples:
            self.add(t)

    @property
    def column_store(self) -> ColumnStore:
        """The encoded column store.

        Read-only by contract for everyone but this instance: the engine
        layers (indexes, kernels) consume codes and
        columns from here but never mutate them.
        """
        return self._store

    def add(self, t: Tuple | Mapping | Sequence) -> Tuple:
        """Insert a tuple (idempotent under set semantics); return it.

        ``version`` moves iff the tuple was new.  A ``Tuple`` must be over
        this relation — its schema name and attribute names — since
        membership, like ``Tuple`` equality, is decided by name and values.
        """
        store = self._store
        if isinstance(t, Tuple):
            if t.schema is not self.schema and (
                t.schema.name != self.schema.name
                or t.schema.attribute_names != self.schema.attribute_names
            ):
                raise SchemaError(
                    f"tuple over {t.schema.name} cannot enter instance of {self.schema.name}"
                )
            values = t.values()
            codes = store.probe(values)
            if codes is not None and store.find_row(codes) is not None:
                return t
            if codes is None:
                codes = store.intern_row(values)
            store.append_row(codes, t)
            self._version += 1
            return t
        if isinstance(t, Mapping):
            return self.add(Tuple(self.schema, t))
        values = row_values(self.schema, t)
        if len(values) != len(self.schema):
            raise SchemaError(
                f"tuple for {self.schema.name} has {len(values)} values, "
                f"schema has {len(self.schema)} attributes"
            )
        codes = store.probe(values)
        if codes is not None:
            row = store.find_row(codes)
            if row is not None:
                # Duplicate insert: the encoded-row hash probe decided
                # membership without building a throwaway Tuple.  Domains
                # are still checked so a bad-typed duplicate (e.g. True
                # where an int column holds 1) fails exactly as before.
                for attr, value in zip(self.schema.attributes, values):
                    if not attr.domain.contains(value):
                        raise DomainError(
                            f"value {value!r} for {self.schema.name}.{attr.name} "
                            f"not in domain {attr.domain.name}"
                        )
                return store.tuple_at(row)
        coerced = Tuple(self.schema, values)
        if codes is None:
            codes = store.intern_row(values)
        store.append_row(codes, coerced)
        self._version += 1
        return coerced

    def extend_rows(
        self, rows: Iterable[Mapping | Sequence], validate: bool = True
    ) -> int:
        """Bulk-insert value rows or attribute mappings; returns how many
        were new.

        The one loader behind session creation (wire rows, snapshots, CSV)
        and the workload generators.  It makes every check
        :meth:`add` makes — attribute names and width, domain membership of
        every cell (``validate=False`` skips only that one) — and leaves
        the same rows, order, rendering and ``version`` behind (one step
        per new row), but works a column at a
        time (see :meth:`ColumnStore.extend_columns`) and builds no
        ``Tuple`` for a row whose cells render like their dictionary
        representatives.  Once the batch is transposed this method holds
        no reference to ``rows``, so a caller that passes its only one
        lets the row objects go before the columns are encoded.  A batch
        that is not uniformly shaped, or fails a check, goes through
        ``add`` row by row (rebuilt from the columns, in the shape they
        came in), so the error is whatever ``add`` raises for the first
        failing row; either way the batch is all-or-nothing: a raise
        leaves the row set as it was.
        """
        batch = rows if isinstance(rows, list) else list(rows)
        del rows
        if not batch:
            return 0
        columns = self._columns_of(batch)
        if columns is None:
            return self._add_each(batch)
        mappings = type(batch[0]) is dict
        del batch  # the columns hold every value: the rows may go now
        domains = [a.domain for a in self.schema.attributes]
        added = self._store.extend_columns(columns, domains if validate else None)
        if added is not None:
            self._version += added
            return added
        replay: Iterable[Any] = zip(*columns)
        if mappings:
            replay = map(dict, map(zip, repeat(self.schema.attribute_names), replay))
        return self._add_each(replay)

    def _add_each(self, rows: Iterable[Any]) -> int:
        """``add`` every row; on a raise, remove the ones that were new."""
        new: List[Tuple] = []
        try:
            for row in rows:
                size = len(self)
                t = self.add(row)
                if len(self) != size:
                    new.append(t)
        except BaseException:
            for t in reversed(new):
                self.remove(t)
            raise
        return len(new)

    def _columns_of(self, batch: List[Any]) -> Optional[List[Sequence]]:
        """The batch transposed to one value sequence per attribute, or
        ``None`` unless every row is a ``dict`` with exactly the schema's
        keys, or every row a ``tuple``/``list`` of the schema's width."""
        kinds = set(map(type, batch))
        if not (kinds == {dict} or kinds <= {tuple, list}):
            return None
        if set(map(len, batch)) != {len(self.schema)}:
            return None
        if kinds != {dict}:
            return list(zip(*batch))
        try:
            return [
                list(map(itemgetter(name), batch))
                for name in self.schema.attribute_names
            ]
        except KeyError:
            return None

    def locate(self, t: Tuple) -> tuple[tuple[int, ...], int] | None:
        """``(codes, row)`` of ``t`` in the column store, or ``None`` if
        absent — one ``probe``.  :meth:`kill` deletes the row it names, as
        long as no edit came in between."""
        store = self._store
        if not isinstance(t, Tuple) or t.schema.name != self.schema.name:
            return None
        codes = store.probe(t.values())
        if codes is None:
            return None
        row = store.find_row(codes)
        return None if row is None else (codes, row)

    def kill(self, located: tuple[tuple[int, ...], int]) -> None:
        """Delete the row :meth:`locate` just found (no second lookup)."""
        self._store.kill_row(*located)
        self._version += 1

    def remove(self, t: Tuple) -> None:
        """Delete a tuple (KeyError if absent).

        The row is located once (one ``ColumnStore.probe``); ``version``
        moves iff a row was deleted, which a raise rules out.
        """
        located = self.locate(t)
        if located is None:
            raise KeyError(t)
        self.kill(located)

    def discard(self, t: Tuple) -> None:
        """Delete a tuple if present.

        The row is located once (one ``ColumnStore.probe``), and
        ``version`` moves iff a row was deleted — a caller that needs to
        know whether the tuple was there compares ``version`` around the
        call instead of asking ``t in relation`` first
        (:meth:`repro.engine.delta.Changeset.apply_to` does).
        """
        located = self.locate(t)
        if located is not None:
            self.kill(located)

    @property
    def version(self) -> int:
        """Mutation counter; bumped on every effective add/remove/discard.

        :class:`repro.engine.indexes.RelationIndexes` compares this against
        the version its indexes were built at to decide invalidation.
        """
        return self._version

    @property
    def indexes(self) -> "Any":
        """Lazily-built hash indexes over this instance (see repro.engine)."""
        if self._indexes is None:
            from repro.engine.indexes import RelationIndexes

            self._indexes = RelationIndexes(self)
        return self._indexes

    def drop_indexes(self) -> None:
        """Forget the cached indexes; the next use rebuilds them.

        The cache points back at this instance, so without it the instance
        — columns, dictionaries, materialized tuples — is freed the moment
        its last owner lets go instead of waiting for the cyclic collector.
        """
        self._indexes = None

    def __contains__(self, t: Tuple) -> bool:
        return self.locate(t) is not None

    def __iter__(self) -> Iterator[Tuple]:
        return self._store.iter_tuples()

    def __len__(self) -> int:
        return len(self._store)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RelationInstance)
            and self.schema == other.schema
            and set(self.to_rows()) == set(other.to_rows())
        )

    def tuples(self) -> List[Tuple]:
        """All tuples in insertion order (fresh list)."""
        return list(self)

    def copy(self) -> "RelationInstance":
        """Independent instance with the same tuples.

        Code columns and dictionaries are copied directly — O(n) small-int
        work with no re-hashing or re-validation.
        """
        clone = RelationInstance(self.schema)
        clone._store = self._store.copy()
        clone._version = len(clone._store)
        return clone

    def filter(self, predicate: Callable[[Tuple], bool]) -> "RelationInstance":
        """New instance with the tuples satisfying ``predicate``."""
        return RelationInstance(self.schema, (t for t in self if predicate(t)))

    def project_values(self, attributes: Sequence[str]) -> List[tuple]:
        """List of value tuples for the projection on ``attributes``."""
        self.schema.check_attributes(attributes)
        store = self._store
        positions = self.schema.projection_positions(attributes)
        columns = [store.columns[p] for p in positions]
        decode = [store.decode[p] for p in positions]
        return [
            tuple(rep[column[row]] for rep, column in zip(decode, columns))
            for row in store.iter_live_rows()
        ]

    def active_domain(self, attribute: str) -> List[Any]:
        """Distinct values appearing in ``attribute``, in first-seen order."""
        store = self._store
        position = self.schema.index_of(attribute)
        column = store.columns[position]
        rep = store.decode[position]
        codes_seen: set = set()
        out: List[Any] = []
        for row in store.iter_live_rows():
            code = column[row]
            if code not in codes_seen:
                codes_seen.add(code)
                out.append(rep[code])
        return out

    def group_by(self, attributes: Sequence[str]) -> Dict[tuple, List[Tuple]]:
        """Partition tuples by their projection on ``attributes``."""
        groups: Dict[tuple, List[Tuple]] = {}
        names = list(attributes)
        for t in self:
            groups.setdefault(t[names], []).append(t)
        return groups

    def to_rows(self) -> List[tuple]:
        """All tuples as plain value tuples (schema attribute order), each
        rendered as its ``Tuple`` is — a row that kept its own ``Tuple``
        because a cell prints unlike its code's representative (``3.0``
        beside ``3``) reads from it.  Builds no ``Tuple``."""
        return list(self._store.iter_values())

    def row_documents(self) -> Iterator[Dict[str, Any]]:
        """Live rows as ``{attribute: value}`` mappings, in insertion
        order, rendered as :meth:`to_rows` renders them (builds no
        ``Tuple``)."""
        names = repeat(self.schema.attribute_names)
        return map(dict, map(zip, names, self._store.iter_values()))

    def pretty(self, max_rows: int | None = None) -> str:
        """ASCII table rendering (used by examples and error messages)."""
        headers = list(self.schema.attribute_names)
        rows = [[repr(v) for v in values] for values in self.to_rows()]
        if max_rows is not None:
            rows = rows[:max_rows]
        widths = [len(h) for h in headers]
        for row in rows:
            widths = [max(w, len(c)) for w, c in zip(widths, row)]
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        lines.extend(" | ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rows)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"RelationInstance({self.schema.name}, {len(self)} tuples)"


class DatabaseInstance:
    """A database: one relation instance per relation schema."""

    def __init__(
        self,
        schema: DatabaseSchema,
        relations: Mapping[str, RelationInstance | Iterable] | None = None,
    ):
        self.schema = schema
        self._relations: Dict[str, RelationInstance] = {}
        for rel_schema in schema:
            self._relations[rel_schema.name] = RelationInstance(rel_schema)
        if relations:
            for name, content in relations.items():
                if isinstance(content, RelationInstance):
                    self.adopt(name, content.copy())
                else:
                    target = self.relation(name)
                    for t in content:
                        target.add(t)

    def adopt(self, name: str, instance: RelationInstance) -> None:
        """Install ``instance`` itself (no copy) as relation ``name``."""
        expected = self.relation(name).schema
        if instance.schema != expected:
            raise SchemaError(
                f"instance for {name!r} has schema {instance.schema!r}, "
                f"expected {expected!r}"
            )
        self._relations[name] = instance

    def relation(self, name: str) -> RelationInstance:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(
                f"database has no relation {name!r}; relations are {list(self._relations)}"
            ) from None

    def __getitem__(self, name: str) -> RelationInstance:
        return self.relation(name)

    def __iter__(self) -> Iterator[RelationInstance]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    def savepoint(self) -> "Savepoint":
        """Start logging the rows every relation appends and deletes; see
        :class:`Savepoint`."""
        return Savepoint(self)

    def total_tuples(self) -> int:
        """Total number of tuples across all relations."""
        return sum(len(rel) for rel in self._relations.values())

    def is_empty(self) -> bool:
        return self.total_tuples() == 0

    def copy(self) -> "DatabaseInstance":
        return DatabaseInstance(
            self.schema, {name: rel.copy() for name, rel in self._relations.items()}
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DatabaseInstance)
            and self.schema == other.schema
            and self._relations == other._relations
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}:{len(r)}" for n, r in self._relations.items())
        return f"DatabaseInstance({inner})"


class Savepoint:
    """The rows a database's relations append and delete while it is open.

    :meth:`rollback` undoes them, leaving each row where it was (an
    inverse changeset re-adds a deleted row at the end).  Savepoints nest,
    and compaction, which would renumber the logged rows, waits for the
    outermost to close.
    """

    __slots__ = ("_marks", "_opened")

    def __init__(self, db: DatabaseInstance) -> None:
        self._marks: List[tuple[RelationInstance, int]] = []
        self._opened: List[ColumnStore] = []
        for relation in db:
            store = relation._store
            if store.edits is None:
                store.edits = []
                self._opened.append(store)
            self._marks.append((relation, len(store.edits)))

    def __enter__(self) -> "Savepoint":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def rollback(self) -> None:
        """Undo every append and delete since the savepoint opened; a
        relation that had any moves to a new version."""
        for relation, mark in self._marks:
            if relation._store.rollback(mark):
                relation._version += 1

    def close(self) -> None:
        """Stop logging, and run the compaction held meanwhile if due."""
        for store in self._opened:
            store.edits = None
            store.compact_if_due()
