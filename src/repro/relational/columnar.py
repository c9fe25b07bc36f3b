"""Dictionary-encoded columnar storage behind :class:`RelationInstance`.

The detection algorithms of the paper are near-linear in the data, but a
per-``Tuple`` object heap representation pays an interpreter-level constant
per tuple on every scan.  :class:`ColumnStore` keeps one column per
attribute, with every value interned to a small integer code through a
per-column dictionary:

* ``encode[i]`` maps a value to its code, ``decode[i]`` maps the code back
  to the first-seen representative.  Because the dictionaries are plain
  Python dicts, interning inherits dict-key equality — ``1 == 1.0 == True``
  share one code, exactly the congruence that set semantics already use
  (the first-seen representative is the one set semantics would have kept
  anyway);
* ``columns[i]`` is a stdlib ``array('q')`` of codes, one slot per row —
  ``numpy`` views it zero-copy for the vectorized scan
  kernels in :mod:`repro.engine.kernels`;
* deletes flip a byte in the ``alive`` map and leave the row in place; the
  store compacts only when dead rows outnumber the live ones, so row
  indices are stable between rare compactions and delete is O(1);
* ``Tuple`` objects are materialized lazily — only when a row is actually
  reported (a violation witness) or iterated by a legacy consumer — and
  cached per row.

Row identity is the tuple of codes: an open-addressed hash ``table`` of
row indices (probed against the columns themselves) gives O(1)
set-semantics membership without constructing a ``Tuple`` — and without a
per-row key object, so the whole membership structure costs a couple of
machine words per row (code-tuple equality coincides with value-tuple
equality because the per-column dictionaries are equality-congruent).
"""

from __future__ import annotations

from array import array
from itertools import chain, compress, count, repeat
from math import copysign
from operator import and_, eq, is_, is_not
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple as PyTuple,
)

from repro.relational.schema import RelationSchema
from repro.relational.tuples import Tuple

__all__ = ["ColumnStore"]

#: compact only when the dead-row count exceeds this floor *and* the
#: live-row count — keeps compaction O(edits) amortized and row indices
#: stable for typical delete-light workloads
COMPACT_MIN_DEAD = 64

#: physical rows decoded per column slice by ``ColumnStore.iter_values``
_DECODE_ROWS = 1024

#: hash-table slot markers (row indices are always >= 0)
_EMPTY = -1
_TOMBSTONE = -2


def _renders_as(value: Any, representative: Any) -> bool:
    """Does ``value`` print like the (equal) value its code decodes to?

    Equal values share a code, but ``3 == 3.0 == True`` and ``0.0 ==
    -0.0`` render differently; a row holding such a cell keeps its own
    ``Tuple`` so reports show what was inserted, not the representative.
    """
    if type(value) is not type(representative):
        return False
    if type(value) is float and value == 0.0:
        return copysign(1.0, value) == copysign(1.0, representative)
    return True


class ColumnStore:
    """Encoded columns + alive map + lazy ``Tuple`` cache for one relation."""

    __slots__ = (
        "schema",
        "encode",
        "decode",
        "columns",
        "alive",
        "table",
        "mask",
        "used",
        "live",
        "cache",
        "dead",
        "compactions",
        "edits",
    )

    def __init__(self, schema: RelationSchema):
        self.schema = schema
        width = len(schema)
        #: per column, value → code (dict equality ⇒ cross-type congruence)
        self.encode: List[Dict[Any, int]] = [{} for _ in range(width)]
        #: per column, code → first-seen representative value
        self.decode: List[List[Any]] = [[] for _ in range(width)]
        #: per column, one code per row (dead rows keep their codes)
        self.columns: List[array] = [array("q") for _ in range(width)]
        #: one byte per row: 1 = live, 0 = deleted
        self.alive = bytearray()
        #: open-addressed membership table: slots hold row indices (or the
        #: _EMPTY/_TOMBSTONE markers), keyed by ``hash(codes)`` and probed
        #: against the columns — no per-row key object
        self.table = array("q", [_EMPTY] * 8)
        self.mask = 7
        #: occupied slots (live + tombstones), drives table growth
        self.used = 0
        self.live = 0
        #: lazily materialized ``Tuple`` per row (None until first asked)
        self.cache: List[Optional[Tuple]] = []
        self.dead = 0
        #: how many times ``_compact`` renumbered the rows; whoever holds
        #: row indices across edits (the delta engine) compares it
        self.compactions = 0
        #: while a savepoint is open (``DatabaseInstance.savepoint``): the
        #: rows appended ``(row, None, None)`` and killed ``(row, codes,
        #: cached Tuple)`` since, which :meth:`rollback` puts back; it holds
        #: compaction as well, since compaction renumbers the rows
        self.edits: Optional[List[PyTuple[int, Any, Optional[Tuple]]]] = None

    def __len__(self) -> int:
        return self.live

    # -- membership table --------------------------------------------------

    def find_row(self, codes: PyTuple[int, ...]) -> Optional[int]:
        """Row index of the live row holding ``codes``, or ``None``."""
        table = self.table
        mask = self.mask
        columns = self.columns
        # repro: allow[REP001] — codes are int tuples; int hashing is
        # seed-independent, and probe order never reaches output anyway
        h = hash(codes)
        i = h & mask
        perturb = h & 0x7FFFFFFFFFFFFFFF
        expected = list(codes)  # one list comparison per candidate row
        while True:
            row = table[i]
            if row == _EMPTY:
                return None
            if row != _TOMBSTONE and [column[row] for column in columns] == expected:
                return row
            perturb >>= 5
            i = (5 * i + perturb + 1) & mask

    def _insert_slot(self, codes: PyTuple[int, ...], row: int) -> None:
        """Claim a slot for ``row``; caller guarantees ``codes`` is absent."""
        if 3 * (self.used + 1) >= 2 * (self.mask + 1):
            self._rebuild_table()
        table = self.table
        mask = self.mask
        # repro: allow[REP001] — codes are int tuples; int hashing is
        # seed-independent, and probe order never reaches output anyway
        h = hash(codes)
        i = h & mask
        perturb = h & 0x7FFFFFFFFFFFFFFF
        while table[i] >= 0:
            perturb >>= 5
            i = (5 * i + perturb + 1) & mask
        if table[i] == _EMPTY:
            self.used += 1
        table[i] = row
        self.live += 1

    def _delete_slot(self, codes: PyTuple[int, ...], row: int) -> None:
        table = self.table
        mask = self.mask
        # repro: allow[REP001] — codes are int tuples; int hashing is
        # seed-independent, and probe order never reaches output anyway
        h = hash(codes)
        i = h & mask
        perturb = h & 0x7FFFFFFFFFFFFFFF
        while table[i] != row:
            perturb >>= 5
            i = (5 * i + perturb + 1) & mask
        table[i] = _TOMBSTONE
        self.live -= 1

    def _place(self, hashes: Iterable[int], rows: Iterable[int]) -> None:
        """Claim one slot per ``(hash, row)``; the rows' codes are absent."""
        table = self.table
        mask = self.mask
        used = self.used
        for h, row in zip(hashes, rows):
            i = h & mask
            perturb = h & 0x7FFFFFFFFFFFFFFF
            while table[i] >= 0:
                perturb >>= 5
                i = (5 * i + perturb + 1) & mask
            if table[i] == _EMPTY:
                used += 1
            table[i] = row
        self.used = used

    def _rebuild_table(self, reserve: int = 0) -> None:
        """Fresh table sized for the live rows plus ``reserve`` more to
        come; tombstones evaporate."""
        capacity = 8
        while 3 * (self.live + reserve + 1) >= 2 * capacity:
            capacity <<= 1
        capacity <<= 1
        self.table = array("q", [_EMPTY]) * capacity
        self.mask = capacity - 1
        self.used = 0
        # repro: allow[REP001] — int-tuple hash, seed-independent
        hashes = map(hash, zip(*self.columns))
        rows: Iterable[int] = range(len(self.alive))
        if self.dead:
            hashes = compress(hashes, self.alive)
            rows = compress(rows, self.alive)
        self._place(hashes, rows)

    @property
    def n_rows(self) -> int:
        """Physical row count, including dead rows awaiting compaction."""
        return len(self.alive)

    # -- encoding ----------------------------------------------------------

    def probe(self, values: Sequence[Any]) -> Optional[PyTuple[int, ...]]:
        """Codes for ``values`` if every value is already interned.

        ``None`` means at least one value was never seen in its column, so
        the row is definitely absent — the duplicate-insert fast path needs
        no ``Tuple`` (and no value-tuple hash) to decide membership.
        """
        codes = []
        append = codes.append
        for mapping, value in zip(self.encode, values):
            code = mapping.get(value)
            if code is None:
                return None
            append(code)
        return tuple(codes)

    def intern_row(self, values: Sequence[Any]) -> PyTuple[int, ...]:
        """Codes for ``values``, interning any value not yet seen."""
        codes = []
        append = codes.append
        for mapping, rep, value in zip(self.encode, self.decode, values):
            code = mapping.get(value)
            if code is None:
                code = len(rep)
                mapping[value] = code
                rep.append(value)
            append(code)
        return tuple(codes)

    # -- row lifecycle -----------------------------------------------------

    def append_row(
        self, codes: PyTuple[int, ...], materialized: Optional[Tuple] = None
    ) -> int:
        """Append a live row for ``codes``; caller guarantees it is new."""
        row = len(self.alive)
        for column, code in zip(self.columns, codes):
            column.append(code)
        # Claim the table slot before the alive bit flips: a growth-driven
        # rebuild must only see the rows that were already present.
        self._insert_slot(codes, row)
        self.alive.append(1)
        self.cache.append(materialized)
        if self.edits is not None:
            self.edits.append((row, None, None))
        return row

    def extend_columns(
        self, columns: Sequence[Sequence[Any]], domains: Optional[Sequence[Any]]
    ) -> Optional[int]:
        """Bulk-append a batch given as one value sequence per attribute.

        Works a column at a time: each *distinct* value is validated
        (against ``domains``, unless ``None``) and interned once, and codes
        are mapped in one pass.  A column whose cells all have a type its
        domain admits whole (``Domain.exact_types``) asks the domain
        nothing.  Rows already in the store are dropped; so are repeats
        within the batch, first-wins — unless some column holds no value
        twice, which rules repeats out, so no code tuple is kept per row:
        row hashes stream from the code columns into the membership table,
        sized once.  A cell that does not render like its representative
        (see :func:`_renders_as`) is validated on its own and its row keeps
        a materialized ``Tuple``, exactly as a single-row insert caches one.

        Returns how many rows were new, or ``None`` — with the store
        untouched — when some value is outside its domain or unhashable:
        the caller then replays the batch row by row, which raises for the
        first failing row the way single-row inserts do.
        """
        n = len(columns[0])
        fresh: List[List[Any]] = []
        own: set = set()
        distinct = False
        for position, column in enumerate(columns):
            try:
                # the column's distinct values, in first-seen order
                lookup = dict.fromkeys(column)
            except TypeError:
                return None
            distinct = distinct or len(lookup) == n
            mapping = self.encode[position]
            rep = self.decode[position]
            types = set(map(type, column))
            domain = None if domains is None else domains[position]
            if domain is not None and types <= domain.exact_types:
                domain = None  # every cell is of a type the domain admits
            found = list(map(mapping.get, lookup))
            unseen = list(compress(lookup, map(is_, found, repeat(None))))
            if domain is not None and not all(map(domain.contains, unseen)):
                return None
            fresh.append(unseen)
            # an unseen value is its own representative
            known = [rep[code] for code in found if code is not None]
            if (
                len(types) == 1
                and types.issuperset(map(type, known))
                and not (float in types and 0.0 in lookup)
            ):
                continue
            # value → the representative it decodes to after this batch
            for value, code in zip(lookup, found):
                lookup[value] = value if code is None else rep[code]
            for offset, value in enumerate(column):
                if not _renders_as(value, lookup[value]):
                    if domain is not None and not domain.contains(value):
                        return None
                    own.add(offset)

        # Every check passed: from here on the batch cannot fail.
        code_columns: List[array] = []
        for mapping, rep, unseen, column in zip(
            self.encode, self.decode, fresh, columns
        ):
            mapping.update(zip(unseen, count(len(rep))))
            rep.extend(unseen)
            coded = array("q")
            # ``fromlist`` leaves the growth slack an appended column has,
            # so a first edit appends without moving the column
            coded.fromlist(list(map(mapping.__getitem__, column)))
            code_columns.append(coded)
        keep: Optional[List[bool]] = None
        if not distinct:
            # each distinct row's first batch offset: first wins
            code_rows = list(zip(*code_columns))
            first = dict(zip(reversed(code_rows), range(n - 1, -1, -1)))
            keep = list(map(eq, map(first.__getitem__, code_rows), count()))
            del code_rows, first
        if self.live:
            find_row = self.find_row
            absent = [find_row(row) is None for row in zip(*code_columns)]
            keep = absent if keep is None else list(map(and_, keep, absent))
        offsets: Sequence[int] = range(n)
        if keep is not None and not all(keep):
            offsets = list(compress(offsets, keep))
            code_columns = [
                array("q", compress(coded, keep)) for coded in code_columns
            ]
        added = len(offsets)
        if not added:
            return 0
        if 3 * (self.used + added) >= 2 * (self.mask + 1):
            self._rebuild_table(reserve=added)
        start = len(self.alive)
        # repro: allow[REP001] — int-tuple hash, seed-independent
        self._place(map(hash, zip(*code_columns)), range(start, start + added))
        if start:
            for column, coded in zip(self.columns, code_columns):
                column.extend(coded)
        else:
            # an empty store adopts the batch's arrays: no second copy
            self.columns = code_columns
        self.alive.extend(b"\x01" * added)
        self.cache.extend([None] * added)
        self.live += added
        if own:
            for row, offset in enumerate(offsets, start):
                if offset in own:
                    self.cache[row] = Tuple.trusted(
                        self.schema, tuple(column[offset] for column in columns)
                    )
        return added

    def kill_row(self, codes: PyTuple[int, ...], row: int) -> None:
        """Mark a live row dead (O(1)); compact when dead rows dominate."""
        if self.edits is not None:
            self.edits.append((row, codes, self.cache[row]))
        self._delete_slot(codes, row)
        self.alive[row] = 0
        self.cache[row] = None
        self.dead += 1
        self.compact_if_due()

    def compact_if_due(self) -> None:
        """Compact once dead rows dominate (see ``COMPACT_MIN_DEAD``),
        unless a savepoint is open."""
        if (
            self.edits is None
            and self.dead > COMPACT_MIN_DEAD
            and self.dead > self.live
        ):
            self._compact()

    def rollback(self, mark: int) -> bool:
        """Undo the appends and kills logged after the first ``mark``
        edits, newest first: an appended row is cut off the end again, a
        killed one revives in its place with its cached ``Tuple``.  The
        rows end where they were — an inverse changeset would re-add a
        deleted row at the end.  Returns whether anything changed."""
        edits = self.edits
        assert edits is not None
        changed = len(edits) > mark
        while len(edits) > mark:
            row, codes, cached = edits.pop()
            if codes is None:
                self._delete_slot(tuple([column[row] for column in self.columns]), row)
                for column in self.columns:
                    column.pop()
                self.alive.pop()
                self.cache.pop()
            else:
                self._insert_slot(codes, row)
                self.alive[row] = 1
                self.cache[row] = cached
                self.dead -= 1
        return changed

    def _compact(self) -> None:
        """Drop dead rows, renumbering the live ones in insertion order.

        Dictionaries never shrink — codes stay valid across compaction, so
        only row indices move (every cached index structure is invalidated
        by the owning instance's version bump that triggered the deletes).
        """
        alive = self.alive
        keep = [row for row in range(len(alive)) if alive[row]]
        self.columns = [
            array("q", (column[row] for row in keep)) for column in self.columns
        ]
        self.cache = [self.cache[row] for row in keep]
        self.alive = bytearray(b"\x01" * len(keep))
        self.dead = 0
        self.compactions += 1
        self._rebuild_table()

    # -- materialization ---------------------------------------------------

    def values_at(self, row: int) -> PyTuple[Any, ...]:
        """Decoded value tuple of a row (no ``Tuple`` object)."""
        return tuple(
            rep[column[row]] for rep, column in zip(self.decode, self.columns)
        )

    def tuple_at(self, row: int) -> Tuple:
        """The row as a :class:`Tuple`, materialized once and cached.

        Values were validated when first interned, so materialization skips
        domain checks — this is the violation-report boundary where encoded
        rows become user-visible objects.
        """
        t = self.cache[row]
        if t is None:
            t = Tuple.trusted(self.schema, self.values_at(row))
            self.cache[row] = t
        return t

    def _materialize_from(self, start: int) -> None:
        """Fill the cache for every live row from ``start`` on that lacks
        its ``Tuple``: decode whole columns, zip the rows, build unchecked.
        """
        cache = self.cache
        alive = self.alive
        schema = self.schema
        decoded = zip(
            *(
                map(rep.__getitem__, column[start:])
                for rep, column in zip(self.decode, self.columns)
            )
        )
        for row, values in enumerate(decoded, start):
            if cache[row] is None and alive[row]:
                cache[row] = Tuple.trusted(schema, values)

    def iter_tuples(self) -> Iterator[Tuple]:
        """Live rows as tuples, in insertion order.

        The first row found unmaterialized (a bulk load leaves them all
        so) materializes the rest of the pass in one columnar batch.
        """
        alive = self.alive
        cache = self.cache
        for row in range(len(alive)):
            if alive[row]:
                t = cache[row]
                if t is None:
                    self._materialize_from(row)
                    t = cache[row]
                yield t

    def iter_values(self) -> Iterator[PyTuple[Any, ...]]:
        """Live rows as value tuples, in insertion order, each rendered as
        its ``Tuple`` is — without building or caching one.

        Columns are decoded ``_DECODE_ROWS`` physical rows at a time; a
        row that holds a ``Tuple`` (its own rendering, ``3.0`` beside
        ``3``, or one materialized earlier) reads from it.
        """
        return chain.from_iterable(
            map(self._values_block, range(0, len(self.alive), _DECODE_ROWS))
        )

    def _values_block(self, start: int) -> Iterable[PyTuple[Any, ...]]:
        """The live rows among the ``_DECODE_ROWS`` from ``start`` on."""
        end = start + _DECODE_ROWS
        decoded = zip(
            *(
                map(rep.__getitem__, column[start:end])
                for rep, column in zip(self.decode, self.columns)
            )
        )
        block = list(decoded)
        cached = self.cache[start:end]
        for offset in compress(count(), map(is_not, cached, repeat(None))):
            block[offset] = cached[offset].values()
        return compress(block, self.alive[start:end]) if self.dead else block

    def iter_live_rows(self) -> Iterator[int]:
        """Live row indices in insertion order."""
        alive = self.alive
        for row in range(len(alive)):
            if alive[row]:
                yield row

    # -- copying -----------------------------------------------------------

    def copy(self) -> "ColumnStore":
        """Independent store sharing only immutable values and tuples."""
        clone = ColumnStore.__new__(ColumnStore)
        clone.schema = self.schema
        clone.encode = [mapping.copy() for mapping in self.encode]
        clone.decode = [list(rep) for rep in self.decode]
        clone.columns = [array("q", column) for column in self.columns]
        clone.alive = bytearray(self.alive)
        clone.table = array("q", self.table)
        clone.mask = self.mask
        clone.used = self.used
        clone.live = self.live
        clone.cache = list(self.cache)
        clone.dead = self.dead
        clone.compactions = self.compactions
        clone.edits = None
        return clone

    def __repr__(self) -> str:
        distinct = sum(len(rep) for rep in self.decode)
        return (
            f"ColumnStore({self.schema.name}, {self.live} live rows, "
            f"{self.dead} dead, {distinct} interned values)"
        )
