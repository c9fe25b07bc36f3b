"""Vectorized scan kernels over encoded columns.

The indexed executor's inner loop — "for every partition, for every
pattern row, compare tuples" — is where the per-tuple interpreter constant
lives.  This module does that loop's *decision* work as array arithmetic
over the :class:`~repro.relational.columnar.ColumnStore` code columns
(numpy is a dependency of the package), leaving only the violating rows
to be materialized and run through the task's ``single`` / ``pair``
closures (:class:`~repro.engine.scan.ScanTask`):

* :class:`GroupLayout` partitions a relation on a scan signature in one
  vectorized pass: rows are ranked by *first-seen* key order (the
  iteration order of ``RelationIndexes.group_index``), and per-group
  segment boundaries expose every column as ``column[order]`` slices;
* :func:`inclusion_ranks` decides one IND / CIND tableau row once per
  group of its source layout (on Xp + X): the groups carrying the row's
  Xp constants whose decoded X projection the target does not provide,
  and :func:`rows_of_ranks` turns them into row ids in relation order;
* :func:`task_flags` evaluates one task's
  :class:`~repro.engine.scan.ColumnarSpec` against a layout and returns
  per-row violation flags plus the ranks of every group holding one:
  pair checks compare each segment against its first element, constant/set
  checks compare against interned codes (a constant never interned simply
  matches no code).

Because codes are equality-congruent with values, code comparisons decide
exactly what the decoded comparisons would — the flags are *exact*, not a
superset.  The executor materializes only flagged rows (plus each flagged
group's first tuple) and routes them through ``single`` / ``pair`` in one
fixed order — groups in first-seen key order, and within a group
``single`` on the flagged members, then ``pair`` of the group's first
tuple against the flagged others, both in insertion order — so a report's
violations, their order and their rendered bytes are a function of the
data alone.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple as PyTuple

import numpy as _np

__all__ = [
    "GroupLayout",
    "TaskFlags",
    "build_layout",
    "flagged_rows",
    "inclusion_ranks",
    "rows_of_ranks",
    "task_flags",
]


def flagged_rows(layout: "GroupLayout", flags: "TaskFlags", rank: int):
    """Flagged original row ids within one group: ``(singles, pairs)``.

    Both lists are in insertion order; the group's first row can appear in
    ``singles`` but never in ``pairs`` (it cannot differ from itself).
    """
    start = int(layout.starts[rank])
    end = start + int(layout.sizes[rank])
    rows = layout.rows_sorted
    singles: list = []
    pairs: list = []
    if flags.single_rows is not None:
        singles = [int(r) for r in rows[start:end][flags.single_rows[start:end]]]
    if flags.pair_rows is not None:
        pairs = [int(r) for r in rows[start:end][flags.pair_rows[start:end]]]
    return singles, pairs


class GroupLayout:
    """One relation partitioned on one signature, in vector form.

    ``order`` sorts the live rows by group rank (stable, so insertion
    order survives within each group); ``starts``/``sizes`` delimit the
    per-group segments; ``key_codes[i]`` holds each group's code on the
    i-th signature attribute.  Group rank follows first-seen key order —
    the iteration order of ``RelationIndexes.group_index``.
    """

    __slots__ = (
        "store",
        "positions",
        "rows_sorted",
        "seg_starts",
        "seg_sizes",
        "perm",
        "starts",
        "sizes",
        "key_codes",
        "n_groups",
        "n_rows",
        "code_sizes",
        "seg_keys",
        "segment_rank",
        "_sorted_columns",
    )

    def __init__(
        self,
        store,
        positions,
        rows_sorted,
        seg_starts,
        seg_sizes,
        perm,
        code_sizes,
        seg_keys,
    ):
        self.store = store
        self.positions: PyTuple[int, ...] = positions
        self.rows_sorted = rows_sorted
        # Segments in sorted-key order (monotonic starts — the form
        # ``ufunc.reduceat`` needs) …
        self.seg_starts = seg_starts
        self.seg_sizes = seg_sizes
        # … and the permutation mapping first-seen group rank → segment,
        # giving rank-indexed views for the executor.
        self.perm = perm
        self.starts = seg_starts[perm]
        self.sizes = seg_sizes[perm]
        self.key_codes: List[Any] = []
        self.n_groups = len(seg_starts)
        self.n_rows = len(rows_sorted)
        # The lookup side of the segments (``rank_of_key``): each
        # attribute's code-space size at build time, the sorted segment
        # keys — one packed ``int64`` per group when ``code_sizes`` fit
        # in one, else one code column per attribute — and ``perm``'s
        # inverse, segment → rank.  Memoryviews: ``bisect`` reads them as
        # Python ints, a probe costs no array conversion.
        self.code_sizes: PyTuple[int, ...] = code_sizes
        self.seg_keys = [memoryview(keys) for keys in seg_keys]
        segment_rank = _np.empty_like(perm)
        segment_rank[perm] = _np.arange(len(perm))
        self.segment_rank = memoryview(segment_rank)
        self._sorted_columns: Dict[int, Any] = {}

    def sorted_column(self, position: int):
        """Codes of one attribute over live rows, in group-segment order."""
        column = self._sorted_columns.get(position)
        if column is None:
            full = _np.frombuffer(self.store.columns[position], dtype=_np.int64)
            column = full[self.rows_sorted]
            self._sorted_columns[position] = column
        return column

    def group_rows(self, rank: int) -> List[int]:
        """Original row indices of one group, in insertion order."""
        start = self.starts[rank]
        return [int(r) for r in self.rows_sorted[start : start + self.sizes[rank]]]

    def decoded_key(self, rank: int) -> tuple:
        """The group's partition key, decoded in signature order."""
        decode = self.store.decode
        return tuple(
            decode[p][int(codes[rank])]
            for p, codes in zip(self.positions, self.key_codes)
        )

    def rank_of_key(self, key: tuple) -> Optional[int]:
        """Rank of the group holding ``key``, or ``None``.

        The key is encoded and packed the way the build packed its rows,
        then found by binary search (``bisect``) over the sorted segment
        keys — no per-group index.  A value never interned, or interned
        after the build (a code at or above its build-time size), has no
        group.
        """
        encode = self.store.encode
        codes = []
        for p, size, value in zip(self.positions, self.code_sizes, key):
            code = encode[p].get(value)
            if code is None or code >= size:
                return None
            codes.append(code)
        if len(self.seg_keys) == 1:  # packed (one attribute packs to itself)
            packed = 0
            for size, code in zip(self.code_sizes, codes):
                packed = packed * size + code
            codes = [packed]
        # Segments are in lexicographic key order, so each column narrows
        # the window the previous one left.
        lo, hi = 0, self.n_groups
        for column, code in zip(self.seg_keys, codes):
            lo = bisect_left(column, code, lo, hi)
            hi = bisect_right(column, code, lo, hi)
            if lo == hi:
                return None
        return self.segment_rank[lo]


#: packed keys must stay below this (``int64`` with headroom); a signature
#: whose code spaces multiply past it is sorted and searched per column
_PACK_LIMIT = 1 << 62


def build_layout(store, schema, signature: Sequence[str]) -> GroupLayout:
    """Vectorized partition of ``store`` on ``signature`` (one stable sort)."""
    positions = tuple(schema.index_of(a) for a in signature)
    code_sizes = tuple(max(1, len(store.decode[p])) for p in positions)
    n_physical = store.n_rows
    if store.dead:
        live = _np.frombuffer(bytes(store.alive), dtype=_np.uint8)
        rows = _np.flatnonzero(live).astype(_np.int64)
    else:
        rows = _np.arange(n_physical, dtype=_np.int64)
    n = len(rows)
    empty = _np.empty(0, dtype=_np.int64)
    if n == 0:
        layout = GroupLayout(
            store, positions, rows, empty, empty, empty, code_sizes, [empty]
        )
        layout.key_codes = [empty for _ in positions]
        return layout
    columns = [
        _np.frombuffer(store.columns[p], dtype=_np.int64)[rows] for p in positions
    ]
    if not columns:
        # Empty signature: one global group holding every live row, whose
        # (empty) key packs to 0.
        zero = _np.zeros(1, dtype=_np.int64)
        sizes = _np.array([n], dtype=_np.int64)
        return GroupLayout(
            store, positions, rows, zero, sizes, zero, code_sizes, [zero]
        )
    radix = 1
    for size in code_sizes:
        radix *= size
    if radix < _PACK_LIMIT:
        # Mix the key's codes into one int64 (mixed radix: the order is
        # lexicographic on the codes) and sort that.
        combined = columns[0]
        for size, column in zip(code_sizes[1:], columns[1:]):
            combined = combined * size + column
        order = _np.argsort(combined, kind="stable")
        sorted_keys = [combined[order]]
    else:
        order = _np.lexsort(tuple(reversed(columns)))
        sorted_keys = [column[order] for column in columns]
    boundaries = _np.empty(n, dtype=bool)
    boundaries[0] = True
    head = sorted_keys[0]
    _np.not_equal(head[1:], head[:-1], out=boundaries[1:])
    for sorted_key in sorted_keys[1:]:
        boundaries[1:] |= sorted_key[1:] != sorted_key[:-1]
    seg_starts = _np.flatnonzero(boundaries)
    seg_sizes = _np.diff(_np.append(seg_starts, n))
    # The sort is stable, so each segment's first element carries the
    # group's earliest original position; ranking segments by it yields
    # ``group_index``'s first-seen iteration order.
    first_seen = order[seg_starts]
    perm = _np.argsort(first_seen)
    seg_keys = [sorted_key[seg_starts] for sorted_key in sorted_keys]
    layout = GroupLayout(
        store, positions, rows[order], seg_starts, seg_sizes, perm, code_sizes, seg_keys
    )
    layout.key_codes = [column[order][layout.starts] for column in columns]
    return layout


def _encoded(store, position: int, value: Any) -> int:
    """The interned code of ``value`` in one column, or -1 (matches none)."""
    code = store.encode[position].get(value)
    return -1 if code is None else code


def _member_codes(store, position: int, values) -> Any:
    """Codes of the pattern-set values that are interned in the column."""
    codes = [
        code
        for code in (store.encode[position].get(v) for v in values)
        if code is not None
    ]
    return _np.array(codes, dtype=_np.int64)


class TaskFlags:
    """Exact violation flags of one spec against one layout.

    ``single_rows`` / ``pair_rows`` are booleans over the layout's sorted
    rows (``None`` when the spec has no checks of that kind); a set row
    *is* a violation of that kind, decided on codes.  ``candidates`` holds
    the ranks of groups that match the key checks and contain at least one
    flagged row — the only groups the executor has to visit.
    """

    __slots__ = ("single_rows", "pair_rows", "candidates", "_candidate_set")

    def __init__(self, single_rows, pair_rows, candidates):
        self.single_rows = single_rows
        self.pair_rows = pair_rows
        self.candidates = candidates
        self._candidate_set: Optional[set] = None

    @property
    def candidate_set(self) -> set:
        """Candidate ranks as a Python set (cached for warm re-detects)."""
        if self._candidate_set is None:
            self._candidate_set = set(self.candidates.tolist())
        return self._candidate_set


def task_flags(layout: GroupLayout, schema, spec) -> TaskFlags:
    """Evaluate one :class:`~repro.engine.scan.ColumnarSpec` exactly.

    Code comparisons are congruent with the value comparisons the task
    closures perform (equal values share a code); the one scalar quirk —
    ``x != c`` is always true for a NaN constant — is special-cased, so
    the flags match the task closures' checks row for row.
    """
    store = layout.store
    n_groups = layout.n_groups
    empty = _np.empty(0, dtype=_np.int64)
    if n_groups == 0:
        return TaskFlags(None, None, empty)

    match = None
    for kind, sig_index, *payload in spec.key_checks:
        codes = layout.key_codes[sig_index]
        if kind == "eq":
            check = codes == _encoded(store, layout.positions[sig_index], payload[0])
        else:  # "set"
            values, negated = payload
            inside = _np.isin(
                codes, _member_codes(store, layout.positions[sig_index], values)
            )
            check = ~inside if negated else inside
        match = check if match is None else (match & check)
        if not match.any():
            return TaskFlags(None, None, empty)

    single_rows = None
    for kind, attr, *payload in spec.singles:
        position = schema.index_of(attr)
        column = layout.sorted_column(position)
        if kind == "eq":
            constant = payload[0]
            if constant != constant:  # NaN: scalar `!=` flags every row
                bad = _np.ones(layout.n_rows, dtype=bool)
            else:
                bad = column != _encoded(store, position, constant)
        else:  # "set"
            values, negated = payload
            inside = _np.isin(column, _member_codes(store, position, values))
            bad = inside if negated else ~inside
        single_rows = bad if single_rows is None else (single_rows | bad)

    pair_rows = None
    for attr in spec.pair_attrs:
        position = schema.index_of(attr)
        column = layout.sorted_column(position)
        firsts = column[layout.seg_starts]
        differs = column != _np.repeat(firsts, layout.seg_sizes)
        pair_rows = differs if pair_rows is None else (pair_rows | differs)

    # Per-group "any flagged row", reduced over the monotonic segment
    # starts, then permuted into first-seen rank order.
    violating_seg = _np.zeros(n_groups, dtype=bool)
    if single_rows is not None:
        violating_seg |= _np.logical_or.reduceat(single_rows, layout.seg_starts)
    if pair_rows is not None:
        violating_seg |= _np.logical_or.reduceat(pair_rows, layout.seg_starts)
    violating = violating_seg[layout.perm]
    if match is not None:
        violating &= match
    return TaskFlags(single_rows, pair_rows, _np.flatnonzero(violating))


def inclusion_ranks(
    layout: GroupLayout, constants: tuple, provided: Mapping[tuple, int]
) -> List[int]:
    """Ascending ranks of the groups one inclusion tableau row flags.

    ``layout`` partitions the source on Xp + X (``inclusion_signature``).
    A group is flagged iff its key carries ``constants`` on Xp — decided
    on codes, as a scan task's key check is — and its X projection,
    decoded once per group, is not a key of ``provided`` (the target's
    counted index under the row's Yp key), so ``3`` meets ``3.0`` as a
    value comparison does.
    """
    store = layout.store
    match = _np.ones(layout.n_groups, dtype=bool)
    for i, value in enumerate(constants):
        match &= layout.key_codes[i] == _encoded(store, layout.positions[i], value)
    ranks = _np.flatnonzero(match)
    columns = [
        [store.decode[position][code] for code in codes[ranks].tolist()]
        for position, codes in zip(
            layout.positions[len(constants) :], layout.key_codes[len(constants) :]
        )
    ]
    return [
        rank for rank, key in zip(ranks.tolist(), zip(*columns)) if key not in provided
    ]


def rows_of_ranks(layout: GroupLayout, ranks: Sequence[int]) -> List[int]:
    """The row ids of the given groups, ascending (relation order)."""
    if not ranks:
        return []
    chosen = _np.zeros(layout.n_groups, dtype=bool)
    chosen[layout.perm[list(ranks)]] = True  # rank → segment
    rows = layout.rows_sorted[_np.repeat(chosen, layout.seg_sizes)]
    return _np.sort(rows).tolist()
