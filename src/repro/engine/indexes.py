"""Lazily-built, mutation-invalidated hash indexes over relation instances.

This is the storage layer of the indexed execution engine: every detector
(FD, CFD, eCFD, IND, CIND, MD blocking) asks the relation for the index it
needs instead of re-scanning tuples.  Indexes are cached per
:class:`~repro.relational.instance.RelationInstance` and keyed by the
attribute signature, so two dependencies sharing a left-hand side share one
partition of the data — the in-memory analogue of the paper's merged
SQL detection queries, which touch the relation a fixed number of times no
matter how many pattern tuples the tableaux hold.

Invalidation is by version counter: ``RelationInstance`` bumps ``version``
on every effective ``add``/``remove``/``discard``, and the index cache
drops everything the next time it is consulted after a mutation.  ``copy``
and ``filter`` build fresh instances, which start with empty caches.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple as PyTuple

from repro.engine import kernels
from repro.relational.tuples import Tuple

__all__ = ["canonical_signature", "key_getter", "IndexStats", "RelationIndexes"]


def canonical_signature(attributes: Iterable[str]) -> PyTuple[str, ...]:
    """Order-insensitive attribute signature (sorted, duplicate-free).

    Partitioning on ``{A, B}`` and on ``{B, A}`` yields the same groups, so
    every engine component normalizes attribute sets to this form before
    asking for an index — that is what lets dependencies with permuted
    left-hand sides share one partition.
    """
    return tuple(sorted(dict.fromkeys(attributes)))


def key_getter(schema: Any, attributes: Sequence[str]):
    """Compile ``values → key tuple`` projection for ``attributes``.

    The single authority for key shape across the engine: every index key
    and every membership probe must be built by this helper so they agree.
    ``itemgetter`` with one index returns a scalar, so the single-attribute
    case wraps it to keep keys uniformly tuples; the empty signature maps
    everything to ``()`` (empty-LHS dependencies: one global group).
    """
    positions = [schema.index_of(a) for a in attributes]
    if not positions:
        return lambda values: ()
    if len(positions) == 1:
        get = itemgetter(positions[0])
        return lambda values: (get(values),)
    return itemgetter(*positions)


def _code_rows(store: Any, schema: Any, attrs: Sequence[str]):
    """Encoded key tuples per live row, in insertion order.

    Returns ``(positions, rows)`` where each row is the tuple of interned
    codes on ``attrs`` — the columnar analogue of ``key_of(t.values())``,
    built from the code columns without materializing any ``Tuple``.
    Codes are equality-congruent with values, so deduplicating or grouping
    on code tuples decides exactly what value tuples would.
    """
    positions = [schema.index_of(a) for a in attrs]
    columns = [store.columns[p].tolist() for p in positions]
    if store.dead:
        alive = store.alive
        live = [i for i in range(store.n_rows) if alive[i]]
        if not columns:
            return positions, [()] * len(live)
        return positions, [tuple(col[i] for col in columns) for i in live]
    if not columns:
        return positions, [()] * store.n_rows
    if len(columns) == 1:
        return positions, [(c,) for c in columns[0]]
    return positions, list(zip(*columns))


def _decoder(store: Any, positions: Sequence[int]):
    """Compile ``code tuple → value tuple`` for one projection."""
    tables = [store.decode[p] for p in positions]

    def decode(codes: tuple) -> tuple:
        return tuple(table[c] for table, c in zip(tables, codes))

    return decode


class IndexStats:
    """Build/hit counters, exposed for tests and plan introspection."""

    __slots__ = ("builds", "hits", "invalidations")

    def __init__(self) -> None:
        self.builds = 0
        self.hits = 0
        self.invalidations = 0

    def __repr__(self) -> str:
        return (
            f"IndexStats(builds={self.builds}, hits={self.hits}, "
            f"invalidations={self.invalidations})"
        )


class RelationIndexes:
    """Per-instance cache of hash indexes and vectorized layouts.

    All returned structures are **read-only by contract**: they are shared
    between every detector that asks for the same signature, and mutating
    them would corrupt later lookups.  Groups preserve relation insertion
    order (first-seen key order, insertion order within each group), which
    keeps violation reports deterministic.
    """

    def __init__(self, relation: Any):
        self._relation = relation
        self._version = relation.version
        self._groups: Dict[PyTuple[str, ...], Dict[tuple, List[Tuple]]] = {}
        self._key_sets: Dict[PyTuple[str, ...], FrozenSet[tuple]] = {}
        self._grouped_keys: Dict[
            PyTuple[PyTuple[str, ...], PyTuple[str, ...]],
            Dict[tuple, FrozenSet[tuple]],
        ] = {}
        self._layouts: Dict[PyTuple[str, ...], kernels.GroupLayout] = {}
        self._sweeps: Dict[tuple, Any] = {}
        self._grouped_counts: Dict[tuple, Dict[tuple, Dict[tuple, int]]] = {}
        self.stats = IndexStats()

    def _sync(self) -> None:
        if self._version != self._relation.version:
            self._groups.clear()
            self._key_sets.clear()
            self._grouped_keys.clear()
            self._layouts.clear()
            self._sweeps.clear()
            self._grouped_counts.clear()
            self._version = self._relation.version
            self.stats.invalidations += 1

    @property
    def _store(self) -> Any:
        return self._relation.column_store

    def _key_getter(self, attrs: PyTuple[str, ...]):
        return key_getter(self._relation.schema, attrs)

    def group_index(self, attributes: Sequence[str]) -> Mapping[tuple, Sequence[Tuple]]:
        """Hash partition: projection on ``attributes`` → tuples with it."""
        self._sync()
        attrs = tuple(attributes)
        groups = self._groups.get(attrs)
        if groups is None:
            self.stats.builds += 1
            key_of = self._key_getter(attrs)
            groups = {}
            setdefault = groups.setdefault
            for t in self._relation:
                setdefault(key_of(t.values()), []).append(t)
            self._groups[attrs] = groups
        else:
            self.stats.hits += 1
        return groups

    def key_set(self, attributes: Sequence[str]) -> FrozenSet[tuple]:
        """Distinct projections on ``attributes`` (IND/CIND membership)."""
        self._sync()
        attrs = tuple(attributes)
        keys = self._key_sets.get(attrs)
        if keys is None:
            self.stats.builds += 1
            store = self._store
            # Dedupe on code tuples, decode each distinct key once.
            positions, rows = _code_rows(store, self._relation.schema, attrs)
            decode = _decoder(store, positions)
            # repro: allow[REP001] — the set feeds a frozenset, so
            # iteration order cannot reach any output
            keys = frozenset(decode(codes) for codes in set(rows))
            self._key_sets[attrs] = keys
        else:
            self.stats.hits += 1
        return keys

    def grouped_key_sets(
        self, group_attributes: Sequence[str], key_attributes: Sequence[str]
    ) -> Mapping[tuple, FrozenSet[tuple]]:
        """Per ``group_attributes`` value, the key set on ``key_attributes``.

        This is the CIND target index: grouped by the Yp projection, keyed
        by the Y projection, built once per (relation, Yp, Y) and reused
        across every tableau row of every CIND with that signature.
        """
        self._sync()
        cache_key = (tuple(group_attributes), tuple(key_attributes))
        grouped = self._grouped_keys.get(cache_key)
        if grouped is None:
            self.stats.builds += 1
            store = self._store
            schema = self._relation.schema
            g_positions, g_rows = _code_rows(store, schema, cache_key[0])
            k_positions, k_rows = _code_rows(store, schema, cache_key[1])
            raw: Dict[tuple, set] = {}
            for g, k in zip(g_rows, k_rows):
                raw.setdefault(g, set()).add(k)
            decode_g = _decoder(store, g_positions)
            decode_k = _decoder(store, k_positions)
            grouped = {
                decode_g(g): frozenset(decode_k(k) for k in keys)
                for g, keys in raw.items()
            }
            self._grouped_keys[cache_key] = grouped
        else:
            self.stats.hits += 1
        return grouped

    def group_layout(self, attributes: Sequence[str]) -> kernels.GroupLayout:
        """Vectorized partition layout for one signature.

        A layout build counts as one index build — it plays the role of
        the hash partition (:meth:`group_index`) on every detection path,
        so the build/hit accounting (and the tests pinning it) carry over.
        """
        self._sync()
        attrs = tuple(attributes)
        layout = self._layouts.get(attrs)
        if layout is None:
            self.stats.builds += 1
            layout = kernels.build_layout(self._store, self._relation.schema, attrs)
            self._layouts[attrs] = layout
        else:
            self.stats.hits += 1
        return layout

    def task_flags(self, attributes: Sequence[str], spec: Any) -> Any:
        """Kernel flags for one ``ColumnarSpec`` (cached by spec value).

        Scan tasks are recompiled per detect, so the cache is keyed by the
        spec's *value*: a warm re-detect reuses the kernel result without
        touching the columns.  Deliberately outside the build/hit counters
        — it is derived from the layout, not an index of its own.
        """
        self._sync()
        attrs = tuple(attributes)
        cache_key = (attrs, spec)
        flags = self._sweeps.get(cache_key)
        if flags is None:
            layout = self._layouts.get(attrs)
            if layout is None:
                layout = self.group_layout(attrs)
            flags = kernels.task_flags(layout, self._relation.schema, spec)
            self._sweeps[cache_key] = flags
        return flags

    def grouped_key_counts(
        self, group_attributes: Sequence[str], key_attributes: Sequence[str]
    ) -> Mapping[tuple, Mapping[tuple, int]]:
        """Per ``group_attributes`` value, multiplicity of each key value.

        The delta engine's inclusion-state seed: like
        :meth:`grouped_key_sets` but counting rows per key, so incremental
        removals know when the last provider of a key disappears.  Returned
        mappings are shared and read-only; callers who mutate must copy.
        """
        self._sync()
        cache_key = (tuple(group_attributes), tuple(key_attributes))
        counts = self._grouped_counts.get(cache_key)
        if counts is None:
            store = self._store
            schema = self._relation.schema
            g_positions, g_rows = _code_rows(store, schema, cache_key[0])
            k_positions, k_rows = _code_rows(store, schema, cache_key[1])
            raw: Dict[tuple, Dict[tuple, int]] = {}
            for g, k in zip(g_rows, k_rows):
                bucket = raw.setdefault(g, {})
                bucket[k] = bucket.get(k, 0) + 1
            decode_g = _decoder(store, g_positions)
            decode_k = _decoder(store, k_positions)
            counts = {
                decode_g(g): {decode_k(k): n for k, n in kc.items()}
                for g, kc in raw.items()
            }
            self._grouped_counts[cache_key] = counts
        return counts

    def __repr__(self) -> str:
        return (
            f"RelationIndexes({self._relation.schema.name}@v{self._version}, "
            f"{len(self._groups)} groups, {len(self._key_sets)} key sets, "
            f"{len(self._grouped_keys)} grouped key sets, {self.stats!r})"
        )
