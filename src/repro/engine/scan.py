"""Compiled scan tasks: positional pattern evaluation over partitions.

A :class:`ScanTask` is one tableau row (or FD / eCFD) compiled against a
concrete relation schema: attribute names are resolved to value positions
once, so the per-group inner loop is pure tuple indexing.  FD, CFD and
eCFD expose ``scan_tasks(schema)``; the batch executor evaluates every
one of them — a single dependency's ``violations`` is a one-member plan —
so a rule detects the same way alone and in a batch.

Task anatomy — every FD/CFD/eCFD task supplies all of it:

* ``lookup_key`` — set when the pattern is constant on the whole scan
  signature: the single matching partition is one key lookup, no sweep;
* ``key_constants`` / ``match_fn`` — for swept patterns, how to decide
  from a partition *key* alone whether the group participates (pattern
  matching on X depends only on t[X]);
* ``single(t, out)`` / ``pair(first, other, out)`` — the row's semantics
  per tuple: every violation is either a *single-tuple* check on one
  tuple (an RHS value clashing with a pattern constant — Q1 of
  :mod:`repro.cfd.sqlgen`) or a *first-vs-other* pair check against the
  partition's first tuple (the embedded FD disagreeing — Q2).  The delta
  engine (:mod:`repro.engine.delta`) updates a partition's violations in
  O(1) per edited tuple through them, and files every violation under the
  tuple that contributes it — a ``single`` violation is witnessed by its
  tuple alone and a ``pair`` violation by ``(first, other)``, in that
  order;
* ``skip_singletons`` — true when ``single`` never emits, so the row can
  only produce pair violations: sweeps skip size-1 groups without a call;
* ``columnar`` — a :class:`ColumnarSpec` declaring the same semantics a
  third way, as primitive checks over encoded columns, so the vectorized
  kernels (:mod:`repro.engine.kernels`) can decide *which* rows violate
  without touching a ``Tuple``.

One partition's violations are ``single`` on every member, then ``pair``
of the first member against every other one, both in insertion order:
the order the executor emits flagged rows in, and the order the delta
engine re-sweeps a touched partition in.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Tuple as PyTuple

__all__ = ["ColumnarSpec", "ScanTask"]


class ColumnarSpec:
    """A task's semantics as primitive checks over encoded columns.

    Every FD/CFD/eCFD task decomposes into:

    * ``pair_attrs`` — attributes whose disagreement with the partition's
      first tuple is a pair violation (the embedded FD's RHS);
    * ``singles`` — per-row checks: ``("eq", attr, c)`` flags rows whose
      value differs from the constant ``c``; ``("set", attr, values,
      negated)`` flags rows failing the eCFD set pattern;
    * ``key_checks`` — which partitions participate, decided from the key
      alone: ``("eq", i, c)`` requires signature position ``i`` to equal
      ``c``; ``("set", i, values, negated)`` applies a set pattern.

    Specs are value-hashable so kernel results can be cached per
    (signature, spec) across recompiled task closures.
    """

    __slots__ = ("pair_attrs", "singles", "key_checks", "_key")

    def __init__(
        self,
        pair_attrs: Sequence[str] = (),
        singles: Sequence[tuple] = (),
        key_checks: Sequence[tuple] = (),
    ):
        self.pair_attrs: PyTuple[str, ...] = tuple(pair_attrs)
        self.singles: PyTuple[tuple, ...] = tuple(singles)
        self.key_checks: PyTuple[tuple, ...] = tuple(key_checks)
        self._key = (self.pair_attrs, self.singles, self.key_checks)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ColumnarSpec) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return (
            f"ColumnarSpec(pair={list(self.pair_attrs)}, "
            f"{len(self.singles)} singles, {len(self.key_checks)} key checks)"
        )


class ScanTask:
    """One compiled pattern row ready to run against shared partitions."""

    __slots__ = (
        "lookup_key",
        "key_constants",
        "match_fn",
        "skip_singletons",
        "single",
        "pair",
        "columnar",
    )

    def __init__(
        self,
        lookup_key: Optional[tuple],
        key_constants: Sequence[PyTuple[int, object]],
        *,
        single: Callable[[Any, list], None],
        pair: Callable[[Any, Any, list], None],
        columnar: ColumnarSpec,
        skip_singletons: bool = False,
        match_fn: Optional[Callable[[tuple], bool]] = None,
    ):
        self.lookup_key = lookup_key
        self.key_constants = list(key_constants)
        self.match_fn = match_fn
        self.skip_singletons = skip_singletons
        self.single = single
        self.pair = pair
        self.columnar = columnar

    def matches(self, key: tuple) -> bool:
        """Does the partition with this key participate in the row?"""
        if self.match_fn is not None:
            return self.match_fn(key)
        for position, value in self.key_constants:
            if key[position] != value:
                return False
        return True

    def __repr__(self) -> str:
        if self.lookup_key is not None:
            return f"ScanTask(lookup {self.lookup_key})"
        return (
            f"ScanTask(sweep, {len(self.key_constants)} key constants, "
            f"skip_singletons={self.skip_singletons})"
        )

