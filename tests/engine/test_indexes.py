"""RelationIndexes: caching, correctness, and mutation invalidation."""

from repro.engine.indexes import RelationIndexes, canonical_signature
from repro.relational.domains import STRING
from repro.relational.instance import RelationInstance
from repro.relational.schema import RelationSchema
from repro.relational.tuples import Tuple


def _rel(rows):
    schema = RelationSchema("R", [("A", STRING), ("B", STRING), ("C", STRING)])
    return RelationInstance(schema, rows)


class TestCanonicalSignature:
    def test_sorted_and_deduplicated(self):
        assert canonical_signature(["B", "A", "B"]) == ("A", "B")

    def test_permutations_share_signature(self):
        assert canonical_signature(["A", "B"]) == canonical_signature(["B", "A"])

    def test_empty(self):
        assert canonical_signature([]) == ()


class TestGroupIndex:
    def test_partitions_match_group_by(self):
        rel = _rel([("a", "x", "1"), ("a", "y", "2"), ("b", "x", "3")])
        assert dict(rel.indexes.group_index(("A",))) == rel.group_by(["A"])

    def test_groups_preserve_insertion_order(self):
        rel = _rel([("b", "x", "1"), ("a", "x", "2"), ("b", "y", "3")])
        groups = rel.indexes.group_index(("A",))
        assert list(groups) == [("b",), ("a",)]
        assert [t["C"] for t in groups[("b",)]] == ["1", "3"]

    def test_empty_signature_is_one_group(self):
        rel = _rel([("a", "x", "1"), ("b", "y", "2")])
        groups = rel.indexes.group_index(())
        assert set(groups) == {()}
        assert len(groups[()]) == 2

    def test_cached_between_calls(self):
        rel = _rel([("a", "x", "1")])
        first = rel.indexes.group_index(("A",))
        second = rel.indexes.group_index(("A",))
        assert first is second
        assert rel.indexes.stats.builds == 1
        assert rel.indexes.stats.hits == 1


class TestKeySets:
    """The key sets an IND / CIND asks about, read off the one counted
    target index (``grouped_key_counts``)."""

    def test_key_set(self):
        rel = _rel([("a", "x", "1"), ("a", "y", "2"), ("b", "x", "3")])
        assert rel.indexes.grouped_key_counts((), ("A",)) == {
            (): {("a",): 2, ("b",): 1}
        }
        assert set(rel.indexes.grouped_key_counts((), ("A", "B"))[()]) == {
            ("a", "x"),
            ("a", "y"),
            ("b", "x"),
        }

    def test_grouped_key_sets(self):
        rel = _rel([("a", "x", "1"), ("a", "y", "1"), ("b", "x", "2")])
        grouped = rel.indexes.grouped_key_counts(("C",), ("A", "B"))
        assert grouped[("1",)] == {("a", "x"): 1, ("a", "y"): 1}
        assert grouped[("2",)] == {("b", "x"): 1}

    def test_grouped_key_sets_empty_group_attrs(self):
        rel = _rel([("a", "x", "1"), ("b", "y", "2")])
        grouped = rel.indexes.grouped_key_counts((), ("A",))
        assert grouped == {(): {("a",): 1, ("b",): 1}}

    def test_counted_index_is_cached_and_counted_as_an_index(self):
        rel = _rel([("a", "x", "1"), ("b", "y", "2")])
        first = rel.indexes.grouped_key_counts(("C",), ("A",))
        assert rel.indexes.grouped_key_counts(("C",), ("A",)) is first
        assert (rel.indexes.stats.builds, rel.indexes.stats.hits) == (1, 1)


class TestInvalidation:
    def test_add_bumps_version_and_invalidates(self):
        rel = _rel([("a", "x", "1")])
        before = rel.indexes.group_index(("A",))
        rel.add(("b", "y", "2"))
        after = rel.indexes.group_index(("A",))
        assert before is not after
        assert ("b",) in after
        assert rel.indexes.stats.invalidations == 1

    def test_duplicate_add_is_noop(self):
        rel = _rel([("a", "x", "1")])
        version = rel.version
        index = rel.indexes.group_index(("A",))
        rel.add(("a", "x", "1"))  # set semantics: already present
        assert rel.version == version
        assert rel.indexes.group_index(("A",)) is index

    def test_remove_invalidates(self):
        rel = _rel([("a", "x", "1"), ("b", "y", "2")])
        t = rel.tuples()[0]
        keys = rel.indexes.grouped_key_counts((), ("A",))[()]
        assert ("a",) in keys
        rel.remove(t)
        assert ("a",) not in rel.indexes.grouped_key_counts((), ("A",))[()]

    def test_discard_absent_is_noop(self):
        rel = _rel([("a", "x", "1")])
        other = _rel([("z", "z", "z")]).tuples()[0]
        version = rel.version
        index = rel.indexes.group_index(("A",))
        rel.discard(other)
        assert rel.version == version
        assert rel.indexes.group_index(("A",)) is index

    def test_discard_present_invalidates(self):
        rel = _rel([("a", "x", "1")])
        t = rel.tuples()[0]
        rel.indexes.group_index(("A",))
        rel.discard(t)
        assert rel.indexes.group_index(("A",)) == {}

    def test_copy_gets_independent_indexes(self):
        rel = _rel([("a", "x", "1")])
        copy = rel.copy()
        original_index = rel.indexes.group_index(("A",))
        copy.add(("b", "y", "2"))
        assert rel.indexes.group_index(("A",)) is original_index
        assert ("b",) in copy.indexes.group_index(("A",))
        assert ("b",) not in rel.indexes.group_index(("A",))

    def test_filter_gets_independent_indexes(self):
        rel = _rel([("a", "x", "1"), ("b", "y", "2")])
        rel.indexes.group_index(("A",))
        filtered = rel.filter(lambda t: t["A"] == "a")
        assert set(filtered.indexes.group_index(("A",))) == {("a",)}
        assert set(rel.indexes.group_index(("A",))) == {("a",), ("b",)}

    def test_grouped_key_sets_and_counts_invalidate_too(self):
        rel = _rel([("a", "x", "1")])
        rel.indexes.grouped_key_counts(("A",), ("B",))
        rel.add(("b", "y", "2"))
        assert rel.indexes.grouped_key_counts(("A",), ("B",)) == {
            ("a",): {("x",): 1},
            ("b",): {("y",): 1},
        }
        assert rel.indexes.stats.invalidations == 1
        assert rel.indexes.stats.builds == 2
