"""Unit tests for Index, RangeIndex and MultiIndex."""

import numpy as np
import pytest

from repro.frame.index import (
    Index,
    MultiIndex,
    RangeIndex,
    concat_indexes,
    default_index,
    ensure_index,
)


class TestIndex:
    def test_basic(self):
        idx = Index(["a", "b", "c"], name="letters")
        assert len(idx) == 3
        assert idx.name == "letters"
        assert idx[1] == "b"
        assert "b" in idx and "z" not in idx

    def test_slice_returns_index(self):
        idx = Index([10, 20, 30])
        sub = idx[1:]
        assert isinstance(sub, Index)
        assert sub.to_list() == [20, 30]

    def test_equals_ignores_name(self):
        assert Index([1, 2], name="x").equals(Index([1, 2], name="y"))
        assert not Index([1, 2]).equals(Index([1, 3]))
        assert not Index([1]).equals(Index([1, 2]))

    def test_equals_with_nan(self):
        assert Index([1.0, np.nan]).equals(Index([1.0, np.nan]))

    def test_take(self):
        idx = Index(["a", "b", "c"], name="n")
        out = idx.take(np.array([2, 0]))
        assert out.to_list() == ["c", "a"]
        assert out.name == "n"

    def test_append_promotes_dtype(self):
        out = Index([1, 2]).append(Index([2.5]))
        assert out.to_list() == [1.0, 2.0, 2.5]

    def test_append_keeps_common_name(self):
        assert Index([1], name="n").append(Index([2], name="n")).name == "n"
        assert Index([1], name="a").append(Index([2], name="b")).name is None

    def test_get_indexer(self):
        idx = Index(["x", "y", "z"])
        assert idx.get_indexer(["z", "x"]).tolist() == [2, 0]
        with pytest.raises(KeyError):
            idx.get_indexer(["missing"])

    def test_get_indexer_first_occurrence(self):
        idx = Index(["a", "a", "b"])
        assert idx.get_indexer(["a"]).tolist() == [0]

    def test_slice_indexer_inclusive(self):
        idx = Index(["a", "b", "c", "d"])
        assert idx.slice_indexer("b", "c").tolist() == [1, 2]
        with pytest.raises(KeyError):
            idx.slice_indexer("nope", None)

    def test_argsort_and_monotonic(self):
        assert Index([3, 1, 2]).argsort().tolist() == [1, 2, 0]
        assert Index([1, 2, 3]).is_monotonic_increasing()
        assert not Index([2, 1]).is_monotonic_increasing()

    def test_object_argsort(self):
        idx = Index(["b", "a"])
        assert idx.argsort().tolist() == [1, 0]


class TestRangeIndex:
    def test_lazy_values(self):
        idx = RangeIndex(5)
        assert idx._values is None  # not materialized yet
        assert len(idx) == 5
        assert idx.values.tolist() == [0, 1, 2, 3, 4]

    def test_start_offset(self):
        idx = RangeIndex(10, start=7)
        assert list(idx) == [7, 8, 9]
        assert idx[0] == 7
        assert idx[-1] == 9
        with pytest.raises(IndexError):
            idx[3]

    def test_contains(self):
        idx = RangeIndex(5, start=2)
        assert 3 in idx and 1 not in idx and "x" not in idx

    def test_equals_fast_path(self):
        assert RangeIndex(5).equals(RangeIndex(5))
        assert not RangeIndex(5).equals(RangeIndex(6))
        assert RangeIndex(3).equals(Index([0, 1, 2]))

    def test_empty_ranges_equal(self):
        assert RangeIndex(0).equals(RangeIndex(3, start=3))

    def test_negative_stop_clamped(self):
        assert len(RangeIndex(-5)) == 0

    def test_nbytes_constant(self):
        assert RangeIndex(10 ** 6).nbytes == 32

    def test_take_materializes(self):
        out = RangeIndex(10).take(np.array([9, 0]))
        assert out.to_list() == [9, 0]


class TestMultiIndex:
    def test_from_arrays(self):
        mi = MultiIndex.from_arrays(
            [np.array([1, 1, 2]), np.array(["a", "b", "a"], dtype=object)],
            names=["num", "letter"],
        )
        assert mi.nlevels == 2
        assert mi.to_list() == [(1, "a"), (1, "b"), (2, "a")]

    def test_get_level_values(self):
        mi = MultiIndex.from_arrays(
            [np.array([1, 2]), np.array(["x", "y"], dtype=object)],
            names=["n", "l"],
        )
        assert mi.get_level_values(0).to_list() == [1, 2]
        assert mi.get_level_values("l").to_list() == ["x", "y"]

    def test_take(self):
        mi = MultiIndex([(1, "a"), (2, "b")], names=["n", "l"])
        out = mi.take(np.array([1]))
        assert out.to_list() == [(2, "b")]
        assert out.names == ["n", "l"]

    def test_append(self):
        a = MultiIndex([(1, "a")], names=["n", "l"])
        b = MultiIndex([(2, "b")], names=["n", "l"])
        out = a.append(b)
        assert out.to_list() == [(1, "a"), (2, "b")]

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            MultiIndex.from_arrays([np.array([1]), np.array([1, 2])])

    def test_requires_arrays(self):
        with pytest.raises(ValueError):
            MultiIndex.from_arrays([])


class TestHelpers:
    def test_default_index(self):
        assert isinstance(default_index(3), RangeIndex)

    def test_ensure_index(self):
        assert isinstance(ensure_index(None, n=4), RangeIndex)
        idx = Index([1])
        assert ensure_index(idx) is idx
        assert ensure_index([1, 2]).to_list() == [1, 2]
        with pytest.raises(ValueError):
            ensure_index(None)


def _pairwise(indexes):
    """The reference: a left fold of ``Index.append``."""
    out = indexes[0]
    for ix in indexes[1:]:
        out = out.append(ix)
    return out


def _typed(index):
    return [(type(v), v) for v in index.to_list()]


DAY = np.datetime64("2024-01-01", "ns")


class TestConcatIndexes:
    @pytest.mark.parametrize("pieces", [
        [Index([1, 2]), Index([2.5])],                       # int + float
        [RangeIndex(3), Index([7, 8]), RangeIndex(2)],
        [Index(["a"]), Index([1, 2])],                       # object
        [Index([1]), Index([0.5]), Index(["x"])],            # widen twice
        [Index(np.array([DAY, DAY])), Index([3])],          # datetime + int
        [Index(np.array([DAY])), Index(np.array([DAY]))],
        [Index([True]), Index([1]), Index([1.5])],
        [Index(np.array([1], dtype=np.int8)),
         Index(np.array([200], dtype=np.uint8))],
    ])
    def test_matches_pairwise_append(self, pieces):
        expected = _pairwise(pieces)
        actual = concat_indexes(pieces)
        assert type(actual) is type(expected)
        assert actual.dtype == expected.dtype
        assert _typed(actual) == _typed(expected)
        assert actual.name == expected.name

    @pytest.mark.parametrize("names", [
        ("k", "k", "k"),
        ("k", "j", "k"),
        ("k", None, "k"),
        (None, None, None),
        (None, "k", "k"),
    ])
    def test_name_kept_only_when_shared(self, names):
        pieces = [Index([i], name=name) for i, name in enumerate(names)]
        assert concat_indexes(pieces).name == _pairwise(pieces).name
        shared = len(set(names)) == 1
        assert concat_indexes(pieces).name == (names[0] if shared else None)

    def test_single_piece_is_returned_as_is(self):
        idx = RangeIndex(4)
        assert concat_indexes([idx]) is idx

    def test_multiindex_pieces(self):
        left = MultiIndex([(1, "a")], names=["n", "s"])
        right = MultiIndex([(2, "b")], names=["n", "s"])
        for pieces in ([left, right], [left, Index([5])],
                       [Index([5]), left]):
            out = concat_indexes(pieces)
            expected = _pairwise(pieces)
            assert type(out) is type(expected)
            assert out.to_list() == expected.to_list()
