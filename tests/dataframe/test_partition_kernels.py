"""Partition-kernel parity and shuffle-data-plane behaviour.

The vectorized shuffle kernels (``repro.dataframe.partition``,
``repro.frame.hashing``) must be bit-identical to the scalar reference
paths they replaced: same hash per key, same range partition per key,
same rows in the same order per output frame. On top of that, shuffles
must stay deterministic across serial/parallel execution, and
mapper-side combine must shrink shuffle bytes without changing results.
"""

import numpy as np
import pytest

from repro.config import Config
from repro.core import Session
from repro import frame as pf
from repro.dataframe import from_frame
from repro.dataframe.partition import (
    assign_hash_partitions,
    assign_range_partitions,
    split_by_assignment,
)
from repro.frame.hashing import HASH_MOD, hash_array, stable_hash


def reference_hashes(values) -> np.ndarray:
    return np.array(
        [stable_hash(v) for v in np.asarray(values).tolist()], dtype=np.int64
    )


class TestHashParity:
    @pytest.mark.parametrize("name,values", [
        ("int64", np.random.default_rng(0).integers(-2**62, 2**62, 500)),
        ("int32", np.arange(-250, 250, dtype=np.int32)),
        ("uint64", np.random.default_rng(1).integers(
            0, 2**64, 500, dtype=np.uint64)),
        ("bool", np.array([True, False] * 50)),
        ("float", np.random.default_rng(2).normal(size=500) * 1e6),
        ("float_edge", np.array([np.nan, np.inf, -np.inf, 0.0, -0.0,
                                 1e300, -1e300, 1.5, -2.75])),
        ("object_str", np.array([f"key-{i % 37}" for i in range(300)],
                                dtype=object)),
        ("object_mixed", np.array(
            [1, 1.0, True, None, "1", 2**70, float("nan")] * 20,
            dtype=object)),
        ("datetime", np.array(["2020-01-01", "NaT", "2021-06-05"],
                              dtype="datetime64[ns]")),
    ])
    def test_vectorized_matches_scalar(self, name, values):
        vec = hash_array(values)
        ref = reference_hashes(values)
        assert vec.dtype == np.int64
        assert (vec == ref).all()
        assert ((vec >= 0) & (vec < HASH_MOD)).all()

    def test_matches_original_formulas(self):
        # pin the published hash definition: int (Knuth multiplicative),
        # float (CPython prime), str (FNV-1a) — a silent change here
        # would reroute every row of every hash shuffle.
        assert stable_hash(5) == 5 * 2654435761 % 2**31
        assert stable_hash(-7) == -7 * 2654435761 % 2**31
        assert stable_hash(2.5) == int(2.5 * 1000003) % 2**31
        h = 2166136261
        for ch in "abc":
            h = (h ^ ord(ch)) * 16777619 % 2**32
        assert stable_hash("abc") == h % 2**31
        assert stable_hash(None) == 0
        assert stable_hash(float("nan")) == 0

    def test_int_float_do_not_collide_via_memo(self):
        # dict keys unify 1 and 1.0; the memoized object path must not.
        values = np.array([1, 1.0, 1, 1.0], dtype=object)
        assert (hash_array(values) == reference_hashes(values)).all()
        assert stable_hash(1) != stable_hash(1.0)

    def test_hash_partition_ids_parity(self):
        keys = np.random.default_rng(3).integers(-10**9, 10**9, 2000)
        for n_parts in (2, 7, 64):
            vec = assign_hash_partitions(keys, n_parts, vectorized=True)
            ref = assign_hash_partitions(keys, n_parts, vectorized=False)
            assert (vec == ref).all()


class TestRangeParity:
    @pytest.mark.parametrize("name,keys,boundaries", [
        ("float", np.random.default_rng(4).normal(size=500),
         sorted(np.random.default_rng(5).normal(size=7).tolist())),
        ("float_nan", np.concatenate(
            [np.random.default_rng(6).normal(size=200), [np.nan] * 5]),
         sorted(np.random.default_rng(7).normal(size=3).tolist())),
        ("int", np.random.default_rng(8).integers(0, 1000, 500),
         sorted({int(v) for v in
                 np.random.default_rng(9).integers(0, 1000, 9)})),
        ("str", np.array([f"u{i % 50:03d}" for i in range(300)],
                         dtype=object),
         ["u010", "u025", "u040"]),
        ("str_none", np.array(["a", None, "z", "m"] * 25, dtype=object),
         ["f", "p"]),
        ("on_boundary", np.array([0, 5, 10, 15, 20]), [5, 15]),
    ])
    def test_vectorized_matches_scalar(self, name, keys, boundaries):
        vec = assign_range_partitions(keys, list(boundaries), vectorized=True)
        ref = assign_range_partitions(keys, list(boundaries), vectorized=False)
        assert (vec == ref).all()

    def test_missing_keys_go_to_last_partition(self):
        keys = np.array([None, "b", None], dtype=object)
        assert assign_range_partitions(keys, ["a", "c"]).tolist() == [2, 1, 2]
        fkeys = np.array([np.nan, 0.5, np.nan])
        assert assign_range_partitions(fkeys, [0.0, 1.0]).tolist() == [2, 1, 2]

    def test_no_boundaries_single_partition(self):
        keys = np.arange(10)
        assert (assign_range_partitions(keys, []) == 0).all()


class TestSplitByAssignment:
    def _frame(self, n=333):
        rng = np.random.default_rng(11)
        return pf.DataFrame({
            "k": rng.integers(0, 40, n),
            "v": rng.normal(size=n),
            "s": np.array([f"x{i % 9}" for i in range(n)], dtype=object),
        })

    def test_matches_boolean_mask_reference(self):
        frame = self._frame()
        assignment = assign_hash_partitions(frame["k"].values, 6)
        fast = split_by_assignment(frame, assignment, 6, vectorized=True)
        slow = split_by_assignment(frame, assignment, 6, vectorized=False)
        assert sum(len(p) for p in fast) == len(frame)
        for a, b in zip(fast, slow):
            assert a.equals(b)

    def test_preserves_original_row_order_within_partition(self):
        frame = self._frame()
        assignment = np.zeros(len(frame), dtype=np.int64)
        (part,) = split_by_assignment(frame, assignment, 1)
        assert part.equals(frame[np.ones(len(frame), dtype=bool)])

    def test_empty_partitions_keep_schema(self):
        frame = self._frame(n=10)
        assignment = np.full(10, 2, dtype=np.int64)
        parts = split_by_assignment(frame, assignment, 4)
        assert [len(p) for p in parts] == [0, 0, 10, 0]
        for part in parts:
            assert part.columns.to_list() == ["k", "v", "s"]


def report_tuple(session: Session):
    report = session.executor.report
    return (
        report.makespan,
        report.total_compute_seconds,
        report.total_transfer_bytes,
        report.total_shuffle_bytes,
        report.combine_dropped_rows,
        report.n_subtasks,
        report.n_graph_nodes,
        dict(report.peak_memory),
        dict(report.band_busy),
    )


def shuffle_config(**overrides) -> Config:
    cfg = Config()
    cfg.chunk_store_limit = 16 * 1024
    cfg.tree_reduce_threshold = 1  # force shuffle-reduce for groupby
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def skewed_frame(n=20_000) -> pf.DataFrame:
    """90% of rows share 3 hot keys — the paper's skew scenario."""
    rng = np.random.default_rng(17)
    hot = rng.choice([1, 2, 3], size=int(n * 0.9))
    cold = rng.integers(4, 500, size=n - len(hot))
    keys = np.concatenate([hot, cold])
    rng.shuffle(keys)
    return pf.DataFrame({
        "k": keys,
        "v": rng.normal(size=n),
        "w": rng.normal(size=n),
    })


class TestShuffleDeterminism:
    def _run(self, cfg: Config):
        with Session(cfg) as session:
            df = from_frame(skewed_frame(), session)
            agg = df.groupby("k", as_index=False).agg({"v": "mean",
                                                       "w": "sum"})
            joined = agg.merge(
                from_frame(skewed_frame(4_000), session), on="k", how="inner"
            )
            return joined.fetch(), report_tuple(session)

    def test_skewed_shuffle_serial_vs_parallel(self):
        serial_cfg = shuffle_config(
            parallel_execution=False,
            parallel_min_subtasks=2, parallel_min_cores=1,
        )
        parallel_cfg = shuffle_config(
            parallel_execution=True,
            parallel_min_subtasks=2, parallel_min_cores=1,
        )
        expected, serial_report = self._run(serial_cfg)
        actual, parallel_report = self._run(parallel_cfg)
        assert actual.equals(expected)
        assert parallel_report == serial_report


class TestMapperSideCombine:
    def _run(self, combine: bool):
        rng = np.random.default_rng(5)
        local = pf.DataFrame({
            "k": rng.integers(0, 8, 20_000),  # low cardinality
            "v": rng.normal(size=20_000),
            "w": rng.normal(size=20_000),
        })
        with Session(shuffle_config(mapper_side_combine=combine)) as session:
            df = from_frame(local, session)
            out = df.groupby("k").agg({"v": ["sum", "mean"],
                                       "w": "max"}).fetch()
            report = session.last_report
            return out, report.shuffle_bytes, report.combine_dropped_rows

    def test_combine_shrinks_shuffle_bytes_same_result(self):
        plain, bytes_off, dropped_off = self._run(combine=False)
        combined, bytes_on, dropped_on = self._run(combine=True)
        assert combined.equals(plain)
        assert dropped_off == 0
        assert dropped_on > 0
        assert bytes_on < bytes_off, (
            f"combine did not reduce shuffle bytes: {bytes_on} vs {bytes_off}"
        )

    def test_combine_stat_deterministic_across_modes(self):
        stats = {}
        for parallel in (False, True):
            cfg = shuffle_config(
                parallel_execution=parallel,
                parallel_min_subtasks=2, parallel_min_cores=1,
            )
            rng = np.random.default_rng(5)
            local = pf.DataFrame({
                "k": rng.integers(0, 8, 10_000),
                "v": rng.normal(size=10_000),
            })
            with Session(cfg) as session:
                from_frame(local, session).groupby("k").agg(
                    {"v": "mean"}
                ).fetch()
                stats[parallel] = (
                    session.executor.report.combine_dropped_rows,
                    session.executor.report.total_shuffle_bytes,
                )
        assert stats[False] == stats[True]
        assert stats[False][0] > 0


class TestStringKeyShuffle:
    """A string-keyed groupby shuffle end to end: rows really cross the
    shuffle, and the fetched result matches the single-node oracle."""

    @pytest.mark.parametrize("combine", [True, False])
    def test_string_groupby_matches_local(self, combine):
        rng = np.random.default_rng(23)
        keys = np.array(
            [f"cust-{k:04d}" for k in rng.integers(0, 40, 3_000)],
            dtype=object,
        )
        local = pf.DataFrame({"k": keys, "v": rng.normal(size=3_000)})
        with Session(shuffle_config(mapper_side_combine=combine)) as session:
            out = from_frame(local, session).groupby("k").agg(
                {"v": "sum"}).fetch()
            report = report_tuple(session)
        assert report[3] > 0  # rows really crossed a shuffle
        expected = local.groupby("k").agg({"v": "sum"})
        assert out.index.to_list() == expected.index.to_list()
        assert np.allclose(out["v"].values, expected["v"].values)
