"""Correctness tests for the lineage-keyed result cache.

The cache is only allowed to change *how much work runs*, never *what
comes out*: every scenario here compares a cache-enabled run — warm,
under seeded chaos, under memory squeeze, after source mutation —
against the cache-disabled engine and requires bit-identical results
(``repr`` equality of the fetched frames, the same notion of equality
the golden suite uses).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import frame as pf
from repro.dataframe import from_frame
from tests.core.golden_harness import (
    CHAOS,
    WORKLOADS,
    make_session,
    tpch_q5,
)


def cached_session(**overrides):
    overrides.setdefault("result_cache", True)
    return make_session(**overrides)


class TestWarmReuse:
    def test_warm_tpch_q5_skips_and_matches(self):
        with cached_session(chunk_limit=64 * 1024) as session:
            cold = repr(tpch_q5(session))
            cold_subtasks = session.last_report.n_subtasks
            warm = repr(tpch_q5(session))
            report = session.last_report
        assert warm == cold
        assert cold_subtasks > 0
        # acceptance dial: the warm run skips >= 80% of the subtasks.
        assert report.n_subtasks <= 0.2 * cold_subtasks
        assert report.cache_hit_chunks > 0
        assert report.cache_reused_bytes > 0

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_warm_matches_uncached(self, name):
        workload, overrides = WORKLOADS[name]
        with make_session(**overrides) as plain:
            expected = repr(workload(plain))
        with cached_session(**overrides) as session:
            assert repr(workload(session)) == expected  # cold
            assert repr(workload(session)) == expected  # warm
            assert session.last_report.cache_hit_chunks > 0

    def test_disabled_cache_is_inert(self):
        workload, overrides = WORKLOADS["groupby_shuffle"]
        with make_session(**overrides) as session:
            workload(session)
            workload(session)
            report = session.last_report
            stats = session.cache.stats_snapshot()
        assert report.cache_hit_chunks == 0
        assert report.cache_reused_bytes == 0
        assert stats["entries"] == 0 and stats["hits"] == 0

    def test_overlapping_queries_share_prefix(self):
        # two queries sharing an aggregation prefix: the second one pulls
        # the aggregated chunks from the cache and only executes its new
        # tail (the overlapping-query shape of the benchmark sweep).
        rng = np.random.default_rng(3)
        local = pf.DataFrame({
            "k": rng.integers(0, 20, 4_000),
            "v": rng.normal(size=4_000),
        })
        with cached_session(chunk_limit=4_000) as session:
            first = repr(
                from_frame(local, session).groupby("k")
                .agg({"v": "sum"}).fetch())
            hits0 = session.cache.stats_snapshot()["hits"]
            second = repr(
                from_frame(local, session).groupby("k")
                .agg({"v": "sum"}).sort_values("v").fetch())
            hits1 = session.cache.stats_snapshot()["hits"]
        assert first != second
        assert hits1 > hits0

    @pytest.mark.parametrize("mode", ["serial", "thread"])
    def test_modes_agree_when_cached(self, mode):
        workload, overrides = WORKLOADS["groupby_shuffle"]
        kwargs = dict(overrides)
        if mode != "serial":
            kwargs.update(parallel=True)
        with cached_session(**kwargs) as session:
            cold = repr(workload(session))
            warm = repr(workload(session))
            report = session.last_report
        assert warm == cold
        if mode == "serial":
            TestWarmReuse._serial_baseline = (
                cold, report.n_subtasks, report.cache_hit_chunks)
        else:
            base = getattr(TestWarmReuse, "_serial_baseline", None)
            if base is not None:
                assert (cold, report.n_subtasks,
                        report.cache_hit_chunks) == base


class TestInvalidation:
    def test_source_mutation_recomputes(self):
        rng = np.random.default_rng(8)
        local = pf.DataFrame({
            "k": rng.integers(0, 10, 2_000),
            "v": rng.normal(size=2_000),
        })
        with cached_session(chunk_limit=4_000) as session:
            stale = repr(
                from_frame(local, session).groupby("k")
                .agg({"v": "sum"}).fetch())
            # in-place mutation of the client frame: its content
            # fingerprint — and so every downstream identity — changes.
            local["v"].values[:100] = 0.0
            fresh = repr(
                from_frame(local, session).groupby("k")
                .agg({"v": "sum"}).fetch())
        with make_session(chunk_limit=4_000) as plain:
            expected = repr(
                from_frame(local, plain).groupby("k")
                .agg({"v": "sum"}).fetch())
        assert fresh != stale
        assert fresh == expected

    def test_free_invalidates_dependents(self):
        rng = np.random.default_rng(11)
        local = pf.DataFrame({
            "k": rng.integers(0, 20, 2_000),
            "v": rng.normal(size=2_000),
        })
        with cached_session(chunk_limit=4_000) as session:
            remote = from_frame(local, session).groupby("k").agg(
                {"v": "sum"})
            cold = repr(remote.fetch())
            session.free(remote.data)
            stats = session.cache.stats_snapshot()
            assert stats["invalidations"] > 0
            warm = repr(
                from_frame(local, session).groupby("k")
                .agg({"v": "sum"}).fetch())
        assert warm == cold

    def test_chunk_loss_purges_cache_entries(self):
        # a scripted chunk loss during the cold run must leave no cache
        # entry pointing at the lost bytes — the warm run may reuse what
        # survived but must recompute the lost lineage bit-identically.
        workload, overrides = WORKLOADS["groupby_shuffle"]
        with make_session(**overrides) as plain:
            expected = repr(workload(plain))
        with cached_session(**overrides) as session:
            session.cluster.faults.script_chunk_loss(0, 0)
            assert repr(workload(session)) == expected
            cached = set(session.cache.cached_chunk_keys())
            for key in cached:
                assert session.storage.contains(key)
            assert repr(workload(session)) == expected

    def test_chaos_matrix_matches_uncached(self):
        workload, overrides = WORKLOADS["groupby_shuffle"]
        with make_session(faults=CHAOS, **overrides) as plain:
            expected = repr(workload(plain))
        with cached_session(faults=CHAOS, **overrides) as session:
            assert repr(workload(session)) == expected
            assert repr(workload(session)) == expected

    def test_memory_squeeze_matches_uncached(self):
        workload, overrides = WORKLOADS["sort"]
        with make_session(memory_limit=48 * 1024, **overrides) as plain:
            expected = repr(workload(plain))
        with cached_session(memory_limit=48 * 1024, **overrides) as session:
            assert repr(workload(session)) == expected
            assert repr(workload(session)) == expected


class TestBudget:
    def test_budget_eviction_keeps_results_correct(self):
        workload, overrides = WORKLOADS["groupby_shuffle"]
        with cached_session(result_cache_budget=1, **overrides) as session:
            cold = repr(workload(session))
            warm = repr(workload(session))
            stats = session.cache.stats_snapshot()
        assert warm == cold
        assert stats["evictions"] > 0
        assert stats["bytes_cached"] <= 1

    def test_explicit_cache_survives_budget(self):
        rng = np.random.default_rng(13)
        local = pf.DataFrame({
            "k": rng.integers(0, 10, 2_000),
            "v": rng.normal(size=2_000),
        })
        with cached_session(result_cache_budget=1,
                            chunk_limit=4_000) as session:
            remote = from_frame(local, session).groupby("k").agg(
                {"v": "sum"}).cache()
            cold = repr(remote.fetch())
            stats = session.cache.stats_snapshot()
            assert stats["entries"] > 0  # explicit entries outlive budget
            hits0 = stats["hits"]
            warm = repr(
                from_frame(local, session).groupby("k")
                .agg({"v": "sum"}).fetch())
            assert session.cache.stats_snapshot()["hits"] > hits0
        assert warm == cold

    def test_eviction_does_not_invalidate_dependents(self):
        # eviction forgets an entry but entries built on top stay valid:
        # a warm run may still hit downstream even when upstream sources
        # were evicted for budget.
        workload, overrides = WORKLOADS["merge"]
        with cached_session(**overrides) as session:
            cold = repr(workload(session))
            warm = repr(workload(session))
            stats = session.cache.stats_snapshot()
        assert warm == cold
        assert stats["invalidations"] == 0
