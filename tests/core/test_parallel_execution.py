"""Concurrent-correctness tests for the event-driven parallel executor.

The contract under test (see DESIGN.md §Execution engine): parallel mode
may only change *wall-clock* behaviour. Results must be byte-identical
to serial mode, every ``SimReport`` field must match exactly, and the
reference-count cleanup must free each non-retained chunk exactly once.
"""

from collections import Counter

import numpy as np
import pytest

from types import SimpleNamespace

from repro.config import Config
from repro.core import Session
from repro.core.dispatch import BandDispatcher, shared_pool, should_use_parallel
from repro.storage.worker import WorkerStorage
from repro import frame as pf
from repro.dataframe import from_frame
from repro.tensor import rand


WIDE_SHAPE = (8192, 8)  # 512 KiB of float64
WIDE_CHUNK_LIMIT = 8192  # bytes -> 64 row chunks of 128 rows


def make_session(parallel: bool, chunk_limit: int = WIDE_CHUNK_LIMIT) -> Session:
    cfg = Config()
    cfg.chunk_store_limit = chunk_limit
    cfg.parallel_execution = parallel
    # force the dispatcher path: these tests exercise the band runner's
    # concurrency contract, so the small-graph/low-core serial fallback
    # must not quietly select the serial walk (e.g. on 1-core CI hosts).
    cfg.parallel_min_subtasks = 2
    cfg.parallel_min_cores = 1
    return Session(cfg)


def report_tuple(session: Session):
    report = session.executor.report
    return (
        report.makespan,
        report.total_compute_seconds,
        report.total_transfer_bytes,
        report.total_shuffle_bytes,
        report.n_subtasks,
        report.n_graph_nodes,
        dict(report.peak_memory),
        dict(report.band_busy),
    )


def wide_fanout_result(session: Session) -> np.ndarray:
    """A ≥64-chunk embarrassingly parallel graph plus a reduction."""
    t = rand(*WIDE_SHAPE, seed=7, session=session)
    out = (t * 2.0 + 1.0).sum()
    return np.asarray(out.fetch())


class TestWideFanout:
    def test_graph_is_actually_wide(self):
        with make_session(parallel=True) as session:
            wide_fanout_result(session)
            assert session.executor.report.n_subtasks >= 64

    def test_results_byte_identical_to_serial(self):
        with make_session(parallel=False) as serial:
            expected = wide_fanout_result(serial)
            serial_report = report_tuple(serial)
        with make_session(parallel=True) as parallel:
            actual = wide_fanout_result(parallel)
            parallel_report = report_tuple(parallel)
        assert actual.tobytes() == expected.tobytes()
        assert parallel_report == serial_report

    def test_refcount_frees_each_key_exactly_once(self, monkeypatch):
        # counted at the worker unit: every free — single or batched
        # through the router's per-owner delete_local_many — lands here
        # once per key.
        removed: Counter = Counter()
        original_delete = WorkerStorage.delete_local

        def counting_delete(self, key):
            if key in self.keys_local():
                removed[key] += 1
            original_delete(self, key)

        monkeypatch.setattr(WorkerStorage, "delete_local", counting_delete)
        with make_session(parallel=True) as session:
            t = rand(*WIDE_SHAPE, seed=7, session=session)
            result = (t * 2.0 + 1.0).sum()
            result.fetch()
            retained = {chunk.key for chunk in result.data.chunks}
            resident = {
                key
                for worker in session.cluster.memory
                for key in session.storage.keys_on(worker)
            }
        # no double-delete:
        doubles = {key: n for key, n in removed.items() if n > 1}
        assert not doubles, f"keys freed more than once: {doubles}"
        # no leak: only the retained (user-visible) chunks stay resident.
        assert resident == retained
        # the cleanup actually ran over the wide stage
        assert len(removed) >= 64


class TestDataFrameDeterminism:
    def _pipeline(self, session: Session):
        rng = np.random.default_rng(11)
        local = pf.DataFrame({
            "k": rng.integers(0, 9, 600),
            "v": rng.normal(size=600),
            "w": rng.normal(size=600),
        })
        df = from_frame(local, session)
        agg = df.groupby("k").agg({"v": "mean", "w": "sum"})
        return agg.fetch()

    def test_simreport_identical_with_dynamic_tiling(self):
        with make_session(parallel=False, chunk_limit=4000) as serial:
            expected = self._pipeline(serial)
            serial_report = report_tuple(serial)
        with make_session(parallel=True, chunk_limit=4000) as parallel:
            actual = self._pipeline(parallel)
            parallel_report = report_tuple(parallel)
        assert actual.equals(expected)
        assert parallel_report == serial_report

    def test_per_call_override_beats_config(self):
        with make_session(parallel=True, chunk_limit=4000) as session:
            rng = np.random.default_rng(3)
            local = pf.DataFrame({"k": rng.integers(0, 5, 200),
                                  "v": rng.normal(size=200)})
            df = from_frame(local, session)
            doubled = df["v"] * 2
            (value,) = session.execute(doubled.data, parallel=False)
            assert np.allclose(
                np.asarray(value.to_numpy()),
                np.asarray(local["v"].to_numpy()) * 2,
            )


class TestErrorPropagation:
    def test_kernel_error_surfaces_in_both_modes(self):
        def boom(block):
            raise ValueError("kernel exploded")

        errors = {}
        for mode in (False, True):
            with make_session(parallel=mode) as session:
                t = rand(1024, 4, seed=1, session=session)
                bad = t.map_blocks(boom, out_cols=4)
                with pytest.raises(ValueError) as excinfo:
                    bad.fetch()
                errors[mode] = str(excinfo.value)
        assert errors[False] == errors[True] == "kernel exploded"

    def test_failure_does_not_poison_next_execution(self):
        def boom(block):
            raise ValueError("kernel exploded")

        with make_session(parallel=True) as session:
            t = rand(1024, 4, seed=1, session=session)
            with pytest.raises(ValueError):
                t.map_blocks(boom, out_cols=4).fetch()
            ok = (rand(1024, 4, seed=2, session=session) + 1.0).sum()
            assert np.isfinite(float(np.asarray(ok.fetch())))


class TestSerialFallback:
    """Small graphs and starved hosts must skip the thread-pool entirely.

    Dispatcher startup plus cross-thread handoff costs more than it saves
    on tiny stages (the BENCH_wallclock tpch_q5/fig8a regressions), so
    ``parallel_execution`` is a *request*: the executor honours it only
    when the graph is wide enough and the host has cores to use.
    """

    @staticmethod
    def _order(n_subtasks: int, n_bands: int):
        return [
            SimpleNamespace(band=f"worker-{i % n_bands}/band-0")
            for i in range(n_subtasks)
        ]

    def test_small_graph_goes_serial(self):
        cfg = Config()
        cfg.parallel_min_cores = 1
        order = self._order(cfg.parallel_min_subtasks - 1, n_bands=4)
        assert not should_use_parallel(order, cfg, cpu_count=8)

    def test_single_band_goes_serial(self):
        cfg = Config()
        cfg.parallel_min_cores = 1
        order = self._order(64, n_bands=1)
        assert not should_use_parallel(order, cfg, cpu_count=8)

    def test_starved_host_goes_serial(self):
        cfg = Config()
        order = self._order(64, n_bands=4)
        assert should_use_parallel(order, cfg, cpu_count=cfg.parallel_min_cores)
        assert not should_use_parallel(
            order, cfg, cpu_count=cfg.parallel_min_cores - 1
        )

    def test_wide_graph_on_wide_host_goes_parallel(self):
        cfg = Config()
        order = self._order(64, n_bands=4)
        assert should_use_parallel(order, cfg, cpu_count=8)

    def test_executor_skips_dispatcher_for_small_graphs(self, monkeypatch):
        """Integration: below-threshold runs never construct a dispatcher."""
        import repro.core.executor as executor_mod

        constructed = []
        original_init = BandDispatcher.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(1)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(executor_mod.BandDispatcher, "__init__",
                            counting_init)

        cfg = Config()
        cfg.parallel_execution = True
        cfg.parallel_min_subtasks = 10**6  # nothing is ever that wide
        cfg.parallel_min_cores = 1
        with Session(cfg) as session:
            t = rand(256, 4, seed=5, session=session)
            (t + 1.0).sum().fetch()
        assert not constructed

        cfg = Config()
        cfg.parallel_execution = True
        cfg.parallel_min_subtasks = 2
        cfg.parallel_min_cores = 1
        cfg.chunk_store_limit = WIDE_CHUNK_LIMIT
        with Session(cfg) as session:
            wide_fanout_result(session)
        assert constructed


class TestDispatcherInternals:
    def test_shared_pool_is_singleton(self):
        assert shared_pool() is shared_pool()

    def test_band_slots_serialize_per_band(self):
        """Two subtasks on one band never run concurrently."""
        import threading
        import time

        from repro.core.dispatch import SubtaskComputation
        from repro.graph.dag import DAG
        from repro.graph.entity import ChunkData
        from repro.graph.subtask import Subtask

        running = set()
        overlaps = []
        lock = threading.Lock()

        def compute(subtask, inputs):
            with lock:
                if subtask.band in running:
                    overlaps.append(subtask.key)
                running.add(subtask.band)
            time.sleep(0.01)
            with lock:
                running.discard(subtask.band)
            return SubtaskComputation({}, {}, {})

        graph: DAG = DAG()
        order = []
        for i in range(6):
            chunk = ChunkData("tensor", (1,), index=(i,))
            subtask = Subtask([chunk])
            subtask.band = f"worker-0/band-{i % 2}"
            subtask.priority = i
            graph.add_node(subtask)
            order.append(subtask)
        dispatcher = BandDispatcher(
            graph, order, compute, fetch=lambda keys: {},
        )
        dispatcher.start()
        try:
            for subtask in order:
                dispatcher.wait_for(subtask.key)
        finally:
            dispatcher.shutdown()
        assert not overlaps
