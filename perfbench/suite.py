"""The benchmark's workloads: inputs, oracle and one timed unit each.

Every workload is a closed loop — one client, one process, one
``Session`` per unit, the next job submitted only after the previous one
returned.  A *unit* is the workload's repeatable piece of work on a
fresh session: one q5 (``tpch_ladder``), one pass over all 22 TPC-H
queries (``tpch_power``) or one census pipeline (``census_squeezed``).
Input generation, the oracle and the result comparison are never timed.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter, process_time

import numpy as np

from repro import Session, default_config
from repro.dataframe import from_frame
from repro.engine.local import DataFrame as LocalFrame
from repro.workloads.census import census_pipeline, generate_census
from repro.workloads.tpch import ALL_QUERIES, generate_tables, materialize

KiB = 1024
MiB = 1024 * KiB
#: float columns of a result may differ from the oracle by this much
#: (relative): partial sums are combined in another order.
FLOAT_RTOL = 1e-9


@dataclass
class Unit:
    """What one unit measured."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    jobs: int = 0
    #: jobs whose first attempt raised or differed from the oracle.
    first_try_failed: int = 0
    #: jobs without a correct result after their one retry.
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: simulated (virtual-clock) numbers; repeat exactly for one seed.
    virtual: dict = field(default_factory=dict)


class Timer:
    """Accumulates wall and process CPU over the timed sections.

    With a tracer, spans are recorded only inside the timed sections.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall_s = 0.0
        self.cpu_s = 0.0

    @contextmanager
    def timed(self):
        if self.tracer is not None:
            self.tracer.active = True
        wall0, cpu0 = perf_counter(), process_time()
        try:
            yield
        finally:
            self.wall_s += perf_counter() - wall0
            self.cpu_s += process_time() - cpu0
            if self.tracer is not None:
                self.tracer.active = False


def mismatch(actual, expected) -> str | None:
    """Why ``actual`` differs from the oracle value, or ``None``.

    Results are frames or scalars.  Non-float columns must match exactly
    (values and dtype); float columns within ``FLOAT_RTOL``.
    """
    if isinstance(expected, LocalFrame):
        if not isinstance(actual, LocalFrame):
            return f"expected a frame, got {type(actual).__name__}"
        if list(actual.columns) != list(expected.columns):
            return (f"columns {list(actual.columns)} != "
                    f"{list(expected.columns)}")
        if len(actual) != len(expected):
            return f"{len(actual)} rows != {len(expected)}"
        for name in expected.columns:
            why = _column_mismatch(np.asarray(actual[name].values),
                                   np.asarray(expected[name].values))
            if why:
                return f"column {name!r}: {why}"
        return None
    return _column_mismatch(np.atleast_1d(np.asarray(actual)),
                            np.atleast_1d(np.asarray(expected)))


def _column_mismatch(actual: np.ndarray, expected: np.ndarray) -> str | None:
    if actual.shape != expected.shape:
        return f"shape {actual.shape} != {expected.shape}"
    if expected.dtype.kind == "f" or actual.dtype.kind == "f":
        if actual.dtype.kind not in "fiu" or expected.dtype.kind not in "fiu":
            return f"dtype {actual.dtype} != {expected.dtype}"
        close = np.isclose(actual.astype(np.float64),
                           expected.astype(np.float64),
                           rtol=FLOAT_RTOL, atol=0.0, equal_nan=True)
        if not close.all():
            at = int(np.argmin(close))
            return f"row {at}: {actual[at]!r} != {expected[at]!r}"
        return None
    if actual.dtype != expected.dtype:
        return f"dtype {actual.dtype} != {expected.dtype}"
    equal = actual == expected
    if not np.all(equal):
        at = int(np.argmin(np.asarray(equal)))
        return f"row {at}: {actual[at]!r} != {expected[at]!r}"
    return None


def virtual_metrics(session: Session) -> dict:
    """A fresh session's simulated totals (deterministic for a seed)."""
    executor = session.executor
    report = executor.report
    clock = session.cluster.clock
    return {
        "makespan_s": clock.makespan,
        "band_busy_s": sum(clock.band_busy.values()),
        "bands": len(session.cluster.bands),
        "transferred_bytes": session.storage.transferred_bytes(),
        "spilled_bytes": session.storage.spilled_bytes(),
        "forced_spill_bytes": report.forced_spill_bytes,
        "shuffle_bytes": report.total_shuffle_bytes,
        "combine_dropped_rows": report.combine_dropped_rows,
        "subtasks": report.n_subtasks,
        "chunk_nodes": report.n_graph_nodes,
        "yields": session.tiler.yield_count,
        "retries": report.retries,
        "oom_retries": report.oom_retries,
        "admission_wait_s": report.admission_wait_time,
        "degraded_subtasks": report.degraded_subtasks,
        "retiles": report.pressure_splits,
    }


class Workload:
    """One named workload; ``BENCHMARK.json`` says why it was chosen."""

    name = ""

    def inputs(self, seed: int) -> dict[str, LocalFrame]:
        raise NotImplementedError

    def oracle(self, tables) -> list:
        """Expected value of each job, from the local ``repro.frame``."""
        raise NotImplementedError

    def config(self):
        raise NotImplementedError

    def job(self, handles):
        """The deferred result of a single-job unit."""
        raise NotImplementedError

    def open(self, tables):
        """Set-up: a fresh ``Session`` with every source ingested."""
        session = Session(self.config())
        handles = {name: from_frame(frame, session)
                   for name, frame in tables.items()}
        return session, handles

    def run(self, tables, expected: list, timer: Timer) -> Unit:
        """One unit on a fresh session; only the jobs are timed."""
        gc.collect()
        session, handles = self.open(tables)
        try:
            wall0, cpu0 = timer.wall_s, timer.cpu_s
            unit = self._jobs(session, handles, tables, expected, timer)
            unit.wall_s = timer.wall_s - wall0
            unit.cpu_s = timer.cpu_s - cpu0
            unit.virtual = virtual_metrics(session)
        finally:
            session.close()
        return unit

    def _jobs(self, session, handles, tables, expected, timer) -> Unit:
        unit = Unit(jobs=1)
        try:
            with timer.timed():
                value = materialize(self.job(handles))
        except Exception as exc:  # a failed job is a result, not a crash
            unit.problems.append(
                f"{self.name} raised {type(exc).__name__}: {exc}")
            unit.first_try_failed = unit.failed = 1
            return unit
        if not _check(unit, self.name, value, expected[0]):
            unit.first_try_failed = unit.failed = 1
        return unit


def _check(unit: Unit, label: str, value, expected) -> bool:
    why = mismatch(value, expected)
    if why is not None:
        unit.problems.append(f"{label}: result differs from oracle: {why}")
    return why is None


class TpchLadder(Workload):
    """TPC-H q5 at ladder scale: the per-subtask control plane."""

    name = "tpch_ladder"
    sf = 100

    def inputs(self, seed):
        return generate_tables(self.sf, seed=seed)

    def oracle(self, tables):
        return [ALL_QUERIES["q5"](tables)]

    def config(self):
        cfg = default_config()
        cfg.chunk_store_limit = 256 * KiB
        return cfg

    def job(self, handles):
        return ALL_QUERIES["q5"](handles)


class TpchPower(Workload):
    """All 22 TPC-H queries in order on one session: kernel-bound."""

    name = "tpch_power"
    sf = 100

    def inputs(self, seed):
        return generate_tables(self.sf, seed=seed)

    def oracle(self, tables):
        return [query(tables) for query in ALL_QUERIES.values()]

    def config(self):
        cfg = default_config()
        cfg.chunk_store_limit = 4 * MiB
        return cfg

    def _jobs(self, session, handles, tables, expected, timer):
        unit = Unit(jobs=len(ALL_QUERIES))
        results = []
        for name, query in ALL_QUERIES.items():
            # A query whose first attempt raises is retried once on
            # freshly ingested sources, so its work is still timed.  The
            # order and the shared sources stay as a user would have
            # them: earlier queries may have pruned a shared source.
            try:
                with timer.timed():
                    results.append((name, materialize(query(handles)), True))
                continue
            except Exception as exc:
                unit.problems.append(
                    f"{name} first attempt raised {type(exc).__name__}: {exc}")
            try:
                with timer.timed():
                    fresh = {table: from_frame(frame, session)
                             for table, frame in tables.items()}
                    results.append((name, materialize(query(fresh)), False))
            except Exception as exc:
                unit.problems.append(
                    f"{name} retry raised {type(exc).__name__}: {exc}")
                unit.first_try_failed += 1
                unit.failed += 1
                results.append(None)
        for result, want in zip(results, expected):
            if result is None:
                continue
            name, value, first_try = result
            ok = _check(unit, name, value, want)
            unit.first_try_failed += not (ok and first_try)
            unit.failed += not ok
        return unit


class CensusSqueezed(Workload):
    """The Fig. 8a census pipeline under a memory squeeze."""

    name = "census_squeezed"
    rows = 800_000
    #: about a quarter of the pipeline's unconstrained per-worker peak
    #: (38.0 MB at seed 1), so spill and admission control are active.
    memory_limit = 10_000_000

    def inputs(self, seed):
        return generate_census(self.rows, seed=seed)

    def oracle(self, tables):
        return [census_pipeline(tables)]

    def config(self):
        cfg = default_config()
        cfg.chunk_store_limit = 256 * KiB
        cfg.cluster.memory_limit = self.memory_limit
        return cfg

    def job(self, handles):
        return census_pipeline(handles)


WORKLOADS = {w.name: w for w in (TpchLadder(), TpchPower(), CensusSqueezed())}
