"""The service-plane acceptance suite.

Four pillars:

1. **Bit-identical reports** — every golden scenario (fault-free, seeded
   chaos, memory squeeze; serial and parallel) replays against the
   actor-plane engine and must match the pre-refactor goldens
   field-for-field (floats survive the JSON round-trip exactly, so this
   is bit equality).
2. **A real RPC trace** — a TPC-H q5 run leaves a message log whose
   sender -> recipient edges are exactly the service topology the
   architecture promises (session actor fan-out, lifecycle-owned frees,
   router-to-worker tier calls), within the batched message budget.
3. **One kernel entry** — every path reaches the kernels through
   ``SubtaskRunner.precompute``, once per subtask attempt, with no
   storage pre-read on serial stages.
4. **Lifecycle** — sessions are thin clients holding actor refs only,
   close is idempotent and destroys the plane, and the actor system
   survives pools being stopped mid-delivery.
"""

from __future__ import annotations

import gc
import json
import threading
import types

import numpy as np
import pytest
from tests.core.golden_harness import (
    GOLDEN_PATH,
    WORKLOADS,
    collect_report,
    make_session,
    run_scenario,
    scenarios,
    tpch_q5,
)

from repro import frame as pf
from repro.actors import Actor, ActorRef
from repro.actors.message import MessageLog
from repro.cluster.cluster import SUPERVISOR_ADDRESS
from repro.dataframe import from_frame
from repro.diagnostics import messages_per_subtask
from repro.errors import ActorError, SessionError
from repro.services import (
    LIFECYCLE_UID,
    META_UID,
    SCHEDULING_UID,
    SHUFFLE_UID,
    STORAGE_UID,
    runner_uid,
    session_actor_uid,
    worker_storage_uid,
)

with open(GOLDEN_PATH) as f:
    GOLDENS = json.load(f)


# ---------------------------------------------------------------------------
# 1. golden reports: the refactor changed no simulated number
# ---------------------------------------------------------------------------

class TestGoldenReports:
    @pytest.mark.parametrize(
        "name,spec", scenarios(), ids=[name for name, _ in scenarios()],
    )
    def test_report_bit_identical(self, name, spec):
        got = json.loads(json.dumps(run_scenario(spec)))
        assert got == GOLDENS[name], (
            f"scenario {name} diverged from the pre-refactor engine"
        )


# ---------------------------------------------------------------------------
# 2. message trace: the log records the promised service topology
# ---------------------------------------------------------------------------

class TestMessageTrace:
    @pytest.fixture(scope="class")
    def q5_session(self):
        _, overrides = WORKLOADS["tpch_q5"]
        with make_session(parallel=False, **overrides) as session:
            # a window smaller than q5's traffic, so the counters are
            # checked after the rows were trimmed.
            session.cluster.actor_system.log = MessageLog(capacity=256)
            tpch_q5(session)
            yield session

    def test_every_service_received_messages(self, q5_session):
        log = q5_session.cluster.actor_system.log
        session_uid = session_actor_uid(q5_session.session_id)
        for uid in (META_UID, STORAGE_UID, SCHEDULING_UID, LIFECYCLE_UID,
                    SHUFFLE_UID, session_uid):
            assert log.count_for(uid) > 0, f"{uid} never got a message"
        worker = q5_session.cluster.workers[0].name
        assert log.count_for(worker_storage_uid(worker)) > 0
        band = q5_session.cluster.bands[0].name
        assert log.count_for(runner_uid(band)) > 0

    def test_counts_consistent(self, q5_session):
        log = q5_session.cluster.actor_system.log
        snapshot = log.snapshot()
        assert snapshot["total_delivered"] == sum(
            snapshot["recipients"].values()
        )
        assert snapshot["total_delivered"] == sum(snapshot["edges"].values())
        # the plane carried more messages than the bounded window
        # retains: the window is trimmed, the counts are not.
        assert snapshot["total_delivered"] > log.capacity
        assert len(log.recent(2 * log.capacity)) == log.capacity

    def test_sender_recipient_edges(self, q5_session):
        """The architecture's call graph, as actually delivered."""
        edges = q5_session.cluster.actor_system.log.edges()
        session_uid = session_actor_uid(q5_session.session_id)
        band = q5_session.cluster.bands[0].name
        worker = q5_session.cluster.workers[0].name
        expected = {
            # the thin client talks to its coordinator only.
            ("<external>", session_uid),
            # the coordinator (executor inside it) fans out to services.
            (session_uid, STORAGE_UID),
            (session_uid, META_UID),
            (session_uid, SCHEDULING_UID),
            (session_uid, LIFECYCLE_UID),
            (session_uid, runner_uid(band)),
            # refcount frees go out through the lifecycle service —
            # data to storage, stale index entries to shuffle.
            (LIFECYCLE_UID, STORAGE_UID),
            (LIFECYCLE_UID, SHUFFLE_UID),
            # the storage router delegates tier ops to worker actors.
            (STORAGE_UID, worker_storage_uid(worker)),
        }
        missing = expected - edges
        assert not missing, f"missing service-plane edges: {sorted(missing)}"
        # serial runners compute over the inputs the accounting walk
        # fetched: they never read storage themselves.
        runner_reads = {
            (s, r) for s, r in edges
            if r == STORAGE_UID
            and s in {runner_uid(b.name) for b in q5_session.cluster.bands}
        }
        assert not runner_reads

    def test_client_never_calls_backends_directly(self, q5_session):
        """``<external>`` (the thin client) only reaches the session
        actor and read-only service counters — never worker tiers."""
        edges = q5_session.cluster.actor_system.log.edges()
        worker_uids = {
            worker_storage_uid(w.name) for w in q5_session.cluster.workers
        }
        external = {r for s, r in edges if s == "<external>"}
        assert not external & worker_uids

    def test_parallel_compute_attributed_to_band_runner(self):
        _, overrides = WORKLOADS["groupby_shuffle"]
        with make_session(parallel=True, **overrides) as session:
            WORKLOADS["groupby_shuffle"][0](session)
            edges = session.cluster.actor_system.log.edges()
        senders = {s for s, _ in edges}
        assert "band-runner" in senders, (
            "pool-thread deliveries should carry the band-runner label"
        )
        # shuffle-map outputs register through the coordinator.
        session_uid = session_actor_uid(session.session_id)
        assert (session_uid, SHUFFLE_UID) in edges


class TestMessageBudget:
    def test_tpch_q5_messages_per_subtask_halved(self):
        workload, overrides = WORKLOADS["tpch_q5"]
        with make_session(parallel=True, **overrides) as session:
            workload(session)
            per = messages_per_subtask(session)
            n_subtasks = session.executor.report.n_subtasks
        assert n_subtasks > 0
        # The pre-batching data plane measured 39.23 messages/subtask on
        # this exact scenario; the composite endpoints must hold the
        # halved budget (currently ~18.8).
        assert per <= 19.62


# ---------------------------------------------------------------------------
# 3. one kernel entry: the runner computes, the accounting walk replays
# ---------------------------------------------------------------------------

@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of ``run_subtask_kernels`` and ``peek_values`` calls."""
    from repro.services import runner as runner_mod
    from repro.storage.service import StorageService

    counts = {"kernels": 0, "peek_values": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(runner_mod, "run_subtask_kernels",
                        counting("kernels", runner_mod.run_subtask_kernels))
    monkeypatch.setattr(StorageService, "peek_values",
                        counting("peek_values", StorageService.peek_values))
    return counts


def low_cardinality_groupby(session):
    """A groupby whose mappers' side combine drops rows."""
    rng = np.random.default_rng(11)
    local = pf.DataFrame({
        "k": rng.integers(0, 20, 4_000),
        "v": rng.normal(size=4_000),
    })
    return from_frame(local, session).groupby("k").agg({"v": "sum"}).fetch()


class TestSingleKernelEntry:
    def test_serial_q5_runs_each_subtask_once_without_pre_read(
            self, kernel_calls):
        _, overrides = WORKLOADS["tpch_q5"]
        with make_session(parallel=False, **overrides) as session:
            tpch_q5(session)
            n_subtasks = session.executor.report.n_subtasks
        assert n_subtasks > 0
        assert kernel_calls["peek_values"] == 0
        assert kernel_calls["kernels"] == n_subtasks

    def test_oom_rungs_replay_one_record(self, kernel_calls):
        """A subtask that OOMs and succeeds on a later rung computes
        once: the rungs replay the first rung's record, so the mapper's
        combine is counted once, exactly as in thread mode."""
        overrides = {"chunk_limit": 4_000, "tree_reduce_threshold": 1,
                     "memory_limit": 12 * 1024}
        with make_session(parallel=False, **overrides) as session:
            low_cardinality_groupby(session)
            serial = collect_report(session)
        serial_calls = kernel_calls["kernels"]
        with make_session(parallel=True, **overrides) as session:
            low_cardinality_groupby(session)
            thread = collect_report(session)
        sim = serial["sim"]
        assert sim["oom_retries"] > 0 and sim["pressure_splits"] == 0
        assert sim["combine_dropped_rows"] > 0
        assert serial_calls == sim["n_subtasks"]
        assert serial == thread


def _reachable_from(root) -> list:
    """Every object reachable from ``root``, not descending into code.

    Types, modules and functions are skipped: they lead to the whole
    interpreter, and a payload retained by the log would have to hang
    off its instance state anyway.
    """
    skip = (type, types.ModuleType, types.FunctionType,
            types.BuiltinFunctionType, types.MethodType, types.CodeType)
    seen: set[int] = set()
    stack, found = [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


class TestMessageLogRetainsNoPayload:
    def test_no_chunk_value_reachable_after_close(self):
        """The log keeps counters and call rows, never ``args``: after
        q5 and ``close()`` no frame or array is reachable from it, so
        chunk values freed by storage are really freed."""
        import numpy as np

        from repro.frame import DataFrame, Series

        _, overrides = WORKLOADS["tpch_q5"]
        with make_session(parallel=False, **overrides) as session:
            tpch_q5(session)
            log = session.cluster.actor_system.log
        assert log.total_delivered > 0
        payloads = [obj for obj in _reachable_from(log)
                    if isinstance(obj, (DataFrame, Series, np.ndarray))]
        assert not payloads, (
            f"message log retains {len(payloads)} chunk values, e.g. "
            f"{type(payloads[0]).__name__}"
        )
        # the window still answers who-called-what.
        recent = log.recent(5)
        assert len(recent) == 5
        assert all(m.args == () and m.kwargs == {} for m in recent)


# ---------------------------------------------------------------------------
# 3. lifecycle: thin client, idempotent close, stop_pool during delivery
# ---------------------------------------------------------------------------

class TestSessionIsThinClient:
    def test_session_holds_only_refs(self):
        with make_session() as session:
            for name in ("storage", "meta", "scheduler", "shuffle",
                         "lifecycle"):
                assert isinstance(getattr(session, name), ActorRef), (
                    f"session.{name} must be an actor ref, not a service"
                )
            assert isinstance(session._actor_ref, ActorRef)
            # no raw service object hides in the client's state.
            from repro.core.meta import MetaService
            from repro.storage.service import StorageService
            for value in vars(session).values():
                assert not isinstance(value, (StorageService, MetaService))

    def test_executor_services_are_refs(self):
        with make_session() as session:
            executor = session.executor
            assert isinstance(executor.storage, ActorRef)
            assert isinstance(executor.meta, ActorRef)
            assert isinstance(executor.scheduling, ActorRef)
            assert isinstance(executor.lifecycle, ActorRef)
            assert isinstance(executor.shuffle, ActorRef)
            assert all(
                isinstance(r, ActorRef) for r in executor.runners.values()
            )


class TestClose:
    def test_close_is_idempotent(self):
        session = make_session()
        session.close()
        session.close()
        assert session.closed

    def test_close_destroys_session_actor_and_pools(self):
        session = make_session()
        system = session.cluster.actor_system
        uid = session_actor_uid(session.session_id)
        assert system.has_actor(SUPERVISOR_ADDRESS, uid)
        session.close()
        assert not system.has_actor(SUPERVISOR_ADDRESS, uid)
        assert system.addresses() == []

    def test_del_after_close_is_silent(self):
        session = make_session()
        session.close()
        session.__del__()

    def test_del_closes_unclosed_session(self):
        session = make_session()
        system = session.cluster.actor_system
        session.__del__()
        assert session.closed
        assert system.addresses() == []

    def test_close_survives_external_shutdown(self):
        """A pool torn down behind the session's back must not make
        close raise (satellite: wire close to destroy_actor/stop_pool)."""
        session = make_session()
        session.cluster.actor_system.shutdown()
        session.close()
        assert session.closed

    def test_closed_session_rejects_fetch(self):
        import numpy as np

        from repro import frame as pf
        from repro.dataframe import from_frame
        session = make_session()
        df = from_frame(
            pf.DataFrame({"a": np.arange(8, dtype=float)}), session
        )
        df.execute()
        session.close()
        with pytest.raises(SessionError):
            session.fetch(df.data)


class _Stopper(Actor):
    """An actor that stops another pool while handling a message."""

    def stop(self, address):
        self._system.stop_pool(address)
        return "stopped"


class _Counter(Actor):
    def __init__(self):
        super().__init__()
        self.calls = 0
        self.stopped = False

    def ping(self):
        self.calls += 1
        return self.calls

    def on_stop(self):
        self.stopped = True


class TestStopPoolDuringDelivery:
    def test_stop_other_pool_mid_delivery(self):
        from repro.actors import ActorSystem
        system = ActorSystem()
        system.create_pool("sup")
        system.create_pool("w0")
        stopper = system.create_actor("sup", _Stopper, uid="stopper")
        counter_actor = _Counter
        counter = system.create_actor("w0", counter_actor, uid="counter")
        assert counter.ping() == 1
        assert stopper.stop("w0") == "stopped"
        # the stopped pool's actors are destroyed (on_stop ran) and
        # further sends fail loudly instead of corrupting state.
        with pytest.raises(ActorError):
            counter.ping()
        assert "w0" not in system.addresses()
        # the delivering pool survives, and the log stayed consistent.
        assert system.log.count_for("stopper") == 1
        assert system.log.count_for("counter") == 1

    def test_stop_own_pool_mid_delivery(self):
        from repro.actors import ActorSystem
        system = ActorSystem()
        system.create_pool("sup")
        stopper = system.create_actor("sup", _Stopper, uid="stopper")
        assert stopper.stop("sup") == "stopped"
        with pytest.raises(ActorError):
            stopper.stop("sup")

    def test_concurrent_delivery_sender_attribution(self):
        """Deliveries racing on two threads never cross-attribute
        senders (the thread-local current-actor fix)."""
        from repro.actors import ActorSystem
        system = ActorSystem()
        system.create_pool("sup")

        class Relay(Actor):
            def __init__(self, target=None):
                super().__init__()
                self.target = target

            def relay(self):
                if self.target is not None:
                    return self.target.ping()
                return None

        counter = system.create_actor("sup", _Counter, uid="counter")
        relay_a = system.create_actor("sup", Relay, counter, uid="relay-a")
        relay_b = system.create_actor("sup", Relay, counter, uid="relay-b")
        errors: list[Exception] = []

        def hammer(ref):
            try:
                for _ in range(200):
                    ref.relay()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(ref,))
            for ref in (relay_a, relay_b) for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        edge_counts = system.log.edge_counts()
        # every ping came from a relay; none was mis-attributed.
        assert edge_counts[("relay-a", "counter")] == 400
        assert edge_counts[("relay-b", "counter")] == 400
        assert ("<external>", "counter") not in edge_counts
