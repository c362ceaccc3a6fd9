"""The graph executor: fuse → schedule → simulate → compute.

Takes a chunk graph, produces subtasks via graph-level fusion, assigns
them to bands, then walks the subtask DAG: for each subtask it fetches
inputs from the storage service (charging transfers), replays the
kernel results of the band's runner, writes outputs back (charging
memory, possibly spilling), records metadata in the meta service, and
advances the per-band virtual clocks.

Real values are computed in-process; *time* is simulated — see
``repro.cluster.simulation``.

Kernels always run through ``SubtaskRunner.precompute``.  With
``config.parallel_execution`` on, an event-driven compute phase calls it
for independent subtasks concurrently on the band-runner thread pool
(``repro.core.dispatch``); serial stages, retries and lineage recovery
call it on the accounting thread over the inputs just fetched.  Either
way this module's accounting walk stays in deterministic topological
order and only replays the record — so the simulated numbers are
identical in both modes and only wall-clock time changes.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from ..cluster.cluster import ClusterState
from ..cluster.simulation import SimReport
from ..config import Config
from ..errors import (
    ActorNotFound,
    ChunkLostError,
    ExecutionHang,
    FaultInjected,
    RetriesExhausted,
    StorageKeyError,
    WorkerOutOfMemory,
)
from ..graph.dag import DAG
from ..graph.entity import ChunkData
from ..graph.identity import compute_chunk_identities
from ..graph.subtask import Subtask, build_subtask_graph
from ..utils import sizeof
from .dispatch import BandDispatcher, SubtaskComputation, should_use_parallel
from .fusion import fusion_groups, singleton_groups
from .memory_control import worker_of_band
from .operator import COMBINE_DROPPED_KEY, is_multi_output
from .opfusion import compile_step, plan_subtask, step_io_keys
from .supervision import SpeculationController

#: failures the retry loop re-attempts; anything else (kernel bugs, OOM
#: with spill disabled) propagates unchanged.  A dead runner actor
#: (killed between messages, destroy racing a delivery) is retryable
#: too: the retry recomputes the (pure, deterministic) kernels — same
#: path as a lost chunk, and no simulated number observes the crash —
#: and the supervisor respawns the actor on the next delivery.
_RETRYABLE = (FaultInjected, ChunkLostError, StorageKeyError,
              ActorNotFound)


def _lost_keys(exc: BaseException) -> list[str]:
    """The chunk keys a retryable failure says are gone (may be empty)."""
    if isinstance(exc, ChunkLostError):
        return list(exc.keys)
    if isinstance(exc, StorageKeyError) and exc.args:
        return [exc.args[0]]
    return []


class GraphExecutor:
    """Executes chunk graphs against one cluster + storage + meta state."""

    def __init__(self, cluster: ClusterState, storage: Any,
                 meta: Any, config: Config, *,
                 scheduler: Any, shuffle: Any, lifecycle: Any, cache: Any,
                 runners: dict[str, Any]):
        """Every service argument is a *service handle*: a plain service
        object or an actor ref (the deployed service plane) — the
        executor only calls methods on them, so both work identically.
        """
        self.cluster = cluster
        self.storage = storage
        self.meta = meta
        self.config = config
        #: shuffle index: shuffle-map output chunks register here as
        #: ``(shuffle_id, reducer)`` partitions when stored.
        self.shuffle = shuffle
        #: the scheduling service: placement, band load, memory admission.
        self.scheduling = scheduler
        #: the result cache: structural identity -> stored chunk key.
        self.cache = cache
        #: the lifecycle service: chunk refcounts, terminal flags, lineage.
        self.lifecycle = lifecycle
        #: band name -> subtask runner handle (the compute phase).
        self.runners = runners
        #: completion virtual time of every produced chunk key.
        self.chunk_ready_at: dict[str, float] = {}
        #: failed-attempt counters keyed by the structural identity
        #: ``(stage_index, priority)`` — never reset, so serial and
        #: parallel runs of the same workload draw identical faults.
        self._attempts: dict[tuple[int, int], int] = {}
        self._stage_index = -1
        self.report = SimReport()
        self._executed_subtasks = 0
        #: sampling annotations produced during execute(), consumed when
        #: the annotated chunk's meta is recorded.
        self._pending_extra: dict[str, dict] = {}
        #: tri-state override of ``config.parallel_execution`` for every
        #: stage this executor runs (None = follow the config). Sessions
        #: set it so dynamic-tiling yield executions use the same mode as
        #: the final pass.
        self.parallel_mode: bool | None = None
        #: session id stamped on cache records (set by the session actor).
        self.session_id = ""
        #: True when this executor shares its cluster with other
        #: sessions (set by the session actor on a shared plane).
        #: Switches the stage base time to the per-session frontier,
        #: serializes stage accounting through the scheduling turnstile,
        #: and scopes admission/degrade/lifecycle/fault state by session.
        self.multi_tenant = False
        #: this session's virtual-time frontier: the max completion time
        #: of its own subtasks. On a shared cluster it replaces the
        #: global ``clock.now`` as the stage base, so one tenant's stage
        #: barrier never delays another tenant's independent subtasks —
        #: stages interleave into band idle time.
        self.frontier = 0.0
        #: per-session fault injector override (shared clusters scope
        #: chaos per tenant); ``None`` falls through to the cluster's.
        self.faults = None
        #: runtime chunk keys whose tileables called ``.cache()``: their
        #: cache entries are explicit (never budget-evicted).
        self.explicit_cache_keys: set[str] = set()
        #: this run's identity/ancestor maps (runtime chunk key -> ...),
        #: filled by the cache pass, consumed at record time.
        self._chunk_idents: dict[str, str | None] = {}
        self._chunk_deps: dict[str, frozenset] = {}
        #: records accumulated during a stage, flushed to lifecycle once.
        self._pending_cache_records: dict[str, tuple] = {}
        #: monotonic sequence for dedup tokens on mutating service
        #: messages. Minted on the accounting walk only, so the token
        #: stream — and therefore every message-chaos draw keyed on it —
        #: is identical across serial and thread execution. A retry
        #: or recovery re-run mints a *fresh* token: only genuine
        #: duplicate deliveries of one call are ever suppressed.
        self._msg_seq = 0
        #: speculative straggler re-execution (parallel stages only).
        self.speculation = (
            SpeculationController(config.speculation_multiplier,
                                  config.speculation_min_seconds)
            if config.speculation else None
        )
        #: duplicate dispatches fired across this executor's stages.
        self.speculative_subtasks = 0

    # -- multi-tenant helpers -------------------------------------------
    def _injector(self):
        """The fault injector in scope: per-session on a shared cluster."""
        return self.faults if self.faults is not None else self.cluster.faults

    def _supervision(self):
        """The cluster's supervision plane (``None`` on legacy setups)."""
        return getattr(self.cluster, "supervision", None)

    def _mint_token(self) -> tuple[str, int]:
        """A fresh dedup token for one mutating service message.

        ``(session, seq)`` with the sequence advanced on the accounting
        walk: structurally identical runs mint identical token streams
        in every execution mode, and concurrent tenants' streams never
        collide (the session id namespaces them).
        """
        self._msg_seq += 1
        return (self.session_id or "s0", self._msg_seq)

    def _tenant(self) -> str:
        """Session scope passed to shared services ('' on private clusters,
        so single-session behaviour is untouched)."""
        return self.session_id if self.multi_tenant else ""

    def _quota_for(self, tracker) -> int | None:
        """This tenant's per-worker admission byte cap, or ``None``."""
        if not self.multi_tenant:
            return None
        frac = float(self.config.tenant_memory_quota)
        if frac <= 0.0:
            return None
        return max(1, int(frac * tracker.limit))

    def acquire_turn(self) -> None:
        """Enter the shared-plane stage turnstile (no-op on private
        clusters); reentrant for the holding session."""
        if self.multi_tenant:
            self.scheduling.acquire_turn(self.session_id)

    def release_turn(self) -> None:
        if self.multi_tenant:
            self.scheduling.release_turn(self.session_id)

    # -- service introspection (diagnostics / tests) --------------------
    @property
    def pressure(self):
        """The scheduling service's memory-pressure subsystem."""
        return self.scheduling.memory_pressure()

    @property
    def recovery(self):
        """The lifecycle service's lineage registry."""
        return self.lifecycle.recovery_manager()

    @property
    def scheduler(self):
        """The scheduling service handle (flat placement interface)."""
        return self.scheduling

    # ------------------------------------------------------------------
    def execute(self, chunk_graph: DAG[ChunkData],
                retain_keys: set[str] | None = None,
                parallel: bool | None = None) -> SimReport:
        """Run every not-yet-materialized chunk of ``chunk_graph``.

        ``retain_keys`` are protected from the reference-count cleanup
        (results the session or a later tiling stage will read).
        ``parallel`` overrides the execution mode for this stage; by
        default :attr:`parallel_mode`, then ``config.parallel_execution``
        decide.
        """
        self.acquire_turn()
        try:
            return self._execute_stage(chunk_graph, retain_keys, parallel)
        finally:
            self.release_turn()

    def _execute_stage(self, chunk_graph: DAG[ChunkData],
                       retain_keys: set[str] | None = None,
                       parallel: bool | None = None) -> SimReport:
        retain = set(retain_keys or ())
        cache_hits = cache_bytes = 0
        if self._cache_enabled():
            chunk_graph, cache_hits, cache_bytes = self._apply_cache(
                chunk_graph)
        self.lifecycle.register_terminals({
            node.key: getattr(node, "terminal", False)
            for node in chunk_graph.nodes()
        })
        order_nodes = chunk_graph.topological_order()
        not_stored = set(self.storage.missing_keys(
            [node.key for node in order_nodes]
        ))
        pending = [node for node in order_nodes if node.key in not_stored]
        if not pending:
            empty = SimReport()
            empty.cache_hit_chunks = cache_hits
            empty.cache_reused_bytes = cache_bytes
            self.report.cache_hit_chunks += cache_hits
            self.report.cache_reused_bytes += cache_bytes
            return empty
        pending_graph = chunk_graph.subgraph(pending)

        if self.config.graph_fusion:
            groups = fusion_groups(pending_graph)
        else:
            groups = singleton_groups(pending_graph)
        subtask_graph = build_subtask_graph(pending_graph, groups)

        input_nbytes = self._known_nbytes(subtask_graph)
        self.scheduling.assign(subtask_graph, input_nbytes)

        # serial graph-construction/dispatch overhead (auto merge exists to
        # keep this small): charged once, before any subtask starts.
        # On a shared cluster the base is this session's own frontier,
        # not the global clock — another tenant's later stage must not
        # become a barrier for this one (band availability still
        # serializes real band time via ``clock.run_subtask``).
        dispatch = self.config.cost_model.dispatch_overhead * len(pending_graph)
        origin = self.frontier if self.multi_tenant else self.cluster.clock.now
        base_time = origin + dispatch

        consumers = self._count_consumers(subtask_graph)
        completion: dict[str, float] = {}
        stage = SimReport()
        stage.n_graph_nodes = len(pending_graph)
        stage.cache_hit_chunks = cache_hits
        stage.cache_reused_bytes = cache_bytes

        order = subtask_graph.topological_order()
        # stamp the structural identity fault injection and retry
        # accounting key on: (stage_index, priority) is stable across
        # execution modes and sessions, unlike the process-global keys.
        self._stage_index += 1
        for subtask in order:
            subtask.stage_index = self._stage_index
        if len(order) > self.config.max_idle_steps:
            raise ExecutionHang(
                "repro", f"subtask graph of {len(order)} nodes exceeds step budget"
            )
        if parallel is None:
            parallel = self.parallel_mode
        if parallel is None:
            parallel = self.config.parallel_execution
        # stage-boundary health sweep: restart anything dead (the kill
        # may have landed between messages, with no delivery to trigger
        # the supervisor) and arm heartbeat leases for every band about
        # to receive work. Runs at the deterministic stage base time, so
        # health verdicts are identical across execution modes; restarts
        # charge no virtual time.
        supervision = self._supervision()
        if supervision is not None:
            supervision.probe(base_time)
            for band in {s.band for s in order if s.band}:
                supervision.expect_runner(band, base_time)
        # stage boundary: on a private cluster every grant of a previous
        # stage ended at or before this stage's base time, so the ledger
        # starts empty; on a shared cluster only grants ending by this
        # session's base are pruned — other tenants' grants survive.
        if self.multi_tenant:
            self.scheduling.begin_stage(base_time)
        else:
            self.scheduling.begin_stage()
        self.lifecycle.begin_stage(dict(consumers), retain,
                                   session=self._tenant())
        try:
            if parallel and should_use_parallel(order, self.config):
                self._execute_parallel(
                    order, subtask_graph, completion, base_time, retain,
                    consumers, stage,
                )
            else:
                for subtask in order:
                    # no record: the accounting walk asks the band's
                    # runner for one once the inputs are fetched.
                    end = self._run_subtask_with_recovery(
                        subtask, subtask_graph, completion, base_time, retain,
                        consumers, stage,
                    )
                    completion[subtask.key] = end
        finally:
            # merge even when a stage dies (RetriesExhausted, an OOM
            # bubbling to the session's re-tile rung): the partial
            # stage's retries/waits/spills must survive into the run
            # report. Identical in both modes — the accounting walk
            # reached the same position either way.
            stage.makespan = (
                max(completion.values()) if completion else base_time
            )
            self.frontier = max(self.frontier, stage.makespan)
            stage.n_subtasks = len(completion)
            stage.peak_memory = self.cluster.peak_memory()
            stage.band_busy = dict(self.cluster.clock.band_busy)
            self._flush_cache_records()
            self._merge_report(stage)
        return stage

    # -- result cache ---------------------------------------------------
    def _cache_enabled(self) -> bool:
        return bool(self.config.result_cache)

    def _apply_cache(self, chunk_graph: DAG[ChunkData]):
        """The cache-lookup + graph-pruning pass (planning time).

        Computes every chunk's structural identity, rewires chunks whose
        identity already has a live cached result onto the cached chunk
        key, and rebuilds the graph from its sinks so satisfied subtrees
        drop out entirely. Runs on the accounting thread, before any
        stage state exists. Returns ``(graph, hit_chunks, reused_bytes)``.
        """
        order = chunk_graph.topological_order()
        old_keys = [node.key for node in order]
        known = self.cache.known_identities(old_keys)
        idents, ancestors = compute_chunk_identities(order, known)
        for key, ident in idents.items():
            if ident is not None:
                self._chunk_idents[key] = ident
                self._chunk_deps[key] = ancestors.get(key, frozenset())
        stored = set(old_keys) - set(self.storage.missing_keys(old_keys))
        # sinks must be taken before any rebind: rebinding changes node
        # hashes, which silently breaks the DAG's internal dicts.
        sinks = chunk_graph.sinks()
        candidates: dict[str, list[ChunkData]] = {}
        for node in order:
            ident = idents.get(node.key)
            if ident is None or node.key in stored:
                continue
            candidates.setdefault(ident, []).append(node)
        hits = self.cache.lookup_many(list(candidates), self.session_id)
        n_hits = 0
        reused = 0
        for ident, (cached_key, nbytes) in hits.items():
            for node in candidates[ident]:
                if node.key == cached_key:
                    continue
                node.rebind_key(cached_key)
                n_hits += 1
                reused += nbytes
        # bind final runtime keys to identities so later passes (partial
        # executes of this run, the next run's boundary chunks) resolve
        # them without recomputing the chain.
        self.cache.note_identities([
            (node.key, idents[old_key], tuple(ancestors.get(old_key, ())))
            for node, old_key in zip(order, old_keys)
            if idents.get(old_key) is not None
        ])
        for node, old_key in zip(order, old_keys):
            if node.key != old_key and idents.get(old_key) is not None:
                self._chunk_idents[node.key] = idents[old_key]
                self._chunk_deps[node.key] = ancestors.get(
                    old_key, frozenset())
        if n_hits:
            materialized = set(self.storage.all_keys())
            from .tiler import chunk_closure
            chunk_graph = chunk_closure(
                sinks, lambda key: key in materialized)
        return chunk_graph, n_hits, reused

    def _collect_cache_record(self, subtask: Subtask,
                              stored_by_key: dict[str, int],
                              retain: set[str]) -> None:
        """Queue freshly stored reusable outputs for cache registration.

        Two kinds of chunks are worth caching: terminal (tileable
        boundary) chunks, and retained chunks — the ones a dynamic
        tiling yield demanded, which the next run's tiling pass will
        demand again at the same structural position.
        """
        auto = bool(self.config.result_cache_auto)
        for chunk in subtask.chunks:
            key = chunk.key
            if key not in stored_by_key:
                continue
            if not getattr(chunk, "terminal", False) and key not in retain:
                continue
            ident = self._chunk_idents.get(key)
            if ident is None:
                continue
            explicit = key in self.explicit_cache_keys
            if not auto and not explicit:
                continue
            self._pending_cache_records[key] = (
                ident, key, stored_by_key[key],
                tuple(self._chunk_deps.get(key, ())), explicit,
            )

    def _flush_cache_records(self) -> None:
        if not self._pending_cache_records:
            return
        records = list(self._pending_cache_records.values())
        self._pending_cache_records.clear()
        self.lifecycle.cache_record(records, self.session_id,
                                    dedup_token=self._mint_token())

    # ------------------------------------------------------------------
    def _execute_parallel(self, order: list[Subtask], graph: DAG[Subtask],
                          completion: dict[str, float], base_time: float,
                          retain: set[str], consumers: dict[str, int],
                          stage: SimReport) -> None:
        """Event-driven kernel execution + deterministic accounting.

        Pool threads run the per-band subtask runners as dependencies
        resolve (one logical slot per band); this thread drains the
        results in topological order and performs the exact accounting
        the serial walk would, so every ``SimReport`` field matches
        serial mode.
        """
        # wall-clock admission: pool threads must not actually overlap
        # kernels whose estimated footprints exceed a worker's budget.
        # Estimates are snapshotted here, on the accounting thread, so
        # the gate reads no mutable shared state; it never affects any
        # simulated number (see memory_control.DispatchGate).
        gate = (
            self.scheduling.dispatch_gate(order, self._tenant())
            if self.config.admission_control else None
        )
        system = getattr(self.cluster, "actor_system", None)

        def compute(subtask: Subtask,
                    inputs: dict[str, Any]) -> SubtaskComputation:
            # pool threads are not actors; label them so runner/storage
            # messages they send carry a real sender in the trace.
            if system is not None:
                system.set_thread_sender("band-runner")
            return self.runners[subtask.band].precompute(subtask, inputs)

        def fetch(keys: list[str]) -> dict[str, Any]:
            if system is not None:
                system.set_thread_sender("band-runner")
            return self.storage.peek_values(keys)

        dispatcher = BandDispatcher(
            graph, order, compute, fetch,
            pool=self.cluster.executor_pool(), gate=gate,
            watchdog=self.config.dispatch_watchdog_timeout,
            speculation=self.speculation,
        )
        dispatcher.start()
        try:
            for subtask in order:
                computed: SubtaskComputation | None
                try:
                    computed = dispatcher.wait_for(subtask.key)
                except _RETRYABLE:
                    # the compute phase raced a fault deletion; recover
                    # on this thread — the retry wrapper recomputes the
                    # kernels serially, and since the storage state at
                    # each accounting position is identical across
                    # modes, the retry/recovery accounting is too.
                    computed = None
                end = self._run_subtask_with_recovery(
                    subtask, graph, completion, base_time, retain,
                    consumers, stage, computed=computed,
                )
                completion[subtask.key] = end
                if computed is None:
                    dispatcher.resolve(subtask)
                else:
                    dispatcher.discard(subtask.key)
        finally:
            dispatcher.shutdown()
            self.speculative_subtasks += dispatcher.speculative_count

    # -- fault recovery -------------------------------------------------
    def _run_subtask_with_recovery(
            self, subtask: Subtask, graph: DAG[Subtask],
            completion: dict[str, float], base_time: float,
            retain: set[str], consumers: dict[str, int], stage: SimReport,
            computed: SubtaskComputation | None = None) -> float:
        """Retry loop around :meth:`_run_subtask`.

        Runs entirely on the accounting thread in both execution modes,
        so injection draws, retries, backoff and lineage recomputation
        happen in the same deterministic order serially and in parallel.
        Each failed attempt charges exponential backoff to the subtask's
        simulated start time; a retryable failure past the budget raises
        :class:`RetriesExhausted` instead of looping or hanging.
        """
        injector = self._injector()
        squeezed = None
        squeezed_limit = 0
        if injector.enabled:
            factor = injector.squeeze_memory(subtask)
            if factor is not None:
                # transient memory squeeze: the subtask's worker loses
                # part of its budget for the whole admission/ladder span
                # of this subtask, restored afterwards. Applied on the
                # accounting thread, so serial and parallel runs squeeze
                # identically.
                squeezed = self.cluster.memory[worker_of_band(subtask.band)]
                squeezed_limit = squeezed.limit
                squeezed.set_limit(max(1, int(squeezed_limit * factor)))
        try:
            if not injector.enabled:
                end = self._run_guarded(subtask, graph, completion, base_time,
                                        retain, consumers, stage,
                                        computed=computed)
                self.lifecycle.finish_subtask(subtask, session=self._tenant(),
                                              dedup_token=self._mint_token())
                return end
            spec = injector.spec
            ident = (subtask.stage_index, subtask.priority)
            extra_delay = 0.0
            while True:
                attempt = self._attempts.get(ident, 0)
                try:
                    if injector.fail_compute(subtask, attempt):
                        raise FaultInjected("compute", subtask.key)
                    missing = self.storage.missing_keys(subtask.input_keys)
                    if missing:
                        raise ChunkLostError(missing)
                    end = self._run_guarded(
                        subtask, graph, completion, base_time, retain,
                        consumers, stage, computed=computed,
                        extra_delay=extra_delay,
                    )
                except _RETRYABLE as exc:
                    self._attempts[ident] = attempt + 1
                    if attempt >= spec.max_retries:
                        raise RetriesExhausted(
                            subtask.key, attempt + 1, exc
                        ) from exc
                    stage.retries += 1
                    backoff = spec.backoff_base * spec.backoff_factor ** attempt
                    extra_delay += backoff
                    stage.backoff_time += backoff
                    # a precomputed record may predate the failure; the
                    # next attempt asks the runner for a fresh one.
                    computed = None
                    lost = _lost_keys(exc)
                    if lost:
                        self._recover_lost(lost, base_time, stage)
                    continue
                self.lifecycle.finish_subtask(subtask, session=self._tenant(),
                                              dedup_token=self._mint_token())
                self._inject_post_subtask(subtask, stage)
                return end
        finally:
            if squeezed is not None:
                squeezed.set_limit(squeezed_limit)

    def _run_guarded(self, subtask: Subtask, graph: DAG[Subtask] | None,
                     completion: dict[str, float], base_time: float,
                     retain: set[str], consumers: dict[str, int],
                     stage: SimReport,
                     computed: SubtaskComputation | None = None,
                     recovering: bool = False,
                     extra_delay: float = 0.0) -> float:
        """The OOM recovery ladder around :meth:`_run_subtask`.

        On :class:`WorkerOutOfMemory`, escalate deterministically:

        (a) force-spill every unpinned resident of the worker and retry
            in place;
        (b) reschedule the subtask onto the worker with the most free
            memory (its earliest-free band) and retry there;
        (c) degrade the worker to serial one-subtask-at-a-time execution
            (exclusive admission) and retry once more;
        (d) give up locally — the OOM bubbles to ``Session.execute``,
            which re-enters dynamic tiling with a halved chunk limit
            (memory-aware re-tiling, counted as ``pressure_splits``).

        Every rung runs on the accounting thread from deterministic
        state, so the ladder's path — and all its counters — are
        bit-identical between serial and parallel modes.  The rungs
        share one kernel record: the first rung to need it obtains it
        (unless the dispatcher already did), later rungs replay it, so
        kernels run at most once per attempt.
        """
        record = [computed]

        def rung() -> float:
            return self._run_subtask(
                subtask, graph, completion, base_time, retain, consumers,
                stage, record, recovering, extra_delay,
            )

        try:
            return rung()
        except WorkerOutOfMemory:
            if not self.config.oom_recovery:
                raise
        worker = worker_of_band(subtask.band)
        # rung (a): force-spill unpinned residents, retry in place.
        stage.oom_retries += 1
        stage.forced_spill_bytes += self.storage.force_spill(worker)
        try:
            return rung()
        except WorkerOutOfMemory:
            pass
        # rung (b): reschedule onto the freest worker's earliest band.
        target = self.scheduling.freest_worker()
        if target != worker and not recovering:
            stage.oom_retries += 1
            bands = [b.name for b in self.cluster.bands if b.worker == target]
            new_band = min(
                bands,
                key=lambda name: (self.cluster.clock.band_free[name], name),
            )
            self.scheduling.reassign(subtask, new_band)
            worker = target
            try:
                return rung()
            except WorkerOutOfMemory:
                pass
        # rung (c): degrade the worker to one subtask at a time and
        # retry under exclusive admission; a second failure here means
        # the subtask cannot fit even alone — escalate to re-tiling (d).
        stage.oom_retries += 1
        self.scheduling.degrade(worker, self._tenant())
        return rung()

    def _recover_lost(self, keys: list[str], base_time: float,
                      stage: SimReport) -> None:
        """Re-execute the minimal lineage closure that restores ``keys``.

        The plan walks backwards to producers whose outputs are gone —
        including transitively, e.g. shuffle-map partitions freed by
        refcounting — and re-runs them in (stage, priority) order.
        Recovery re-executions skip refcount cleanup and post-subtask
        injection, so they converge even at 100% loss rates.
        """
        plan = self.lifecycle.plan(keys)
        for producer in plan:
            self._run_guarded(
                producer, None, {}, base_time, set(), {}, stage,
                recovering=True,
            )
            stage.recomputed_subtasks += 1

    def _inject_post_subtask(self, subtask: Subtask,
                             stage: SimReport) -> None:
        """Post-success injection points: chunk drops and worker kills.

        Only first-runs reach this (never recovery re-executions), and
        lineage for the subtask is recorded beforehand, so everything
        lost here is recomputable.
        """
        injector = self._injector()
        for out_index, key in enumerate(subtask.output_keys):
            if injector.drop_chunk(subtask, out_index, key):
                self._lose_chunk(key)
        if injector.kill_worker_after(subtask):
            band = self.cluster.band_by_name(subtask.band)
            self._kill_worker(band.worker, stage)
        for uid in injector.actor_kills_after(subtask):
            self._kill_actor(uid)

    def _lose_chunk(self, key: str) -> None:
        # Fault loss deletes the data but keeps any shuffle index entry:
        # metadata outlives data loss, and when lineage recovery re-runs
        # the mapper, ``register_partition`` replaces the stale entry
        # (that is the re-registration path the lifecycle tests pin).
        # Refcount frees, by contrast, forget the index eagerly.
        self.storage.delete(key)
        self.scheduling.forget_chunk(key)
        if self._cache_enabled():
            # a lost chunk must never be registered, and anything cached
            # on top of it descends from vanished bytes. On a shared
            # cluster the transitive walk is scoped to this tenant's
            # entries — a neighbour's materialized results stay valid.
            self._pending_cache_records.pop(key, None)
            scope = self.session_id if self.multi_tenant else None
            self.lifecycle.invalidate_cached([key], session=scope)

    def _kill_actor(self, uid: str) -> None:
        """Crash one service/runner actor (scripted chaos).

        The supervisor respawns it lazily — on the next delivery to the
        uid or at the next stage-boundary probe — replaying state from
        its authoritative source (durable storage unit, long-lived
        service object, or lineage for runner compute). Zero virtual
        time is charged, so reports stay bit-identical.
        """
        plane = self._supervision()
        if plane is not None:
            plane.kill(uid)

    def _kill_worker(self, worker: str, stage: SimReport) -> None:
        """Simulate a worker crash right after a subtask completed.

        Every chunk resident on the worker that has recorded lineage is
        lost (recomputable on demand); chunks without lineage are
        driver-held inputs and survive. The worker's bands sit out the
        configured restart time before accepting more work.

        On a shared cluster only this session's chunks are lost — a
        tenant's scoped chaos (its own injector) models failures of *its*
        work, and must never drop a neighbour's chunks.
        """
        prefix = f"{self.session_id}/" if self.multi_tenant else None
        for key in list(self.storage.keys_on(worker)):
            if prefix is not None and not key.startswith(prefix):
                continue
            if self.lifecycle.producer_of(key) is None:
                continue
            self._lose_chunk(key)
        restart = self._injector().spec.worker_restart_time
        for band in self.cluster.bands:
            if band.worker == worker:
                self.cluster.clock.delay_band(band.name, restart)

    def ensure_available(self, keys) -> None:
        """Recompute any of ``keys`` missing from storage.

        Fetch-time recovery: a worker kill may take user-visible chunks
        after their producing stage finished; sessions call this before
        assembling results so a fetch never dies on a recoverable loss.
        """
        missing = self.storage.missing_keys(keys)
        if not missing:
            return
        self.acquire_turn()
        try:
            stage = SimReport()
            self._recover_lost(missing, self.cluster.clock.now, stage)
            self.report.recomputed_subtasks += stage.recomputed_subtasks
            self.report.recovery_bytes += stage.recovery_bytes
            self.report.total_compute_seconds += stage.total_compute_seconds
        finally:
            self.release_turn()

    # ------------------------------------------------------------------
    def _run_subtask(self, subtask: Subtask, graph: DAG[Subtask] | None,
                     completion: dict[str, float], base_time: float,
                     retain: set[str], consumers: dict[str, int],
                     stage: SimReport,
                     record: list[SubtaskComputation | None],
                     recovering: bool, extra_delay: float) -> float:
        # pin + fetch the whole input set in one storage message: the
        # pins hold for the whole accounting span — memory admission and
        # output spill must never evict what this subtask is reading
        # (in-flight inputs are not spill victims) — and acquire_many
        # applies them before any fetch can raise, so the unconditional
        # unpin below always balances.
        worker = worker_of_band(subtask.band)
        infos = self.storage.acquire_many(subtask.input_keys, worker)
        try:
            return self._run_subtask_inner(
                subtask, graph, completion, base_time, retain, consumers,
                stage, record, recovering, extra_delay, infos,
            )
        finally:
            self.storage.unpin(subtask.input_keys)

    def _run_subtask_inner(self, subtask: Subtask, graph: DAG[Subtask] | None,
                           completion: dict[str, float], base_time: float,
                           retain: set[str], consumers: dict[str, int],
                           stage: SimReport,
                           record: list[SubtaskComputation | None],
                           recovering: bool,
                           extra_delay: float,
                           infos: list[Any]) -> float:
        band = self.cluster.band_by_name(subtask.band)
        worker = band.worker
        tracker = self.cluster.memory[worker]
        cost = self.config.cost_model

        # sizeof is recursive and the same env value is sized at
        # step-input, step-output, release and output-store time — cache
        # it per env key for the lifetime of this subtask.
        sizes: dict[str, int] = {}

        def sized(key: str, value: Any) -> int:
            nbytes = sizes.get(key)
            if nbytes is None:
                nbytes = sizes[key] = sizeof(value)
            return nbytes

        # -- gather inputs --------------------------------------------------
        env: dict[str, Any] = {}
        input_bytes = 0
        transferred = 0
        disk_bytes = 0
        ready_time = base_time
        if graph is not None:
            for pred in graph.predecessors(subtask):
                ready_time = max(ready_time, completion[pred.key])
        for key, info in zip(subtask.input_keys, infos):
            env[key] = info.value
            sizes[key] = info.nbytes
            input_bytes += info.nbytes
            transferred += info.transferred_bytes
            if info.tier_penalty > 1.0:
                disk_bytes += info.nbytes
            if key in self.chunk_ready_at:
                ready_time = max(ready_time, self.chunk_ready_at[key])
        # failed attempts delay the retry's start: backoff is simulated
        # time the subtask spends waiting, not band busy time.
        ready_time += extra_delay

        # -- compute (once per attempt; OOM rungs replay the record) ---------
        if record[0] is None:
            record[0] = self.runners[subtask.band].precompute(subtask, env)
        computed = record[0]

        # -- replay steps ----------------------------------------------------
        steps = plan_subtask(subtask, enable=self.config.operator_fusion)
        cpu_bytes = 0
        executed_ops: set[int] = set()
        # transient working set: every value resident in the subtask's
        # local environment counts, so a fused chain over one huge chunk
        # cannot dodge the memory budget (that is how single-node pandas
        # dies: the whole table is one "chunk"). Values are released from
        # the environment as soon as their last in-subtask consumer ran,
        # like any real executor frees intermediates.
        env_bytes = input_bytes
        env_peak = input_bytes

        def _env_store(key: str, value: Any) -> None:
            # overwriting a key must not double-count: release the old
            # value's bytes (and its stale cached size) first.
            nonlocal env_bytes
            if key in env:
                env_bytes -= sized(key, env[key])
                sizes.pop(key, None)
            env[key] = value
            env_bytes += sized(key, value)

        output_key_set = set(subtask.output_keys)
        remaining_consumers: dict[str, int] = defaultdict(int)
        counted_ops: set[int] = set()
        for chunk in subtask.chunks:
            op = chunk.op
            if op is None or id(op) in counted_ops:
                continue
            counted_ops.add(id(op))
            for dep in op.inputs:
                remaining_consumers[dep.key] += 1
        for step in steps:
            step_inputs, step_outputs = step_io_keys(step)
            step_in_bytes = sum(
                sized(k, env[k]) for k in step_inputs if k in env
            )
            # compiled fused steps (same structural decision the runner
            # made): only the final result ever enters the environment —
            # fused intermediates exist solely as locals of the generated
            # function, so they never inflate the transient working-set
            # peak.
            compiled = (
                compile_step(step) if self.config.compiled_fusion else None
            )
            if compiled is not None:
                _env_store(compiled.output_key,
                           computed.op_results[id(compiled.final_op)])
                env_peak = max(env_peak, env_bytes)
                for chunk in step:
                    op = chunk.op
                    if op is None or id(op) in executed_ops:
                        continue
                    executed_ops.add(id(op))
                    for dep in op.inputs:
                        remaining_consumers[dep.key] -= 1
                        if (remaining_consumers[dep.key] <= 0
                                and dep.key not in output_key_set
                                and dep.key in env):
                            env_bytes -= sized(dep.key, env.pop(dep.key))
            else:
                for chunk in step:
                    op = chunk.op
                    if op is None or id(op) in executed_ops:
                        continue
                    executed_ops.add(id(op))
                    result = computed.op_results[id(op)]
                    extra_meta = computed.op_extra_meta.get(id(op), {})
                    if is_multi_output(op, result):
                        for out_key, value in result.items():
                            _env_store(out_key, value)
                    else:
                        _env_store(op.outputs[0].key, result)
                    env_peak = max(env_peak, env_bytes)
                    for dep in op.inputs:
                        remaining_consumers[dep.key] -= 1
                        if (remaining_consumers[dep.key] <= 0
                                and dep.key not in output_key_set
                                and dep.key in env):
                            env_bytes -= sized(dep.key, env.pop(dep.key))
                    # popping from the record means an OOM rung replaying
                    # it counts the combine's dropped rows only once.
                    for meta_key, extra in extra_meta.items():
                        dropped = extra.pop(COMBINE_DROPPED_KEY, 0)
                        if dropped:
                            stage.combine_dropped_rows += int(dropped)
                        if extra:
                            self._pending_extra.setdefault(
                                meta_key, {}
                            ).update(extra)
            step_out_bytes = sum(
                sized(k, env[k]) for k in step_outputs if k in env
            )
            shuffle_factor = 1.0
            if any(c.op is not None and c.op.is_shuffle_map for c in step):
                shuffle_factor = cost.shuffle_write_factor
                stage.total_shuffle_bytes += int(step_out_bytes)
            if all(c.op is not None and c.op.is_lightweight for c in step):
                cpu_bytes += 0
            else:
                cpu_bytes += int(step_in_bytes + step_out_bytes * shuffle_factor)

        # -- memory admission --------------------------------------------------
        output_bytes = sum(
            sized(key, env[key]) for key in subtask.output_keys if key in env
        )
        working_set = int(self.config.peak_factor * max(
            env_peak, input_bytes + output_bytes
        ))
        decision = None
        if recovering:
            # recovery re-executions restore already-accounted data:
            # they skip the ledger (like they skip refcounting and
            # injection) but still respect the budget via spill.
            if not tracker.can_fit(working_set):
                if self.config.spill_to_disk:
                    self.storage.ensure_free(worker, working_set)
                else:
                    raise WorkerOutOfMemory(worker, working_set,
                                            tracker.limit, tracker.used)
        else:
            # one scheduling message folds estimate → degraded-check →
            # admit; the ledger still reserves the *estimated* footprint
            # (what a real scheduler knows pre-execution), floored by
            # the actual working set the simulator just measured.
            decision, exclusive = self.scheduling.admit_subtask(
                subtask, worker, working_set, ready_time,
                tracker.used, tracker.limit,
                allow_wait=self.config.admission_control,
                session=self._tenant(), quota=self._quota_for(tracker),
            )
            if exclusive:
                stage.degraded_subtasks += 1
            stage.admission_wait_time += decision.wait
            ready_time = decision.start
            # concurrent grants still active at our start count against
            # the budget: without backpressure this is exactly how the
            # seed engine dispatches N working sets into one worker. The
            # hard check uses the *actual* working set (estimates only
            # decide when to start, never inflate what must fit — a
            # forced admission drained the ledger, so this reduces to
            # the seed engine's own check).
            headroom = decision.active + working_set
            if not tracker.can_fit(headroom):
                if self.config.spill_to_disk:
                    self.storage.ensure_free(worker, headroom)
                else:
                    raise WorkerOutOfMemory(worker, headroom, tracker.limit,
                                            tracker.used)
        tracker.note_transient(working_set)

        # -- store outputs ------------------------------------------------------
        shuffle_chunks = {
            c.key: c for c in subtask.chunks
            if c.op is not None and c.op.is_shuffle_map
            and getattr(c.op, "shuffle_id", None) is not None
            and len(c.index) >= 2
        }
        # outputs go out in three batched messages — all puts, then all
        # shuffle registrations, then all meta records. Each put still
        # walks the full single-put path in key order (delete-if-exists,
        # spill-or-raise, pin migration), so storage state after the
        # batch matches the interleaved per-key calls it replaces.
        put_entries = []
        for key in subtask.output_keys:
            if key not in env:
                raise KeyError(f"subtask produced no value for output {key!r}")
            put_entries.append((key, env[key], sizes.get(key)))
        stored_sizes = self.storage.put_many(put_entries, worker,
                                             dedup_token=self._mint_token())
        register_entries = []
        meta_entries = []
        for (key, value, _), stored in zip(put_entries, stored_sizes):
            chunk = shuffle_chunks.get(key)
            if chunk is not None:
                register_entries.append((
                    chunk.op.shuffle_id, int(chunk.index[0]),
                    int(chunk.index[1]), key, worker, stored,
                ))
            if recovering:
                stage.recovery_bytes += stored
                self.scheduling.record_chunk(key, subtask.band)
            meta_entries.append(
                (key, value, self._pending_extra.pop(key, None), stored))
        if register_entries:
            self.shuffle.register_partitions(register_entries,
                                             dedup_token=self._mint_token())
        if meta_entries:
            self.meta.set_from_values(meta_entries)
        if not recovering and self._cache_enabled():
            stored_by_key = {
                key: stored
                for (key, _value, _), stored in zip(put_entries, stored_sizes)
            }
            self._collect_cache_record(subtask, stored_by_key, retain)

        # -- charge virtual time ---------------------------------------------------
        duration = (
            cost.subtask_overhead
            + self.cluster.clock.compute_cost(cpu_bytes, band)
            + self.cluster.clock.transfer_cost(transferred)
            + disk_bytes * (cost.disk_penalty - 1.0) / cost.network_bandwidth
            + cost.dispatch_overhead * len(steps)
        )
        end = self.cluster.clock.run_subtask(band, ready_time, duration)
        supervision = self._supervision()
        if supervision is not None:
            # virtual-clock heartbeat: a completion on the band renews
            # its runner's liveness lease (accounting walk — identical
            # beats in every execution mode).
            supervision.beat_runner(band, end)
        for key in subtask.output_keys:
            self.chunk_ready_at[key] = end
        if decision is not None:
            # one scheduling message: the grant is committed to span the
            # subtask's virtual execution (later admissions on this
            # worker see it until ``end`` passes), the estimator
            # observes the measured sizes, and the band-load claim is
            # released. The lifecycle epilogue — refcount release plus
            # lineage recording — happens in the retry wrapper, one
            # message too; recovery re-executions skip both, exactly as
            # before: the original run already consumed its inputs'
            # refcounts, and recoveries are never first-class successes.
            self.scheduling.finish_subtask(decision, end, subtask, sizes)

        stage.total_compute_seconds += duration
        stage.total_transfer_bytes += transferred
        self._executed_subtasks += 1
        return end

    # ------------------------------------------------------------------
    def _known_nbytes(self, subtask_graph: DAG[Subtask]) -> dict[str, int]:
        keys: set[str] = set()
        for subtask in subtask_graph.nodes():
            keys.update(subtask.input_keys)
        metas = self.meta.get_many(sorted(keys))
        return {key: meta.nbytes for key, meta in metas.items()}

    def _count_consumers(self, subtask_graph: DAG[Subtask]) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for subtask in subtask_graph.nodes():
            for key in subtask.input_keys:
                counts[key] += 1
        return counts

    def _merge_report(self, stage: SimReport) -> None:
        report = self.report
        report.makespan = max(report.makespan, stage.makespan)
        report.total_compute_seconds += stage.total_compute_seconds
        report.total_transfer_bytes += stage.total_transfer_bytes
        report.total_shuffle_bytes += stage.total_shuffle_bytes
        report.combine_dropped_rows += stage.combine_dropped_rows
        report.n_subtasks += stage.n_subtasks
        report.n_graph_nodes += stage.n_graph_nodes
        report.retries += stage.retries
        report.recomputed_subtasks += stage.recomputed_subtasks
        report.recovery_bytes += stage.recovery_bytes
        report.backoff_time += stage.backoff_time
        report.oom_retries += stage.oom_retries
        report.admission_wait_time += stage.admission_wait_time
        report.degraded_subtasks += stage.degraded_subtasks
        report.pressure_splits += stage.pressure_splits
        report.forced_spill_bytes += stage.forced_spill_bytes
        report.cache_hit_chunks += stage.cache_hit_chunks
        report.cache_reused_bytes += stage.cache_reused_bytes
        for worker, peak in stage.peak_memory.items():
            report.peak_memory[worker] = max(report.peak_memory.get(worker, 0), peak)
        report.band_busy = dict(stage.band_busy)
