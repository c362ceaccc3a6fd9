"""Engine configuration.

A single :class:`Config` object travels with every session. It controls the
chunk-size limit used by tiling (Section IV), the feature switches that the
ablation benchmarks flip (dynamic tiling, graph-level fusion, operator-level
fusion, auto merge, column pruning, locality-aware scheduling), the simulated
cluster shape, and the cost model of the discrete-event simulation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field


MiB = 1024 * 1024
GiB = 1024 * MiB


@dataclass
class CostModel:
    """Virtual-time cost model for the discrete-event simulation.

    A subtask executed on a band costs::

        subtask_overhead
        + cpu_bytes / (compute_bandwidth * threads_per_band)
        + remote_input_bytes / network_bandwidth

    All bandwidths are bytes per simulated second. The defaults are loosely
    calibrated to the paper's r6i instances (memory-bound dataframe kernels
    around a few GiB/s per core; 10-25 GbE network).
    """

    compute_bandwidth: float = 2.0 * GiB
    network_bandwidth: float = 1.0 * GiB
    subtask_overhead: float = 0.002
    #: extra virtual seconds charged per graph node during graph
    #: construction/dispatch; makes "too many tiny chunks" measurably bad.
    dispatch_overhead: float = 0.0005
    #: multiplier on bytes for shuffle writes (serialize + hash partition).
    shuffle_write_factor: float = 1.5
    #: disk tier is this many times slower than memory.
    disk_penalty: float = 8.0


@dataclass
class FaultSpec:
    """Deterministic fault-injection plan (chaos testing, recovery bench).

    All rates are per-draw probabilities in ``[0, 1]``. Draws are seeded
    hashes of *structural* identities — (stage index, topological
    position, attempt) — never of runtime keys or call order, so for one
    seed the same faults fire in serial and parallel execution mode
    (bit-identical ``SimReport``) and across separate sessions running
    the same workload.
    """

    seed: int = 0
    #: probability that a subtask attempt fails before doing any work.
    compute_fault_rate: float = 0.0
    #: probability that a stored output chunk is lost right after its
    #: producing subtask completes (models async storage loss).
    chunk_loss_rate: float = 0.0
    #: probability that the worker that just ran a subtask crashes,
    #: losing every recomputable chunk it stores.
    worker_kill_rate: float = 0.0
    #: per-subtask budget of re-attempts before RetriesExhausted.
    max_retries: int = 3
    #: first retry waits this many virtual seconds ...
    backoff_base: float = 0.05
    #: ... growing by this factor per subsequent retry.
    backoff_factor: float = 2.0
    #: virtual seconds a killed worker's bands are unavailable while the
    #: process restarts.
    worker_restart_time: float = 0.25
    #: probability that a worker's memory budget is transiently squeezed
    #: (multiplied by ``memory_squeeze_factor``) for the duration of one
    #: subtask's admission/execution — models a neighbour process eating
    #: RAM. Drawn on the same structural identity as the other faults.
    memory_squeeze_rate: float = 0.0
    #: the squeezed budget is ``factor * limit`` while the fault is active.
    memory_squeeze_factor: float = 0.5

    @property
    def any_rate(self) -> bool:
        return (self.compute_fault_rate > 0.0 or self.chunk_loss_rate > 0.0
                or self.worker_kill_rate > 0.0
                or self.memory_squeeze_rate > 0.0)


@dataclass
class MessageFaultSpec:
    """Deterministic message-level chaos for the actor plane.

    Rates are per-message probabilities in ``[0, 1]`` applied to mutating
    service RPCs that carry a dedup token (``storage.put_many``,
    ``shuffle.register_partitions``, ``lifecycle.finish_subtask``,
    ``cache.record_many``). Draws hash the token — minted on the
    deterministic accounting walk — through ``structural_draw``, never the
    delivery order, so for one seed the same messages are dropped, delayed
    and duplicated in serial and thread execution mode.

    The delivery layer is at-least-once and the endpoints are idempotent:
    a dropped message is retransmitted, a duplicated one is suppressed by
    the endpoint's dedup log, so effective state transitions happen exactly
    once and ``SimReport`` stays bit-identical to the fault-free run.
    """

    seed: int = 0
    #: probability that a message's first transmission is dropped (the
    #: at-least-once layer retransmits it).
    drop_rate: float = 0.0
    #: probability that a message is delivered late (recorded for the
    #: chaos report; synchronous RPC semantics are preserved).
    delay_rate: float = 0.0
    #: probability that a message is delivered twice (the endpoint's
    #: dedup token suppresses the second application).
    duplicate_rate: float = 0.0

    @property
    def any_rate(self) -> bool:
        return (self.drop_rate > 0.0 or self.delay_rate > 0.0
                or self.duplicate_rate > 0.0)


@dataclass
class ClusterSpec:
    """Shape of the simulated cluster."""

    n_workers: int = 4
    bands_per_worker: int = 2
    threads_per_band: int = 16
    memory_limit: int = 4 * GiB  # per worker

    @property
    def n_bands(self) -> int:
        return self.n_workers * self.bands_per_worker


@dataclass
class Config:
    """All tunables of the engine, with paper-faithful defaults."""

    # --- tiling -----------------------------------------------------------
    #: upper bound on the byte size of a chunk (the paper's predefined
    #: "chunk size limit" used by auto merge and auto rechunk).
    chunk_store_limit: int = 64 * MiB
    #: how many head chunks dynamic tiling executes to collect metadata.
    sample_chunks: int = 2
    #: aggregated-size threshold (bytes) under which tree-reduce is chosen
    #: over shuffle-reduce (Section IV-C, "Auto Reduce Selection").
    tree_reduce_threshold: int = 32 * MiB
    #: fan-in of one combine stage node (tree-reduce arity).
    combine_arity: int = 4

    # --- feature switches (ablations flip these) ---------------------------
    dynamic_tiling: bool = True
    graph_fusion: bool = True
    operator_fusion: bool = True
    column_pruning: bool = True
    auto_merge: bool = True
    combine_stage: bool = True
    locality_scheduling: bool = True
    spill_to_disk: bool = True
    #: run independent subtasks' kernels concurrently on a thread pool
    #: with one logical slot per band (NumPy kernels release the GIL).
    #: Virtual-time accounting stays deterministic: SimReport numbers are
    #: identical in serial and parallel mode (see DESIGN.md §Execution
    #: engine). The serial topological walk remains as fallback.
    parallel_execution: bool = True
    #: below this many subtasks the thread-pool band runner falls back to
    #: the serial walk — dispatcher overhead would exceed any overlap win.
    parallel_min_subtasks: int = 8
    #: minimum host CPU count for the band runner: on fewer cores kernels
    #: cannot actually overlap, so serial is never slower.
    parallel_min_cores: int = 2
    #: size of the shared band-runner thread pool (0 = host cpu count).
    #: Threads are reused across sessions; tests shrink this to keep the
    #: serial-heavy suite from pinning idle threads.
    band_runner_threads: int = 0
    #: compile eligible fused elementwise/filter chains into a single
    #: generated evaluator (one call per step, intermediates in locals —
    #: the numexpr-style single pass of Section V-A). Off falls back to
    #: interpreting the fused step one operator at a time.
    compiled_fusion: bool = True
    #: pre-aggregate each mapper's partition input before it hits storage
    #: (groupby shuffle-reduce only): shuffle bytes then shrink with key
    #: cardinality instead of row count.
    mapper_side_combine: bool = True
    #: release chunks once their last consumer ran (reference counting).
    #: Eager engines (Modin-like) materialize and pin every intermediate
    #: result instead — the accumulation that kills their workers at scale.
    eager_release: bool = True
    #: memory-pressure backpressure: before a subtask starts, its
    #: estimated footprint must be granted by the per-worker
    #: ``MemoryAdmission`` ledger; when concurrent working sets would
    #: exceed the worker budget the subtask *waits* in virtual time
    #: (``admission_wait_time``) instead of dispatching into an OOM.
    #: Off reproduces the seed engine's dispatch-and-pray behaviour.
    admission_control: bool = True
    #: OOM recovery ladder: on WorkerOutOfMemory escalate through
    #: force-spill → reschedule to the freest worker → degrade the worker
    #: to serial execution → memory-aware re-tiling. Off makes OOM fatal
    #: (the seed behaviour).
    oom_recovery: bool = True
    #: how many times a session may halve ``chunk_store_limit`` and
    #: re-tile after the executor's OOM ladder is exhausted.
    pressure_retile_limit: int = 3

    # --- result cache -------------------------------------------------------
    #: content-addressed result cache: subtasks whose structural identity
    #: (operator chain + parameters + source fingerprints) already has a
    #: live stored result are pruned from the execution graph and their
    #: consumers rewired to the cached chunks. Off by default — the
    #: golden scenarios pin the uncached engine bit-for-bit.
    result_cache: bool = False
    #: with the cache on, record *every* terminal chunk (automatic
    #: cross-run reuse); off records only tileables that called
    #: ``.cache()`` explicitly. Lookups always run while the cache is on.
    result_cache_auto: bool = True
    #: byte budget for auto-cached results; the least-recently-hit
    #: entries are dropped (and their chunks freed) when recording past
    #: it. Explicit ``.cache()`` entries never count as eviction victims.
    result_cache_budget: int = 256 * MiB

    # --- multi-tenant serving -----------------------------------------------
    #: weighted fair-share dispatch weight of this session on a shared
    #: cluster: a weight-2 tenant gets stage turns twice as often as a
    #: weight-1 tenant (stride scheduling over stage grants). Ignored by
    #: sessions that own their cluster.
    tenant_weight: float = 1.0
    #: fraction of each worker's memory budget this session's admission
    #: grants may hold concurrently on a shared cluster (``0`` = no
    #: per-tenant cap, only the worker-wide budget applies). A tenant at
    #: its quota waits in virtual time without stalling other tenants'
    #: admitted subtasks.
    tenant_memory_quota: float = 0.0
    #: serve concurrent sessions in weighted fair-share order (stride
    #: scheduling at stage granularity). Off degrades to FIFO arrival
    #: order on the shared scheduling turnstile.
    fair_share: bool = True

    # --- actor-plane supervision & chaos ------------------------------------
    #: deterministic message-level chaos on the service actor plane (all
    #: rates default to zero = off; goldens are untouched).
    message_faults: MessageFaultSpec = field(default_factory=MessageFaultSpec)
    #: virtual seconds between expected runner heartbeats; the health
    #: monitor declares a runner dead after ``heartbeat_miss_limit``
    #: missed beats. ``0`` disables liveness tracking.
    heartbeat_interval: float = 1.0
    heartbeat_miss_limit: int = 3
    #: per-uid restart budget: the supervisor refuses to restart one actor
    #: more than this many times (restart-storm limiting).
    restart_limit: int = 5
    #: speculative straggler re-execution: when a parallel-stage subtask
    #: overruns its EWMA-derived deadline, dispatch a duplicate and commit
    #: whichever finishes first on the accounting walk. Off by default —
    #: it trades duplicate CPU for tail latency and only touches
    #: wall-clock, never SimReport numbers.
    speculation: bool = False
    #: a subtask's deadline is ``multiplier * ewma(observed durations)``,
    #: floored at ``speculation_min_seconds`` of wall-clock.
    speculation_multiplier: float = 4.0
    speculation_min_seconds: float = 0.2
    #: wall-clock seconds per dispatcher watchdog window: the accounting
    #: walk re-checks liveness at this period while blocked on a subtask
    #: and raises ``DispatcherStall`` after two consecutive windows with
    #: zero completions.
    dispatch_watchdog_timeout: float = 60.0

    # --- cluster & costs ----------------------------------------------------
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    cost_model: CostModel = field(default_factory=CostModel)
    #: deterministic fault injection (all rates default to zero = off).
    faults: FaultSpec = field(default_factory=FaultSpec)

    #: working-set multiplier: executing a subtask needs roughly
    #: ``peak_factor * (input_bytes + output_bytes)`` free memory.
    peak_factor: float = 1.5

    #: hang detection: abort after this many simulated scheduler steps
    #: without completing a subtask.
    max_idle_steps: int = 10_000

    def copy(self, **overrides) -> "Config":
        """Return a deep copy with ``overrides`` applied.

        Nested dataclass fields (``cluster``, ``cost_model``) accept either a
        replacement instance or are copied as-is.
        """
        new = dataclasses.replace(
            self,
            cluster=dataclasses.replace(self.cluster),
            cost_model=dataclasses.replace(self.cost_model),
            faults=dataclasses.replace(self.faults),
            message_faults=dataclasses.replace(self.message_faults),
        )
        for key, value in overrides.items():
            if not hasattr(new, key):
                raise AttributeError(f"unknown config field {key!r}")
            setattr(new, key, value)
        return new


def default_config() -> Config:
    """A fresh :class:`Config` with default values."""
    return Config()


def calibrate_cost_model(config: Config, data_bytes: int,
                         seconds_per_pass: float = 8.0) -> Config:
    """Scale the virtual bandwidths to the dataset being processed.

    The repository runs the paper's workloads at ~1000x smaller data, so
    with real-world bandwidths compute time would vanish under fixed
    per-subtask overheads and every engine would look alike. Calibration
    preserves the paper's *regime*: one full pass over the dataset on a
    single band costs ``seconds_per_pass`` virtual seconds, and the
    network moves data ~16x slower than a band computes over it (the
    r6i-instance ratio). Skew, locality, and fusion effects then have the
    same relative weight they had on the real cluster.
    """
    if data_bytes <= 0:
        raise ValueError("data_bytes must be positive")
    # bandwidth is defined per *thread* against a fixed reference band
    # (16 threads), so single-threaded profiles (pandas) remain slower by
    # exactly their thread deficit.
    reference_threads = 16
    band_bandwidth = data_bytes / seconds_per_pass
    config.cost_model.compute_bandwidth = max(
        band_bandwidth / reference_threads, 1.0
    )
    config.cost_model.network_bandwidth = max(band_bandwidth / 16.0, 1.0)
    return config
