"""Exception hierarchy for the repro engine.

The benchmark harness classifies failures by exception type to regenerate
Table I (failed queries per engine) and Table II (failure reasons), so the
classes here mirror the paper's failure taxonomy: API compatibility
failures, hangs, and out-of-memory kills.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class ApiCompatibilityError(ReproError):
    """An engine does not support a pandas/NumPy API or usage pattern.

    Simulated baseline engines raise this when user code touches an
    operator outside their supported surface (e.g. ``iloc`` on a
    row-only-partitioned dataframe), matching the "API Compatibility"
    failure category of Table II.
    """

    def __init__(self, api: str, engine: str = "", reason: str = ""):
        self.api = api
        self.engine = engine
        self.reason = reason
        detail = f"API {api!r} is not supported"
        if engine:
            detail += f" by engine {engine!r}"
        if reason:
            detail += f": {reason}"
        super().__init__(detail)


class WorkerOutOfMemory(ReproError, MemoryError):
    """A simulated worker exceeded its memory budget.

    Corresponds to the "OOM or Killed" failure category of Table II.
    """

    def __init__(self, worker: str, requested: int, limit: int, used: int):
        self.worker = worker
        self.requested = requested
        self.limit = limit
        self.used = used
        super().__init__(
            f"worker {worker!r} out of memory: requested {requested} bytes "
            f"with {used}/{limit} bytes already in use"
        )


class ExecutionHang(ReproError):
    """The simulated engine made no progress within its step budget.

    Corresponds to the "Hang" failure category of Table II.
    """

    def __init__(self, engine: str, detail: str = ""):
        self.engine = engine
        super().__init__(f"engine {engine!r} hang detected{': ' + detail if detail else ''}")


class StorageKeyError(ReproError, KeyError):
    """A chunk key was not found in any storage tier."""


class FaultInjected(ReproError):
    """A deterministic fault-injection point fired (chaos testing).

    Retryable: the recovery layer re-attempts the subtask with exponential
    backoff charged to the simulated clock.
    """

    def __init__(self, point: str, target: str):
        self.point = point
        self.target = target
        super().__init__(f"injected fault at {point!r} on {target!r}")


class ChunkLostError(ReproError):
    """Input chunks vanished from storage (dropped chunk or killed worker).

    Retryable: lineage recovery recomputes the missing producers and the
    consumer is re-attempted.
    """

    def __init__(self, keys):
        self.keys = list(keys)
        super().__init__(
            f"lost {len(self.keys)} chunk(s): {', '.join(self.keys[:4])}"
            + ("..." if len(self.keys) > 4 else "")
        )


class UnrecoverableChunkLoss(ReproError):
    """A lost chunk has no recorded lineage, so it cannot be recomputed."""

    def __init__(self, key: str):
        self.key = key
        super().__init__(f"chunk {key!r} was lost and has no lineage to recompute it")


class RetriesExhausted(ReproError):
    """A subtask kept failing past its retry budget.

    Carries the last underlying failure; raised instead of hanging so the
    benchmark harness can classify the run as failed.
    """

    def __init__(self, subtask_key: str, attempts: int,
                 last_error: BaseException | None = None):
        self.subtask_key = subtask_key
        self.attempts = attempts
        self.last_error = last_error
        detail = f" (last error: {last_error})" if last_error is not None else ""
        super().__init__(
            f"subtask {subtask_key!r} failed {attempts} attempts{detail}"
        )


class DispatcherError(ReproError):
    """The band-runner dispatcher died or was stopped with waiters pending.

    Raised to every ``wait_for`` caller instead of blocking forever when a
    runner thread fails outside a subtask's own compute (pool shutdown,
    completion bookkeeping error).
    """


class DispatcherStall(DispatcherError):
    """The dispatcher made zero progress across consecutive watchdog windows.

    Carries the diagnostic context a stall post-mortem needs: which key the
    accounting walk was blocked on, how many computations were in flight,
    and what was still queued per band. Replaces the old silent re-wait so
    a wedged runner surfaces as a typed failure instead of a hang.
    """

    def __init__(self, key: str, waited: float, inflight: int,
                 queued: dict[str, int]):
        self.key = key
        self.waited = waited
        self.inflight = inflight
        self.queued = dict(queued)
        pending = ", ".join(f"{band}={n}" for band, n in sorted(self.queued.items()))
        super().__init__(
            f"dispatcher stalled waiting for {key!r}: no completions for "
            f"{waited:.1f}s with {inflight} in flight"
            + (f" (queued: {pending})" if pending else "")
        )


class StorageFull(ReproError):
    """A storage tier cannot accept more data and spilling is disabled."""


class TilingError(ReproError):
    """Dynamic tiling could not produce a valid chunk layout."""


class GraphError(ReproError):
    """Malformed computation graph (cycles, dangling edges, ...)."""


class SchedulingError(ReproError):
    """No band satisfies a subtask's placement constraints."""


class ActorError(ReproError):
    """Actor framework failure (unknown actor, dead pool, ...)."""


class ActorNotFound(ActorError):
    """A message was delivered to a uid that is not (or no longer) registered.

    Typed and retryable: ``destroy_actor``/``stop_pool`` racing an in-flight
    ``deliver``, or a killed runner, surface as this instead of an opaque
    lookup failure. The executor treats it like any other transient fault —
    the subtask's retry recomputes it and lineage recovery restores lost
    state.
    """

    def __init__(self, address: str, uid: str, detail: str = ""):
        self.address = address
        self.uid = uid
        super().__init__(
            f"no actor {uid!r} at address {address!r}"
            + (f": {detail}" if detail else "")
        )


class RestartStorm(ActorError):
    """An actor died more times than its restart budget allows.

    The supervisor refuses further restarts of the uid; the failure
    propagates to the caller instead of looping forever on a crashing
    service.
    """

    def __init__(self, uid: str, restarts: int, limit: int):
        self.uid = uid
        self.restarts = restarts
        self.limit = limit
        super().__init__(
            f"actor {uid!r} restarted {restarts} times "
            f"(limit {limit}); refusing further restarts"
        )


class SessionError(ReproError):
    """Operations on a missing or closed session."""
