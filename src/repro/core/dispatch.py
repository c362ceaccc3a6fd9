"""Event-driven parallel subtask dispatch: the thread-pool band runner.

The executor splits each subtask into two halves (see
``GraphExecutor.execute``):

- the **compute phase** — running the chunk operators' kernels against
  real values — is embarrassingly parallel across independent subtasks
  and is what this module schedules onto worker threads;
- the **accounting phase** — storage puts/gets with transfer charging,
  memory admission/spill, meta records, virtual-clock advances and
  reference-count cleanup — stays on the caller's thread in
  deterministic topological order, so ``SimReport`` numbers are
  bit-identical whether the kernels ran serially or in parallel.

The dispatcher is the classic event-driven ready queue of the paper's
scheduling service (Section V-B): per-subtask indegree counters seed a
ready set with zero-dependency subtasks; every completion decrements its
successors and enqueues newly-ready work. Each *band* of the simulated
cluster owns one logical execution slot — a band runs its assigned
subtasks one at a time, in the scheduler's priority order, preserving
the band assignment and locality decisions already made.

NumPy kernels release the GIL, so chunk compute genuinely overlaps on
multi-core hosts; pure-Python kernels still interleave safely.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from ..errors import DispatcherError, DispatcherStall
from ..graph.dag import DAG
from ..graph.subtask import Subtask

# ---------------------------------------------------------------------------
# shared worker pool
# ---------------------------------------------------------------------------
# One process-wide pool backs every simulated cluster: per-band slot
# gating (below) bounds how much of it a single stage can occupy, and
# sharing avoids leaking one pool per short-lived Session (the test
# suite creates hundreds).

_pool_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None


def shared_pool(max_workers: int | None = None) -> ThreadPoolExecutor:
    """The lazily-created process-wide band-runner thread pool.

    ``max_workers`` (``Config.band_runner_threads``; 0/None means the
    host's CPU count) only ever *grows* the shared pool: dispatch
    threads mostly wait on kernels, so a cluster asking for more slots
    than an earlier one is safe, while shrinking under a live
    dispatcher would deadlock its queued bands.
    """
    global _pool
    want = max_workers if max_workers and max_workers > 0 else (
        os.cpu_count() or 1
    )
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=want,
                thread_name_prefix="band-runner",
            )
        elif want > _pool._max_workers:  # noqa: SLF001
            # ThreadPoolExecutor spawns threads on demand up to
            # _max_workers; raising the cap is all a grow needs.
            _pool._max_workers = want  # noqa: SLF001
        return _pool


def should_use_parallel(order: list[Subtask], config,
                        cpu_count: int | None = None) -> bool:
    """Serial-fallback gate: is the thread-pool band runner worth it?

    Dispatcher setup, per-subtask future overhead and wait_for
    synchronization cost real wall-clock; the payoff is overlap between
    bands. Fall back to the plain serial walk when overlap cannot win:
    tiny stages (``config.parallel_min_subtasks``), single-band stages
    (nothing to overlap with), or hosts without enough cores to actually
    run kernels concurrently (``config.parallel_min_cores``). Simulated
    numbers are unaffected either way — both paths produce bit-identical
    ``SimReport``s — so this gate only ever trades wall-clock.
    """
    if len(order) < max(config.parallel_min_subtasks, 2):
        return False
    cores = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    if cores < config.parallel_min_cores:
        return False
    bands = {subtask.band for subtask in order}
    return len(bands) >= 2


class SubtaskComputation:
    """Kernel results of one subtask's compute phase.

    The accounting phase replays it; it never runs a kernel itself.
    """

    __slots__ = ("op_results", "op_extra_meta", "outputs")

    def __init__(self, op_results: dict[int, Any],
                 op_extra_meta: dict[int, dict[str, dict]],
                 outputs: dict[str, Any]):
        #: ``id(op)`` -> the value returned by ``op.execute``.
        self.op_results = op_results
        #: ``id(op)`` -> the ``ExecContext.extra_meta`` it produced.
        self.op_extra_meta = op_extra_meta
        #: the subtask's output chunk values by key.
        self.outputs = outputs


class BandDispatcher:
    """Ready-queue dispatcher with one logical slot per band.

    ``compute`` is called on a pool thread with ``(subtask, inputs)``
    where ``inputs`` maps every input key to its value; stage-produced
    values come from the dispatcher's in-flight cache, anything older
    from ``fetch`` (an accounting-free storage read).

    The caller drains results in its own (topological) order via
    :meth:`wait_for`; compute-phase exceptions are re-raised there, at
    the failing subtask's position, so error surfacing matches the
    serial walk.
    """

    def __init__(self, graph: DAG[Subtask], order: list[Subtask],
                 compute: Callable[[Subtask, dict[str, Any]], SubtaskComputation],
                 fetch: Callable[[list[str]], dict[str, Any]],
                 pool: ThreadPoolExecutor | None = None,
                 gate=None, watchdog: float = 60.0, speculation=None):
        self._graph = graph
        self._order = order
        self._compute = compute
        self._fetch = fetch
        self._pool = pool if pool is not None else shared_pool()
        #: wall-clock seconds per liveness window
        #: (``Config.dispatch_watchdog_timeout``): ``wait_for`` re-checks
        #: progress at this period and raises :class:`DispatcherStall`
        #: after two consecutive windows with zero completions.
        self._watchdog = max(float(watchdog), 0.001)
        #: optional ``SpeculationController``: running subtasks that
        #: overrun their EWMA deadline get a duplicate dispatch; the
        #: first copy to finish commits, the loser is discarded.
        self._speculation = speculation
        #: optional wall-clock memory gate (``DispatchGate``): a band's
        #: ready subtask only starts when its estimated footprint fits
        #: the worker's in-flight budget. Purely reorders real kernel
        #: execution — simulated numbers never observe it.
        self._gate = gate
        self._lock = threading.Lock()
        self._event = threading.Condition(self._lock)
        #: per-key conditions (sharing ``_lock``): ``wait_for`` blocks on
        #: its key's condition and every state change signals exactly the
        #: affected keys — no timed polling loops.
        self._key_conds: dict[str, threading.Condition] = {}
        self._position = {s.key: i for i, s in enumerate(order)}
        self._indegree = {s.key: graph.in_degree(s) for s in order}
        self._records: dict[str, SubtaskComputation] = {}
        self._errors: dict[str, BaseException] = {}
        #: band name -> heap of (priority, position, subtask) ready to run.
        self._band_queues: dict[str, list[tuple[int, int, Subtask]]] = {}
        self._band_busy: set[str] = set()
        #: chunk values produced by this stage, kept while in-stage
        #: consumers still need them for their compute phase.
        self._values: dict[str, Any] = {}
        self._value_consumers: dict[str, int] = {}
        produced = {key for s in order for key in s.output_keys}
        for subtask in order:
            for key in subtask.input_keys:
                if key in produced:
                    self._value_consumers[key] = (
                        self._value_consumers.get(key, 0) + 1
                    )
        self._inflight = 0
        self._stopped = False
        self._by_key = {s.key: s for s in order}
        #: key -> monotonic submit time of the primary attempt.
        self._started: dict[str, float] = {}
        #: keys whose first completion already committed — a late
        #: duplicate (speculation) must not redo bookkeeping.
        self._finished: set[str] = set()
        #: keys that already have a speculative duplicate in flight.
        self._speculated: set[str] = set()
        #: total completions, for the zero-progress stall watchdog.
        self._completions = 0
        self.speculative_count = 0
        #: fatal pool-level failure (submit failed, completion bookkeeping
        #: raised): surfaced to every waiter as DispatcherError.
        self._poisoned: BaseException | None = None
        #: poisoned key -> keys of the failed root subtasks that poisoned
        #: it; resolve() lifts marks owed to a recovered root.
        self._poison_root: dict[str, set[str]] = {}

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Seed the ready set and dispatch onto idle bands."""
        with self._lock:
            for subtask in self._order:
                if self._indegree[subtask.key] == 0:
                    self._enqueue(subtask)
            self._dispatch_ready()

    def wait_for(self, key: str) -> SubtaskComputation:
        """Block until ``key``'s compute phase finished; re-raise its error.

        Never blocks forever: a poisoned pool (runner thread died in its
        completion bookkeeping, or submit itself failed), a stopped
        dispatcher, or a stalled graph (nothing in flight and nothing
        queued while ``key`` is still absent) all raise
        :class:`DispatcherError` instead of hanging the caller.

        Blocking is per-key condition signaling, not a poll loop: every
        completion/failure/poison/stop notifies the affected keys' (or
        all) conditions; the watchdog timeout
        (``Config.dispatch_watchdog_timeout``) bounds how long a wedged
        runner can wedge the walk — two consecutive windows with zero
        completions raise :class:`DispatcherStall` with the blocked key
        and queue state instead of silently re-waiting forever.

        With speculation enabled the wait also enforces the blocked
        key's EWMA deadline: once its primary attempt overruns, a
        duplicate is dispatched and whichever copy finishes first
        commits — on this thread, in topological order, so the
        accounting walk (and ``SimReport``) is indifferent to which copy
        won.
        """
        with self._lock:
            cond = self._key_conds.get(key)
            if cond is None:
                cond = self._key_conds[key] = threading.Condition(self._lock)
            stalled_windows = 0
            try:
                while True:
                    error = self._errors.get(key)
                    if error is not None:
                        raise error
                    record = self._records.get(key)
                    if record is not None:
                        return record
                    if self._poisoned is not None:
                        raise DispatcherError(
                            f"band runner pool failed while waiting for "
                            f"{key!r}: {self._poisoned!r}"
                        ) from self._poisoned
                    if self._stopped:
                        raise DispatcherError(
                            f"dispatcher stopped while waiting for {key!r}"
                        )
                    if self._inflight == 0 and not any(
                        self._band_queues.values()
                    ):
                        raise DispatcherError(
                            f"dispatcher stalled waiting for {key!r}: nothing "
                            "in flight and nothing queued"
                        )
                    timeout = self._watchdog
                    if (self._speculation is not None
                            and key not in self._finished
                            and key not in self._speculated):
                        started = self._started.get(key)
                        subtask = self._by_key.get(key)
                        if started is not None and subtask is not None:
                            deadline = self._speculation.deadline(subtask)
                            if deadline is not None:
                                remaining = (started + deadline
                                             - time.monotonic())
                                if remaining <= 0.0:
                                    self._speculate(subtask)
                                else:
                                    timeout = min(timeout, remaining)
                    before = self._completions
                    notified = cond.wait(timeout=timeout)
                    if notified or self._completions != before:
                        stalled_windows = 0
                    elif timeout >= self._watchdog:
                        stalled_windows += 1
                        if stalled_windows >= 2:
                            queued = {band: len(q) for band, q
                                      in self._band_queues.items() if q}
                            raise DispatcherStall(
                                key, stalled_windows * self._watchdog,
                                self._inflight, queued)
            finally:
                self._key_conds.pop(key, None)

    def resolve(self, subtask: Subtask) -> None:
        """Clear a failed subtask the caller has recovered itself.

        The accounting thread catches a retryable compute failure from
        :meth:`wait_for`, re-executes the subtask (and any lost
        producers) itself, stores the outputs, then calls this: poison
        marks owed to the failed root are lifted, its successors'
        indegrees are decremented exactly as a normal completion would
        have done, and dispatch resumes — descendants read the recovered
        outputs from storage via the accounting-free ``fetch``.
        """
        with self._event:
            root = subtask.key
            for key in list(self._poison_root):
                roots = self._poison_root[key]
                if root in roots:
                    roots.discard(root)
                    if not roots:
                        del self._poison_root[key]
                        self._errors.pop(key, None)
            for key in subtask.input_keys:
                remaining = self._value_consumers.get(key)
                if remaining is not None:
                    remaining -= 1
                    self._value_consumers[key] = remaining
                    if remaining <= 0:
                        self._values.pop(key, None)
            for succ in self._graph.successors(subtask):
                self._indegree[succ.key] -= 1
                if self._indegree[succ.key] == 0:
                    self._enqueue(succ)
            self._dispatch_ready()
            self._event.notify_all()
            self._signal_keys()

    def discard(self, key: str) -> None:
        """Drop a consumed record so intermediates can be collected."""
        with self._lock:
            self._records.pop(key, None)

    def shutdown(self) -> None:
        """Stop dispatching new work and wait for in-flight computes.

        Event-driven: every completion notifies the dispatcher
        condition, so the wait wakes exactly when progress happens; the
        timeout is a watchdog for a runner thread that vanished without
        reporting completion (half a ``dispatch_watchdog_timeout``
        window of zero progress stops the wait instead of deadlocking
        the caller).
        """
        with self._event:
            self._stopped = True
            self._signal_keys()
            while self._inflight > 0 and self._poisoned is None:
                before = self._inflight
                notified = self._event.wait(timeout=self._watchdog / 2.0)
                if notified or self._inflight != before:
                    continue
                break
            self._records.clear()
            self._values.clear()
            for queue in self._band_queues.values():
                queue.clear()

    # -- internals (all called with self._lock held) ---------------------
    def _signal_keys(self, keys=None) -> None:
        """Wake waiters: the given keys' conditions, or every waiter."""
        if keys is None:
            for cond in self._key_conds.values():
                cond.notify_all()
            return
        for key in keys:
            cond = self._key_conds.get(key)
            if cond is not None:
                cond.notify_all()

    def _enqueue(self, subtask: Subtask) -> None:
        band = subtask.band or ""
        queue = self._band_queues.setdefault(band, [])
        heapq.heappush(
            queue,
            (subtask.priority, self._position[subtask.key], subtask),
        )

    def _dispatch_ready(self) -> None:
        if self._stopped:
            return
        for band, queue in self._band_queues.items():
            if queue and band not in self._band_busy:
                # peek before popping: a gate refusal leaves the subtask
                # queued for the next completion's dispatch round. The
                # gate's idle-worker guard guarantees progress.
                subtask = queue[0][2]
                if self._gate is not None and not self._gate.try_start(subtask):
                    continue
                heapq.heappop(queue)
                self._band_busy.add(band)
                self._inflight += 1
                self._started[subtask.key] = time.monotonic()
                try:
                    self._pool.submit(self._run, subtask)
                except BaseException as exc:  # pool shut down / saturated
                    self._inflight -= 1
                    self._band_busy.discard(band)
                    if self._gate is not None:
                        self._gate.finish(subtask)
                    self._set_poisoned(exc)
                    return

    def _speculate(self, subtask: Subtask) -> None:
        """Dispatch a duplicate of an overdue subtask (lock held).

        The duplicate bypasses the band slot and the memory gate — it
        exists to beat a wedged or straggling primary, not to queue
        behind it. First completion commits; the loser's result is
        discarded in ``_complete``.
        """
        self._speculated.add(subtask.key)
        self._inflight += 1
        self.speculative_count += 1
        if self._speculation is not None:
            self._speculation.speculated += 1
        try:
            self._pool.submit(self._run, subtask, True)
        except BaseException as exc:  # pool shut down / saturated
            self._inflight -= 1
            self._set_poisoned(exc)

    # -- pool-thread side -------------------------------------------------
    def _run(self, subtask: Subtask, speculative: bool = False) -> None:
        record: SubtaskComputation | None = None
        error: BaseException | None = None
        try:
            if not speculative and self._speculation is not None:
                # scripted straggler hook: only the primary attempt
                # sleeps, so the speculative duplicate can win.
                self._speculation.straggle(subtask)
            inputs = self._gather(subtask)
            record = self._compute(subtask, inputs)
        except BaseException as exc:  # noqa: BLE001 — re-raised in wait_for
            error = exc
        try:
            self._complete(subtask, record, error)
        except BaseException as exc:  # noqa: BLE001 — completion bookkeeping
            # died: without this every wait_for caller would hang forever
            # on a completion that will never be delivered.
            self._poison_pool(exc)

    def _gather(self, subtask: Subtask) -> dict[str, Any]:
        inputs: dict[str, Any] = {}
        missing: list[str] = []
        with self._lock:
            for key in subtask.input_keys:
                if key in self._values:
                    inputs[key] = self._values[key]
                else:
                    missing.append(key)
        if missing:
            inputs.update(self._fetch(missing))
        return inputs

    def _complete(self, subtask: Subtask,
                  record: SubtaskComputation | None,
                  error: BaseException | None) -> None:
        with self._event:
            self._inflight -= 1
            if subtask.key in self._finished:
                # the losing copy of a speculated subtask: the first
                # completion already committed (records, band slot,
                # gate, successor indegrees) — only the in-flight count
                # and the waiters' wakeup remain.
                self._dispatch_ready()
                self._event.notify_all()
                self._signal_keys()
                return
            self._finished.add(subtask.key)
            self._completions += 1
            self._band_busy.discard(subtask.band or "")
            if self._gate is not None:
                self._gate.finish(subtask)
            if error is None and self._speculation is not None:
                started = self._started.get(subtask.key)
                if started is not None:
                    self._speculation.observe(
                        subtask, time.monotonic() - started)
            if error is None:
                assert record is not None
                try:
                    self._records[subtask.key] = record
                    for key, value in record.outputs.items():
                        if self._value_consumers.get(key, 0) > 0:
                            self._values[key] = value
                    for key in subtask.input_keys:
                        remaining = self._value_consumers.get(key)
                        if remaining is not None:
                            remaining -= 1
                            self._value_consumers[key] = remaining
                            if remaining <= 0:
                                self._values.pop(key, None)
                    for succ in self._graph.successors(subtask):
                        self._indegree[succ.key] -= 1
                        if self._indegree[succ.key] == 0:
                            self._enqueue(succ)
                except BaseException as exc:  # noqa: BLE001 — surfaced in wait_for
                    self._records.pop(subtask.key, None)
                    error = exc
            if error is not None:
                self._fail(subtask, error)
            self._dispatch_ready()
            self._event.notify_all()
            if error is None and self._inflight > 0:
                self._signal_keys([subtask.key])
            else:
                # failures poison descendants and a drained pool flips
                # the stall predicate for every waiter — wake them all.
                self._signal_keys()

    def _fail(self, subtask: Subtask, error: BaseException) -> None:
        # Descendants can never become ready (their indegree never hits
        # zero); mark them with the same error so wait_for does not hang.
        # Every mark remembers which failed root caused it, so resolve()
        # can lift exactly the marks owed to a recovered root.
        stack = [subtask]
        while stack:
            node = stack.pop()
            roots = self._poison_root.setdefault(node.key, set())
            if subtask.key in roots:
                continue
            roots.add(subtask.key)
            if node.key not in self._errors:
                self._errors[node.key] = error
            stack.extend(self._graph.successors(node))

    def _set_poisoned(self, error: BaseException) -> None:
        # called with self._lock held
        if self._poisoned is None:
            self._poisoned = error
        self._event.notify_all()
        self._signal_keys()

    def _poison_pool(self, error: BaseException) -> None:
        with self._event:
            self._set_poisoned(error)
