"""Layer spans recorded from outside the engine.

The traced run wraps the public entry points of each ``repro`` layer,
patching every name where its callers look it up (a class attribute, or
the module global a ``from x import y`` bound).  Nothing inside ``src/``
changes; uninstalling restores the original objects.

Each thread keeps its own span stack.  A span records
``perf_counter_ns`` and ``thread_time_ns`` on entry and exit; a layer's
self time is its span time minus the time its child spans cover.  The
accounting (main) thread and the band-runner pool threads accumulate
separately: on pool threads, wall time minus CPU time is time spent
waiting for the GIL rather than doing work.
"""

from __future__ import annotations

import functools
import inspect
import threading
from collections import Counter
from time import perf_counter_ns, thread_time_ns

MAIN = "main"
POOL = "pool"


class _ThreadState:
    __slots__ = ("kind", "stack", "acc", "counts")

    def __init__(self, kind: str):
        self.kind = kind
        #: open spans: [start_wall, start_cpu, child_wall, child_cpu]
        self.stack: list[list[int]] = []
        #: layer -> [self_wall_ns, self_cpu_ns]
        self.acc: dict[str, list[int]] = {}
        self.counts: Counter = Counter()


class Tracer:
    """Per-thread span stacks rolled up into per-layer self times."""

    def __init__(self):
        self.active = False
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._main = threading.main_thread()

    def _state(self) -> _ThreadState:
        state = getattr(self._tls, "state", None)
        if state is None:
            kind = MAIN if threading.current_thread() is self._main else POOL
            state = self._tls.state = _ThreadState(kind)
            with self._lock:
                self._states.append(state)
        return state

    def reset(self) -> None:
        """Drop everything recorded so far (call with no span open)."""
        with self._lock:
            for state in self._states:
                state.acc.clear()
                state.counts.clear()

    def snapshot(self) -> dict:
        """Self times and call counts, by thread kind.

        ``{"self": {(kind, layer): (wall_s, cpu_s)},
        "counts": {kind: {label: calls}}}``.
        """
        selfs: dict[tuple[str, str], list[float]] = {}
        counts: dict[str, Counter] = {MAIN: Counter(), POOL: Counter()}
        with self._lock:
            for state in self._states:
                counts[state.kind].update(state.counts)
                for layer, (wall, cpu) in state.acc.items():
                    slot = selfs.setdefault((state.kind, layer), [0.0, 0.0])
                    slot[0] += wall / 1e9
                    slot[1] += cpu / 1e9
        return {"self": {k: tuple(v) for k, v in selfs.items()},
                "counts": {k: dict(v) for k, v in counts.items()}}

    def wrap(self, fn, layer: str, label: str, on_result=None):
        """``fn`` inside a ``layer`` span counted under ``label``.

        ``on_result(state.counts, args, result)`` may add counts derived
        from the call (e.g. which actor a message went to).
        """
        tracer = self
        tls = self._tls
        wall_ns, cpu_ns = perf_counter_ns, thread_time_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = getattr(tls, "state", None) or tracer._state()
            stack = state.stack
            frame = [0, 0, 0, 0]
            stack.append(frame)
            # both CPU-clock reads fall inside the span's own wall
            # interval, so a span's measuring cost lands in its own
            # layer rather than in its caller's.
            frame[0] = wall_ns()
            frame[1] = cpu_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = cpu_ns() - frame[1]
                wall = wall_ns() - frame[0]
                stack.pop()
                slot = state.acc.get(layer)
                if slot is None:
                    slot = state.acc[layer] = [0, 0]
                slot[0] += wall - frame[2]
                slot[1] += cpu - frame[3]
                state.counts[label] += 1
                if stack:
                    parent = stack[-1]
                    parent[2] += wall
                    parent[3] += cpu
            if on_result is not None:
                on_result(state.counts, args, result)
            return result

        return traced


def _public_methods(cls) -> list[str]:
    return [
        name for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


def _count_storage_units(counts, args, result) -> None:
    # ActorSystem.deliver(self, address, uid, method, args, kwargs)
    uid = args[2]
    if uid.startswith("worker/") and uid.endswith("/storage"):
        counts["actors.storage_unit_messages"] += 1


def _count_parallel(counts, args, result) -> None:
    if result:
        counts["dispatch.parallel_stages"] += 1


def _count_fallback(counts, args, result) -> None:
    if result is None:
        counts["kernels.inline_fallbacks"] += 1


def targets():
    """``(owner, attribute names, layer, on_result)`` for every span."""
    from repro.actors.pool import ActorSystem
    from repro.core import executor as executor_mod
    from repro.core import session as session_mod
    from repro.core.dispatch import BandDispatcher
    from repro.core.executor import GraphExecutor
    from repro.core.meta import MetaService
    from repro.core.session import Session, SessionActor
    from repro.core.tiler import TilingEngine
    from repro.graph.dag import DAG
    from repro.services import runner as runner_mod
    from repro.services.lifecycle import LifecycleService
    from repro.services.runner import SubtaskRunner
    from repro.services.scheduling import SchedulingService
    from repro.storage.service import StorageService
    from repro.storage.shuffle import ShuffleManager
    from repro.storage.worker import WorkerStorage

    return [
        (Session, ["execute", "fetch"], "session", None),
        (SessionActor, _public_methods(SessionActor), "session", None),
        (TilingEngine, ["tile"], "tiling", None),
        (session_mod, ["build_tileable_graph", "prune_columns"],
         "tiling", None),
        (GraphExecutor, ["execute"], "executor", None),
        (executor_mod,
         ["fusion_groups", "singleton_groups", "build_subtask_graph"],
         "graph", None),
        (executor_mod, ["should_use_parallel"], "dispatch", _count_parallel),
        (DAG, ["add_node", "topological_order"], "graph", None),
        (SchedulingService, _public_methods(SchedulingService),
         "scheduling", None),
        (StorageService, _public_methods(StorageService), "storage", None),
        (WorkerStorage, _public_methods(WorkerStorage), "storage", None),
        (ShuffleManager, _public_methods(ShuffleManager), "shuffle", None),
        (LifecycleService, _public_methods(LifecycleService),
         "lifecycle", None),
        (MetaService, _public_methods(MetaService), "meta", None),
        (ActorSystem, ["deliver"], "actors", _count_storage_units),
        (runner_mod, ["run_subtask_kernels"], "kernels", None),
        (SubtaskRunner, ["precompute"], "kernels", _count_fallback),
        (BandDispatcher, ["wait_for"], "dispatch", None),
    ]


def install(tracer: Tracer):
    """Patch every target; returns a callable that restores them."""
    saved = []
    for owner, names, layer, on_result in targets():
        prefix = getattr(owner, "__name__", str(owner)).rsplit(".", 1)[-1]
        for name in names:
            original = vars(owner)[name]
            saved.append((owner, name, original))
            setattr(owner, name, tracer.wrap(
                original, layer, f"{prefix}.{name}", on_result))

    def uninstall() -> None:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)

    return uninstall
