"""Cluster state: supervisor + workers, their pools, trackers and clocks."""

from __future__ import annotations

import threading

from ..actors import ActorSystem
from ..config import Config
from .resource import Band, MemoryTracker, WorkerSpec, build_workers
from .simulation import SimClock

SUPERVISOR_ADDRESS = "supervisor"


class ClusterState:
    """Everything a running simulated cluster consists of.

    Mirrors the deployment of Section III-A: one supervisor node managing
    sessions/tasks/scheduling, N workers executing subtasks. Creating the
    state spawns one actor pool per node; services attach themselves to
    these pools.
    """

    def __init__(self, config: Config):
        self.config = config
        spec = config.cluster
        self.workers: list[WorkerSpec] = build_workers(
            spec.n_workers, spec.bands_per_worker,
            spec.threads_per_band, spec.memory_limit,
        )
        self.bands: list[Band] = [
            band for worker in self.workers for band in worker.bands
        ]
        self.memory: dict[str, MemoryTracker] = {
            worker.name: MemoryTracker(worker.name, worker.memory_limit)
            for worker in self.workers
        }
        self.clock = SimClock(self.bands, config.cost_model)
        # late import: repro.core pulls in the executor (which imports this
        # module); the injector itself has no such dependency.
        from ..core.recovery import FaultInjector

        #: deterministic chaos source consulted by the executor's
        #: accounting walk (no-op unless config.faults sets a rate or a
        #: test scripts an injection point).
        self.faults = FaultInjector(config.faults)
        #: actor-plane supervision (``SupervisionPlane``) — installed by
        #: ``deploy_services`` alongside the service actors.
        self.supervision = None
        self.actor_system = ActorSystem()
        self.actor_system.create_pool(SUPERVISOR_ADDRESS)
        for worker in self.workers:
            self.actor_system.create_pool(worker.name)
        #: the cluster-scoped service plane, memoized by
        #: ``deploy_cluster_services`` — ``None`` until first deploy.
        #: Sessions sharing this cluster attach to the same handles.
        self.services = None
        #: serializes service deployment and session attach/detach on a
        #: shared cluster.
        self.services_lock = threading.Lock()

    @property
    def n_bands(self) -> int:
        return len(self.bands)

    def executor_pool(self):
        """The thread pool backing parallel subtask compute.

        One logical slot per band is enforced by the dispatcher; the
        underlying threads come from the process-wide band-runner pool,
        so short-lived simulated clusters do not leak threads.
        """
        from ..core.dispatch import shared_pool

        return shared_pool(self.config.band_runner_threads)

    def band_by_name(self, name: str) -> Band:
        for band in self.bands:
            if band.name == name:
                return band
        raise KeyError(name)

    def worker_of(self, band: Band) -> WorkerSpec:
        for worker in self.workers:
            if worker.name == band.worker:
                return worker
        raise KeyError(band.worker)

    def peak_memory(self) -> dict[str, int]:
        return {name: tracker.peak for name, tracker in self.memory.items()}

    def total_memory_used(self) -> int:
        return sum(tracker.used for tracker in self.memory.values())

    def reset_clock(self) -> None:
        self.clock = SimClock(self.bands, self.config.cost_model)

    def shutdown(self) -> None:
        self.actor_system.shutdown()
