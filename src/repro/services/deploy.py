"""Service deployment: create every engine service as an actor.

One call builds the paper's supervisor/worker service plane on an
existing cluster's actor pools and returns the refs the session client
and executor hold.  All service objects live *inside* their actors;
callers get ``ActorRef``s only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..actors.message import MessageChaos
from ..cluster.cluster import SUPERVISOR_ADDRESS, ClusterState
from ..config import Config
from ..core.meta import MetaService
from ..core.supervision import SupervisionPlane
from ..storage.service import StorageService
from ..storage.shuffle import ShuffleManager
from . import (
    CACHE_UID,
    LIFECYCLE_UID,
    META_UID,
    SCHEDULING_UID,
    SHUFFLE_UID,
    STORAGE_UID,
    runner_uid,
    worker_storage_uid,
)
from .cache import CacheActor, ResultCacheService
from .lifecycle import LifecycleActor, LifecycleService
from .meta import MetaActor
from .runner import SubtaskRunner, SubtaskRunnerActor
from .scheduling import SchedulingActor, SchedulingService
from .shuffle import ShuffleActor
from .storage import StorageActor, StorageManagerActor


@dataclass
class ServiceHandles:
    """Actor refs to one session's deployed services."""

    meta: Any = None
    storage: Any = None
    scheduling: Any = None
    lifecycle: Any = None
    shuffle: Any = None
    cache: Any = None
    #: band name -> ref of the band's subtask runner actor.
    runners: dict[str, Any] = field(default_factory=dict)


def deploy_cluster_services(cluster: ClusterState,
                            config: Config | None = None) -> ServiceHandles:
    """The cluster's service plane, deployed once and memoized.

    The services are cluster-scoped singletons: the first session on a
    cluster stands them up (with that session's config), every later
    session attaches to the same handles.  This is what makes N
    concurrent sessions share one Meta/Storage/Shuffle/Scheduling/
    Cache/Lifecycle plane instead of each owning a private copy.
    """
    with cluster.services_lock:
        if cluster.services is None:
            cluster.services = deploy_services(
                cluster, config if config is not None else cluster.config)
        return cluster.services


def deploy_services(cluster: ClusterState, config: Config) -> ServiceHandles:
    """Stand up the full service plane on ``cluster``'s pools.

    Supervisor pool: meta, storage router, shuffle index, scheduling,
    lifecycle.  Worker pools: one storage actor per worker (owning that
    worker's tiers) and one subtask runner actor per band.
    """
    system = cluster.actor_system

    # the supervision plane comes up first so every actor created below
    # can register its respawn factory. Message chaos is installed on
    # the system too (zero rates = off, the default).
    plane = SupervisionPlane(system, config)
    cluster.supervision = plane
    system.supervisor = plane.supervisor
    system.chaos = MessageChaos(config.message_faults)

    meta_service = MetaService()
    meta = system.create_actor(
        SUPERVISOR_ADDRESS, MetaActor, meta_service, uid=META_UID,
    )
    plane.register_service(SUPERVISOR_ADDRESS, META_UID,
                           lambda: (MetaActor, (meta_service,), {}))

    router = StorageService(cluster, config)
    # plain worker units captured *before* the router swaps in actor
    # refs: a respawned StorageActor re-attaches to the same durable
    # unit, so tiers, pins and spill state survive the actor's death.
    units = {
        worker.name: router.worker_unit(worker.name)
        for worker in cluster.workers
    }
    worker_refs = {}
    for worker in cluster.workers:
        uid = worker_storage_uid(worker.name)
        worker_refs[worker.name] = system.create_actor(
            worker.name, StorageActor, units[worker.name], uid=uid,
        )
        plane.register_service(
            worker.name, uid,
            lambda unit=units[worker.name]: (StorageActor, (unit,), {}))
    router.use_worker_handles(worker_refs)
    storage = system.create_actor(
        SUPERVISOR_ADDRESS, StorageManagerActor, router, uid=STORAGE_UID,
    )
    plane.register_service(SUPERVISOR_ADDRESS, STORAGE_UID,
                           lambda: (StorageManagerActor, (router,), {}))

    shuffle_manager = ShuffleManager(storage)
    shuffle = system.create_actor(
        SUPERVISOR_ADDRESS, ShuffleActor, shuffle_manager, uid=SHUFFLE_UID,
    )
    plane.register_service(SUPERVISOR_ADDRESS, SHUFFLE_UID,
                           lambda: (ShuffleActor, (shuffle_manager,), {}))

    scheduling_service = SchedulingService.create(cluster, config, meta,
                                                  storage)
    scheduling = system.create_actor(
        SUPERVISOR_ADDRESS, SchedulingActor, scheduling_service,
        uid=SCHEDULING_UID,
    )
    plane.register_service(
        SUPERVISOR_ADDRESS, SCHEDULING_UID,
        lambda: (SchedulingActor, (scheduling_service,), {}))

    cache_service = ResultCacheService(storage, config)
    cache = system.create_actor(
        SUPERVISOR_ADDRESS, CacheActor, cache_service, uid=CACHE_UID,
    )
    plane.register_service(SUPERVISOR_ADDRESS, CACHE_UID,
                           lambda: (CacheActor, (cache_service,), {}))

    lifecycle_service = LifecycleService(storage, shuffle, config,
                                         cache=cache)
    lifecycle = system.create_actor(
        SUPERVISOR_ADDRESS, LifecycleActor, lifecycle_service,
        uid=LIFECYCLE_UID,
    )
    plane.register_service(
        SUPERVISOR_ADDRESS, LIFECYCLE_UID,
        lambda: (LifecycleActor, (lifecycle_service,), {}))

    runners = {}
    for band in cluster.bands:
        uid = runner_uid(band.name)
        runners[band.name] = system.create_actor(
            band.worker, SubtaskRunnerActor,
            SubtaskRunner(band.name, config),
            uid=uid,
        )
        # runners are stateless: the factory builds a *fresh* one — any
        # compute lost with the old actor re-runs through the executor's
        # retry wrapper, and lost chunks replay via lifecycle lineage.
        plane.register_runner(
            band.name, band.worker, uid,
            lambda name=band.name: (
                SubtaskRunnerActor,
                (SubtaskRunner(name, config),),
                {},
            ))

    handles = ServiceHandles(
        meta=meta, storage=storage, scheduling=scheduling,
        lifecycle=lifecycle, shuffle=shuffle, cache=cache, runners=runners,
    )
    cluster.services = handles
    return handles
