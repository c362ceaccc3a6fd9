"""Storage actors: the supervisor-side router and per-worker stores."""

from __future__ import annotations

from .base import ServiceActor


class StorageActor(ServiceActor):
    """One worker's storage: fronts a
    :class:`~repro.storage.worker.WorkerStorage` unit on the worker's
    own pool, so spill/pin/quota decisions execute worker-local."""

    service_methods = frozenset({
        "put_local",
        "put_local_many",
        "ensure_free_local",
        "force_spill_local",
        "get_local",
        "get_local_many",
        "value_of",
        "level_of",
        "nbytes_of_local",
        "delete_local",
        "delete_local_many",
        "pin_local",
        "unpin_local",
        "drop_pins_local",
        "set_pin_count_local",
        "is_pinned_local",
        "pinned_local",
        "clear_pins_local",
        "keys_local",
        "memory_bytes_local",
        "disk_bytes_local",
        "spilled_bytes",
        "failed_admission_spill_bytes",
        "forced_spill_bytes",
    })


class StorageManagerActor(ServiceActor):
    """Supervisor-side router: fronts the cluster-wide
    :class:`~repro.storage.service.StorageService`, which delegates tier
    operations to the per-worker :class:`StorageActor`s."""

    service_methods = frozenset({
        "put",
        "put_many",
        "ensure_free",
        "force_spill",
        "get",
        "get_many",
        "acquire_many",
        "peek",
        "peek_value",
        "peek_values",
        "pin",
        "unpin",
        "is_pinned",
        "pinned_keys",
        "contains",
        "missing_keys",
        "location_of",
        "nbytes_of",
        "delete",
        "delete_many",
        "transferred_bytes",
        "spilled_bytes",
        "failed_admission_spill_bytes",
        "forced_spill_bytes",
        "memory_bytes",
        "disk_bytes",
        "keys_on",
        "all_keys",
        "clear",
        "worker_unit",
    })
