"""The storage router's batching: one unit message per owner worker.

Each batched call (``put_many``, ``delete_many``, ``get_many``,
``acquire_many``) must leave exactly the worker state the per-key loop it
replaces leaves — tiers, LRU order, memory, pins, spill counters and the
router's location index — while sending one message per owner worker.
"""

import numpy as np
import pytest

from repro.cluster import ClusterState
from repro.config import Config
from repro.errors import StorageKeyError, WorkerOutOfMemory
from repro.storage import StorageService

W0, W1 = "worker-0", "worker-1"


class RecordingUnit:
    """Forwards to a worker unit, recording each method called on it."""

    def __init__(self, unit, calls: list):
        self._unit = unit
        self._calls = calls

    def __getattr__(self, name):
        method = getattr(self._unit, name)

        def call(*args, **kwargs):
            self._calls.append((self._unit.worker, name))
            return method(*args, **kwargs)

        return call


def make_service(memory_limit=100_000, spill=True):
    cfg = Config()
    cfg.cluster.n_workers = 2
    cfg.cluster.memory_limit = memory_limit
    cfg.spill_to_disk = spill
    return StorageService(ClusterState(cfg), cfg)


def recording(service) -> list:
    calls: list = []
    service.use_worker_handles({
        name: RecordingUnit(service.worker_unit(name), calls)
        for name in (W0, W1)
    })
    return calls


def state(service) -> dict:
    """Everything a batch may change, per worker and in the router."""
    out = {
        "locations": dict(service._locations),
        "pin_routes": {k: list(v) for k, v in service._pin_routes.items()},
        "transferred": service.transferred_bytes(),
    }
    for name in (W0, W1):
        unit = service.worker_unit(name)
        unit = getattr(unit, "_unit", unit)
        out[name] = (list(unit._lru), sorted(unit._disk.keys()),
                     unit.tracker.used, dict(unit._pins),
                     unit.spilled_bytes(),
                     unit.failed_admission_spill_bytes())
    return out


def arr(n):
    return np.zeros(n)  # 8 * n bytes


class TestPutMany:
    def test_fresh_keys_are_one_message(self):
        service = make_service()
        calls = recording(service)
        sizes = service.put_many(
            [("a", arr(10), None), ("b", arr(20), None), ("c", arr(5), 40)],
            W0)
        assert sizes == [80, 160, 40]
        assert calls == [(W0, "put_local_many")]
        assert service.worker_unit(W0)._unit._lru == dict.fromkeys("abc")

    @pytest.mark.parametrize("prepare", [
        # delete-then-reput of a key living on the other worker
        lambda s: s.put("b", arr(50), W1),
        # pin migration of a key pinned before it is (re)stored
        lambda s: s.pin(["b"]),
        lambda s: (s.put("b", arr(50), W1), s.pin(["b", "b"])),
    ])
    def test_fallback_keys_match_per_key_puts(self, prepare):
        entries = [("a", arr(300), None), ("b", arr(300), None),
                   ("c", arr(300), None), ("b", arr(200), None),
                   ("d", arr(300), None)]
        batched, per_key = make_service(6_000), make_service(6_000)
        for service in (batched, per_key):
            service.put("old", arr(400), W0)
            prepare(service)
        batched.put_many(entries, W0)
        for key, value, nbytes in entries:
            per_key.put(key, value, W0, nbytes=nbytes)
        assert state(batched) == state(per_key)
        assert batched.worker_unit(W0).spilled_bytes() > 0  # spill ran

    def test_oom_leaves_exactly_the_stored_prefix(self):
        entries = [(k, arr(300), None) for k in "abcd"]
        batched = make_service(memory_limit=10_000, spill=False)
        per_key = make_service(memory_limit=10_000, spill=False)
        for service in (batched, per_key):
            service.put("big", arr(600), W0)
        with pytest.raises(WorkerOutOfMemory):
            batched.put_many(entries, W0)
        with pytest.raises(WorkerOutOfMemory):
            for key, value, nbytes in entries:
                per_key.put(key, value, W0, nbytes=nbytes)
        assert sorted(batched.all_keys()) == ["a", "b", "big"]
        assert state(batched) == state(per_key)


class TestDeleteMany:
    def test_one_message_per_owner_in_key_order(self):
        service = make_service()
        for key, worker in (("a", W0), ("b", W1), ("c", W0), ("d", W1)):
            service.put(key, arr(10), worker)
        calls = recording(service)
        freed = []
        unit0 = service.worker_unit(W0)._unit
        original = unit0.delete_local
        unit0.delete_local = lambda key: (freed.append(key), original(key))
        service.delete_many(["c", "b", "nope", "a", "c", "d"])
        assert sorted(calls) == [(W0, "delete_local_many"),
                                 (W1, "delete_local_many")]
        assert freed == ["c", "a"]
        assert service.all_keys() == []
        assert service.memory_bytes(W0) == service.memory_bytes(W1) == 0


class TestGetMany:
    KEYS = {"a": W0, "b": W1, "c": W0, "d": W1, "e": W0}

    def _services(self):
        batched, per_key = make_service(), make_service()
        for service in (batched, per_key):
            for key, worker in self.KEYS.items():
                service.put(key, arr(10), worker)
        return batched, per_key

    def test_interleaved_owners_are_one_message_each(self):
        batched, per_key = self._services()
        keys = ["e", "b", "a", "d", "c", "a"]
        calls = recording(batched)
        infos = batched.get_many(keys, W0)
        expected = [per_key.get(key, W0) for key in keys]
        assert sorted(calls) == [(W0, "get_local_many"),
                                 (W1, "get_local_many")]
        assert [(i.nbytes, i.transferred_bytes, i.source_worker)
                for i in infos] == [
            (i.nbytes, i.transferred_bytes, i.source_worker)
            for i in expected]
        assert state(batched) == state(per_key)

    def test_missing_key_raises_after_the_same_partial_charges(self):
        batched, per_key = self._services()
        keys = ["e", "b", "missing", "a", "d"]
        with pytest.raises(StorageKeyError) as raised:
            batched.get_many(keys, W0)
        assert raised.value.args[0] == "missing"
        with pytest.raises(StorageKeyError):
            for key in keys:
                per_key.get(key, W0)
        assert state(batched) == state(per_key)

    def test_acquire_folds_pins_into_the_fetch(self):
        batched, per_key = self._services()
        keys = ["e", "b", "missing", "a", "d"]
        calls = recording(batched)
        with pytest.raises(StorageKeyError):
            batched.acquire_many(keys, W1)
        per_key.pin(keys)
        with pytest.raises(StorageKeyError):
            for key in keys:
                per_key.get(key, W1)
        # W0 and W1 each get one message carrying pins and fetch alike;
        # keys after the missing one are pinned but not fetched.
        assert sorted(calls) == [(W0, "get_local_many"),
                                 (W1, "get_local_many")]
        assert state(batched) == state(per_key)
        batched.unpin(keys)
        assert batched.pinned_keys() == []
        assert not any(state(batched)[w][3] for w in (W0, W1))
