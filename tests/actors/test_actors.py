"""Unit tests for the actor framework."""

import pytest

from repro.actors import Actor, ActorRef, ActorSystem
from repro.errors import ActorError


class Counter(Actor):
    def __init__(self, start: int = 0):
        super().__init__()
        self.value = start
        self.started = False
        self.stopped = False

    def on_start(self):
        self.started = True

    def on_stop(self):
        self.stopped = True

    def increment(self, by: int = 1) -> int:
        self.value += by
        return self.value

    def get(self) -> int:
        return self.value


class Caller(Actor):
    def __init__(self, target: ActorRef):
        super().__init__()
        self.target = target

    def bump_twice(self) -> int:
        self.target.increment()
        return self.target.increment()


@pytest.fixture
def system():
    sys_ = ActorSystem()
    sys_.create_pool("node-a")
    sys_.create_pool("node-b")
    return sys_


class TestLifecycle:
    def test_create_and_call(self, system):
        ref = system.create_actor("node-a", Counter, 10, uid="c1")
        assert ref.increment(5) == 15
        assert ref.get() == 15

    def test_on_start_called(self, system):
        system.create_actor("node-a", Counter, uid="c1")
        assert system.get_pool("node-a").lookup("c1").started

    def test_duplicate_uid_rejected(self, system):
        system.create_actor("node-a", Counter, uid="c1")
        with pytest.raises(ActorError):
            system.create_actor("node-a", Counter, uid="c1")

    def test_destroy_calls_on_stop(self, system):
        system.create_actor("node-a", Counter, uid="c1")
        actor = system.get_pool("node-a").lookup("c1")
        system.destroy_actor("node-a", "c1")
        assert actor.stopped
        assert not system.has_actor("node-a", "c1")

    def test_unknown_actor_raises(self, system):
        with pytest.raises(ActorError):
            system.actor_ref("node-a", "missing")

    def test_unknown_pool_raises(self, system):
        with pytest.raises(ActorError):
            system.get_pool("nowhere")

    def test_stop_pool_destroys_actors(self, system):
        system.create_actor("node-a", Counter, uid="c1")
        actor = system.get_pool("node-a").lookup("c1")
        system.stop_pool("node-a")
        assert actor.stopped
        with pytest.raises(ActorError):
            system.get_pool("node-a")


class TestMessaging:
    def test_cross_node_call(self, system):
        counter = system.create_actor("node-a", Counter, uid="counter")
        caller = system.create_actor("node-b", Caller, counter, uid="caller")
        assert caller.bump_twice() == 2

    def test_messages_logged_with_sender(self, system):
        counter = system.create_actor("node-a", Counter, uid="counter")
        caller = system.create_actor("node-b", Caller, counter, uid="caller")
        caller.bump_twice()
        recent = system.log.recent()
        senders = [(m.sender, m.recipient, m.method) for m in recent]
        assert ("<external>", "caller", "bump_twice") in senders
        assert ("caller", "counter", "increment") in senders

    def test_unknown_method_raises(self, system):
        ref = system.create_actor("node-a", Counter, uid="c1")
        with pytest.raises(ActorError):
            ref.no_such_method()

    def test_count_for(self, system):
        ref = system.create_actor("node-a", Counter, uid="c1")
        ref.increment()
        ref.increment()
        assert system.log.count_for("c1") == 2

    def test_ref_equality(self, system):
        system.create_actor("node-a", Counter, uid="c1")
        a = system.actor_ref("node-a", "c1")
        b = system.actor_ref("node-a", "c1")
        assert a == b and hash(a) == hash(b)

    def test_self_ref(self, system):
        ref = system.create_actor("node-a", Counter, uid="c1")
        actor = system.get_pool("node-a").lookup("c1")
        assert actor.ref() == ref


class TestLog:
    def test_log_bounded(self):
        from repro.actors import MessageLog, Message

        log = MessageLog(capacity=5)
        for i in range(10):
            log.record("a", "b", f"m{i}")
        recent = log.recent(100)
        assert len(recent) == 5
        assert log.total_delivered == 10
        assert [m.method for m in recent] == [f"m{i}" for i in range(5, 10)]
        assert [m.seq for m in recent] == list(range(6, 11))
        assert all(isinstance(m, Message) for m in recent)
        # counts survive trimming.
        assert log.count_for("b") == 10
        assert log.edge_counts() == {("a", "b"): 10}

    def test_concurrent_records_lose_no_count(self):
        import sys
        import threading

        from repro.actors import MessageLog

        log = MessageLog(capacity=50)
        n_threads, per_thread = 8, 2_000

        def worker(i):
            for j in range(per_thread):
                log.record(f"s{i}", f"r{j % 3}", "m")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        total = n_threads * per_thread
        assert log.total_delivered == total
        assert sum(log.recipient_counts().values()) == total
        assert sum(log.method_counts().values()) == total
        seqs = [m.seq for m in log.recent(50)]
        assert seqs == list(range(total - 49, total + 1))

    def test_invalid_capacity(self):
        from repro.actors import MessageLog

        with pytest.raises(ValueError):
            MessageLog(capacity=0)
