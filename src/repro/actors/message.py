"""Actor messages and the delivery log.

Every cross-actor call is recorded, giving tests and the simulation a
faithful trace of service interactions — the same observability a real
Xoscar deployment gets from its RPC layer.

The log records *who called what*, never the payload: each delivery is
one ``(sender, recipient, method, seq)`` row in a bounded ring, and
:class:`Message` objects are only built when :meth:`MessageLog.recent`
is read.  Holding ``args``/``kwargs`` would keep up to ``capacity``
messages' chunk values alive long after storage freed them.

The log is shared mutable state touched from the accounting thread *and*
band-runner pool threads (compute-phase storage peeks route through the
actor plane), so every mutation happens under a lock.  One
``(sender, recipient, method)`` counter is kept alongside the ring;
per-edge and per-recipient totals are folded from it on read, so
trimming old rows never loses counts, which is what
``diagnostics.service_report`` summarizes.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any


@dataclass
class Message:
    """One actor method invocation."""

    sender: str
    recipient: str
    method: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    seq: int = 0

    def describe(self) -> str:
        return f"#{self.seq} {self.sender} -> {self.recipient}.{self.method}"


class MessageLog:
    """Bounded in-memory trace of delivered messages (thread-safe)."""

    def __init__(self, capacity: int = 10_000):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        #: ``(sender, recipient, method, seq)`` rows, oldest trimmed.
        self._rows: deque[tuple[str, str, str, int]] = deque(maxlen=capacity)
        self._seq = 0
        self.total_delivered = 0
        #: (sender, recipient, method) -> deliveries, never trimmed.
        self._method_counts: Counter[tuple[str, str, str]] = Counter()

    def record(self, sender: str, recipient: str, method: str) -> None:
        """Record one delivery: who called what, never the payload."""
        with self._lock:
            self._seq += 1
            self.total_delivered += 1
            self._rows.append((sender, recipient, method, self._seq))
            self._method_counts[(sender, recipient, method)] += 1

    def recent(self, n: int = 50) -> list[Message]:
        with self._lock:
            rows = list(self._rows)[-n:]
        return [Message(sender, recipient, method, seq=seq)
                for sender, recipient, method, seq in rows]

    def _fold(self, key) -> Counter:
        counts: Counter = Counter()
        for triple, n in self._method_counts.items():
            counts[key(triple)] += n
        return counts

    def count_for(self, recipient: str) -> int:
        """Total deliveries to ``recipient`` (not limited to the window)."""
        with self._lock:
            return sum(n for (_, to, _), n in self._method_counts.items()
                       if to == recipient)

    def recipient_counts(self) -> dict[str, int]:
        with self._lock:
            return dict(self._fold(lambda triple: triple[1]))

    def edge_counts(self) -> dict[tuple[str, str], int]:
        with self._lock:
            return dict(self._fold(lambda triple: triple[:2]))

    def method_counts(self) -> dict[tuple[str, str, str], int]:
        with self._lock:
            return dict(self._method_counts)

    def edges(self) -> set[tuple[str, str]]:
        """Every (sender, recipient) pair ever delivered."""
        with self._lock:
            return {triple[:2] for triple in self._method_counts}

    def top_edges(self, n: int = 10) -> list[tuple[tuple[str, str], int]]:
        """The chattiest sender -> recipient pairs, busiest first."""
        return sorted(
            self.edge_counts().items(),
            key=lambda item: (-item[1], item[0]),
        )[:n]

    def clear(self) -> None:
        with self._lock:
            self._rows.clear()
            self._method_counts.clear()
            self.total_delivered = 0

    def snapshot(self) -> dict[str, Any]:
        """Aggregates in one consistent view (diagnostics)."""
        with self._lock:
            return {
                "total_delivered": self.total_delivered,
                "recipients": dict(self._fold(lambda triple: triple[1])),
                "edges": dict(self._fold(lambda triple: triple[:2])),
            }


@dataclass
class ChaosEvent:
    """One message-level fault that fired (drop, delay, or duplicate)."""

    kind: str
    method: str
    token: Any

    def describe(self) -> str:
        return f"{self.kind} {self.method} token={self.token!r}"


class MessageChaos:
    """Seeded drop/delay/duplicate decisions for token-carrying messages.

    Decisions hash ``(seed, kind, method, seq)`` through
    ``structural_draw``, where ``seq`` is the dedup token's per-session
    message sequence number, minted on the deterministic accounting
    walk — so for one seed the same messages fault in serial and thread
    execution mode regardless of delivery interleaving.
    The token's *session* component is deliberately excluded from the
    draw: session ids come from a process-global counter, and the same
    workload must draw the same faults no matter how many sessions ran
    before it in the process (or in a mode-comparison harness).

    The chaos layer models an at-least-once transport over idempotent
    endpoints: a *drop* consumes the first transmission and is followed by
    an immediate retransmission; a *delay* holds the message briefly (the
    RPC stays synchronous, virtual time is not charged — latency variance
    is a wall-clock phenomenon here); a *duplicate* delivers the message
    twice and relies on the endpoint's dedup log to suppress the second
    application. Net effect: every mutation applies exactly once, in
    accounting-walk order, so reports stay bit-identical under chaos.
    """

    def __init__(self, spec, capacity: int = 4096):
        self.spec = spec
        self._lock = threading.Lock()
        self._events: list[ChaosEvent] = []
        self.capacity = capacity
        self.dropped = 0
        self.delayed = 0
        self.duplicated = 0

    @property
    def enabled(self) -> bool:
        return self.spec is not None and self.spec.any_rate

    def _draw(self, kind: str, method: str, token: Any) -> float:
        from ..graph.identity import structural_draw

        # (session, seq) token -> draw on seq only (mode/history-invariant).
        if isinstance(token, tuple) and len(token) > 1:
            parts = token[1:]
        elif isinstance(token, tuple):
            parts = token
        else:
            parts = (token,)
        return structural_draw(self.spec.seed, kind, method, *parts)

    def plan(self, method: str, token: Any) -> tuple[bool, bool, bool]:
        """``(dropped, delayed, duplicated)`` for one message delivery."""
        spec = self.spec
        dropped = (spec.drop_rate > 0.0
                   and self._draw("drop", method, token) < spec.drop_rate)
        delayed = (spec.delay_rate > 0.0
                   and self._draw("delay", method, token) < spec.delay_rate)
        duplicated = (spec.duplicate_rate > 0.0
                      and self._draw("dup", method, token)
                      < spec.duplicate_rate)
        if dropped or delayed or duplicated:
            with self._lock:
                if dropped:
                    self.dropped += 1
                    self._record(ChaosEvent("drop", method, token))
                if delayed:
                    self.delayed += 1
                    self._record(ChaosEvent("delay", method, token))
                if duplicated:
                    self.duplicated += 1
                    self._record(ChaosEvent("duplicate", method, token))
        return dropped, delayed, duplicated

    def _record(self, event: ChaosEvent) -> None:
        self._events.append(event)
        if len(self._events) > self.capacity:
            del self._events[: len(self._events) - self.capacity]

    @property
    def total_fired(self) -> int:
        return self.dropped + self.delayed + self.duplicated

    def events(self) -> list[ChaosEvent]:
        with self._lock:
            return list(self._events)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "dropped": self.dropped,
                "delayed": self.delayed,
                "duplicated": self.duplicated,
            }
