"""Deterministic discrete-event emulation of a single delayed link.

One :class:`Simulator` owns the virtual clock, a seeded RNG, and the event
heap.  Events are dispatched strictly in ``(due, seq)`` order, where ``seq``
is the global scheduling counter, so runs with the same seed and the same
scenario replay identically.

Packet timing on a link::

    serialization_ms = 8 * (len(pkt) + 28) / link_rate_bps * 1000

where 28 bytes (``OVERHEAD_BYTES``) are the IPv4 and UDP headers of every packet.

``transmit`` models the lossy media channel (loss, duplication, reordering,
jitter); ``reliable_send`` models the in-order signaling channel and never
consumes randomness.  ``deliver_local`` moves a packet between co-located
nodes at no cost: it arrives at the current time, after the events already
due then.  No scenario calls it: the conference's server hands everything to
the member on its host by a direct call.

An event is a heap entry ``(due, seq, dst, payload)``; ``seq`` is unique, so
the heap never compares ``dst`` or ``payload``.  Dispatch calls the handler
registered for ``dst`` as ``handler(sim, payload)``: a delivered packet's
payload is its bytes, and a timer tick's is ``None``.
:meth:`Simulator.schedule` is the one entry to the queue: every send and
timer goes through it, so its ``due >= now`` guard and the ``(due, seq)``
order hold for all of them.  The send methods return the arrival times they
queued.
"""

from __future__ import annotations

import math
import random
from heapq import heappop, heappush
from typing import Callable, NamedTuple

from .qos import NegativeDelay


OVERHEAD_BYTES = 28  # IPv4 (20) plus UDP (8)


class EmptyPacket(ValueError):
    """Transmission of a zero-length packet was requested."""


class HorizonExceeded(RuntimeError):
    """An event fell past the run's horizon: the run outlived its message schedule, a bug or a livelock."""


class _LinkFields(NamedTuple):
    delay_ms: float = 0.0
    jitter_ms: float = 0.0
    loss_prob: float = 0.0
    dup_prob: float = 0.0
    reorder_prob: float = 0.0
    link_rate_bps: int = 128_000


class LinkConfig(_LinkFields):
    """Emulated link parameters, validated when built (``_replace`` too); probabilities apply to media only."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace builds through it, so it validates too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("delay_ms", "jitter_ms"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.delay_ms < 0:
            raise NegativeDelay(f"delay_ms {self.delay_ms}")
        if self.jitter_ms < 0:
            raise ValueError(f"jitter_ms must be >= 0, got {self.jitter_ms}")
        for name in ("loss_prob", "dup_prob", "reorder_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.link_rate_bps <= 0:
            raise ValueError(f"link_rate_bps must be > 0, got {self.link_rate_bps}")
        return self


def serialization_ms(link: LinkConfig, size_bytes: int) -> float:
    """Time to clock ``size_bytes`` plus the IP/UDP overhead onto the link."""
    return 8.0 * (size_bytes + OVERHEAD_BYTES) * 1000.0 / link.link_rate_bps


# a handler gets the event's payload: the packet, or None for a timer tick
Handler = Callable[["Simulator", "bytes | None"], None]


class Simulator:
    """Event queue, virtual clock, and seeded randomness for one run."""

    def __init__(self, seed: int = 1):
        self.now: float = 0.0
        self.rng = random.Random(seed)
        self.dispatched = 0
        self._heap: list[tuple[float, int, str, bytes | None]] = []
        self._next_seq = 0
        self._handlers: dict[str, Handler] = {}
        self._reliable_front: dict[tuple[str, str], float] = {}

    def register(self, endpoint_id: str, handler: Handler) -> None:
        self._handlers[endpoint_id] = handler

    def schedule(self, due: float, dst: str, payload: bytes | None) -> None:
        """Queue ``payload`` for ``dst``; ``due`` must not precede the current clock, nor be NaN."""
        if not due >= self.now:  # not `due < now`, which a NaN due passes
            raise ValueError(f"due {due} precedes now {self.now}")
        seq = self._next_seq
        self._next_seq = seq + 1
        heappush(self._heap, (due, seq, dst, payload))

    def schedule_timer(self, delay_ms: float, dst: str) -> None:
        """Tick ``dst`` after ``delay_ms``: its handler gets ``None``."""
        self.schedule(self.now + delay_ms, dst, None)

    def transmit(self, link: LinkConfig, pkt: bytes, src: str, dst: str) -> list[float]:
        """Send over the lossy media channel; returns the arrival times queued.

        Four RNG draws happen on every call (loss, duplicate, reorder,
        jitter) in that fixed order, whatever the configured probabilities,
        so event streams stay aligned across configs with the same seed.
        A reordered packet skips the configured delay and arrives early.
        Arrival never precedes ``now + serialization``.
        """
        size = len(pkt)
        if size == 0:
            raise EmptyPacket(f"{src}->{dst}")
        delay_ms, j, loss_prob, dup_prob, reorder_prob, rate = link  # one unpack beats six field reads
        ser = 8.0 * (size + OVERHEAD_BYTES) * 1000.0 / rate  # serialization_ms
        rand = self.rng.random
        lost = rand() < loss_prob
        duplicated = rand() < dup_prob
        reordered = rand() < reorder_prob
        # the expression random.Random.uniform(-j, j) evaluates, inlined
        jitter = -j + (j + j) * rand()
        if lost:
            return []
        base = 0.0 if reordered else delay_ms
        arrival = self.now + ser + max(0.0, base + jitter)
        self.schedule(arrival, dst, pkt)
        if duplicated:
            self.schedule(arrival, dst, pkt)
            return [arrival, arrival]
        return [arrival]

    def reliable_send(self, link: LinkConfig, pkt: bytes, src: str, dst: str) -> float:
        """Send over the in-order signaling channel; returns the arrival time.

        Arrival is ``now + serialization + delay_ms`` — no loss, duplication,
        reordering, or jitter, and no RNG draws.  Arrival is clamped to the
        previous reliable arrival for the same (src, dst) pair so FIFO order
        holds even for pathological size mixes.
        """
        if len(pkt) == 0:
            raise EmptyPacket(f"{src}->{dst}")
        arrival = self.now + serialization_ms(link, len(pkt)) + link.delay_ms
        front = self._reliable_front.get((src, dst), 0.0)
        arrival = max(arrival, front)
        self._reliable_front[(src, dst)] = arrival
        self.schedule(arrival, dst, pkt)
        return arrival

    def deliver_local(self, pkt: bytes, dst: str) -> float:
        """Hand a packet to a co-located node now, at no link cost; no scenario calls this."""
        if len(pkt) == 0:
            raise EmptyPacket(f"local->{dst}")
        self.schedule(self.now, dst, pkt)
        return self.now

    def run_until_idle(self, horizon_ms: float | None = None) -> float:
        """Dispatch events in (due, seq) order until the queue drains.

        Returns the final clock value (0.0 for an initially empty queue).
        An event due past ``horizon_ms`` raises :class:`HorizonExceeded`.
        """
        heap = self._heap
        handlers = self._handlers
        limit = float("inf") if horizon_ms is None else horizon_ms
        dispatched = 0  # a local, added once: an attribute update per event costs more
        try:
            while heap:
                due, _seq, dst, payload = heappop(heap)
                if due > limit:
                    raise HorizonExceeded(f"event for {dst} due {due} > horizon {horizon_ms}")
                self.now = due
                handler = handlers.get(dst)
                if handler is None:
                    raise LookupError(f"no handler registered for {dst!r}")
                handler(self, payload)
                dispatched += 1
        finally:
            self.dispatched += dispatched
        return self.now
