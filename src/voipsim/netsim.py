"""Deterministic discrete-event emulation of a single delayed link.

:class:`Simulator` is a run's event core: the virtual clock, the one seeded
RNG, the heap of packets and the one pending timer tick, dispatched strictly
in ``(due, seq)`` order (``seq`` counts every packet and tick queued), so a
seed and a scenario replay identically.

A :class:`Link` is one direction of the link, ``src`` to ``dst``.  Packet timing::

    serialization_ms = 8 * (len(pkt) + 28) / link_rate_bps * 1000

where 28 bytes (``OVERHEAD_BYTES``) are the IPv4 and UDP headers of every packet.

``Link.transmit(sim, pkt)`` models the lossy media channel (loss, duplication,
reordering, jitter).  An impaired link draws four values per packet from
``sim.rng``, the one stream both directions share; an unimpaired link makes no
RNG call.  ``Link.reliable_send(sim, pkt)`` models the in-order channel for
signaling and full frames, and never consumes randomness.
``Simulator.deliver_local`` moves a packet between co-located nodes at no
cost: it arrives at the current time, after the events already due then.  No
scenario calls it.

An event is ``(due, seq, dst, payload)``; ``seq`` is unique, so comparing two
events never reaches ``dst`` or ``payload``.  ``run_until_idle(handlers)``
dispatches each as ``handlers[dst](payload)``.  A packet is a heap entry whose
payload is its bytes, and :meth:`Simulator.schedule` is the one entry to the
heap: every send goes through it.  A timer tick is not on the heap.  A handler
asks for one by returning its due, and the tick reaches ``dst`` as a ``None``
payload.  A run holds at most one tick pending, beside the heap, with the
``seq`` it takes as its handler returns.  Ticks and packets therefore share
the ``due >= now`` guard and the ``(due, seq)`` order.  The simulator holds no
handler, so a node may hold ``sim`` without a reference cycle.  A handler may
be a generator's ``send``: a script yields its next tick's due, or a bare
``yield`` to wait for a packet, and when the generator returns, dispatch drops
it from ``handlers``.  The send methods return the arrival times they queued.
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


def serialization_ms(link: LinkConfig | Link, size_bytes: int) -> float:
    """Time to clock ``size_bytes`` plus the IP/UDP overhead onto the link."""
    return 8.0 * (size_bytes + OVERHEAD_BYTES) * 1000.0 / link.link_rate_bps


# a handler gets the event's payload, the packet or None for a timer tick, and returns
# None or the due of the next tick it asks for
Handler = Callable[["bytes | None"], "float | None"]


class Simulator:
    """Event queue, virtual clock, and seeded randomness for one run."""

    __slots__ = ("now", "dispatched", "rng", "_heap", "_next_seq")

    def __init__(self, seed: int = 1):
        self.now: float = 0.0
        self.rng = random.Random(seed)
        self.dispatched = 0
        self._heap: list[tuple[float, int, str, bytes]] = []  # packets only; ticks stay off it
        self._next_seq = 0

    def schedule(self, due: float, dst: str, payload: bytes) -> None:
        """Queue ``payload`` for ``dst``; ``due`` must not precede the current clock, nor be NaN."""
        if not due >= self.now:  # not `due < now`, which a NaN due passes
            raise ValueError(f"due {due} precedes now {self.now}")
        seq = self._next_seq
        self._next_seq = seq + 1
        heappush(self._heap, (due, seq, dst, payload))

    def deliver_local(self, pkt: bytes, dst: str) -> float:
        """Hand a packet to a co-located node now, at no link cost; no scenario calls this."""
        if len(pkt) == 0:
            raise EmptyPacket(f"local->{dst}")
        self.schedule(self.now, dst, pkt)
        return self.now

    def run_until_idle(self, handlers: dict[str, Handler], horizon_ms: float | None = None,
                       tick: tuple[float, str] | None = None) -> float:
        """Dispatch events in (due, seq) order to ``handlers[dst](payload)`` until none is left.

        Returns the final clock value (0.0 for an initially empty queue).
        An event due past ``horizon_ms`` raises :class:`HorizonExceeded`.
        ``tick``, ``(due, dst)``, is a timer tick pending at the start: a
        script's first yielded due.  A handler that returns a due asks for a
        tick to ``dst`` then; it must be a number, not NaN, not before the
        clock, and no other tick may be pending.  A handler that raises
        ``StopIteration``, a generator's ``send`` as the generator returns, is
        done: it is dropped from ``handlers``.
        """
        heap = self._heap
        limit = float("inf") if horizon_ms is None else horizon_ms
        asked, dst = (None, None) if tick is None else tick
        pending = None  # the one tick, (due, seq, dst, None): a heap entry kept off the heap
        dispatched = 0  # a local, added once: an attribute update per event costs more
        try:
            while True:
                if asked is not None:
                    try:
                        not_past = asked >= self.now  # not `asked < now`, which a NaN due passes
                    except TypeError:  # what every non-number raises; an isinstance check per tick costs more
                        raise TypeError(f"a tick for {dst!r} was asked at {asked!r}, not at a number") from None
                    if not not_past:
                        raise ValueError(f"due {asked} precedes now {self.now}")
                    if pending is not None:
                        raise RuntimeError(f"{dst!r} asked for a tick while the tick for {pending[2]!r} was pending")
                    seq = self._next_seq
                    self._next_seq = seq + 1
                    pending = (asked, seq, dst, None)
                if pending is not None and (not heap or pending < heap[0]):
                    (due, _seq, dst, payload), pending = pending, None
                elif heap:
                    due, _seq, dst, payload = heappop(heap)
                else:
                    break
                if due > limit:
                    raise HorizonExceeded(f"event for {dst} due {due} > horizon {horizon_ms}")
                self.now = due
                handler = handlers.get(dst)
                if handler is None:
                    raise LookupError(f"no handler for {dst!r}")
                try:
                    asked = handler(payload)
                except StopIteration:
                    del handlers[dst]
                    asked = None
                dispatched += 1
        finally:
            self.dispatched += dispatched
        return self.now


class Link:
    """One direction of an emulated link, ``src`` to ``dst``, with its ``LinkConfig`` unpacked.

    Each send takes the run's ``sim``.
    """

    __slots__ = ("src", "dst", "delay_ms", "jitter_ms", "loss_prob", "dup_prob", "reorder_prob",
                 "link_rate_bps", "_impaired", "_reliable_front")

    def __init__(self, config: LinkConfig, src: str, dst: str):
        self.src, self.dst = src, dst
        self.delay_ms, self.jitter_ms, self.loss_prob, self.dup_prob, self.reorder_prob, self.link_rate_bps = config
        self._impaired = any((self.jitter_ms, self.loss_prob, self.dup_prob, self.reorder_prob))
        self._reliable_front = 0.0  # the last signaling arrival queued; the next may not precede it

    def transmit(self, sim: Simulator, pkt: bytes) -> list[float]:
        """Send over the lossy media channel; returns the arrival times queued.

        An impaired link makes four ``sim.rng`` draws on every call (loss, duplicate, reorder,
        jitter) in that fixed order, so the n-th send takes the same draws under any impaired
        config with the same seed.  An unimpaired link makes no RNG call.  A reordered packet
        skips the configured delay.  Arrival never precedes ``now + serialization``.
        """
        size = len(pkt)
        if size == 0:
            raise EmptyPacket(f"{self.src}->{self.dst}")
        ser = 8.0 * (size + OVERHEAD_BYTES) * 1000.0 / self.link_rate_bps  # serialization_ms
        if not self._impaired:  # the arrival that four zero impairments give below
            sim.schedule(arrival := sim.now + ser + self.delay_ms, self.dst, pkt)
            return [arrival]
        rand = sim.rng.random
        lost = rand() < self.loss_prob
        duplicated = rand() < self.dup_prob
        reordered = rand() < self.reorder_prob
        # the expression random.Random.uniform(-j, j) evaluates, inlined
        j = self.jitter_ms
        jitter = -j + (j + j) * rand()
        if lost:
            return []
        base = 0.0 if reordered else self.delay_ms
        arrival = sim.now + ser + max(0.0, base + jitter)
        sim.schedule(arrival, self.dst, pkt)
        if duplicated:
            sim.schedule(arrival, self.dst, pkt)
            return [arrival, arrival]
        return [arrival]

    def reliable_send(self, sim: Simulator, pkt: bytes) -> float:
        """Send over the in-order signaling channel; returns the arrival time.

        Arrival is ``now + serialization + delay_ms`` — no loss, duplication,
        reordering, or jitter, and no RNG draws — clamped to this direction's
        previous reliable arrival, so FIFO holds for any mix of sizes.
        """
        if len(pkt) == 0:
            raise EmptyPacket(f"{self.src}->{self.dst}")
        arrival = max(sim.now + serialization_ms(self, len(pkt)) + self.delay_ms, self._reliable_front)
        self._reliable_front = arrival
        sim.schedule(arrival, self.dst, pkt)
        return arrival
