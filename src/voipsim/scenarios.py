"""Executable scenarios: one call (or conference) per simulator run.

Both scenarios stream one-way media at a fixed cadence across a single
emulated WAN link and add each counted frame's one-way delay to a
``MediaStats`` as the frame arrives:

* two-party call: caller places the call, the callee auto-answers, media
  runs caller -> callee in mini frames (full frames only to anchor), then
  the caller hangs up;
* conference: the chairman CREATEs with one invitee, the invitee JOINs,
  media runs chairman -> server -> invitee as RTP, then the chairman ENDs.
  The invitee sits on the server's host, which is one node: the server
  routes the invitee's messages and delivers relayed media to it by direct
  calls, within the event that brought them.

Every node is a ``_Node`` (name, its ``netsim.Link`` to its peer, stats, trace); the
caller and the chairman are ``_MediaSource`` nodes, which pace, count and send the frames.
A node's ``handle(sim, data)`` gets a packet's bytes, or ``None`` for a timer tick.  Its
per-packet send and arrival go straight to its link and stats, or in a traced run through
wrappers that write the ``media``, ``relay`` or ``deliver`` record first.

The configured one-way delay is paid once per end-to-end path; the
server-to-member hop of a co-located relay is free.  With identical
payloads the two media paths therefore differ by exactly the serialization
of the 8 header bytes that separate a mini frame from an RTP packet.
"""

from __future__ import annotations

import json
import random
from typing import TYPE_CHECKING, TextIO

from .frames import (
    RTP_HEADER_LEN,
    FrameKind,
    FullFrame,
    RswMessage,
    Signal,
    Verb,
    decode_full,
    decode_rsw,
    decode_rtp,
    encode_full,
    encode_rsw,
)
from .iax import CallState, IaxEndpoint, NotInCall
from .netsim import Link, LinkConfig, Simulator, serialization_ms
from .rsw import (
    ConferencePhase,
    RswInvitee,
    create_conference,
    new_rtp_tx,
    send_media_rtp,
    server_route,
)

if TYPE_CHECKING:  # pragma: no cover
    from .experiment import SweepConfig


_encode = json.JSONEncoder(separators=(",", ":")).encode  # json.dumps would rebuild it per call
# an Enum member read costs far more than a global's
_VOICE = FrameKind.VOICE
_ACTIVE = ConferencePhase.ACTIVE
_INVITEE = "p1"  # the conference's one invitee, on the server's host


class TraceLog:
    """Writes event records to a text stream as JSON Lines as they happen.

    After ``begin(label)`` every record carries ``"scenario": label`` as its
    first key, then ``t`` and ``kind``.  Control records go through ``add``,
    which JSON-encodes their fields.  The per-packet records (``media``,
    ``relay``, ``deliver``) go through ``packet``: each node encodes their
    fixed fields once, and a record writes only its time and its one varying
    integer, in the bytes ``add`` would write for the same fields.
    Nothing is kept per record; ``count`` is the number of lines written.
    """

    def __init__(self, stream: TextIO):
        self.stream = stream
        self.count = 0
        self._head = "{"

    def begin(self, label: str) -> None:
        self._head = '{"scenario":' + _encode(label) + ","

    def add(self, t: float, kind: str, **fields) -> None:
        # splice the encoded fields in after the head
        self.stream.write(self._head + _encode({"t": t, "kind": kind, **fields})[1:] + "\n")
        self.count += 1

    def packet(self, t: float, tail: str, value: int) -> None:
        """Write ``add(t, kind, **fields, key=value)``; ``tail`` is ``_packet_tail(kind, key, **fields)``."""
        # json writes a finite float as its repr and an int as its decimal digits
        self.stream.write(f'{self._head}"t":{t!r},{tail}{value:d}}}\n')
        self.count += 1


class _NoTrace:
    """The trace of an untraced run: takes every record and writes nothing."""

    __slots__ = ()

    def _drop(self, *_args, **_fields) -> None:
        pass

    begin = add = _drop


_NO_TRACE = _NoTrace()


def _packet_tail(kind: str, key: str, **fields) -> str:
    """The encoded ``"kind":…`` through ``"key":`` of a ``TraceLog.packet`` record."""
    return _encode({"kind": kind, **fields})[1:-1] + "," + _encode(key) + ":"


def _traced(trace, forward, kind: str, key: str, **fields):
    """``forward``, or in a traced run a wrapper writing the ``kind`` record first: of a
    send ``(sim, data)`` for ``"bytes"``, else of an arrival ``(key, now)``.  It holds no node."""
    if trace is _NO_TRACE:
        return forward
    packet, tail = trace.packet, _packet_tail(kind, key, **fields)
    if key == "bytes":
        return lambda sim, data: (packet(sim.now, tail, len(data)), forward(sim, data))
    return lambda value, now: (packet(now, tail, value), forward(value, now))


class MediaStats:
    """Per-run media measurements: two counts, a delay sum and the frames in flight.

    ``_in_flight`` maps the stats key of each counted frame not yet arrived
    (IAX ``ts32``, RTP ``seq``; unique within a run) to its send time, so it
    holds only the frames in flight and the lost ones.  The first copy of a
    frame to arrive adds its one-way delay (arrival minus send time) to
    ``delay_sum`` and counts in ``frames_recv``.  A duplicate copy, or a key
    that was never counted (the IAX anchor full frame), finds no entry and is
    ignored.
    """

    __slots__ = ("setup_ms", "frames_sent", "frames_recv", "delay_sum", "_in_flight")

    def __init__(self):
        self.setup_ms: float | None = None
        self.frames_sent = 0
        self.frames_recv = 0
        self.delay_sum = 0.0
        self._in_flight: dict[int, float] = {}

    def _sent(self, key: int, now: float) -> None:
        self._in_flight[key] = now
        self.frames_sent += 1

    def _arrived(self, key: int, now: float) -> None:
        sent_at = self._in_flight.pop(key, None)
        if sent_at is not None:
            self.delay_sum += now - sent_at
            self.frames_recv += 1


def longest_trip_ms(delay_ms: float, cfg: SweepConfig) -> float:
    """``delay_ms`` plus the serialization of the longest packet either run sends."""
    # the chairman's CREATE, or a payload behind a 12-byte header (RTP, or the IAX anchor)
    size = max(len(encode_rsw(_chair_create(cfg.frame_interval_ms))), RTP_HEADER_LEN + cfg.payload_bytes)
    return delay_ms + serialization_ms(LinkConfig(link_rate_bps=cfg.link_rate_bps), size)


def _chair_create(frame_interval_ms: float) -> RswMessage:
    return create_conference("chair", [_INVITEE], f"codec=pcm;frame_ms={frame_interval_ms:g}", conf_id=1)


class RunNotEnded(RuntimeError):
    """A run drained its events short of its terminal state: IAX Hungup at both ends, the conference Ended."""


def _run(label: str, delay_ms: float, cfg: SweepConfig, trace: TraceLog | _NoTrace, *nodes: _Node) -> float:
    """Register the nodes, start the first one and drain the run; returns the final clock."""
    horizon_ms = cfg.run_horizon_ms(delay_ms)  # refuses a run past the 32-bit clock before it starts
    trace.begin(label)
    sim = Simulator(seed=cfg.seed)
    for node in nodes:
        sim.register(node.name, node.handle)
    nodes[0].start(sim)
    return sim.run_until_idle(horizon_ms)


class _Node:
    """One endpoint of a run; ``link`` carries its messages to its peer, ``link.dst``."""

    def __init__(self, name: str, peer: str, config: LinkConfig, stats: MediaStats, trace):
        self.name = name
        self.link = Link(config, name, peer)
        self.stats = stats
        self.trace = trace

    def _send_control(self, sim: Simulator, kind: str, data: bytes, **fields) -> None:
        self.trace.add(sim.now, kind, src=self.name, dst=self.link.dst, **fields, bytes=len(data))
        self.link.reliable_send(sim, data)


class _MediaSource(_Node):
    """Paces ``cfg.media_frame_count()`` counted frames to its peer, then tears down.

    Subclasses supply ``_control`` (each packet; timer ticks pace the media),
    ``_next_frame(payload, now) -> (stats key, wire bytes)`` and
    ``_teardown``, and call ``_begin_media``.
    """

    def __init__(self, name: str, peer: str, config: LinkConfig, cfg: SweepConfig, stats: MediaStats, trace):
        super().__init__(name, peer, config, stats, trace)
        self.interval = cfg.frame_interval_ms
        self.payload = bytes(cfg.payload_bytes)
        self.frames_left = cfg.media_frame_count()
        self._transmit = _traced(trace, self.link.transmit, "media", "bytes", src=name, dst=peer)

    def handle(self, sim: Simulator, data: bytes | None) -> None:
        if data is not None:
            self._control(sim, data)
        elif self.frames_left > 0:
            key, data = self._next_frame(self.payload, now := sim.now)
            self.stats._sent(key, now)
            self._transmit(sim, data)
            self.frames_left -= 1
            sim.schedule(now + self.interval, self.name, None)  # the next tick
        else:
            self._teardown(sim)  # no tick is scheduled after this one

    def _begin_media(self, sim: Simulator, first_tick_ms: float) -> None:
        self.stats.setup_ms = sim.now
        sim.schedule_timer(first_tick_ms, self.name)


def _send_signal(node: _Node, sim: Simulator, frame: FullFrame) -> None:
    node._send_control(sim, "signal", encode_full(frame), signal=Signal(frame.subclass).name)


class _IaxCallerNode(_MediaSource):
    def __init__(self, config, cfg, stats, trace):
        super().__init__("caller", "callee", config, cfg, stats, trace)
        self.endpoint = IaxEndpoint("caller")
        self._next_frame = self.endpoint.send_media  # its (ts32, wire bytes); ts32 is the stats key

    def start(self, sim: Simulator) -> None:
        _send_signal(self, sim, self.endpoint.place_call("callee", sim.now))

    def _control(self, sim: Simulator, data: bytes) -> None:
        frame, call = decode_full(data), self.endpoint.call
        before = call.state
        self.endpoint.handle_signal(frame, sim.now)
        self.trace.add(
            sim.now, "state", endpoint="caller", event=Signal(frame.subclass).name,
            state_before=before.value, state_after=call.state.value,
        )
        if call.state is CallState.UP and self.stats.setup_ms is None:
            # The first voice frame is a full frame that anchors the receiver's
            # 16-bit timestamp window; its size differs, so it goes uncounted.
            self._transmit(sim, self._next_frame(self.payload, sim.now)[1])
            self._begin_media(sim, self.interval)

    def _teardown(self, sim: Simulator) -> None:
        _send_signal(self, sim, self.endpoint.hangup(sim.now))


class _IaxCalleeNode(_Node):
    def __init__(self, config, stats, trace):
        super().__init__("callee", "caller", config, stats, trace)
        self.endpoint = IaxEndpoint("callee")
        self._arrived = _traced(trace, stats._arrived, "deliver", "ts", dst="callee")

    def handle(self, sim: Simulator, data: bytes) -> None:
        endpoint = self.endpoint
        try:
            if not data[0] & 0x80:
                ts32, _payload = endpoint.receive_media_frame(data)
            elif (frame := decode_full(data)).frame_type is _VOICE:
                ts32, _payload = endpoint.receive_anchor(frame)
            else:
                for reply in endpoint.handle_signal(frame, sim.now):
                    _send_signal(self, sim, reply)
                return
        except NotInCall:
            return  # media straggling past teardown is dropped, not fatal
        self._arrived(ts32, sim.now)


def run_iax_call(delay_ms: float, cfg: SweepConfig, trace: TraceLog | None = None) -> MediaStats:
    """Simulate one two-party call; returns the raw measurements."""
    config = LinkConfig(delay_ms=delay_ms, link_rate_bps=cfg.link_rate_bps)
    stats = MediaStats()
    trace = _NO_TRACE if trace is None else trace
    caller, callee = _IaxCallerNode(config, cfg, stats, trace), _IaxCalleeNode(config, stats, trace)
    _run(f"IAX:{delay_ms:g}", delay_ms, cfg, trace, caller, callee)
    if not all(getattr(node.endpoint.call, "state", None) is CallState.HUNGUP for node in (caller, callee)):
        raise RunNotEnded(f"run IAX:{delay_ms:g} drained its events with a call not Hungup")
    return stats


class _RswChairNode(_MediaSource):
    def __init__(self, wan, cfg, stats, trace, tx):
        super().__init__("chair", "server", wan, cfg, stats, trace)
        self.tx = tx

    def start(self, sim: Simulator) -> None:
        self._send_conf(sim, _chair_create(self.interval))

    def _control(self, sim: Simulator, data: bytes) -> None:
        # the relayed JOIN starts the media; ACKs need no action
        if decode_rsw(data).verb is Verb.JOIN and self.stats.setup_ms is None:
            self._begin_media(sim, 0.0)

    def _next_frame(self, payload: bytes, now: float) -> tuple[int, bytes]:
        return send_media_rtp(self.tx, payload)  # its (seq, wire bytes); seq is the stats key

    def _teardown(self, sim: Simulator) -> None:
        self._send_conf(sim, RswMessage(Verb.END, 1, "chair", "server"))

    def _send_conf(self, sim: Simulator, msg: RswMessage) -> None:
        self._send_control(sim, "conf", encode_rsw(msg), verb=msg.verb.value)


class _RswServerNode(_Node):
    """The server's host: routes control messages and bridges the chairman's media.

    The chairman is across the WAN link; the conference's one invitee sits on
    this host and is reached by direct calls.  The chairman is the only media
    source, and a conference is Active only once the invitee has joined.
    Relayed media is delivered to the invitee in the event that brought it.
    A control message to the invitee is handed over only after that event's
    WAN replies are sent, so the invitee's JOIN, routed here at once, leaves
    for the chairman behind the server's ACK for CREATE.
    """

    def __init__(self, wan, stats, trace):
        super().__init__("server", "chair", wan, stats, trace)
        self.conf = None
        self.invitee = RswInvitee(_INVITEE)
        arrived = _traced(trace, stats._arrived, "deliver", "seq", dst=_INVITEE)
        self._relay = _traced(trace, lambda sim, data: arrived(decode_rtp(data)[0], sim.now),
                              "relay", "bytes", src="server", dst=_INVITEE)

    def handle(self, sim: Simulator, data: bytes) -> None:
        if data.startswith(b"RSW/1 "):
            self._route(sim, decode_rsw(data))
        elif self.conf is not None and self.conf.phase is _ACTIVE:
            self._relay(sim, data)
        # media outside an active conference is dropped

    def _route(self, sim: Simulator, msg: RswMessage) -> None:
        out, self.conf = server_route(msg, self.conf)
        invitation = None
        for reply in out:
            raw, dst = encode_rsw(reply), reply.recipient
            self.trace.add(sim.now, "conf", src="server", dst=dst, bytes=len(raw), verb=reply.verb.value)
            if dst == self.link.dst:
                self.link.reliable_send(sim, raw)
            elif dst != _INVITEE:
                raise LookupError(f"the server has no route to {dst!r}")
            elif reply.verb is Verb.CREATE:  # the invitee needs no ACK or END
                invitation = reply
        if invitation is not None:
            self.invitee.receive_invitation(invitation)
            join = self.invitee.respond()
            raw = encode_rsw(join)  # for the trace's byte count; the JOIN itself goes to _route as it is
            self.trace.add(sim.now, "conf", src=_INVITEE, dst="server", verb=join.verb.value, bytes=len(raw))
            self._route(sim, join)


def run_rsw_conference(delay_ms: float, cfg: SweepConfig, trace: TraceLog | None = None) -> MediaStats:
    """Simulate one two-member conference; returns the raw measurements."""
    wan = LinkConfig(delay_ms=delay_ms, link_rate_bps=cfg.link_rate_bps)
    stats = MediaStats()
    trace = _NO_TRACE if trace is None else trace
    tx = new_rtp_tx(random.Random(cfg.seed), samples_per_frame=cfg.payload_bytes)
    chair, server = _RswChairNode(wan, cfg, stats, trace, tx), _RswServerNode(wan, stats, trace)
    _run(f"RSW:{delay_ms:g}", delay_ms, cfg, trace, chair, server)
    if getattr(server.conf, "phase", None) is not ConferencePhase.ENDED:
        raise RunNotEnded(f"run RSW:{delay_ms:g} drained its events with the conference not Ended")
    return stats
