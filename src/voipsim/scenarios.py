"""Executable scenarios: one call (or conference) per simulator run.

Both scenarios stream one-way media at a fixed cadence across a single
emulated WAN link and add each counted frame's one-way delay to a
``MediaStats`` as the frame arrives:

* two-party call: caller places the call, the callee auto-answers, media
  runs caller -> callee in mini frames, then the caller hangs up.  The first
  voice frame is an uncounted full frame that anchors the callee's timestamp
  window; it rides the reliable channel, as RFC 5456 sends full frames, so
  every ``Link.transmit`` of either scenario carries one counted frame;
* conference: the chairman CREATEs with one invitee, the invitee JOINs,
  media runs chairman -> server -> invitee as RTP, then the chairman ENDs.
  The invitee sits on the server's host, which is one node: the server
  routes the invitee's messages and delivers relayed media to it by direct
  calls, within the event that brought them.

The caller and the chairman are scripts: generators that the event core resumes with each
packet's bytes, or ``None`` for a timer tick.  A script asks for its next tick by yielding
the tick's due, and waits for a packet with a bare ``yield``.  Each runs its protocol's
opening, the paced loop of counted frames in ``_media_source`` and its protocol's closing,
then returns.  The callee and the server's host are handler nodes: ``handle(data)``.  Each
per-packet send and arrival is bound when its node is built: straight to the link and
stats, or in a traced run to a writer of its ``media``, ``relay`` or ``deliver`` line.

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
    decode_rtp_seq,
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
    first key, then ``t`` and ``kind``.  ``add`` JSON-encodes a record's
    fields; the per-packet records are written, in the same bytes, by the
    writers ``_traced`` binds.  Nothing is kept per record; ``count`` is the
    number of lines written.
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


class _NoTrace:
    """The trace of an untraced run: takes every record and writes nothing."""

    __slots__ = ()

    def _drop(self, *_args, **_fields) -> None:
        pass

    begin = add = _drop


_NO_TRACE = _NoTrace()


def _packet_text(trace: TraceLog, kind: str, key: str, **fields) -> tuple[str, str]:
    """The text ``trace.add(t, kind, **fields, key=value)`` writes before ``t`` and before ``value``."""
    return trace._head + '"t":', "," + _encode({"kind": kind, **fields})[1:-1] + "," + _encode(key) + ":"


def _traced(trace, forward, kind: str, key: str, **fields):
    """``forward``, or in a traced run a writer of the ``kind`` record that returns ``forward(...)``:
    of a send ``(sim, data)`` for ``"bytes"``, else of an arrival ``(key, now)``.  It holds the
    stream's ``write`` and the run's label, so it is bound after ``trace.begin``."""
    if trace is _NO_TRACE:
        return forward
    write, (pre, mid) = trace.stream.write, _packet_text(trace, kind, key, **fields)
    # json writes a finite float as its repr and an int as its decimal digits, as format() does
    if key == "bytes":
        def send(sim, data):
            write(f"{pre}{sim.now!r}{mid}{len(data)}}}\n")
            trace.count += 1
            return forward(sim, data)
        return send

    def arrival(value, now):
        write(f"{pre}{now!r}{mid}{value}}}\n")
        trace.count += 1
        return forward(value, now)
    return arrival


def _bridge(trace, arrived):
    """The RSW server's relay ``(sim, data)``: hands the RTP ``seq``, read from the header alone, to
    ``arrived``.  In a traced run it decodes the packet, then writes the ``relay`` and ``deliver``
    lines in one ``write``, with one ``repr(now)``."""
    if trace is _NO_TRACE:
        return lambda sim, data: arrived(decode_rtp_seq(data), sim.now)
    write, (pre, relay) = trace.stream.write, _packet_text(trace, "relay", "bytes", src="server", dst=_INVITEE)
    deliver = _packet_text(trace, "deliver", "seq", dst=_INVITEE)[1]

    def relay_traced(sim, data):
        seq, now = decode_rtp(data)[0], sim.now
        t = repr(now)
        write(f"{pre}{t}{relay}{len(data)}}}\n{pre}{t}{deliver}{seq}}}\n")
        trace.count += 2
        arrived(seq, now)
    return relay_traced


class MediaStats:
    """Per-run media measurements: two counts, a delay sum and the frames in flight.

    ``_in_flight`` maps the stats key of each counted frame not yet arrived
    (IAX ``ts32``, RTP ``seq``; unique within a run) to its send time, so it
    holds only the frames in flight and the lost ones.  The media source's
    loop enters each counted frame there and counts it in ``frames_sent``
    itself, with no call per frame.  The first copy of a
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
    """A run drained its events before its media source returned: a call not Hungup, or a conference not Ended."""


class PacketWhilePacing(RuntimeError):
    """A packet reached a media source's script while it waited for a tick."""

    def __init__(self, node: str):
        super().__init__(f"{node} got a packet while it waited for a tick")


def _run(protocol: str, delay_ms: float, cfg: SweepConfig, trace: TraceLog | None, stats: MediaStats,
         name: str, script, peer: str, node) -> float:
    """Build the media source ``name`` from ``script`` and its ``peer`` from ``node``, and drain the
    run; returns the final clock."""
    config = LinkConfig(delay_ms=delay_ms, link_rate_bps=cfg.link_rate_bps)
    horizon_ms = cfg.run_horizon_ms(delay_ms, protocol)  # refuses a run past its clock before it starts
    trace = _NO_TRACE if trace is None else trace
    trace.begin(label := f"{protocol}:{delay_ms:g}")  # first: the nodes' trace writers hold the label
    sim = Simulator(seed=cfg.seed)
    source = script(sim, config, cfg, stats, trace)
    handlers = {peer: node(sim, config, stats, trace).handle, name: source.send}
    due = next(source)  # the script runs to its first wait: for a packet, or for the tick it yields
    end = sim.run_until_idle(handlers, horizon_ms, None if due is None else (due, name))
    if source.gi_frame is not None:
        raise RunNotEnded(f"run {label} drained its events before its media source's script returned")
    return end


def _send_control(sim: Simulator, link: Link, trace, kind: str, data: bytes, **fields) -> None:
    trace.add(sim.now, kind, src=link.src, dst=link.dst, **fields, bytes=len(data))
    link.reliable_send(sim, data)


def _send_signal(sim: Simulator, link: Link, trace, frame: FullFrame) -> None:
    _send_control(sim, link, trace, "signal", encode_full(frame), signal=Signal(frame.subclass).name)


def _media_source(sim: Simulator, name: str, transmit, cfg: SweepConfig, stats: MediaStats,
                  opening, next_frame, closing):
    """The script of a run's media source, resumed with each packet's bytes or a tick's ``None``.

    ``opening`` signals until media may flow and returns the delay of the first tick.  The
    script yields each tick's due, and each tick sends one counted frame, ``next_frame(payload,
    now) -> (stats key, wire bytes)``; the tick after the last runs ``closing``.  A packet that
    arrives while the script waits for a tick raises :class:`PacketWhilePacing`.
    """
    first_tick_ms = yield from opening
    stats.setup_ms = now = sim.now
    due = now + first_tick_ms
    interval, payload, in_flight = cfg.frame_interval_ms, bytes(cfg.payload_bytes), stats._in_flight
    for _ in range(cfg.media_frame_count()):
        if (yield due) is not None:
            raise PacketWhilePacing(name)
        key, data = next_frame(payload, now := sim.now)
        in_flight[key] = now
        stats.frames_sent += 1
        transmit(sim, data)
        due = now + interval  # the next tick
    if (yield due) is not None:
        raise PacketWhilePacing(name)
    yield from closing


def _iax_caller(sim: Simulator, config: LinkConfig, cfg: SweepConfig, stats: MediaStats, trace):
    """The caller's script: NEW; ACCEPT and ANSWER; the anchor; the counted frames; HANGUP."""
    link = Link(config, "caller", "callee")
    endpoint = IaxEndpoint("caller")
    transmit = _traced(trace, link.transmit, "media", "bytes", src="caller", dst="callee")

    def place_call():
        _send_signal(sim, link, trace, endpoint.place_call("callee", sim.now))
        call = endpoint.call
        while call.state is not CallState.UP:
            frame, before = decode_full((yield)), call.state
            endpoint.handle_signal(frame, sim.now)
            trace.add(
                sim.now, "state", endpoint="caller", event=Signal(frame.subclass).name,
                state_before=before.value, state_after=call.state.value,
            )
        # The first voice frame is a full frame that anchors the receiver's
        # 16-bit timestamp window; its size differs, so it goes uncounted.
        # A full frame is sent reliably, so it takes no impairment draws.
        anchor = endpoint.send_media(bytes(cfg.payload_bytes), sim.now)[1]
        trace.add(sim.now, "media", src="caller", dst="callee", bytes=len(anchor))
        link.reliable_send(sim, anchor)
        return cfg.frame_interval_ms

    def hang_up():
        _send_signal(sim, link, trace, endpoint.hangup(sim.now))
        yield from ()  # a HANGUP gets no reply

    # send_media returns (ts32, wire bytes); ts32 is the stats key
    return _media_source(sim, "caller", transmit, cfg, stats, place_call(), endpoint.send_media, hang_up())


class _IaxCalleeNode:
    """The callee: answers the caller's NEW at once and takes its media."""

    def __init__(self, sim: Simulator, config: LinkConfig, stats: MediaStats, trace):
        self.sim = sim
        self.link = Link(config, "callee", "caller")
        self.trace = trace
        self.endpoint = IaxEndpoint("callee")
        self._arrived = _traced(trace, stats._arrived, "deliver", "ts", dst="callee")

    def handle(self, data: bytes) -> None:
        endpoint = self.endpoint
        try:
            if not data[0] & 0x80:
                ts32, _payload = endpoint.receive_media_frame(data)
            elif (frame := decode_full(data)).frame_type is _VOICE:
                ts32, _payload = endpoint.receive_anchor(frame)
            else:
                for reply in endpoint.handle_signal(frame, self.sim.now):
                    _send_signal(self.sim, self.link, self.trace, reply)
                return
        except NotInCall:
            return  # media straggling past teardown is dropped, not fatal
        self._arrived(ts32, self.sim.now)


def run_iax_call(delay_ms: float, cfg: SweepConfig, trace: TraceLog | None = None) -> MediaStats:
    """Simulate one two-party call; returns the raw measurements."""
    _run("IAX", delay_ms, cfg, trace, stats := MediaStats(), "caller", _iax_caller, "callee", _IaxCalleeNode)
    return stats


def _rsw_chair(sim: Simulator, wan: LinkConfig, cfg: SweepConfig, stats: MediaStats, trace):
    """The chairman's script: CREATE; the relayed JOIN; the counted frames; END and its ACK."""
    link = Link(wan, "chair", "server")
    tx = new_rtp_tx(random.Random(cfg.seed), samples_per_frame=cfg.payload_bytes)
    transmit = _traced(trace, link.transmit, "media", "bytes", src="chair", dst="server")

    def send_conf(msg: RswMessage) -> None:
        _send_control(sim, link, trace, "conf", encode_rsw(msg), verb=msg.verb.value)

    def create():
        send_conf(_chair_create(cfg.frame_interval_ms))
        while decode_rsw((yield)).verb is not Verb.JOIN:
            pass  # the server's ACK for CREATE needs no action
        return 0.0  # the relayed JOIN starts the media at once

    def end():
        send_conf(RswMessage(Verb.END, 1, "chair", "server"))
        yield  # the server's ACK for END, the run's last event

    from functools import partial  # not at the top, as netsim's deque
    # send_media_rtp(tx, payload, now) returns (seq, wire bytes); seq is the stats key
    return _media_source(sim, "chair", transmit, cfg, stats, create(), partial(send_media_rtp, tx), end())


class _RswServerNode:
    """The server's host: routes control messages and bridges the chairman's media.

    The chairman is across the WAN link; the conference's one invitee sits on
    this host and is reached by direct calls.  The chairman is the only media
    source, and a conference is Active only once the invitee has joined.
    Relayed media is delivered to the invitee in the event that brought it.
    A control message to the invitee is handed over only after that event's
    WAN replies are sent, so the invitee's JOIN, routed here at once, leaves
    for the chairman behind the server's ACK for CREATE.
    """

    def __init__(self, sim: Simulator, wan: LinkConfig, stats: MediaStats, trace):
        self.sim = sim
        self.link = Link(wan, "server", "chair")
        self.trace = trace
        self.conf = None
        self.invitee = RswInvitee(_INVITEE)
        self._relay = _bridge(trace, stats._arrived)

    def handle(self, data: bytes) -> None:
        if data.startswith(b"RSW/1 "):
            self._route(decode_rsw(data))
        elif self.conf is not None and self.conf.phase is _ACTIVE:
            self._relay(self.sim, data)
        # media outside an active conference is dropped

    def _route(self, msg: RswMessage) -> None:
        out, self.conf = server_route(msg, self.conf)
        invitation = None
        for reply in out:
            raw, dst = encode_rsw(reply), reply.recipient
            self.trace.add(self.sim.now, "conf", src="server", dst=dst, bytes=len(raw), verb=reply.verb.value)
            if dst == self.link.dst:
                self.link.reliable_send(self.sim, raw)
            elif dst != _INVITEE:
                raise LookupError(f"the server has no route to {dst!r}")
            elif reply.verb is Verb.CREATE:  # the invitee needs no ACK or END
                invitation = reply
        if invitation is not None:
            self.invitee.receive_invitation(invitation)
            join = self.invitee.respond()
            raw = encode_rsw(join)  # for the trace's byte count; the JOIN itself goes to _route as it is
            self.trace.add(self.sim.now, "conf", src=_INVITEE, dst="server", verb=join.verb.value, bytes=len(raw))
            self._route(join)


def run_rsw_conference(delay_ms: float, cfg: SweepConfig, trace: TraceLog | None = None) -> MediaStats:
    """Simulate one two-member conference; returns the raw measurements."""
    _run("RSW", delay_ms, cfg, trace, stats := MediaStats(), "chair", _rsw_chair, "server", _RswServerNode)
    return stats
