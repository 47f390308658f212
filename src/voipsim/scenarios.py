"""Executable scenarios: one call (or conference) per simulator run.

Both scenarios stream one-way media at a fixed cadence across a single
emulated WAN link and record per-packet send/arrival times:

* two-party call: caller places the call, the callee auto-answers, media
  runs caller -> callee in mini frames (full frames only to anchor), then
  the caller hangs up;
* conference: the chairman CREATEs with one invitee, the server (co-located
  with the invitee) relays the invitation and the JOIN, media runs
  chairman -> server -> invitee as RTP, then the chairman ENDs.

The configured one-way delay is paid once per end-to-end path; the
server-to-member hop of a co-located relay costs only the configurable
processing time (0 by default).  With identical payloads the two media
paths therefore differ by exactly the serialization of the 8 header bytes
that separate a mini frame from an RTP packet.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, TextIO

from .frames import (
    FrameKind,
    FullFrame,
    RswMessage,
    Signal,
    Verb,
    decode_full,
    decode_mini,
    decode_rsw,
    decode_rtp,
    encode_full,
    encode_mini,
    encode_rsw,
    encode_rtp,
    rtp_ssrc,
)
from .iax import CallState, IaxEndpoint, NotInCall
from .netsim import EventKind, LinkConfig, SimEvent, Simulator
from .rsw import (
    ConferencePhase,
    MemberStatus,
    ResponsePolicy,
    Role,
    RswInvitee,
    create_conference,
    new_rtp_tx,
    send_media_rtp,
    server_route,
)

if TYPE_CHECKING:  # pragma: no cover
    from .experiment import SweepConfig


_encode = json.JSONEncoder(separators=(",", ":")).encode  # json.dumps would rebuild it per call


class TraceLog:
    """Writes event records to a text stream as JSON Lines as they happen.

    Nothing is kept per record; ``count`` is the number of lines written.
    """

    def __init__(self, stream: TextIO):
        self.stream = stream
        self.count = 0

    def add(self, **fields) -> None:
        self.stream.write(_encode(fields) + "\n")
        self.count += 1


class _ScenarioTrace:
    """Labels every record with the scenario it came from, as its first key."""

    __slots__ = ("log", "head")

    def __init__(self, log: TraceLog, label: str):
        self.log = log
        self.head = '{"scenario":' + _encode(label) + ","

    def add(self, **fields) -> None:
        # splice the encoded fields (never empty here) in after the label
        log = self.log
        log.stream.write(self.head + _encode(fields)[1:] + "\n")
        log.count += 1


@dataclass
class MediaStats:
    """Raw per-run measurements, keyed by media timestamp or sequence."""

    sent: list[tuple[int, float]] = field(default_factory=list)
    recv: dict[int, float] = field(default_factory=dict)
    setup_ms: float | None = None

    @property
    def delays(self) -> list[float]:
        """One-way delay per delivered packet, in send order."""
        return [self.recv[key] - t for key, t in self.sent if key in self.recv]


def _horizon(delay_ms: float, cfg: SweepConfig) -> float:
    return cfg.duration_s * 1000.0 + 20.0 * delay_ms + 60_000.0


# --------------------------------------------------------------------------
# two-party call
# --------------------------------------------------------------------------


class _IaxCallerNode:
    def __init__(self, link, cfg, stats, trace):
        self.link = link
        self.cfg = cfg
        self.stats = stats
        self.trace = trace
        self.endpoint = IaxEndpoint("caller")
        self.payload = bytes(cfg.payload_bytes)
        self.frames_left = cfg.media_frame_count()
        self.call = None
        self.hung_up = False

    def start(self, sim: Simulator) -> None:
        frame, self.call = self.endpoint.place_call("callee", sim.now)
        self._signal_out(sim, frame)

    def handle(self, sim: Simulator, ev: SimEvent) -> None:
        if ev.kind is EventKind.TIMER:
            self._media_tick(sim)
            return
        frame = decode_full(ev.payload)
        before = self.call.state
        replies, cs = self.endpoint.handle_signal(frame, sim.now)
        for reply in replies:
            self._signal_out(sim, reply)
        if self.trace is not None:
            self.trace.add(
                t=sim.now, kind="state", endpoint="caller",
                event=Signal(frame.subclass).name,
                state_before=before.value, state_after=cs.state.value,
            )
        if cs.state is CallState.UP and self.stats.setup_ms is None:
            self.stats.setup_ms = sim.now
            self._send_anchor(sim)
            sim.schedule_timer(self.cfg.frame_interval_ms, "caller", "media")

    def _signal_out(self, sim: Simulator, frame: FullFrame) -> None:
        data = encode_full(frame)
        if self.trace is not None:
            self.trace.add(
                t=sim.now, kind="signal", src="caller", dst="callee",
                signal=Signal(frame.subclass).name, bytes=len(data),
            )
        sim.reliable_send(self.link, data, "caller", "callee")

    def _send_anchor(self, sim: Simulator) -> None:
        # The first voice frame of a call is always a full frame (it anchors
        # the receiver's 16-bit timestamp window).  Its wire size differs
        # from the steady-state mini frames, so it is sent as a warmup packet
        # and excluded from the per-packet delay statistics.
        frame = self.endpoint.send_media(self.call.local_call, self.payload, sim.now)
        data = encode_full(frame) if isinstance(frame, FullFrame) else encode_mini(frame)
        if self.trace is not None:
            self.trace.add(t=sim.now, kind="media", src="caller", dst="callee", bytes=len(data))
        sim.transmit(self.link, data, "caller", "callee")

    def _media_tick(self, sim: Simulator) -> None:
        if self.frames_left > 0:
            frame = self.endpoint.send_media(self.call.local_call, self.payload, sim.now)
            key = int(sim.now - self.call.start_time)
            self.stats.sent.append((key, sim.now))
            data = encode_full(frame) if isinstance(frame, FullFrame) else encode_mini(frame)
            if self.trace is not None:
                self.trace.add(t=sim.now, kind="media", src="caller", dst="callee", bytes=len(data))
            sim.transmit(self.link, data, "caller", "callee")
            self.frames_left -= 1
            sim.schedule_timer(self.cfg.frame_interval_ms, "caller", "media")
        elif not self.hung_up:
            self.hung_up = True
            self._signal_out(sim, self.endpoint.hangup(self.call.local_call, sim.now))


class _IaxCalleeNode:
    def __init__(self, link, stats, trace):
        self.link = link
        self.stats = stats
        self.trace = trace
        self.endpoint = IaxEndpoint("callee")  # open policy, immediate answer

    def handle(self, sim: Simulator, ev: SimEvent) -> None:
        data = ev.payload
        if data[0] & 0x80:
            frame = decode_full(data)
            if frame.frame_type is FrameKind.VOICE:
                self._media_in(sim, frame)
                return
            replies, cs = self.endpoint.handle_signal(frame, sim.now)
            for reply in replies:
                raw = encode_full(reply)
                if self.trace is not None:
                    self.trace.add(
                        t=sim.now, kind="signal", src="callee", dst="caller",
                        signal=Signal(reply.subclass).name, bytes=len(raw),
                    )
                sim.reliable_send(self.link, raw, "callee", "caller")
        else:
            self._media_in(sim, decode_mini(data))

    def _media_in(self, sim: Simulator, frame) -> None:
        try:
            ts32, _payload = self.endpoint.receive_media_frame(frame)
        except NotInCall:
            return  # media straggling past teardown is dropped, not fatal
        self.stats.recv.setdefault(ts32, sim.now)
        if self.trace is not None:
            self.trace.add(t=sim.now, kind="deliver", dst="callee", ts=ts32)


def run_iax_call(delay_ms: float, cfg: SweepConfig, trace: TraceLog | None = None) -> MediaStats:
    """Simulate one two-party call; returns the raw measurements."""
    sim = Simulator(seed=cfg.seed)
    link = LinkConfig(delay_ms=delay_ms, link_rate_bps=cfg.link_rate_bps)
    stats = MediaStats()
    scenario_trace = _ScenarioTrace(trace, f"IAX:{delay_ms:g}") if trace is not None else None
    caller = _IaxCallerNode(link, cfg, stats, scenario_trace)
    callee = _IaxCalleeNode(link, stats, scenario_trace)
    sim.register("caller", caller.handle)
    sim.register("callee", callee.handle)
    caller.start(sim)
    sim.run_until_idle(_horizon(delay_ms, cfg))
    return stats


# --------------------------------------------------------------------------
# conference
# --------------------------------------------------------------------------


class _RswChairNode:
    def __init__(self, wan, cfg, stats, trace, tx):
        self.wan = wan
        self.cfg = cfg
        self.stats = stats
        self.trace = trace
        self.tx = tx
        self.payload = bytes(cfg.payload_bytes)
        self.frames_left = cfg.media_frame_count()
        self.conf_id = 1
        self.ended = False

    def start(self, sim: Simulator) -> None:
        media_desc = f"codec=pcm;frame_ms={self.cfg.frame_interval_ms:g}"
        msg, _view = create_conference("chair", ["p1"], media_desc, conf_id=self.conf_id)
        self._signal_out(sim, msg)

    def handle(self, sim: Simulator, ev: SimEvent) -> None:
        if ev.kind is EventKind.TIMER:
            self._media_tick(sim)
            return
        msg = decode_rsw(ev.payload)
        if msg.verb is Verb.JOIN and self.stats.setup_ms is None:
            self.stats.setup_ms = sim.now
            sim.schedule_timer(0.0, "chair", "media")
        # ACKs and REJECT/BUSY relays need no action from the chairman here:
        # with no JOIN there is never media, and the run simply drains.

    def _signal_out(self, sim: Simulator, msg) -> None:
        data = encode_rsw(msg)
        if self.trace is not None:
            self.trace.add(
                t=sim.now, kind="conf", src="chair", dst="server",
                verb=msg.verb.value, bytes=len(data),
            )
        sim.reliable_send(self.wan, data, "chair", "server")

    def _media_tick(self, sim: Simulator) -> None:
        if self.frames_left > 0:
            pkt = send_media_rtp(self.tx, self.payload, role=Role.CHAIRMAN, phase=ConferencePhase.ACTIVE)
            self.stats.sent.append((pkt.seq, sim.now))
            data = encode_rtp(pkt)
            if self.trace is not None:
                self.trace.add(t=sim.now, kind="media", src="chair", dst="server", bytes=len(data))
            sim.transmit(self.wan, data, "chair", "server")
            self.frames_left -= 1
            sim.schedule_timer(self.cfg.frame_interval_ms, "chair", "media")
        elif not self.ended:
            self.ended = True
            self._signal_out(sim, RswMessage(Verb.END, self.conf_id, "chair", "server"))


class _RswServerNode:
    """Routes control messages and bridges media to Joined members.

    Members listed in ``local_members`` sit on the server's host and are
    reached for free (plus ``processing_ms``); everyone else is across the
    WAN link.
    """

    def __init__(self, wan, trace, *, media_sources, local_members, processing_ms=0.0):
        self.wan = wan
        self.trace = trace
        self.media_sources = media_sources  # ssrc -> member id
        self.local_members = local_members
        self.processing_ms = processing_ms
        self.conf = None

    def handle(self, sim: Simulator, ev: SimEvent) -> None:
        data = ev.payload
        if data.startswith(b"RSW/1 "):
            msg = decode_rsw(data)
            out, self.conf = server_route(msg, self.conf)
            for reply in out:
                self._route(sim, encode_rsw(reply), reply.recipient, media=False, verb=reply.verb.value)
        else:
            self._bridge(sim, data)

    def _bridge(self, sim: Simulator, data: bytes) -> None:
        if self.conf is None or self.conf.phase is not ConferencePhase.ACTIVE:
            return  # media outside an active conference is dropped
        sender = self.media_sources.get(rtp_ssrc(data))
        for member_id, member in self.conf.members.items():
            if member.status is MemberStatus.JOINED and member_id != sender:
                self._route(sim, data, member_id, media=True)

    def _route(self, sim: Simulator, data: bytes, recipient: str, *, media: bool, verb: str | None = None) -> None:
        if self.trace is not None:
            kind = "relay" if media else "conf"
            fields = {"t": sim.now, "kind": kind, "src": "server", "dst": recipient, "bytes": len(data)}
            if verb is not None:
                fields["verb"] = verb
            self.trace.add(**fields)
        if recipient in self.local_members:
            sim.deliver_local(data, recipient, self.processing_ms)
        elif media:
            sim.transmit(self.wan, data, "server", recipient)
        else:
            sim.reliable_send(self.wan, data, "server", recipient)


class _RswParticipantNode:
    def __init__(self, stats, trace, name="p1", policy=ResponsePolicy.ACCEPT):
        self.stats = stats
        self.trace = trace
        self.name = name
        self.policy = policy
        self.invitee = RswInvitee(name)

    def handle(self, sim: Simulator, ev: SimEvent) -> None:
        data = ev.payload
        if data.startswith(b"RSW/1 "):
            msg = decode_rsw(data)
            if msg.verb is Verb.CREATE:
                self.invitee.receive_invitation(msg)
                reply = self.invitee.respond(self.policy)
                raw = encode_rsw(reply)
                if self.trace is not None:
                    self.trace.add(
                        t=sim.now, kind="conf", src=self.name, dst="server",
                        verb=reply.verb.value, bytes=len(raw),
                    )
                sim.deliver_local(raw, "server")
            # ACK and END need no reply
            return
        pkt = decode_rtp(data)
        self.stats.recv.setdefault(pkt.seq, sim.now)
        if self.trace is not None:
            self.trace.add(t=sim.now, kind="deliver", dst=self.name, seq=pkt.seq)


def run_rsw_conference(delay_ms: float, cfg: SweepConfig, trace: TraceLog | None = None) -> MediaStats:
    """Simulate one two-member conference; returns the raw measurements."""
    sim = Simulator(seed=cfg.seed)
    wan = LinkConfig(delay_ms=delay_ms, link_rate_bps=cfg.link_rate_bps)
    stats = MediaStats()
    scenario_trace = _ScenarioTrace(trace, f"RSW:{delay_ms:g}") if trace is not None else None
    tx = new_rtp_tx(random.Random(cfg.seed), samples_per_frame=cfg.payload_bytes)
    chair = _RswChairNode(wan, cfg, stats, scenario_trace, tx)
    server = _RswServerNode(
        wan, scenario_trace,
        media_sources={tx.ssrc: "chair"},
        local_members=frozenset({"p1"}),
    )
    participant = _RswParticipantNode(stats, scenario_trace)
    sim.register("chair", chair.handle)
    sim.register("server", server.handle)
    sim.register("p1", participant.handle)
    chair.start(sim)
    sim.run_until_idle(_horizon(delay_ms, cfg))
    return stats
