"""Two-party call state machine with full/mini media frames.

Signaling travels in Control full frames; media normally travels in 4-byte
mini frames carrying only the low 16 timestamp bits.  The sender emits a
Voice full frame to (re)anchor the receiver's upper 16 bits — once at media
start and again whenever ``ts32 >> 16`` changes — so the receiver can
reconstruct full 32-bit timestamps with at most a single wrap correction.
Media crosses the endpoint as wire bytes: ``send_media`` returns the encoded
frame, and ``receive_media_frame`` takes a mini frame's bytes.  A Voice full
frame, decoded by the receiver to tell it from signaling, goes to
``receive_anchor``.

Received-signal transitions:

    caller  WaitingForResponse --ACCEPT--> Accepted --ANSWER--> Up
    callee  NEW --> replies ACCEPT and ANSWER, and is Up at once
    both    any --REJECT/HANGUP--> Hungup

Anything else raises :class:`ProtocolViolation`, AUTHREQ and AUTHREP
included: no endpoint challenges a caller.  A refused signal changes
nothing, not even ``iseqno``.  ``peer_call`` stays 0 until ACCEPT, sent or
received, establishes the call leg, or a REJECT or HANGUP names who ended it.

An endpoint holds at most one call, numbered 1.  A second ``place_call``
raises :class:`NoFreeCallNumbers`; a NEW to an endpoint in a call, or one
not sent to call number 0 as RFC 5456 sends it, raises
:class:`ProtocolViolation`.
"""

from __future__ import annotations

from enum import Enum

from .frames import FrameKind, FullFrame, Signal, decode_mini, encode_full, encode_mini

TS_WRAP = 1 << 16
LOCAL_CALL = 1  # an endpoint's one call number


class CallState(Enum):
    WAITING_FOR_RESPONSE = "WaitingForResponse"
    ACCEPTED = "Accepted"
    UP = "Up"
    HUNGUP = "Hungup"


# bound once for the per-packet paths: reading a member off an Enum class is
# slow on CPython 3.11
_UP = CallState.UP
_VOICE = FrameKind.VOICE


class IaxError(Exception):
    """Base class for call-machine errors."""


class NoFreeCallNumbers(IaxError):
    """The endpoint's one local call number is in use."""


class ProtocolViolation(IaxError):
    """A signal arrived that the current state does not define."""

    def __init__(self, state: CallState | None, signal: Signal):
        super().__init__(f"signal {signal.name} in state {state.value if state else '<no call>'}")
        self.state = state
        self.signal = signal


class NotInCall(IaxError):
    """Media was sent or received outside an Up call."""


class StaleFrame(IaxError):
    """Reconstruction would move time backwards by more than one wrap window."""


class MediaRxState:
    """Receiver-side timestamp reconstruction state.

    ``IaxEndpoint.receive_anchor`` sets ``high16`` from a Voice full frame;
    ``IaxEndpoint.receive_media_frame`` extends it with a mini frame's ts16.
    """

    __slots__ = ("high16", "last_reconstructed_ts")

    def __init__(self, high16: int = 0, last_reconstructed_ts: int | None = None):
        self.high16 = high16
        self.last_reconstructed_ts = last_reconstructed_ts


class IaxCallState:
    """The state of an endpoint's one call, numbered ``LOCAL_CALL``.

    ``peer_call`` is the peer's call number, 0 until the leg is established.
    ``last_full_ts`` is the timestamp of the last Voice full frame sent, None
    before the first.
    """

    __slots__ = ("state", "start_time", "last_full_ts", "oseqno", "iseqno", "peer_call", "rx")

    def __init__(self, state: CallState, start_time: float = 0.0, *, iseqno: int = 0, peer_call: int = 0):
        self.state = state
        self.start_time = start_time
        self.last_full_ts: int | None = None
        self.oseqno = 0
        self.iseqno = iseqno
        self.peer_call = peer_call
        self.rx = MediaRxState()


def _full_frame(cs: IaxCallState, kind: FrameKind, subclass: int, ts32: int, payload: bytes) -> FullFrame:
    """The next full frame of ``cs`` to its peer; advances ``oseqno``."""
    frame = FullFrame(LOCAL_CALL, cs.peer_call, ts32, cs.oseqno, cs.iseqno, kind, subclass, payload)
    cs.oseqno = (cs.oseqno + 1) & 0xFF
    return frame


# (state, received signal) -> next state, caller side
_CALLER_NEXT = {
    (CallState.WAITING_FOR_RESPONSE, Signal.ACCEPT): CallState.ACCEPTED,
    (CallState.ACCEPTED, Signal.ANSWER): CallState.UP,
}


class IaxEndpoint:
    """One signaling peer holding at most one call, ``call``.

    As callee it answers a NEW at once with ACCEPT and ANSWER.
    """

    def __init__(self, name: str):
        self.name = name
        self.call: IaxCallState | None = None

    # -- signaling ---------------------------------------------------------

    def place_call(self, dest: str, now: float) -> FullFrame:
        """Start the outbound call; returns the NEW frame to send."""
        if self.call is not None:
            raise NoFreeCallNumbers(f"{self.name}: call {LOCAL_CALL} is in use")
        self.call = cs = IaxCallState(CallState.WAITING_FOR_RESPONSE, start_time=now)
        return self._control(cs, Signal.NEW, now, payload=dest.encode("utf-8"))

    def handle_signal(self, f: FullFrame, now: float) -> list[FullFrame]:
        """Apply one received Control frame; returns the replies to send."""
        if f.frame_type is not FrameKind.CONTROL:
            raise ValueError("handle_signal takes Control frames")
        sig = Signal(f.subclass)
        cs = self.call
        if sig is Signal.NEW:
            if cs is not None:
                raise ProtocolViolation(cs.state, sig)  # the one call is taken
            if f.dest_call != 0:
                raise ProtocolViolation(None, sig)  # a NEW opens a call only from call number 0
            return self._on_new(f, now)
        if cs is None or f.dest_call != LOCAL_CALL:
            raise ProtocolViolation(None, sig)
        teardown = sig in (Signal.REJECT, Signal.HANGUP)
        nxt = CallState.HUNGUP if teardown else _CALLER_NEXT.get((cs.state, sig))
        if nxt is None:
            raise ProtocolViolation(cs.state, sig)  # before any field moves
        cs.iseqno = (f.oseqno + 1) & 0xFF
        if sig is Signal.ACCEPT or (teardown and not cs.peer_call):
            cs.peer_call = f.source_call  # the leg, or who tore the call down
        cs.state = nxt
        return []

    def hangup(self, now: float) -> FullFrame:
        """Tear down the call locally and return the HANGUP frame to send."""
        cs = self.call
        if cs is None:
            raise NotInCall(f"{self.name} holds no call")
        frame = self._control(cs, Signal.HANGUP, now)
        cs.state = CallState.HUNGUP
        return frame

    # -- media -------------------------------------------------------------

    def send_media(self, payload: bytes, now: float) -> tuple[int, bytes]:
        """Emit the next media frame of the Up call: ``(ts32, wire bytes)``.

        A Voice full frame goes out for the first media frame and whenever
        the high 16 timestamp bits change; otherwise a mini frame.
        """
        cs = self.call
        if cs is None or cs.state is not _UP:
            raise NotInCall(f"{self.name} holds no Up call")
        ts32 = int(now - cs.start_time) & 0xFFFFFFFF
        last = cs.last_full_ts
        if last is None or (ts32 >> 16) != (last >> 16):
            cs.last_full_ts = ts32
            return ts32, encode_full(_full_frame(cs, _VOICE, 0, ts32, payload))
        return ts32, encode_mini(LOCAL_CALL, ts32 & 0xFFFF, payload)

    def receive_anchor(self, frame: FullFrame) -> tuple[int, bytes]:
        """Re-anchor the Up call's media clock on a Voice full frame; ``(ts32, payload)``.

        The frame belongs to the call when it is addressed to the call's
        number.  It sets ``high16``; a timestamp more than one wrap window
        behind the last reconstructed one raises :class:`StaleFrame`.
        """
        cs = self.call
        if cs is None or frame.dest_call != LOCAL_CALL or cs.state is not _UP:
            raise NotInCall("no Up call for this media frame")
        if frame.frame_type is not _VOICE:
            raise ValueError("receive_anchor takes voice frames only")
        rx, ts32 = cs.rx, frame.timestamp
        last = rx.last_reconstructed_ts
        if last is not None and last - ts32 > TS_WRAP:
            raise StaleFrame(f"full frame ts {ts32} is {last - ts32} ms behind")
        rx.high16 = ts32 >> 16
        if last is None or ts32 > last:
            rx.last_reconstructed_ts = ts32
        return ts32, frame.payload

    def receive_media_frame(self, data: bytes) -> tuple[int, bytes]:
        """Reconstruct the 32-bit ts of a mini frame of the Up call from its wire bytes.

        The frame belongs to the call when it comes from the peer's number.
        Its ts16 extends the anchor's high bits, one wrap window later when
        the result would run backwards; ``(ts32, payload)``.
        """
        source_call, ts16, payload = decode_mini(data)
        cs = self.call
        if cs is None or source_call != cs.peer_call or cs.state is not _UP:
            raise NotInCall("no Up call for this media frame")
        rx = cs.rx
        last = rx.last_reconstructed_ts
        ts32 = (rx.high16 << 16) | ts16
        if last is not None and ts32 < last:
            ts32 += TS_WRAP
            if ts32 < last:
                raise StaleFrame(f"mini frame reconstructs to {ts32}, behind {last}")
        rx.last_reconstructed_ts = ts32
        return ts32, payload

    # -- internals -----------------------------------------------------------

    def _control(self, cs: IaxCallState, sig: Signal, now: float, payload: bytes = b"") -> FullFrame:
        return _full_frame(cs, FrameKind.CONTROL, sig, int(now - cs.start_time) & 0xFFFFFFFF, payload)

    def _on_new(self, f: FullFrame, now: float) -> list[FullFrame]:
        self.call = cs = IaxCallState(
            CallState.UP, start_time=now,
            iseqno=(f.oseqno + 1) & 0xFF, peer_call=f.source_call,  # ACCEPT establishes the leg
        )
        return [self._control(cs, Signal.ACCEPT, now), self._control(cs, Signal.ANSWER, now)]
