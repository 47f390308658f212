"""Two-party call state machine with full/mini media frames.

Signaling travels in Control full frames; media normally travels in 4-byte
mini frames carrying only the low 16 timestamp bits.  The sender emits a
Voice full frame to (re)anchor the receiver's upper 16 bits — once at media
start and again whenever ``ts32 >> 16`` changes — so the receiver can
reconstruct full 32-bit timestamps with at most a single wrap correction.

Received-signal transitions:

    caller  WaitingForResponse --ACCEPT--> Accepted --ANSWER--> Up
    callee  NEW --> replies ACCEPT and ANSWER, and is Up at once
    both    any --REJECT/HANGUP--> Hungup

Anything else raises :class:`ProtocolViolation`, AUTHREQ and AUTHREP
included: no endpoint challenges a caller.  A refused signal changes
nothing, not even ``iseqno``.  ACCEPT establishes the call leg:
``remote_call`` stays None until ACCEPT is sent or received.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .frames import FrameKind, FullFrame, MiniFrame, Signal

TS_WRAP = 1 << 16
MAX_CALL_NUMBER = 0x7FFF


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
    """All 32767 local call numbers are in use."""


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


@dataclass
class MediaRxState:
    """Receiver-side timestamp reconstruction state."""

    high16: int = 0
    last_reconstructed_ts: int | None = None


@dataclass
class IaxCallState:
    """Per-call state, one record per call.

    ``peer_call`` addresses the peer from the peer's first frame on;
    ``remote_call`` binds at ACCEPT.
    """

    state: CallState
    local_call: int
    remote_call: int | None = None
    start_time: float = 0.0
    last_full_ts: int = 0
    oseqno: int = 0
    iseqno: int = 0
    peer_call: int = 0
    media_started: bool = False
    rx: MediaRxState = field(default_factory=MediaRxState)


def receive_media(rx: MediaRxState, frame: FullFrame | MiniFrame) -> tuple[int, bytes]:
    """Reconstruct the 32-bit timestamp of a received media frame.

    Voice full frames re-anchor ``high16``; mini frames extend the anchor,
    corrected by one wrap window when the result would run backwards.
    Returns ``(ts32, payload)``.
    """
    last = rx.last_reconstructed_ts
    if isinstance(frame, FullFrame):
        if frame.frame_type is not _VOICE:
            raise ValueError("receive_media takes voice frames only")
        ts32 = frame.timestamp
        if last is not None and last - ts32 > TS_WRAP:
            raise StaleFrame(f"full frame ts {ts32} is {last - ts32} ms behind")
        rx.high16 = ts32 >> 16
        if last is None or ts32 > last:
            rx.last_reconstructed_ts = ts32
        return ts32, frame.payload

    ts32 = (rx.high16 << 16) | frame.ts16
    if last is not None and ts32 < last:
        ts32 += TS_WRAP
        if ts32 < last:
            raise StaleFrame(f"mini frame reconstructs to {ts32}, behind {last}")
    rx.last_reconstructed_ts = ts32
    return ts32, frame.payload


def _full_frame(cs: IaxCallState, kind: FrameKind, subclass: int, ts32: int, payload: bytes) -> FullFrame:
    """The next full frame of ``cs`` to its peer; advances ``oseqno``."""
    frame = FullFrame(
        cs.local_call, cs.peer_call, ts32, cs.oseqno, cs.iseqno, kind, subclass, payload
    )
    cs.oseqno = (cs.oseqno + 1) & 0xFF
    return frame


# (state, received signal) -> next state, caller side
_CALLER_NEXT = {
    (CallState.WAITING_FOR_RESPONSE, Signal.ACCEPT): CallState.ACCEPTED,
    (CallState.ACCEPTED, Signal.ANSWER): CallState.UP,
}


class IaxEndpoint:
    """One signaling peer: allocates call numbers, runs the state machine.

    As callee it answers every NEW at once with ACCEPT and ANSWER.
    """

    def __init__(self, name: str):
        self.name = name
        self.calls: dict[int, IaxCallState] = {}
        # peer call number -> the first call in ``calls`` with that peer_call,
        # so a mini frame finds its call without a scan
        self._by_peer: dict[int, IaxCallState] = {}
        self._next_hint = 1

    # -- call number allocation ------------------------------------------

    def _allocate_call(self) -> int:
        if len(self.calls) >= MAX_CALL_NUMBER:
            raise NoFreeCallNumbers(f"{self.name}: all {MAX_CALL_NUMBER} numbers in use")
        n = self._next_hint
        while n in self.calls:
            n = n % MAX_CALL_NUMBER + 1
        self._next_hint = n % MAX_CALL_NUMBER + 1
        return n

    # -- signaling ---------------------------------------------------------

    def place_call(self, dest: str, now: float) -> tuple[FullFrame, IaxCallState]:
        """Start an outbound call; returns the NEW frame to send."""
        cs = IaxCallState(CallState.WAITING_FOR_RESPONSE, self._allocate_call(), start_time=now)
        self._add_call(cs)
        return self._control(cs, Signal.NEW, now, payload=dest.encode("utf-8")), cs

    def handle_signal(self, f: FullFrame, now: float) -> tuple[list[FullFrame], IaxCallState]:
        """Apply one received Control frame; returns (replies, call state)."""
        if f.frame_type is not FrameKind.CONTROL:
            raise ValueError("handle_signal takes Control frames")
        sig = Signal(f.subclass)
        cs = self.calls.get(f.dest_call) if f.dest_call else None
        if cs is None:
            if sig is Signal.NEW:
                return self._on_new(f, now)
            raise ProtocolViolation(None, sig)
        teardown = sig in (Signal.REJECT, Signal.HANGUP)
        nxt = CallState.HUNGUP if teardown else _CALLER_NEXT.get((cs.state, sig))
        if nxt is None:
            raise ProtocolViolation(cs.state, sig)  # before any field moves
        cs.iseqno = (f.oseqno + 1) & 0xFF
        if teardown:
            if cs.remote_call is None:
                cs.remote_call = f.source_call  # record who tore the call down
        elif sig is Signal.ACCEPT:
            self._set_peer(cs, f.source_call)
            cs.remote_call = f.source_call  # leg established
        cs.state = nxt
        return [], cs

    def hangup(self, local_call: int, now: float) -> FullFrame:
        """Tear down a call locally and return the HANGUP frame to send."""
        cs = self._call(local_call)
        frame = self._control(cs, Signal.HANGUP, now)
        cs.state = CallState.HUNGUP
        return frame

    # -- media -------------------------------------------------------------

    def send_media(self, local_call: int, payload: bytes, now: float) -> FullFrame | MiniFrame:
        """Emit the next media frame for an Up call.

        A Voice full frame goes out for the first media frame and whenever
        the high 16 timestamp bits change; otherwise a mini frame.
        """
        cs = self.calls.get(local_call) or self._call(local_call)  # _call raises NotInCall
        if cs.state is not _UP:
            raise NotInCall(f"call {local_call} is {cs.state.value}, not Up")
        ts32 = int(now - cs.start_time) & 0xFFFFFFFF
        if not cs.media_started or (ts32 >> 16) != (cs.last_full_ts >> 16):
            cs.media_started = True
            cs.last_full_ts = ts32
            return _full_frame(cs, _VOICE, 0, ts32, payload)
        return MiniFrame(cs.local_call, ts32 & 0xFFFF, payload)

    def receive_media_frame(self, frame: FullFrame | MiniFrame) -> tuple[int, bytes]:
        """Locate the call a media frame belongs to and reconstruct its ts."""
        if isinstance(frame, FullFrame):
            cs = self.calls.get(frame.dest_call)
        else:
            cs = self._by_peer.get(frame.source_call)
        if cs is None or cs.state is not _UP:
            raise NotInCall("no Up call for this media frame")
        return receive_media(cs.rx, frame)

    # -- internals -----------------------------------------------------------

    def _call(self, local_call: int) -> IaxCallState:
        cs = self.calls.get(local_call)
        if cs is None:
            raise NotInCall(f"no call numbered {local_call}")
        return cs

    def _add_call(self, cs: IaxCallState) -> None:
        self.calls[cs.local_call] = cs  # calls are never removed, so cs is last
        self._by_peer.setdefault(cs.peer_call, cs)

    def _set_peer(self, cs: IaxCallState, peer_call: int) -> None:
        old, cs.peer_call = cs.peer_call, peer_call
        for p in (old, peer_call):  # a signal, not a media frame: the scan is cheap here
            first = next((c for c in self.calls.values() if c.peer_call == p), None)
            if first is None:
                self._by_peer.pop(p, None)
            else:
                self._by_peer[p] = first

    def _control(self, cs: IaxCallState, sig: Signal, now: float, payload: bytes = b"") -> FullFrame:
        return _full_frame(cs, FrameKind.CONTROL, sig, int(now - cs.start_time) & 0xFFFFFFFF, payload)

    def _on_new(self, f: FullFrame, now: float) -> tuple[list[FullFrame], IaxCallState]:
        cs = IaxCallState(
            CallState.UP, self._allocate_call(), remote_call=f.source_call,  # ACCEPT establishes the leg
            start_time=now, iseqno=(f.oseqno + 1) & 0xFF, peer_call=f.source_call,
        )
        self._add_call(cs)
        return [self._control(cs, Signal.ACCEPT, now), self._control(cs, Signal.ANSWER, now)], cs
