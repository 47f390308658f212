"""Call state machine tests: handshakes, teardown, media timestamps."""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, strategies as st

from conftest import same_state
from voipsim import (
    CallState,
    DecodeError,
    FrameKind,
    FullFrame,
    IaxEndpoint,
    MediaRxState,
    NoFreeCallNumbers,
    NotInCall,
    ProtocolViolation,
    Signal,
    StaleFrame,
    decode_full,
    decode_mini,
    encode_full,
    encode_mini,
)
from voipsim.iax import LOCAL_CALL

def signal_frame(sig, source_call, dest_call, oseqno=0, payload=b""):
    """A Control frame as a remote peer would address it to us."""
    return FullFrame(
        source_call=source_call,
        dest_call=dest_call,
        timestamp=0,
        oseqno=oseqno,
        iseqno=0,
        frame_type=FrameKind.CONTROL,
        subclass=sig,
        payload=payload,
    )


def receive_wire(ep, wire: bytes):
    """Hand a media packet's bytes to ``ep`` as a callee node does, by the F bit."""
    return ep.receive_anchor(decode_full(wire)) if wire[0] & 0x80 else ep.receive_media_frame(wire)


def connect(caller, callee, now=0.0):
    """Run NEW and the callee's ACCEPT + ANSWER through the wire codec; both end Up."""
    frame = caller.place_call(callee.name, now)
    for f in callee.handle_signal(decode_full(encode_full(frame)), now):
        assert caller.handle_signal(decode_full(encode_full(f)), now) == []
    assert caller.call.state is CallState.UP
    assert callee.call.state is CallState.UP
    return caller.call, callee.call


_CALLER_PATHS = {
    CallState.WAITING_FOR_RESPONSE: [],
    CallState.ACCEPTED: [Signal.ACCEPT],
    CallState.UP: [Signal.ACCEPT, Signal.ANSWER],
}


def caller_at(state, peer_call=77):
    """A caller endpoint driven to ``state`` by scripted peer signals."""
    ep = IaxEndpoint("caller")
    ep.place_call("peer", 0.0)
    cs = ep.call
    for i, sig in enumerate(_CALLER_PATHS[state]):
        ep.handle_signal(signal_frame(sig, peer_call, LOCAL_CALL, oseqno=i), 0.0)
    assert cs.state is state
    return ep, cs


# -- handshakes -------------------------------------------------------------


def test_place_call_emits_new():
    caller = IaxEndpoint("a")
    frame = caller.place_call("b", 0.0)
    cs = caller.call
    assert cs.state is CallState.WAITING_FOR_RESPONSE
    assert cs.peer_call == 0
    assert frame.frame_type is FrameKind.CONTROL
    assert frame.subclass == Signal.NEW
    assert frame.dest_call == 0
    assert frame.source_call == LOCAL_CALL
    assert frame.payload == b"b"
    assert frame.oseqno == 0 and frame.iseqno == 0


def test_open_policy_immediate_answer():
    caller, callee = IaxEndpoint("a"), IaxEndpoint("b")
    new = caller.place_call("b", 0.0)
    replies = callee.handle_signal(new, 0.0)
    caller_cs, callee_cs = caller.call, callee.call
    assert [Signal(f.subclass) for f in replies] == [Signal.ACCEPT, Signal.ANSWER]
    assert callee_cs.state is CallState.UP
    assert callee_cs.peer_call == LOCAL_CALL
    for f in replies:
        caller.handle_signal(f, 0.0)
    assert caller_cs.state is CallState.UP
    assert caller_cs.peer_call == LOCAL_CALL


# -- sequence numbers --------------------------------------------------------


def test_sequence_numbers_through_open_handshake():
    caller, callee = IaxEndpoint("a"), IaxEndpoint("b")
    new = caller.place_call("b", 0.0)
    accept, answer = callee.handle_signal(new, 0.0)
    caller_cs, callee_cs = caller.call, callee.call
    assert (accept.oseqno, accept.iseqno) == (0, 1)  # iseqno = NEW.oseqno + 1
    assert (answer.oseqno, answer.iseqno) == (1, 1)
    caller.handle_signal(accept, 0.0)
    assert caller_cs.iseqno == 1
    caller.handle_signal(answer, 0.0)
    assert caller_cs.iseqno == 2
    assert caller_cs.oseqno == 1  # only NEW sent so far
    assert callee_cs.oseqno == 2


# -- undefined transitions ----------------------------------------------------


@pytest.mark.parametrize(
    "state,sig",
    [
        (CallState.WAITING_FOR_RESPONSE, Signal.ANSWER),
        (CallState.WAITING_FOR_RESPONSE, Signal.RINGING),
        (CallState.WAITING_FOR_RESPONSE, Signal.PROCEEDING),
        (CallState.WAITING_FOR_RESPONSE, Signal.AUTHREQ),  # no callee challenges
        (CallState.ACCEPTED, Signal.AUTHREQ),
        (CallState.ACCEPTED, Signal.ACCEPT),
        (CallState.UP, Signal.NEW),
        (CallState.UP, Signal.ANSWER),
        (CallState.UP, Signal.ACCEPT),
        (CallState.ACCEPTED, Signal.PROCEEDING),  # no callee defers its ANSWER
        (CallState.ACCEPTED, Signal.RINGING),
    ],
)
def test_undefined_caller_transitions_raise(state, sig):
    ep, cs = caller_at(state)
    with pytest.raises(ProtocolViolation) as exc_info:
        ep.handle_signal(signal_frame(sig, 77, LOCAL_CALL, oseqno=9), 0.0)
    assert exc_info.value.state is state
    assert exc_info.value.signal is sig
    assert cs.state is state  # a rejected signal must not move the machine


def test_signal_for_unknown_call_raises():
    ep = IaxEndpoint("a")
    with pytest.raises(ProtocolViolation) as exc_info:
        ep.handle_signal(signal_frame(Signal.ANSWER, 77, 123), 0.0)
    assert exc_info.value.state is None
    assert exc_info.value.signal is Signal.ANSWER


def test_handle_signal_refuses_voice_frames():
    ep = IaxEndpoint("a")
    voice = FullFrame(
        source_call=1,
        dest_call=0,
        timestamp=0,
        oseqno=0,
        iseqno=0,
        frame_type=FrameKind.VOICE,
        subclass=0,
    )
    with pytest.raises(ValueError):
        ep.handle_signal(voice, 0.0)


@pytest.mark.parametrize("sig", [s for s in Signal if s not in (Signal.REJECT, Signal.HANGUP)])
def test_answered_callee_refuses_all_but_teardown(sig):
    # AUTHREQ and AUTHREP included: a callee answers NEW at once and takes no credentials
    callee = IaxEndpoint("b")
    callee.handle_signal(signal_frame(Signal.NEW, 5, 0), 0.0)
    cs = callee.call
    with pytest.raises(ProtocolViolation) as exc_info:
        callee.handle_signal(signal_frame(sig, 5, LOCAL_CALL, oseqno=7), 0.0)
    assert exc_info.value.state is CallState.UP
    # the refused frame is not acknowledged: iseqno stays past the NEW
    assert (cs.state, cs.iseqno, cs.oseqno) == (CallState.UP, 1, 2)


# -- teardown ------------------------------------------------------------------


@pytest.mark.parametrize("state", list(_CALLER_PATHS))
@pytest.mark.parametrize("sig", [Signal.REJECT, Signal.HANGUP])
def test_teardown_signals_work_from_every_state(state, sig):
    ep, cs = caller_at(state)
    replies = ep.handle_signal(signal_frame(sig, 77, LOCAL_CALL, oseqno=9), 0.0)
    assert replies == []
    assert cs.state is CallState.HUNGUP
    assert cs.peer_call == 77  # the peer that tore it down is recorded


def test_hangup_is_idempotent_to_receive():
    ep, cs = caller_at(CallState.UP)
    ep.handle_signal(signal_frame(Signal.HANGUP, 77, LOCAL_CALL, oseqno=9), 0.0)
    ep.handle_signal(signal_frame(Signal.HANGUP, 77, LOCAL_CALL, oseqno=10), 0.0)
    assert cs.state is CallState.HUNGUP


def test_local_hangup_emits_frame_and_blocks_media():
    caller, callee = IaxEndpoint("a"), IaxEndpoint("b")
    caller_cs, callee_cs = connect(caller, callee)
    frame = caller.hangup(1000.0)
    assert Signal(frame.subclass) is Signal.HANGUP
    assert frame.dest_call == LOCAL_CALL
    assert caller_cs.state is CallState.HUNGUP
    with pytest.raises(NotInCall):
        caller.send_media(b"x", 1020.0)
    replies = callee.handle_signal(frame, 1000.0)
    assert replies == []
    assert callee_cs.state is CallState.HUNGUP


def test_hangup_unknown_call_raises():
    ep = IaxEndpoint("a")
    with pytest.raises(NotInCall):
        ep.hangup(0.0)  # an endpoint that holds no call


# -- the remote call number: peer_call binds when the leg is established ---------


@pytest.mark.parametrize("state", list(_CALLER_PATHS))
def test_remote_call_bound_exactly_when_leg_established(state):
    _, cs = caller_at(state)
    assert (cs.peer_call == 0) == (state is CallState.WAITING_FOR_RESPONSE)


def test_reject_before_accept_still_records_peer():
    ep, cs = caller_at(CallState.WAITING_FOR_RESPONSE)
    ep.handle_signal(signal_frame(Signal.REJECT, 77, LOCAL_CALL), 0.0)
    assert cs.peer_call == 77


# -- media: sender side ----------------------------------------------------------


def test_media_refused_before_answer():
    ep, cs = caller_at(CallState.ACCEPTED)
    with pytest.raises(NotInCall):
        ep.send_media(b"x" * 160, 20.0)


def test_first_media_frame_is_full_then_minis():
    caller, callee = IaxEndpoint("a"), IaxEndpoint("b")
    caller_cs, _ = connect(caller, callee)
    ts, wire = caller.send_media(b"x" * 160, 0.0)
    first = decode_full(wire)
    assert first.frame_type is FrameKind.VOICE
    assert ts == first.timestamp == 0
    assert first.dest_call == caller_cs.peer_call
    assert first.oseqno == 1  # one signaling frame (NEW) went out before it
    for k in range(1, 10):
        ts, wire = caller.send_media(b"x" * 160, k * 20.0)
        assert ts == k * 20
        assert decode_mini(wire) == (LOCAL_CALL, k * 20, b"x" * 160)  # NotMiniFrame if full


@pytest.mark.parametrize("dest_call", [LOCAL_CALL, 0x7FFF])
def test_a_new_not_sent_to_call_number_0_is_refused(dest_call):
    # RFC 5456 sends NEW to call number 0; one addressed to a call opens none
    callee = IaxEndpoint("b")
    with pytest.raises(ProtocolViolation):
        callee.handle_signal(FullFrame(5, dest_call, 0, 0, 0, FrameKind.CONTROL, Signal.NEW, b"b"), 0.0)
    assert callee.call is None


def test_callee_first_media_frame_is_full_to_the_caller():
    # a scripted caller numbered 77, so the two ends hold different call numbers
    callee = IaxEndpoint("b")
    callee.handle_signal(signal_frame(Signal.NEW, 77, 0, payload=b"b"), 0.0)
    assert LOCAL_CALL != 77
    ts, wire = callee.send_media(b"y" * 160, 0.0)
    first = decode_full(wire)  # NotFullFrame if a mini
    assert first.frame_type is FrameKind.VOICE
    assert first.source_call == LOCAL_CALL
    assert first.dest_call == 77
    assert first.oseqno == 2  # ACCEPT and ANSWER went out before it
    assert first.iseqno == 1  # the caller's NEW was received
    assert ts == first.timestamp == 0
    assert first.payload == b"y" * 160


def test_full_frame_resent_when_high_bits_change():
    """A 70 s call at 20 ms cadence crosses ts 65536 once: exactly two fulls."""
    caller, callee = IaxEndpoint("a"), IaxEndpoint("b")
    caller_cs, _ = connect(caller, callee)
    payload = b"\x00" * 160
    full_ts = []
    for k in range(3500):
        ts, wire = caller.send_media(payload, k * 20.0)
        if wire[0] & 0x80:
            full_ts.append(decode_full(wire).timestamp)
            assert full_ts[-1] == ts
    assert full_ts == [0, 65540]  # 3277 * 20 is the first tick past 2**16


def test_short_call_needs_single_anchor():
    caller, callee = IaxEndpoint("a"), IaxEndpoint("b")
    connect(caller, callee)
    wires = [caller.send_media(b"x", k * 20.0)[1] for k in range(3276)]
    assert sum(bool(w[0] & 0x80) for w in wires) == 1  # max ts 65500


@given(
    start=st.integers(0, 0xFFFFFFFF),
    steps=st.lists(st.integers(1, 40_000), min_size=1, max_size=6),
    payload=st.binary(max_size=200),
)
def test_a_mini_frame_is_what_encode_mini_encodes(start, steps, payload):
    # whatever the clock, a mini frame's bytes are encode_mini's
    caller, callee = IaxEndpoint("a"), IaxEndpoint("b")
    connect(caller, callee)
    caller.send_media(payload, 0.0)  # the anchor
    caller.call.start_time = -float(start)  # the next frames' ts32 start at `start`
    now = 0.0
    for step in steps:
        ts32, wire = caller.send_media(payload, now := now + step)
        if not wire[0] & 0x80:
            assert wire == encode_mini(LOCAL_CALL, ts32 & 0xFFFF, payload)


@given(st.binary(max_size=24))
def test_receive_media_frame_refuses_what_decode_mini_refuses(blob):
    # a frame decode_mini refuses, the receiver refuses alike
    try:
        source_call, ts16, payload = decode_mini(blob)
    except DecodeError as exc:
        with pytest.raises(DecodeError) as got:
            receiver().receive_media_frame(blob)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return
    if source_call != 1:  # not the scripted caller's number
        with pytest.raises(NotInCall):
            receiver().receive_media_frame(blob)
    else:
        assert receiver().receive_media_frame(blob) == (ts16, payload)


# -- media: receiver-side timestamp reconstruction ---------------------------------


def voice_frame(ts32, payload=b"", dest_call=LOCAL_CALL):
    return FullFrame(
        source_call=1,
        dest_call=dest_call,
        timestamp=ts32,
        oseqno=0,
        iseqno=0,
        frame_type=FrameKind.VOICE,
        subclass=0,
        payload=payload,
    )


def receiver():
    """A callee Up in a call from a scripted caller numbered 1."""
    ep = IaxEndpoint("b")
    ep.handle_signal(signal_frame(Signal.NEW, 1, 0, payload=b"b"), 0.0)
    return ep


def test_anchor_then_minis():
    ep = receiver()
    assert ep.receive_anchor(voice_frame(0, b"a")) == (0, b"a")
    assert ep.receive_media_frame(encode_mini(1, 20, b"b")) == (20, b"b")
    assert ep.receive_media_frame(encode_mini(1, 40, b"c")) == (40, b"c")


def test_mini_wrap_corrects_forward():
    ep = receiver()
    ep.receive_anchor(voice_frame(65500))
    # high bits are still 0, so ts16=10 naively reconstructs to 10; one wrap
    # correction lands it just past the anchor.
    ts, _ = ep.receive_media_frame(encode_mini(1, 10))
    assert ts == 65546


def test_mini_more_than_one_wrap_behind_is_stale():
    ep = receiver()
    ep.call.rx = MediaRxState(high16=0, last_reconstructed_ts=140000)
    with pytest.raises(StaleFrame):
        ep.receive_media_frame(encode_mini(1, 1000))


def test_full_frame_far_behind_is_stale():
    ep = receiver()
    ep.receive_anchor(voice_frame(200000))
    with pytest.raises(StaleFrame):
        ep.receive_anchor(voice_frame(100000))


def test_full_frame_exactly_one_window_behind_is_allowed():
    ep = receiver()
    ep.receive_anchor(voice_frame(131072))
    ts, _ = ep.receive_anchor(voice_frame(65536))  # behind by exactly 2**16
    assert ts == 65536
    assert ep.call.rx.last_reconstructed_ts == 131072  # clock never runs backwards


def test_receive_media_refuses_control_frames():
    ep = receiver()
    with pytest.raises(ValueError):
        ep.receive_anchor(signal_frame(Signal.ANSWER, 1, LOCAL_CALL))
    assert same_state(ep.call.rx, MediaRxState())


def test_end_to_end_reconstruction_over_wire():
    caller, callee = IaxEndpoint("a"), IaxEndpoint("b")
    connect(caller, callee)
    payload = b"\x7f" * 160
    for k in range(3500):  # spans one wrap of the low 16 bits
        sent_ts, wire = caller.send_media(payload, k * 20.0)
        ts, got = receive_wire(callee, wire)
        assert ts == sent_ts == k * 20
        assert got == payload


def test_receive_media_frame_routing():
    # a scripted caller numbered 77: full frames route by our number in
    # dest_call, minis by the peer's number in source_call
    callee = IaxEndpoint("b")
    callee.handle_signal(signal_frame(Signal.NEW, 77, 0, payload=b"b"), 0.0)
    own = LOCAL_CALL
    ts, _ = callee.receive_anchor(voice_frame(0, b"a", dest_call=own))
    assert ts == 0
    ts, _ = callee.receive_media_frame(encode_mini(77, 20, b"b"))
    assert ts == 20
    for receive, stray in (
        (callee.receive_media_frame, encode_mini(own, 40)),  # our own number is not the peer's
        (callee.receive_media_frame, encode_mini(999, 40)),
        (callee.receive_anchor, voice_frame(40, dest_call=77)),  # the peer's number is not ours
        (callee.receive_anchor, voice_frame(40, dest_call=999)),
    ):
        with pytest.raises(NotInCall):
            receive(stray)
    assert callee.call.rx.last_reconstructed_ts == 20


# -- a refused signal changes nothing -----------------------------------------------


_INJECTION = st.tuples(
    st.sampled_from(["caller", "callee"]),  # the end that receives the signal
    st.sampled_from(["place", *Signal]),  # a second place_call, or a signal received
    st.sampled_from(["call", "zero", "stranger"]),  # how the frame is addressed
    st.integers(0, 0xFF),  # its oseqno
)


@given(handshake=st.integers(0, 2), injections=st.lists(_INJECTION, max_size=12))
def test_a_refused_signal_leaves_the_endpoint_as_it_was(handshake, injections):
    # a real pair: NEW and the first `handshake` of the callee's ACCEPT, ANSWER
    # cross the wire codec; then any signal, or a second place_call, reaches either end
    caller, callee = IaxEndpoint("caller"), IaxEndpoint("callee")
    replies = callee.handle_signal(decode_full(encode_full(caller.place_call("callee", 0.0))), 0.0)
    for reply in replies[:handshake]:
        caller.handle_signal(decode_full(encode_full(reply)), 0.0)
    ends = {"caller": (caller, callee), "callee": (callee, caller)}
    for end, op, addressing, oseqno in injections:
        ep, peer = ends[end]
        cs = ep.call
        before = copy.deepcopy(cs)
        if op == "place":
            with pytest.raises(NoFreeCallNumbers):
                ep.place_call("elsewhere", 1.0)
            assert ep.call is cs and same_state(cs, before)
            continue
        dest = {"call": LOCAL_CALL, "zero": 0, "stranger": 0x7FFF}[addressing]
        frame = FullFrame(LOCAL_CALL, dest, 0, oseqno, 0, FrameKind.CONTROL, op, b"callee")
        try:
            replies = ep.handle_signal(decode_full(encode_full(frame)), 1.0)
        except ProtocolViolation:
            assert ep.call is cs and same_state(cs, before)
        else:
            assert op is not Signal.NEW  # both ends hold their one call: a NEW opens none
            assert replies == []
            assert ep.call is cs
            assert cs.iseqno == (oseqno + 1) & 0xFF
