"""Wire codec tests: frozen byte layouts, round-trips, decoder totality."""

import itertools
import random
from enum import IntEnum

import pytest
from hypothesis import given, strategies as st

from voipsim.frames import (
    FULL_HEADER_LEN,
    MINI_HEADER_LEN,
    RTP_HEADER_LEN,
    DecodeError,
    EncodeError,
    FrameKind,
    FullFrame,
    Malformed,
    NotFullFrame,
    NotMiniFrame,
    RswMessage,
    Signal,
    TooShort,
    UnknownFrameType,
    UnknownSignal,
    UnknownVerb,
    Verb,
    decode_full,
    decode_mini,
    decode_rsw,
    decode_rtp,
    decode_rtp_seq,
    encode_full,
    encode_mini,
    encode_rsw,
    encode_rtp,
    pack_rtp,
)

# ---------------------------------------------------------------- strategies

_token = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-",
    min_size=1,
    max_size=12,
)
_body_text = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789;=,. ",
    min_size=1,
    max_size=40,
)

full_frames = st.one_of(
    st.builds(
        FullFrame,
        source_call=st.integers(0, 0x7FFF),
        dest_call=st.integers(0, 0x7FFF),
        timestamp=st.integers(0, 0xFFFFFFFF),
        oseqno=st.integers(0, 0xFF),
        iseqno=st.integers(0, 0xFF),
        frame_type=st.just(FrameKind.CONTROL),
        subclass=st.sampled_from(sorted(s.value for s in Signal)),
        payload=st.binary(max_size=64),
        retransmit=st.booleans(),
    ),
    st.builds(
        FullFrame,
        source_call=st.integers(0, 0x7FFF),
        dest_call=st.integers(0, 0x7FFF),
        timestamp=st.integers(0, 0xFFFFFFFF),
        oseqno=st.integers(0, 0xFF),
        iseqno=st.integers(0, 0xFF),
        frame_type=st.just(FrameKind.VOICE),
        subclass=st.integers(0, 0x7F),
        payload=st.binary(max_size=64),
        retransmit=st.booleans(),
    ),
)

# a mini frame's (source_call, ts16, payload)
mini_frames = st.tuples(st.integers(0, 0x7FFF), st.integers(0, 0xFFFF), st.binary(max_size=64))

# an RTP packet's (seq, timestamp, ssrc, payload, payload_type, marker)
rtp_packets = st.tuples(
    st.integers(0, 0xFFFF),
    st.integers(0, 0xFFFFFFFF),
    st.integers(0, 0xFFFFFFFF),
    st.binary(max_size=64),
    st.integers(0, 0x7F),
    st.booleans(),
)


@st.composite
def rsw_messages(draw):
    verb = draw(st.sampled_from(list(Verb)))
    if verb is Verb.CREATE:
        body = draw(_body_text)
    elif verb is Verb.END:
        body = ""
    else:
        body = draw(st.one_of(st.just(""), _body_text))
    return RswMessage(
        verb=verb,
        conf_id=draw(st.integers(-10**6, 10**6)),
        sender=draw(_token),
        recipient=draw(_token),
        body=body,
    )


# ---------------------------------------------------------------- full frame


def test_new_frame_frozen_bytes():
    frame = FullFrame(
        source_call=1, dest_call=0, timestamp=0, oseqno=0, iseqno=0,
        frame_type=FrameKind.CONTROL, subclass=Signal.NEW,
    )
    data = encode_full(frame)
    assert len(data) == FULL_HEADER_LEN == 12
    assert data[:4] == bytes([0x80, 0x01, 0x00, 0x00])
    assert data == bytes([0x80, 0x01, 0x00, 0x00, 0, 0, 0, 0, 0, 0, 4, 1])


def test_full_header_is_always_12_bytes():
    for payload in (b"", b"x", b"y" * 160):
        frame = FullFrame(5, 6, 7, 8, 9, FrameKind.VOICE, 0, payload)
        assert len(encode_full(frame)) == 12 + len(payload)


def test_full_retransmit_bit_round_trip():
    frame = FullFrame(1, 2, 3, 4, 5, FrameKind.CONTROL, Signal.ACCEPT, retransmit=True)
    decoded = decode_full(encode_full(frame))
    assert decoded.retransmit is True
    assert decoded.dest_call == 2


def test_full_decode_too_short():
    with pytest.raises(TooShort):
        decode_full(b"\x80" + b"\x00" * 10)  # 11 bytes


def test_full_decode_f_bit_clear():
    with pytest.raises(NotFullFrame):
        decode_full(b"\x00" * 12)


def test_full_decode_unknown_frame_type():
    data = bytearray(encode_full(FullFrame(1, 2, 3, 0, 0, FrameKind.VOICE, 0)))
    data[10] = 9  # neither Voice nor Control
    with pytest.raises(UnknownFrameType):
        decode_full(bytes(data))


def test_full_decode_unknown_signal():
    data = bytearray(encode_full(FullFrame(1, 2, 3, 0, 0, FrameKind.CONTROL, Signal.NEW)))
    data[11] = 0x7F  # not a signal code
    with pytest.raises(UnknownSignal) as exc:
        decode_full(bytes(data))
    assert exc.value.subclass == 0x7F


def test_full_encode_range_errors_name_the_field():
    bad = [
        ("source_call", FullFrame(0x8000, 0, 0, 0, 0, FrameKind.VOICE, 0)),
        ("dest_call", FullFrame(0, -1, 0, 0, 0, FrameKind.VOICE, 0)),
        ("timestamp", FullFrame(0, 0, 1 << 32, 0, 0, FrameKind.VOICE, 0)),
        ("oseqno", FullFrame(0, 0, 0, 256, 0, FrameKind.VOICE, 0)),
        ("iseqno", FullFrame(0, 0, 0, 0, -3, FrameKind.VOICE, 0)),
        ("subclass", FullFrame(0, 0, 0, 0, 0, FrameKind.CONTROL, 99)),
    ]
    for field_name, frame in bad:
        with pytest.raises(EncodeError) as exc:
            encode_full(frame)
        assert exc.value.field_name == field_name


def test_encoders_accept_int_subclasses_and_reject_other_numbers():
    # bools and IntEnums are ints: they encode as their integer value
    assert encode_mini(True, Signal.NEW) == encode_mini(1, 1)
    for value in (1.0, "1", None):
        with pytest.raises(EncodeError) as exc:
            encode_mini(value, 0)
        assert exc.value.field_name == "source_call"
    wide = IntEnum("Wide", {"TOO_BIG": 0x10000})
    with pytest.raises(EncodeError, match="outside") as exc:
        encode_mini(1, wide.TOO_BIG)
    assert exc.value.field_name == "ts16"


@pytest.mark.parametrize("payload", [5, "ab", [300], None, 1.5])  # bytes(5) would be five zero bytes
def test_encoders_name_a_payload_that_is_not_bytes_like(payload):
    encoders = [
        lambda: encode_full(FullFrame(1, 2, 3, 4, 5, FrameKind.VOICE, 0, payload)),
        lambda: encode_mini(1, 2, payload),
        lambda: encode_rtp(1, 2, 3, payload),
        lambda: pack_rtp(1, 2, 3, payload),  # the pack fails on it, and encode_rtp names it
    ]
    for encode in encoders:
        with pytest.raises(EncodeError) as exc:
            encode()
        assert exc.value.field_name == "payload"


@pytest.mark.parametrize("payload", [bytearray(b"ab"), memoryview(b"ab"), type("Sub", (bytes,), {})(b"ab")])
def test_encoders_take_any_bytes_like_payload(payload):
    assert encode_full(FullFrame(1, 2, 3, 4, 5, FrameKind.VOICE, 0, payload)) == encode_full(
        FullFrame(1, 2, 3, 4, 5, FrameKind.VOICE, 0, b"ab")
    )
    assert encode_mini(1, 2, payload) == encode_mini(1, 2, b"ab")
    assert encode_rtp(1, 2, 3, payload) == encode_rtp(1, 2, 3, b"ab")
    assert type(encode_mini(1, 2, payload)) is bytes


@given(full_frames)
def test_full_round_trip(frame):
    assert decode_full(encode_full(frame)) == frame


# ---------------------------------------------------------------- mini frame


def test_mini_frozen_bytes():
    assert encode_mini(1, 0x2345, b"ab") == bytes(
        [0x00, 0x01, 0x23, 0x45, 0x61, 0x62]
    )


def test_mini_and_rtp_sizes_for_a_codec_frame():
    payload = bytes(160)
    assert len(encode_mini(1, 0, payload)) == 164
    assert len(encode_rtp(0, 0, 0, payload)) == 172


def test_mini_decode_errors():
    with pytest.raises(TooShort):
        decode_mini(b"\x00\x01\x02")
    with pytest.raises(NotMiniFrame):
        decode_mini(b"\x80\x00\x00\x00")


@given(mini_frames)
def test_mini_round_trip(frame):
    assert decode_mini(encode_mini(*frame)) == frame


@given(st.binary(max_size=64))
def test_mini_is_8_bytes_smaller_than_rtp(payload):
    mini = encode_mini(3, 17, payload)
    rtp = encode_rtp(1, 2, 3, payload)
    assert len(rtp) - len(mini) == RTP_HEADER_LEN - MINI_HEADER_LEN == 8


def test_first_bit_discriminates_full_from_mini():
    full = encode_full(FullFrame(9, 0, 0, 0, 0, FrameKind.VOICE, 0, b"x"))
    mini = encode_mini(9, 0, b"x")
    assert full[0] & 0x80
    assert not mini[0] & 0x80
    with pytest.raises(NotMiniFrame):
        decode_mini(full)
    with pytest.raises(NotFullFrame):
        decode_full(mini + bytes(8))


# ----------------------------------------------------------------------- RTP


def test_rtp_header_layout():
    data = encode_rtp(seq=0x0102, timestamp=0x03040506, ssrc=0x0708090A,
                      payload=b"hi", payload_type=0x60, marker=True)
    assert data[0] == 0x80  # version 2, no padding/extension/CSRC
    assert data[1] == 0x80 | 0x60
    assert data[2:4] == b"\x01\x02"
    assert data[4:8] == b"\x03\x04\x05\x06"
    assert data[8:12] == b"\x07\x08\x09\x0a"
    assert data[12:] == b"hi"


def test_rtp_decode_rejects_wrong_version_and_flags():
    good = encode_rtp(1, 2, 3, b"x")
    with pytest.raises(Malformed):
        decode_rtp(b"\x40" + good[1:])  # version 1
    with pytest.raises(Malformed):
        decode_rtp(b"\xa0" + good[1:])  # padding bit
    with pytest.raises(TooShort):
        decode_rtp(good[:11])


@given(rtp_packets)
def test_rtp_round_trip(pkt):
    assert decode_rtp(encode_rtp(*pkt)) == pkt


def test_rtp_encode_errors_name_the_first_bad_field():
    good = (1, 2, 3, b"", 0, False)
    bad = [
        ("seq", 0, 0x10000),
        ("timestamp", 1, -1),
        ("ssrc", 2, 1 << 32),
        ("payload_type", 4, 0x80),
        ("marker", 5, 2),  # truthy, but not the one bit the M field holds
        ("marker", 5, -1),
        ("marker", 5, 1.0),
        ("marker", 5, "yes"),
        ("marker", 5, None),
    ]
    for field_name, index, value in bad:
        fields = list(good)
        fields[index] = value
        with pytest.raises(EncodeError) as exc:
            encode_rtp(*fields)
        assert exc.value.field_name == field_name, (field_name, value)
    with pytest.raises(EncodeError) as exc:
        encode_rtp(0x10000, 2, 1 << 32, b"", 0x80, 2)  # every field bad: the first is named
    assert exc.value.field_name == "seq"


@given(
    seq=st.integers(0, 0xFFFF),
    timestamp=st.integers(0, 0xFFFFFFFF),
    ssrc=st.integers(0, 0xFFFFFFFF),
    payload=st.binary(max_size=200),
)
def test_pack_rtp_packs_what_encode_rtp_encodes(seq, timestamp, ssrc, payload):
    assert pack_rtp(seq, timestamp, ssrc, payload) == encode_rtp(seq, timestamp, ssrc, payload)
    # other bytes-like payloads too, as encode_rtp takes them
    assert pack_rtp(seq, timestamp, ssrc, bytearray(payload)) == encode_rtp(seq, timestamp, ssrc, payload)


@pytest.mark.parametrize("fields", [
    (0x10000, 2, 3), (-1, 2, 3), (1.0, 2, 3), ("1", 2, 3), (None, 2, 3),
    (1, 1 << 32, 3), (1, 2.5, 3), (1, 2, -1), (1, 2, 1 << 32), (0x10000, 2, 1 << 32),
])
def test_pack_rtp_refuses_what_encode_rtp_refuses_and_names_it_alike(fields):
    # struct.pack's own error would name no field
    with pytest.raises(EncodeError) as want:
        encode_rtp(*fields, b"x")
    with pytest.raises(EncodeError) as got:
        pack_rtp(*fields, b"x")
    assert (got.value.field_name, str(got.value)) == (want.value.field_name, str(want.value))


class _Index:
    """An integer that is not an ``int``, as a NumPy integer is not: it has ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_pack_rtp_takes_an_integer_that_is_not_an_int():
    # encode_rtp refuses it; the struct pack that pack_rtp makes takes its __index__
    with pytest.raises(EncodeError, match="expected an integer"):
        encode_rtp(_Index(7), 2, 3, b"x")
    assert pack_rtp(_Index(7), _Index(2), _Index(3), b"x") == encode_rtp(7, 2, 3, b"x")
    with pytest.raises(EncodeError) as exc:
        pack_rtp(_Index(0x10000), 2, 3, b"x")
    assert exc.value.field_name == "seq"


def test_rtp_marker_takes_a_bool_or_one_bit():
    assert encode_rtp(1, 2, 3, marker=1) == encode_rtp(1, 2, 3, marker=True)
    assert encode_rtp(1, 2, 3, marker=0) == encode_rtp(1, 2, 3, marker=False)
    assert decode_rtp(encode_rtp(1, 2, 3, marker=1))[5] is True
    # int subclasses are ints here too, as in the other encoders
    assert encode_rtp(Signal.NEW, 2, 3, payload_type=Signal.ACCEPT) == encode_rtp(1, 2, 3, payload_type=4)


# ------------------------------------------------------- conference messages


def test_rsw_end_frozen_line():
    msg = RswMessage(Verb.END, 7, "chair", "server")
    assert encode_rsw(msg) == b"RSW/1 END 7 chair server\n"


def test_rsw_join_round_trip_from_text():
    msg = decode_rsw(b"RSW/1 JOIN 7 p1 server\n")
    assert msg == RswMessage(Verb.JOIN, 7, "p1", "server")
    assert encode_rsw(msg) == b"RSW/1 JOIN 7 p1 server\n"


def test_rsw_unknown_verb():
    with pytest.raises(UnknownVerb):
        decode_rsw(b"RSW/1 FROB 7 a b\n")
    with pytest.raises(UnknownVerb):
        decode_rsw(b"RSW/1 FROB 7 a b")  # trailing newline optional on decode


def test_rsw_malformed_inputs():
    cases = [
        b"",  # no magic
        b"RSW/2 JOIN 7 a b\n",  # wrong magic
        b"RSW/1 JOIN seven a b\n",  # conf_id not an integer
        b"RSW/1 JOIN 7 a\n",  # missing recipient
        b"RSW/1 CREATE 7 a b\n",  # CREATE needs a body
        b"RSW/1 END 7 a b trailing\n",  # END carries no body
        b"RSW/1 JOIN 7 a b\nRSW/1",  # embedded line break
        "RSW/1 JOIN 7 a bÿ\n".encode("latin-1"),  # not ASCII
        b"RSW/1 JOIN True a b\n",  # what a bool conf_id would write
        # int() reads each of these as a conf_id, but the encoder writes none of them
        b"RSW/1 JOIN 1_0 a b\n",
        b"RSW/1 JOIN +7 a b\n",
        b"RSW/1 JOIN 007 a b\n",
        b"RSW/1 JOIN -0 a b\n",
        b"RSW/1 JOIN \t7 a b\n",
        b"RSW/1 JOIN 7 a\tb c\n",  # whitespace inside a from/to field
        b"RSW/1 JOIN 7 a b \n",  # a trailing space with no body
    ]
    for raw in cases:
        with pytest.raises(Malformed):
            decode_rsw(raw)


def test_rsw_create_body_may_contain_spaces():
    msg = RswMessage(Verb.CREATE, 3, "c", "p1,p2", "codec=pcm;frame ms 20")
    assert decode_rsw(encode_rsw(msg)) == msg


def test_rsw_encode_validation():
    with pytest.raises(EncodeError):
        encode_rsw(RswMessage(Verb.CREATE, 1, "c", "p1", ""))  # CREATE without body
    with pytest.raises(EncodeError):
        encode_rsw(RswMessage(Verb.END, 1, "c", "p1", "x"))  # END with body
    with pytest.raises(EncodeError):
        encode_rsw(RswMessage(Verb.JOIN, 1, "has space", "p1"))
    with pytest.raises(EncodeError):
        encode_rsw(RswMessage(Verb.JOIN, 1, "c", ""))
    with pytest.raises(EncodeError):
        encode_rsw(RswMessage(Verb.JOIN, 1, "c", "p1", "two\nlines"))
    with pytest.raises(EncodeError):
        encode_rsw(RswMessage(Verb.JOIN, 1, "c", "p1", "two\rlines"))  # the decoder refuses a CR
    with pytest.raises(EncodeError) as exc:
        encode_rsw(RswMessage(Verb.JOIN, True, "a", "b"))  # would write "True", which no decoder reads
    assert exc.value.field_name == "conf_id"


@given(rsw_messages())
def test_rsw_round_trip(msg):
    assert decode_rsw(encode_rsw(msg)) == msg


def test_rsw_decodes_only_the_encoders_line():
    # one message, one line: every field near the encoder's, and the trailing newline the only leniency
    fields = [
        [b"JOIN", b"END", b"CREATE"],
        [b"7", b"-7", b"0", b"007", b"+7", b"1_0", b"-0", b"\t7", b"7\t"],
        [b"a", b"a\tb", b"a\x0bb"],
        [b"b", b"b\t"],
    ]
    accepted = 0
    for *head, tail, end in itertools.product(*fields, [b"", b" ", b" c", b" c ", b"  c", b" c\rd"], [b"", b"\n"]):
        raw = b"RSW/1 " + b" ".join(head) + tail + end
        try:
            msg = decode_rsw(raw)
        except DecodeError:
            continue
        assert encode_rsw(msg) == raw.rstrip(b"\n") + b"\n", raw
        accepted += 1
    assert accepted > 0


# ------------------------------------------------------------------ totality


def _outcome(decode, blob):
    """What ``decode(blob)`` returns, or the type and message of the ``DecodeError`` it raises."""
    try:
        return decode(blob)
    except DecodeError as exc:  # typed failure is the contract
        return type(exc), str(exc)


def _assert_seq_read_is_decode_rtp(blob):
    assert _outcome(decode_rtp_seq, blob) == _outcome(lambda b: decode_rtp(b)[0], blob)


def test_decoders_are_total_on_random_bytes():
    rng = random.Random(0xF00D)
    decoders = (decode_full, decode_mini, decode_rtp, decode_rsw)
    for _ in range(2000):
        blob = rng.randbytes(rng.randrange(0, 64))
        for decode in decoders:
            _outcome(decode, blob)
        _assert_seq_read_is_decode_rtp(blob)


@given(st.binary(max_size=80))
def test_decoders_raise_only_typed_errors(blob):
    for decode in (decode_full, decode_mini, decode_rtp, decode_rsw):
        _outcome(decode, blob)
    # the header-only seq read, on the bytes as drawn and with a first byte the RTP decoder accepts
    _assert_seq_read_is_decode_rtp(blob)
    _assert_seq_read_is_decode_rtp(b"\x80" + blob[1:])
