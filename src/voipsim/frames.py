"""Wire codecs for the testbed's four packet kinds.

Binary layouts are big-endian and bit-exact:

    full frame (12-byte header, signaling and timestamp resync)
        [F=1 | source_call:15] [R | dest_call:15] [timestamp:32]
        [oseqno:8] [iseqno:8] [frame_type:8] [subclass:8] payload...

    mini frame (4-byte header, steady-state media)
        [F=0 | source_call:15] [ts16:16] payload...

    RTP packet (fixed 12-byte header, no CSRC list, no extensions)
        [V=2:2 | P:1 | X:1 | CC:4] [M:1 | PT:7] [seq:16]
        [timestamp:32] [ssrc:32] payload...

    conference control message (text line)
        "RSW/1 <VERB> <conf_id> <from> <to>[ <body>]\\n"

A mini frame has no object: ``encode_mini`` takes its fields and
``decode_mini`` returns them as ``(source_call, ts16, payload)``.  An RTP
packet has no object either: ``encode_rtp`` takes its fields and
``decode_rtp`` returns them as
``(seq, timestamp, ssrc, payload, payload_type, marker)``.

Encoders validate field ranges and raise :class:`EncodeError` naming the
offending field.  Decoders are total: any byte string yields either a value
or a typed :class:`DecodeError` subclass, never an unhandled exception.
"""

from __future__ import annotations

import struct
from enum import Enum, IntEnum
from typing import NamedTuple

FULL_HEADER_LEN = 12
MINI_HEADER_LEN = 4
RTP_HEADER_LEN = 12

_FULL_HDR = struct.Struct(">HHIBBBB")
_MINI_HDR = struct.Struct(">HH")
_RTP_HDR = struct.Struct(">BBHII")


class FrameError(ValueError):
    """Base class for every codec error."""


class EncodeError(FrameError):
    """A field is out of range or would break the wire format."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


class DecodeError(FrameError):
    """Base class for decode failures; decoders raise only subclasses."""


class TooShort(DecodeError):
    pass


class NotFullFrame(DecodeError):
    """The F bit says this is not a full frame."""


class NotMiniFrame(DecodeError):
    """The F bit says this is not a mini frame."""


class UnknownFrameType(DecodeError):
    """frame_type byte is neither Voice nor Control."""


class UnknownSignal(DecodeError):
    """Subclass byte does not map to a known signal code."""

    def __init__(self, subclass: int):
        super().__init__(f"unknown signal code {subclass}")
        self.subclass = subclass


class UnknownVerb(DecodeError):
    """Conference message verb is not in the protocol vocabulary."""


class Malformed(DecodeError):
    """Input is structurally broken (bad framing, missing fields, bad int)."""


class Signal(IntEnum):
    """Signal codes carried in the subclass byte of Control frames."""

    NEW = 1
    AUTHREQ = 2
    AUTHREP = 3
    ACCEPT = 4
    REJECT = 5
    PROCEEDING = 6
    RINGING = 7
    ANSWER = 8
    HANGUP = 9


class FrameKind(IntEnum):
    """frame_type byte values (mirroring the public registry)."""

    VOICE = 2
    CONTROL = 4


class Verb(Enum):
    """Conference control verbs."""

    CREATE = "CREATE"
    JOIN = "JOIN"
    LEAVE = "LEAVE"
    END = "END"
    ACK = "ACK"
    REJECT = "REJECT"
    BUSY = "BUSY"


_SIGNAL_CODES = frozenset(s.value for s in Signal)
_FRAME_KINDS = frozenset(k.value for k in FrameKind)
_VERBS = {v.value: v for v in Verb}


def _check_int(name: str, value: int, lo: int, hi: int) -> None:
    if type(value) is int and lo <= value <= hi:
        return  # the common case; bools and int subclasses take the checks below
    if not isinstance(value, int):
        raise EncodeError(name, f"expected an integer, got {type(value).__name__}")
    if not lo <= value <= hi:
        raise EncodeError(name, f"{value} outside [{lo}, {hi}]")


def _check_payload(payload) -> None:
    try:
        memoryview(payload)
    except TypeError:
        raise EncodeError("payload", f"expected bytes, got {type(payload).__name__}") from None


class FullFrame(NamedTuple):
    """Signaling or resync frame with the 12-byte header."""

    source_call: int
    dest_call: int
    timestamp: int
    oseqno: int
    iseqno: int
    frame_type: FrameKind
    subclass: int
    payload: bytes = b""
    retransmit: bool = False


class RswMessage(NamedTuple):
    """One conference control line; ``body`` empty means no body.

    ``sender``/``recipient`` are the from/to fields of the wire line.  In a
    chairman's CREATE the recipient field carries the comma-separated invitee
    ids; everywhere else it is a single id.
    """

    verb: Verb
    conf_id: int
    sender: str
    recipient: str
    body: str = ""


def encode_full(f: FullFrame) -> bytes:
    _check_int("source_call", f.source_call, 0, 0x7FFF)
    _check_int("dest_call", f.dest_call, 0, 0x7FFF)
    _check_int("timestamp", f.timestamp, 0, 0xFFFFFFFF)
    _check_int("oseqno", f.oseqno, 0, 0xFF)
    _check_int("iseqno", f.iseqno, 0, 0xFF)
    if f.frame_type not in _FRAME_KINDS:
        raise EncodeError("frame_type", f"{f.frame_type!r} is not a known kind")
    _check_int("subclass", f.subclass, 0, 0x7F)
    if f.frame_type == FrameKind.CONTROL and f.subclass not in _SIGNAL_CODES:
        raise EncodeError("subclass", f"{f.subclass} is not a signal code")
    _check_payload(f.payload)
    header = _FULL_HDR.pack(
        0x8000 | f.source_call,
        (0x8000 if f.retransmit else 0) | f.dest_call,
        f.timestamp,
        f.oseqno,
        f.iseqno,
        int(f.frame_type),
        f.subclass,
    )
    return header + f.payload


def decode_full(b: bytes) -> FullFrame:
    if len(b) < FULL_HEADER_LEN:
        raise TooShort(f"full frame needs {FULL_HEADER_LEN} bytes, got {len(b)}")
    w0, w1, ts, oseq, iseq, ftype, subclass = _FULL_HDR.unpack_from(b)
    if not w0 & 0x8000:
        raise NotFullFrame("F bit is clear")
    if ftype not in _FRAME_KINDS:
        raise UnknownFrameType(f"frame_type byte {ftype}")
    if subclass > 0x7F:
        raise UnknownSignal(subclass)
    if ftype == FrameKind.CONTROL and subclass not in _SIGNAL_CODES:
        raise UnknownSignal(subclass)
    return FullFrame(
        source_call=w0 & 0x7FFF,
        dest_call=w1 & 0x7FFF,
        timestamp=ts,
        oseqno=oseq,
        iseqno=iseq,
        frame_type=FrameKind(ftype),
        subclass=subclass,
        payload=bytes(b[FULL_HEADER_LEN:]),
        retransmit=bool(w1 & 0x8000),
    )


def encode_mini(source_call: int, ts16: int, payload: bytes = b"") -> bytes:
    """The wire bytes of a mini frame; media carrying only the low 16 timestamp bits."""
    if not (
        type(source_call) is int and 0 <= source_call <= 0x7FFF
        and type(ts16) is int and 0 <= ts16 <= 0xFFFF
        and type(payload) is bytes
    ):
        # the fields in order, so the first bad one names the error
        _check_int("source_call", source_call, 0, 0x7FFF)
        _check_int("ts16", ts16, 0, 0xFFFF)
        _check_payload(payload)
    return _MINI_HDR.pack(source_call, ts16) + payload


def decode_mini(b: bytes) -> tuple[int, int, bytes]:
    """``(source_call, ts16, payload)`` of a mini frame's wire bytes."""
    if len(b) < MINI_HEADER_LEN:
        raise TooShort(f"mini frame needs {MINI_HEADER_LEN} bytes, got {len(b)}")
    w0, ts16 = _MINI_HDR.unpack_from(b)
    if w0 & 0x8000:
        raise NotMiniFrame("F bit is set")
    # a slice of bytes is bytes already; another buffer's slice is copied into bytes
    return w0, ts16, b[MINI_HEADER_LEN:] if type(b) is bytes else bytes(b[MINI_HEADER_LEN:])


def encode_rtp(
    seq: int,
    timestamp: int,
    ssrc: int,
    payload: bytes = b"",
    payload_type: int = 0,
    marker: bool = False,
) -> bytes:
    """The wire bytes of an RTP packet; ``marker`` is a bool, or 0 or 1."""
    if not (
        type(seq) is int and 0 <= seq <= 0xFFFF
        and type(timestamp) is int and 0 <= timestamp <= 0xFFFFFFFF
        and type(ssrc) is int and 0 <= ssrc <= 0xFFFFFFFF
        and type(payload) is bytes
        and type(payload_type) is int and 0 <= payload_type <= 0x7F
        and type(marker) is bool
    ):
        # the fields in order, so the first bad one names the error
        _check_int("seq", seq, 0, 0xFFFF)
        _check_int("timestamp", timestamp, 0, 0xFFFFFFFF)
        _check_int("ssrc", ssrc, 0, 0xFFFFFFFF)
        _check_payload(payload)
        _check_int("payload_type", payload_type, 0, 0x7F)
        _check_int("marker", marker, 0, 1)  # the M bit: a bool, 0 or 1, never any truthy value
    b0 = 2 << 6  # version 2, no padding, no extension, CC=0
    return _RTP_HDR.pack(b0, marker << 7 | payload_type, seq, timestamp, ssrc) + payload


def decode_rtp(b: bytes) -> tuple[int, int, int, bytes, int, bool]:
    """``(seq, timestamp, ssrc, payload, payload_type, marker)`` of an RTP packet's wire bytes."""
    if len(b) < RTP_HEADER_LEN:
        raise TooShort(f"RTP packet needs {RTP_HEADER_LEN} bytes, got {len(b)}")
    b0, b1, seq, ts, ssrc = _RTP_HDR.unpack_from(b)
    if b0 >> 6 != 2:
        raise Malformed(f"RTP version {b0 >> 6}, expected 2")
    if b0 & 0x3F:
        # padding/extension/CSRC would shift the payload boundary
        raise Malformed("padding, extension, or CSRC bits set")
    payload = b[RTP_HEADER_LEN:] if type(b) is bytes else bytes(b[RTP_HEADER_LEN:])  # as decode_mini's
    return seq, ts, ssrc, payload, b1 & 0x7F, bool(b1 & 0x80)


def _check_token(name: str, value: str) -> None:
    if not isinstance(value, str) or not value:
        raise EncodeError(name, "must be a non-empty string")
    if any(c.isspace() for c in value):
        raise EncodeError(name, "must not contain whitespace")


def encode_rsw(m: RswMessage) -> bytes:
    if not isinstance(m.verb, Verb):
        raise EncodeError("verb", f"{m.verb!r} is not a Verb")
    if not isinstance(m.conf_id, int) or isinstance(m.conf_id, bool):
        raise EncodeError("conf_id", "must be an integer, not a bool")  # True would go out as "True"
    _check_token("sender", m.sender)
    _check_token("recipient", m.recipient)
    if not isinstance(m.body, str) or "\n" in m.body or "\r" in m.body:
        raise EncodeError("body", "must be a string without line breaks")
    if m.verb is Verb.CREATE and not m.body:
        raise EncodeError("body", "CREATE requires a media description body")
    if m.verb is Verb.END and m.body:
        raise EncodeError("body", "END carries no body")
    line = f"RSW/1 {m.verb.value} {m.conf_id} {m.sender} {m.recipient}"
    if m.body:
        line += f" {m.body}"
    return (line + "\n").encode("ascii")


def decode_rsw(b: bytes) -> RswMessage:
    try:
        text = b.decode("ascii")
    except (UnicodeDecodeError, AttributeError) as exc:
        raise Malformed(f"not ASCII: {exc}") from None
    line = text[:-1] if text.endswith("\n") else text
    if "\n" in line or "\r" in line:
        raise Malformed("embedded line break")
    parts = line.split(" ", 5)
    if parts[0] != "RSW/1":
        raise Malformed(f"bad magic {parts[0]!r}")
    if len(parts) < 5:
        raise Malformed(f"expected at least 5 fields, got {len(parts)}")
    verb = _VERBS.get(parts[1])
    if verb is None:
        raise UnknownVerb(f"verb {parts[1]!r}")
    try:
        conf_id = int(parts[2])
    except ValueError:
        raise Malformed(f"conf_id {parts[2]!r} is not an integer") from None
    if str(conf_id) != parts[2]:  # one line per message: no "007", "+7", "1_0", "-0" or leading whitespace
        raise Malformed(f"conf_id {parts[2]!r} is not written as the encoder writes it")
    sender, recipient = parts[3], parts[4]
    if not sender or not recipient or any(c.isspace() for c in sender + recipient):
        raise Malformed("empty from/to field, or whitespace in one")
    if parts[5:] == [""]:
        raise Malformed("a trailing space with no body")
    body = parts[5] if len(parts) == 6 else ""
    if verb is Verb.CREATE and not body:
        raise Malformed("CREATE without a body")
    if verb is Verb.END and body:
        raise Malformed("END with a body")
    return RswMessage(verb=verb, conf_id=conf_id, sender=sender, recipient=recipient, body=body)
