"""Server-mediated conference control and RTP media sending.

A chairman CREATEs a conference naming its invitees; the server fans the
invitation out, relays each invitee's JOIN back to the chairman, and ACKs
every signal it accepts.  Only the chairman may END.  An invitee's status
moves once, from Invited to Joined; one that never answers stays Invited.
The server ignores a stray ACK and refuses every other verb it does not
route (REJECT, BUSY, LEAVE) with :class:`RswError`.

On the wire a chairman's CREATE carries the comma-separated invitee list in
the recipient field; every other message is point-to-point.  Media is plain
RTP, carried as wire bytes: ``send_media_rtp`` returns the next packet's
sequence number and its encoded bytes.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import Sequence

from .frames import RswMessage, Verb, encode_rtp

DEFAULT_SERVER_ID = "server"


class MemberStatus(Enum):
    INVITED = "invited"
    JOINED = "joined"


class ConferencePhase(Enum):
    CREATING = "creating"
    ACTIVE = "active"
    ENDED = "ended"


class RswError(Exception):
    """Base class for conference control errors."""


class EmptyInviteeList(RswError):
    pass


class EmptyMediaDescription(RswError):
    pass


class NotChairman(RswError):
    """Someone other than the chairman tried to END."""


class UnknownConference(RswError):
    """Message names a conference the server does not hold."""


class NotInvited(RswError):
    """Sender holds no usable invitation (or already responded)."""


class ConferenceState:
    """The server's record of one conference; ``members`` includes the chairman."""

    __slots__ = ("conf_id", "chairman", "members", "media_desc", "phase")

    def __init__(self, conf_id: int, chairman: str, members: dict, media_desc: str, phase: ConferencePhase):
        self.conf_id = conf_id
        self.chairman = chairman
        self.members = members
        self.media_desc = media_desc
        self.phase = phase


def _check_member_id(member_id: str) -> str:
    if not member_id or any(c.isspace() for c in member_id) or "," in member_id or ":" in member_id:
        raise ValueError(f"bad member id {member_id!r}")
    return member_id


def create_conference(
    chairman: str,
    invitees: Sequence[str],
    media_desc: str,
    *,
    conf_id: int = 1,
) -> RswMessage:
    """Build the chairman's CREATE message, refusing a malformed conference.

    The server builds the conference record from it: the chairman Joined,
    every invitee Invited.
    """
    ids = [chairman, *invitees]
    if len(ids) == 1:
        raise EmptyInviteeList("a conference needs at least one invitee")
    if not media_desc:
        raise EmptyMediaDescription("media description must be non-empty")
    for member_id in ids:
        _check_member_id(member_id)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate member ids")
    return RswMessage(Verb.CREATE, conf_id, chairman, ",".join(invitees), media_desc)


def server_route(
    msg: RswMessage,
    conf: ConferenceState | None,
) -> tuple[list[RswMessage], ConferenceState]:
    """Process one signal at the server; returns (messages out, conference).

    CREATE establishes the conference and fans out one invitation per
    invitee plus an ACK to the chairman.  Every other accepted signal is
    ACKed to its sender; a JOIN is additionally relayed to the chairman.
    The conference becomes Active on the first JOIN and Ended only on the
    chairman's END.  A stray ACK is ignored; any other verb raises
    :class:`RswError`.
    """
    if msg.verb is Verb.CREATE:
        if conf is not None:
            raise RswError(f"conference {conf.conf_id} already exists")
        conf = _conference_from_create(msg)
        out = [
            RswMessage(Verb.CREATE, conf.conf_id, DEFAULT_SERVER_ID, invitee, conf.media_desc)
            for invitee in conf.members
            if invitee != conf.chairman
        ]
        out.append(RswMessage(Verb.ACK, conf.conf_id, DEFAULT_SERVER_ID, conf.chairman))
        return out, conf

    if conf is None or conf.conf_id != msg.conf_id:
        raise UnknownConference(f"no conference {msg.conf_id}")
    if conf.phase is ConferencePhase.ENDED:
        raise RswError(f"conference {conf.conf_id} has ended")

    sender = msg.sender
    if msg.verb is Verb.JOIN:
        if conf.members.get(sender) is not MemberStatus.INVITED:
            raise NotInvited(f"{sender} holds no open invitation")
        conf.members[sender] = MemberStatus.JOINED
        conf.phase = ConferencePhase.ACTIVE
        return [
            RswMessage(Verb.ACK, conf.conf_id, DEFAULT_SERVER_ID, sender),
            RswMessage(Verb.JOIN, conf.conf_id, sender, conf.chairman),
        ], conf

    if msg.verb is Verb.END:
        if sender != conf.chairman:
            raise NotChairman(f"{sender} is not the chairman")
        conf.phase = ConferencePhase.ENDED
        out = [RswMessage(Verb.ACK, conf.conf_id, DEFAULT_SERVER_ID, sender)]
        out.extend(
            RswMessage(Verb.END, conf.conf_id, DEFAULT_SERVER_ID, member_id)
            for member_id, status in conf.members.items()
            if status is MemberStatus.JOINED and member_id != sender
        )
        return out, conf

    if msg.verb is not Verb.ACK:
        raise RswError(f"the server does not route {msg.verb.value}")
    return [], conf  # a stray ACK carries no state


def _conference_from_create(msg: RswMessage) -> ConferenceState:
    members = {msg.sender: MemberStatus.JOINED}
    for name in msg.recipient.split(","):
        if not name or ":" in name:
            raise RswError(f"bad invitee {name!r}")
        if name in members:
            raise RswError(f"duplicate invitee {name!r}")
        members[name] = MemberStatus.INVITED
    return ConferenceState(msg.conf_id, msg.sender, members, msg.body, ConferencePhase.CREATING)


class RswInvitee:
    """Invitation tracking for one endpoint: the pending conference id, which a respond consumes."""

    def __init__(self, endpoint_id: str):
        self.endpoint_id = _check_member_id(endpoint_id)
        self._conf_id: int | None = None

    def receive_invitation(self, msg: RswMessage) -> None:
        if msg.verb is not Verb.CREATE:
            raise ValueError(f"not an invitation: {msg.verb}")
        self._conf_id = msg.conf_id

    def respond(self) -> RswMessage:
        """JOIN the pending invitation's conference once; a second respond raises."""
        if self._conf_id is None:
            raise NotInvited(f"{self.endpoint_id} holds no open invitation")
        conf_id, self._conf_id = self._conf_id, None
        return RswMessage(Verb.JOIN, conf_id, self.endpoint_id, DEFAULT_SERVER_ID)


class RtpTxState:
    """Outbound RTP stream counters."""

    __slots__ = ("seq", "timestamp", "ssrc", "samples_per_frame")

    def __init__(self, seq: int, timestamp: int, ssrc: int, samples_per_frame: int = 160):
        self.seq = seq
        self.timestamp = timestamp
        self.ssrc = ssrc
        self.samples_per_frame = samples_per_frame


def new_rtp_tx(rng: random.Random, samples_per_frame: int = 160) -> RtpTxState:
    """Fresh stream state with seeded-random initial seq/timestamp/ssrc."""
    return RtpTxState(
        seq=rng.randrange(1 << 16),
        timestamp=rng.randrange(1 << 32),
        ssrc=rng.randrange(1 << 32),
        samples_per_frame=samples_per_frame,
    )


def send_media_rtp(tx: RtpTxState, payload: bytes) -> tuple[int, bytes]:
    """Emit the next RTP packet as ``(seq, wire bytes)`` and advance the stream counters.

    seq advances by 1 mod 2**16 and timestamp by samples_per_frame mod 2**32
    per packet.  The bridge, not the sender, drops media outside an Active
    conference.
    """
    seq = tx.seq
    data = encode_rtp(seq, tx.timestamp, tx.ssrc, payload)
    tx.seq = (seq + 1) & 0xFFFF
    tx.timestamp = (tx.timestamp + tx.samples_per_frame) & 0xFFFFFFFF
    return seq, data
