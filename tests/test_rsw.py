"""Conference control tests: invitations, membership, chairman authority, RTP."""

from __future__ import annotations

import copy
import random

import pytest
from hypothesis import given, strategies as st

from conftest import same_state
from voipsim import (
    ConferencePhase,
    EmptyInviteeList,
    EmptyMediaDescription,
    LinkConfig,
    MemberStatus,
    NotChairman,
    NotInvited,
    RswError,
    RswInvitee,
    RswMessage,
    RtpTxState,
    Simulator,
    UnknownConference,
    Verb,
    create_conference,
    decode_rsw,
    decode_rtp,
    encode_rsw,
    encode_rtp,
    new_rtp_tx,
    send_media_rtp,
    server_route,
)
from voipsim import scenarios

MEDIA = "codec=pcm;frame_ms=20"


def over_wire(msg: RswMessage) -> RswMessage:
    """Round-trip a control message through the text codec."""
    return decode_rsw(encode_rsw(msg))


def fresh_conference(invitees=("p1", "p2"), conf_id=7):
    """CREATE routed through the server; returns (fan-out, server's state)."""
    msg = create_conference("chair", list(invitees), MEDIA, conf_id=conf_id)
    return server_route(over_wire(msg), None)


# -- creating -----------------------------------------------------------------


def test_create_message_shape():
    msg = create_conference("chair", ["p1"], MEDIA, conf_id=7)
    assert msg == RswMessage(Verb.CREATE, 7, "chair", "p1", MEDIA)
    assert over_wire(msg) == msg
    _, conf = server_route(over_wire(msg), None)  # the server's record of the conference
    assert conf.conf_id == 7
    assert conf.chairman == "chair"
    assert conf.media_desc == MEDIA
    assert conf.phase is ConferencePhase.CREATING
    assert list(conf.members.items()) == [("chair", MemberStatus.JOINED), ("p1", MemberStatus.INVITED)]


def test_create_requires_someone_to_invite():
    with pytest.raises(EmptyInviteeList):
        create_conference("chair", [], MEDIA)


def test_create_requires_media_description():
    with pytest.raises(EmptyMediaDescription):
        create_conference("chair", ["p1"], "")


@pytest.mark.parametrize("bad", ["", "a b", "a,b", "a:b", "a\tb"])
def test_create_rejects_malformed_member_ids(bad):
    with pytest.raises(ValueError):
        create_conference("chair", [bad], MEDIA)
    with pytest.raises(ValueError):
        create_conference(bad, ["p1"], MEDIA)


@pytest.mark.parametrize("invitees", [["p1", "p1"], ["chair"]])
def test_create_rejects_duplicate_members(invitees):
    with pytest.raises(ValueError):
        create_conference("chair", invitees, MEDIA)


# -- server: CREATE fan-out ------------------------------------------------------


def test_server_fans_out_one_invitation_per_invitee():
    out, conf = fresh_conference(invitees=("p1", "p2"))
    invitations, ack = out[:-1], out[-1]
    assert [m.verb for m in invitations] == [Verb.CREATE] * 2
    assert [m.recipient for m in invitations] == ["p1", "p2"]
    assert all(m.sender == "server" for m in invitations)
    assert all(m.body == MEDIA for m in invitations)
    assert ack == RswMessage(Verb.ACK, 7, "server", "chair")
    assert conf.phase is ConferencePhase.CREATING
    assert all(over_wire(m) == m for m in out)


def test_server_refuses_second_create():
    _, conf = fresh_conference()
    msg = create_conference("chair", ["p9"], MEDIA, conf_id=7)
    with pytest.raises(RswError):
        server_route(msg, conf)


@pytest.mark.parametrize("spec", ["p1,:observer", "p1:boss", "p1,p1", "p1:observer"])
def test_server_rejects_bad_invitee_specs(spec):
    msg = RswMessage(Verb.CREATE, 7, "chair", spec, MEDIA)
    with pytest.raises(RswError):
        server_route(msg, None)


# -- server: invitation responses -------------------------------------------------


def test_join_activates_and_relays_to_chairman():
    _, conf = fresh_conference()
    out, conf = server_route(RswMessage(Verb.JOIN, 7, "p1", "server"), conf)
    assert conf.members["p1"] is MemberStatus.JOINED
    assert conf.phase is ConferencePhase.ACTIVE
    assert out == [
        RswMessage(Verb.ACK, 7, "server", "p1"),
        RswMessage(Verb.JOIN, 7, "p1", "chair"),
    ]
    assert all(over_wire(m) == m for m in out)


@pytest.mark.parametrize("verb", [Verb.REJECT, Verb.BUSY, Verb.LEAVE])
def test_server_refuses_unrouted_verbs(verb):
    """An invitee only ever JOINs; a decline or a LEAVE is refused and moves nothing."""
    _, conf = fresh_conference()
    before = dict(conf.members)
    with pytest.raises(RswError, match="does not route"):
        server_route(RswMessage(verb, 7, "p1", "server"), conf)
    assert conf.members == before
    assert conf.phase is ConferencePhase.CREATING


def test_second_join_keeps_conference_active():
    _, conf = fresh_conference()
    _, conf = server_route(RswMessage(Verb.JOIN, 7, "p1", "server"), conf)
    _, conf = server_route(RswMessage(Verb.JOIN, 7, "p2", "server"), conf)
    assert conf.phase is ConferencePhase.ACTIVE
    assert conf.members["p2"] is MemberStatus.JOINED


def test_stranger_cannot_respond():
    _, conf = fresh_conference()
    with pytest.raises(NotInvited):
        server_route(RswMessage(Verb.JOIN, 7, "gatecrasher", "server"), conf)


def test_invitation_is_single_use_at_server():
    _, conf = fresh_conference()
    _, conf = server_route(RswMessage(Verb.JOIN, 7, "p1", "server"), conf)
    with pytest.raises(NotInvited):
        server_route(RswMessage(Verb.JOIN, 7, "p1", "server"), conf)


def test_status_never_moves_backwards():
    _, conf = fresh_conference()
    _, conf = server_route(RswMessage(Verb.JOIN, 7, "p1", "server"), conf)
    for verb in (Verb.JOIN, Verb.REJECT):  # a join can neither repeat nor become a decline
        with pytest.raises(RswError):
            server_route(RswMessage(verb, 7, "p1", "server"), conf)
    assert conf.members["p1"] is MemberStatus.JOINED


# -- server: ending ------------------------------------------------------------------


def test_chairman_end_notifies_joined_members_only():
    _, conf = fresh_conference()
    _, conf = server_route(RswMessage(Verb.JOIN, 7, "p1", "server"), conf)
    out, conf = server_route(RswMessage(Verb.END, 7, "chair", "server"), conf)
    assert conf.phase is ConferencePhase.ENDED
    assert conf.members["p2"] is MemberStatus.INVITED
    assert out == [
        RswMessage(Verb.ACK, 7, "server", "chair"),
        RswMessage(Verb.END, 7, "server", "p1"),  # p2 never answered, gets nothing
    ]
    assert all(over_wire(m) == m for m in out)


def test_only_chairman_may_end():
    _, conf = fresh_conference()
    _, conf = server_route(RswMessage(Verb.JOIN, 7, "p1", "server"), conf)
    for rogue in ("p1", "p2", "gatecrasher"):
        with pytest.raises(NotChairman):
            server_route(RswMessage(Verb.END, 7, rogue, "server"), conf)
        assert conf.phase is ConferencePhase.ACTIVE


def test_nothing_is_routable_after_end():
    _, conf = fresh_conference()
    _, conf = server_route(RswMessage(Verb.JOIN, 7, "p1", "server"), conf)
    _, conf = server_route(RswMessage(Verb.END, 7, "chair", "server"), conf)
    for verb in (Verb.JOIN, Verb.LEAVE, Verb.END, Verb.ACK):
        with pytest.raises(RswError):
            server_route(RswMessage(verb, 7, "p2", "server"), conf)


def test_unknown_conference_is_refused():
    with pytest.raises(UnknownConference):
        server_route(RswMessage(Verb.JOIN, 7, "p1", "server"), None)
    _, conf = fresh_conference(conf_id=7)
    with pytest.raises(UnknownConference):
        server_route(RswMessage(Verb.JOIN, 8, "p1", "server"), conf)


@pytest.mark.parametrize("verb", list(Verb))
def test_every_verb_is_routed_acked_or_refused(verb):
    """On an active conference nothing but an ACK is dropped without a word."""
    _, conf = fresh_conference()
    _, conf = server_route(RswMessage(Verb.JOIN, 7, "p1", "server"), conf)
    try:
        out, conf = server_route(RswMessage(verb, 7, "p1", "server"), conf)
    except RswError:
        return
    if verb is Verb.ACK:
        assert out == []
    else:
        assert out, f"{verb.value} was dropped without a reply"


@given(st.lists(st.tuples(
    st.sampled_from(Verb),
    st.sampled_from(["chair", "p1", "p2", "stranger"]),  # the sender
    st.sampled_from([7, 8]),  # the conference named; the server holds 7
), max_size=12))
def test_a_refused_message_leaves_the_conference_as_it_was(messages):
    _, conf = fresh_conference()
    for verb, sender, conf_id in messages:
        create = verb is Verb.CREATE  # a second CREATE: the server refuses it
        msg = over_wire(RswMessage(verb, conf_id, sender, "p1" if create else "server", MEDIA if create else ""))
        before = copy.deepcopy(conf)
        try:
            _, after = server_route(msg, conf)
        except RswError:
            assert same_state(conf, before)
        else:
            assert after is conf


def test_stray_ack_is_ignored():
    _, conf = fresh_conference()
    out, conf2 = server_route(RswMessage(Verb.ACK, 7, "p1", "server"), conf)
    assert out == []
    assert conf2 is conf
    assert conf.phase is ConferencePhase.CREATING


# -- invitee side -----------------------------------------------------------------


def test_invitee_accepts_with_join_to_server():
    out, _ = fresh_conference(invitees=("p1",))
    invitee = RswInvitee("p1")
    invitee.receive_invitation(out[0])
    reply = invitee.respond()
    assert reply == RswMessage(Verb.JOIN, 7, "p1", "server")


def test_invitee_response_is_single_use():
    out, _ = fresh_conference(invitees=("p1",))
    invitee = RswInvitee("p1")
    invitee.receive_invitation(out[0])
    invitee.respond()
    with pytest.raises(NotInvited):
        invitee.respond()


def test_invitee_cannot_respond_uninvited():
    with pytest.raises(NotInvited):
        RswInvitee("p1").respond()


def test_invitee_rejects_non_invitations():
    with pytest.raises(ValueError):
        RswInvitee("p1").receive_invitation(RswMessage(Verb.ACK, 7, "server", "p1"))


def test_invitee_id_is_validated():
    with pytest.raises(ValueError):
        RswInvitee("bad id")


# -- media ---------------------------------------------------------------------------


def test_rtp_stream_counters_stride():
    tx = RtpTxState(seq=10, timestamp=1000, ssrc=0xABCD, samples_per_frame=160)
    sent = [send_media_rtp(tx, b"x") for _ in range(3)]
    pkts = [decode_rtp(wire) for _, wire in sent]
    assert [seq for seq, _ in sent] == [p[0] for p in pkts] == [10, 11, 12]
    assert [p[1] for p in pkts] == [1000, 1160, 1320]
    assert all(p[2] == 0xABCD for p in pkts)


def test_rtp_counters_wrap():
    tx = RtpTxState(seq=0xFFFE, timestamp=0xFFFFFF60, ssrc=1, samples_per_frame=160)
    seqs, stamps = [], []
    for _ in range(4):
        seq, wire = send_media_rtp(tx, b"")
        assert decode_rtp(wire)[0] == seq
        seqs.append(seq)
        stamps.append(decode_rtp(wire)[1])
    assert seqs == [0xFFFE, 0xFFFF, 0x0000, 0x0001]
    assert stamps == [0xFFFFFF60, 0x00000000, 0x000000A0, 0x00000140]


def test_new_rtp_tx_is_seed_deterministic():
    a = new_rtp_tx(random.Random(5), samples_per_frame=160)
    b = new_rtp_tx(random.Random(5), samples_per_frame=160)
    assert (a.seq, a.timestamp, a.ssrc) == (b.seq, b.timestamp, b.ssrc)
    assert 0 <= a.seq < 1 << 16
    assert 0 <= a.timestamp < 1 << 32
    assert 0 <= a.ssrc < 1 << 32


@pytest.mark.parametrize("phase", [ConferencePhase.CREATING, ConferencePhase.ENDED])
def test_media_requires_active_conference(phase):
    # the RSW bridge drops the chairman's media unless the conference is Active
    sim = Simulator()
    handlers = {"chair": lambda data: None}  # the server's ACKs and the relayed JOIN
    stats = scenarios.MediaStats()
    server = scenarios._RswServerNode(sim, LinkConfig(), stats, scenarios._NO_TRACE)
    create = create_conference("chair", ["p1"], MEDIA, conf_id=1)
    if phase is ConferencePhase.CREATING:
        # the host's invitee joins inside a CREATE's own event, so the Creating record is built here
        server.conf = server_route(create, None)[1]
    else:
        server.handle(encode_rsw(create))
        server.handle(encode_rsw(RswMessage(Verb.END, 1, "chair", "server")))
    sim.run_until_idle(handlers)
    assert server.conf.phase is phase
    seq, wire = send_media_rtp(new_rtp_tx(random.Random(1)), b"x")
    stats._in_flight[seq] = sim.now  # booked as the chairman's media source books it
    server.handle(wire)
    sim.run_until_idle(handlers)
    assert stats.frames_recv == 0


def test_host_invitee_joins_behind_the_ack_for_create():
    # the co-located invitee answers after the server's WAN replies are sent, so
    # the chairman gets the ACK for CREATE first and the relayed JOIN after it
    sim = Simulator()
    heard = []
    handlers = {"chair": lambda data: heard.append((sim.now, decode_rsw(data).verb))}
    server = scenarios._RswServerNode(sim, LinkConfig(), scenarios.MediaStats(), scenarios._NO_TRACE)
    server.handle(encode_rsw(create_conference("chair", ["p1"], MEDIA, conf_id=1)))
    assert server.conf.phase is ConferencePhase.ACTIVE  # joined within the CREATE's event
    sim.run_until_idle(handlers)
    ack_ms = 8 * (25 + 28) / 128  # the 25 B ACK and its 28 B of IP and UDP at 128 kbit/s
    assert heard == [(ack_ms, Verb.ACK), (ack_ms, Verb.JOIN)]


def test_a_reply_to_a_member_off_the_host_is_refused_not_sent_to_the_chairman():
    # the server's one WAN link leads to the chairman; a CREATE for a member it has no route to must not take it
    sim = Simulator()
    heard = []
    handlers = {"chair": lambda data: heard.append(decode_rsw(data).verb)}
    server = scenarios._RswServerNode(sim, LinkConfig(), scenarios.MediaStats(), scenarios._NO_TRACE)
    with pytest.raises(LookupError, match="'p2'"):
        server.handle(encode_rsw(create_conference("chair", ["p1", "p2"], MEDIA, conf_id=1)))
        sim.run_until_idle(handlers)
    sim.run_until_idle(handlers)
    assert Verb.CREATE not in heard


def test_rtp_media_round_trips_the_wire():
    tx = RtpTxState(seq=1, timestamp=2, ssrc=3, samples_per_frame=160)
    seq, wire = send_media_rtp(tx, b"voice!")
    assert wire[0] == 0x80  # version 2, nothing else in byte 0
    assert seq == 1
    assert decode_rtp(wire) == (1, 2, 3, b"voice!", 0, False)


# -- whole lifecycle over the wire -----------------------------------------------------


def test_full_conference_lifecycle():
    msg = create_conference("chair", ["p1", "p2", "p3"], MEDIA, conf_id=3)
    out, conf = server_route(over_wire(msg), None)

    relayed = []
    for invitation in out[:-1]:
        invitee = RswInvitee(invitation.recipient)
        invitee.receive_invitation(over_wire(invitation))
        if invitee.endpoint_id == "p2":
            continue  # p2 is busy elsewhere and never answers
        replies, conf = server_route(over_wire(invitee.respond()), conf)
        relayed.extend(m for m in replies if m.recipient == "chair")

    assert conf.phase is ConferencePhase.ACTIVE
    assert [(m.verb, m.sender) for m in relayed] == [(Verb.JOIN, "p1"), (Verb.JOIN, "p3")]
    assert conf.members["p1"] is MemberStatus.JOINED
    assert conf.members["p2"] is MemberStatus.INVITED
    assert conf.members["p3"] is MemberStatus.JOINED

    tx = new_rtp_tx(random.Random(9))
    seq, wire = send_media_rtp(tx, b"\x00" * 160)
    assert decode_rtp(wire)[0] == seq
    assert decode_rtp(wire)[3] == b"\x00" * 160

    out, conf = server_route(over_wire(RswMessage(Verb.END, 3, "chair", "server")), conf)
    assert conf.phase is ConferencePhase.ENDED
    assert {m.recipient for m in out[1:]} == {"p1", "p3"}
    assert all(m.verb is Verb.END for m in out[1:])
