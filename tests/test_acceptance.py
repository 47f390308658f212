"""Acceptance gate: every shipped guarantee, one test (and PASS/FAIL line) each.

Run with ``pytest -v tests/test_acceptance.py`` to get one PASSED/FAILED
line per criterion.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time

import pytest

from voipsim import (
    CallState,
    ConferencePhase,
    DecodeError,
    FrameKind,
    FullFrame,
    IaxEndpoint,
    NotChairman,
    ProtocolViolation,
    RswMessage,
    Signal,
    SweepConfig,
    TraceLog,
    Verb,
    create_conference,
    decode_full,
    decode_mini,
    decode_rsw,
    decode_rtp,
    emit_csv,
    encode_full,
    encode_mini,
    encode_rsw,
    encode_rtp,
    idd,
    r_to_mos,
    run_sweep,
    score_run,
    server_route,
)
from voipsim.iax import LOCAL_CALL

GRID_POINTS = 81  # 0..2000 ms in 25 ms steps, endpoints included


@pytest.fixture(scope="module")
def default_sweep():
    """The reference sweep, timed once and shared by several criteria."""
    t0 = time.perf_counter()
    result = run_sweep(SweepConfig())
    return result, time.perf_counter() - t0


def mos_curves(rows):
    """{protocol: {configured_delay: mos}} for a sweep's rows."""
    curves: dict[str, dict[float, float]] = {}
    for row in rows:
        curves.setdefault(row.protocol, {})[row.configured_delay_ms] = row.mos
    return curves


def test_criterion_1_full_grid_monotone_mos_and_runtime(default_sweep):
    result, elapsed = default_sweep
    curves = mos_curves(result)
    assert set(curves) == {"IAX", "RSW"}
    for protocol, curve in curves.items():
        delays = sorted(curve)
        assert len(delays) == GRID_POINTS, protocol
        assert delays[0] == 0.0 and delays[-1] == 2000.0
        scores = [curve[d] for d in delays]
        assert all(a >= b for a, b in zip(scores, scores[1:])), protocol
    assert elapsed < 10.0, f"sweep took {elapsed:.2f}s"
    print(f"PASS: criterion 1 — {GRID_POINTS} points/protocol, monotone MOS, {elapsed:.2f}s")


def test_criterion_2_iax_never_scores_below_rsw(default_sweep):
    result, _ = default_sweep
    curves = mos_curves(result)
    gaps = [curves["IAX"][d] - curves["RSW"][d] for d in sorted(curves["IAX"])]
    assert all(gap >= 0.0 for gap in gaps)
    assert max(gaps) <= 0.2

    # on a fast link the header difference stops mattering
    fat_pipe = run_sweep(SweepConfig(link_rate_bps=10**9))
    curves = mos_curves(fat_pipe)
    fat_gaps = [curves["IAX"][d] - curves["RSW"][d] for d in sorted(curves["IAX"])]
    assert all(0.0 <= gap < 1e-3 for gap in fat_gaps)
    print(f"PASS: criterion 2 — max gap {max(gaps):.4f} MOS, {max(fat_gaps):.2e} at 1 Gbps")


def test_criterion_3_scorer_anchor_values():
    assert idd(100.0) == 0.0
    assert r_to_mos(0.0) == 1.0
    assert r_to_mos(100.0) == 4.5
    mos_near = score_run(0.0, 500, 500).mos
    assert mos_near == pytest.approx(4.409285824, abs=0.01)
    mos_far = score_run(2000.0 * 500, 500, 500).mos
    assert mos_far == pytest.approx(2.3214665457621866, abs=0.01)
    print(f"PASS: criterion 3 — anchors exact; mos(0)={mos_near:.3f}, mos(2000)={mos_far:.3f}")


def test_criterion_4_codecs_round_trip_and_never_crash():
    rng = random.Random(0xC0DEC)
    alpha = "abcdefghijklmnopqrstuvwxyz0123456789._-"

    def token():
        return "".join(rng.choice(alpha) for _ in range(rng.randrange(1, 12)))

    for _ in range(10_000):
        if rng.random() < 0.5:
            frame_type, subclass = FrameKind.CONTROL, int(rng.choice(list(Signal)))
        else:
            frame_type, subclass = FrameKind.VOICE, rng.randrange(0x80)
        full = FullFrame(
            source_call=rng.randrange(0x8000),
            dest_call=rng.randrange(0x8000),
            timestamp=rng.randrange(1 << 32),
            oseqno=rng.randrange(256),
            iseqno=rng.randrange(256),
            frame_type=frame_type,
            subclass=subclass,
            payload=rng.randbytes(rng.randrange(24)),
            retransmit=rng.random() < 0.5,
        )
        assert decode_full(encode_full(full)) == full

    for _ in range(10_000):
        mini = (rng.randrange(0x8000), rng.randrange(1 << 16), rng.randbytes(rng.randrange(24)))
        assert decode_mini(encode_mini(*mini)) == mini

    for _ in range(10_000):
        rtp = (
            rng.randrange(1 << 16),  # seq
            rng.randrange(1 << 32),  # timestamp
            rng.randrange(1 << 32),  # ssrc
            rng.randbytes(rng.randrange(24)),  # payload
            rng.randrange(0x80),  # payload_type
            rng.random() < 0.5,  # marker
        )
        assert decode_rtp(encode_rtp(*rtp)) == rtp

    for _ in range(10_000):
        verb = rng.choice(list(Verb))
        if verb is Verb.CREATE:
            body = rng.choice(["codec=pcm", "codec=pcm;frame_ms=20", "a=b c=d"])
        elif verb is Verb.END:
            body = ""
        else:
            body = rng.choice(["", "one", "two words", "k=v;k2=v2"])
        msg = RswMessage(verb, rng.randrange(10**6), token(), token(), body)
        assert decode_rsw(encode_rsw(msg)) == msg

    decoders = (decode_full, decode_mini, decode_rtp, decode_rsw)
    for i in range(100_000):
        blob = rng.randbytes(rng.randrange(32))
        if i % 4 == 0:
            blob = b"RSW/1 " + blob  # push the text decoder past its magic
        elif i % 4 == 1 and blob:
            blob = bytes([blob[0] | 0x80]) + blob[1:]  # look like a full frame
        for decode in decoders:
            try:
                decode(blob)
            except DecodeError:
                pass  # the only exception a decoder may raise
    print("PASS: criterion 4 — 4x10k round-trips, 100k hostile blobs, no crashes")


# The transition relation under test, written out independently: everything
# absent is a protocol violation, and teardown signals work from any state.
# AUTHREQ has no row: no callee challenges, so it is a violation in every state.
CALLER_RELATION = {
    (CallState.WAITING_FOR_RESPONSE, Signal.ACCEPT): CallState.ACCEPTED,
    (CallState.ACCEPTED, Signal.ANSWER): CallState.UP,
}

SETUP_VARIANTS = [
    [Signal.ACCEPT, Signal.ANSWER],
]


def model_step(state, sig):
    if sig in (Signal.REJECT, Signal.HANGUP):
        return CallState.HUNGUP
    return CALLER_RELATION.get((state, sig))


def drive_caller(sequence):
    """Feed a signal sequence to a fresh caller, checking it against the model.

    Returns the final state; stops at the first (verified) violation.
    """
    ep = IaxEndpoint("caller")
    ep.place_call("peer", 0.0)
    cs = ep.call
    state = CallState.WAITING_FOR_RESPONSE
    assert cs.state is state
    for i, sig in enumerate(sequence):
        frame = FullFrame(
            source_call=77,
            dest_call=LOCAL_CALL,
            timestamp=0,
            oseqno=i,
            iseqno=0,
            frame_type=FrameKind.CONTROL,
            subclass=sig,
        )
        expected = model_step(state, sig)
        if expected is None:
            with pytest.raises(ProtocolViolation):
                ep.handle_signal(frame, 0.0)
            assert cs.state is state  # a refused signal must not move the machine
            return state
        replies = ep.handle_signal(frame, 0.0)
        assert cs.state is expected
        assert replies == []  # a caller answers no signal
        assert (cs.peer_call == 0) == (expected is CallState.WAITING_FOR_RESPONSE)  # bound with the leg
        if expected is CallState.UP:
            assert Signal.ACCEPT in sequence[: i + 1]  # no call goes up unaccepted
        state = expected
    return state


def test_criterion_5_exhaustive_short_signal_sequences():
    total = 0
    outcomes = {CallState.UP: 0, CallState.HUNGUP: 0}
    for length in range(1, 6):
        for sequence in itertools.product(list(Signal), repeat=length):
            final = drive_caller(sequence)
            total += 1
            if final in outcomes:
                outcomes[final] += 1
    assert total == sum(9**n for n in range(1, 6))  # 66,429 sequences
    assert outcomes[CallState.UP] > 0 and outcomes[CallState.HUNGUP] > 0
    for variant in SETUP_VARIANTS:
        assert drive_caller(variant) is CallState.UP
    print(f"PASS: criterion 5 — {total} sequences checked against the model")


def test_criterion_6_conference_fanout_and_chairman_authority():
    rng = random.Random(2026)
    for round_no in range(1, 1001):
        n = rng.randint(1, 5)
        invitees = [f"p{i}" for i in range(1, n + 1)]
        out, conf = server_route(create_conference("chair", invitees, "codec=pcm", conf_id=round_no), None)
        invitations = [r for r in out if r.verb is Verb.CREATE]
        assert len(invitations) == n  # exactly one invitation per invitee
        assert {r.recipient for r in invitations} == set(invitees)

        schedule: list[tuple[str, str]] = [("respond", member) for member in rng.sample(invitees, n)]
        for _ in range(rng.randint(1, 3)):
            rogue = rng.choice(invitees + ["stranger"])
            schedule.insert(rng.randint(0, len(schedule)), ("rogue-end", rogue))

        joined = set()
        for op, who in schedule:
            if op == "rogue-end":
                with pytest.raises(NotChairman):
                    server_route(RswMessage(Verb.END, round_no, who, "server"), conf)
            elif rng.random() < 0.5:  # otherwise the invitee never answers
                _, conf = server_route(RswMessage(Verb.JOIN, round_no, who, "server"), conf)
                joined.add(who)
            assert conf.phase is not ConferencePhase.ENDED  # only the chairman ends it

        out, conf = server_route(RswMessage(Verb.END, round_no, "chair", "server"), conf)
        assert conf.phase is ConferencePhase.ENDED
        assert {r.recipient for r in out if r.verb is Verb.END} == joined  # silent invitees get no END
    print("PASS: criterion 6 — 1000 schedules; fan-out exact, rogue ENDs all refused")


def test_criterion_7_timestamp_reconstruction_across_wraps():
    rng = random.Random(7)
    span_needed = 3.2 * 65536  # a good three wraps of the 16-bit media clock
    for _ in range(1000):
        caller, callee = IaxEndpoint("a"), IaxEndpoint("b")
        for f in callee.handle_signal(caller.place_call("b", 0.0), 0.0):
            caller.handle_signal(f, 0.0)
        assert caller.call.state is CallState.UP

        t = 0.0
        wraps_seen = 0
        last_ts = 0
        while t < span_needed:
            t += rng.uniform(50.0, 2000.0)
            sent_ts, wire = caller.send_media(b"", t)
            expected = int(t) & 0xFFFFFFFF
            if wire[0] & 0x80:  # a Voice full frame re-anchors the high bits
                ts, _ = callee.receive_anchor(decode_full(wire))
            else:
                ts, _ = callee.receive_media_frame(wire)
            assert sent_ts == ts == expected
            if ts & 0xFFFF < last_ts & 0xFFFF:
                wraps_seen += 1
            last_ts = ts
        assert wraps_seen >= 3
    print("PASS: criterion 7 — 1000 random cadences reconstructed exactly")


def test_criterion_8_reruns_are_byte_identical(tmp_path):
    outputs = []
    for tag in ("first", "second"):
        csv_path = tmp_path / f"{tag}.csv"
        jsonl_path = tmp_path / f"{tag}.jsonl"
        with open(jsonl_path, "w", encoding="ascii", newline="") as fh:
            result = run_sweep(SweepConfig(), TraceLog(fh))
        emit_csv(result, csv_path)
        outputs.append((csv_path.read_bytes(), jsonl_path.read_bytes()))
    assert outputs[0][0] == outputs[1][0]  # CSV
    assert outputs[0][1] == outputs[1][1]  # JSONL trace
    # golden digests: any change to event order, RNG draws or output bytes shows here
    csv, jsonl = outputs[0]
    assert (len(csv), hashlib.sha256(csv).hexdigest()) == (
        9_269, "a9ae73160b9dc967281eda3401b6444a0e4b79e0f44a3d8180f04f96cc797d9a")
    assert (len(jsonl), hashlib.sha256(jsonl).hexdigest()) == (
        17_750_739, "97aca0d32f662e3fe21324426dc62403173c0c78574c3464196de44512b5e43a")
    size = len(outputs[0][0]) + len(outputs[0][1])
    print(f"PASS: criterion 8 — two runs, {size} bytes, byte-identical")


def test_untraced_default_sweep_writes_the_golden_csv(default_sweep, tmp_path):
    # criterion 8 pins a traced run; the trace must not change what is measured
    result, _ = default_sweep
    csv_path = tmp_path / "untraced.csv"
    emit_csv(result, csv_path)
    csv = csv_path.read_bytes()
    assert (len(csv), hashlib.sha256(csv).hexdigest()) == (
        9_269, "a9ae73160b9dc967281eda3401b6444a0e4b79e0f44a3d8180f04f96cc797d9a")
