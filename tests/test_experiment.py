"""Sweep harness tests: grid, scoring wiring, CSV/JSONL output, CLI."""

from __future__ import annotations

import functools
import gc
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import types
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import LoggedRandom
from voipsim import (
    CSV_HEADER,
    MediaStats,
    MissingProtocol,
    NegativeDelay,
    RunNotEnded,
    SweepConfig,
    TraceLog,
    compare_report,
    emit_csv,
    idd,
    r_to_mos,
    run_iax_call,
    run_scenario,
    run_sweep,
    sweep_points,
)
from voipsim import cli, experiment, forked, scenarios
from voipsim.cli import build_parser, load_config_file, main, resolve_settings
from voipsim.experiment import GAP_BAND_MOS, MAX_RUN_MS, ClockTooCoarse
from voipsim.frames import RTP_HEADER_LEN, DecodeError, RswMessage, Signal, Verb, encode_rsw, encode_rtp
from voipsim.iax import CallState, IaxEndpoint, ProtocolViolation
from voipsim.netsim import LinkConfig, Simulator, serialization_ms
from voipsim.rsw import ConferencePhase, create_conference, server_route

FAST = dict(delay_end_ms=50.0, duration_s=0.5)  # 3 grid points, 25 frames/run


# -- the delay grid -----------------------------------------------------------


def test_default_grid_has_81_points():
    points = sweep_points(SweepConfig())
    assert len(points) == 81
    assert points[0] == 0.0
    assert points[-1] == 2000.0
    assert all(b - a == 25.0 for a, b in zip(points, points[1:]))


def test_degenerate_grid_is_single_point():
    cfg = SweepConfig(delay_start_ms=40.0, delay_end_ms=40.0)
    assert sweep_points(cfg) == [40.0]


def test_grid_never_overshoots_the_end():
    cfg = SweepConfig(delay_start_ms=0.0, delay_end_ms=100.0, delay_step_ms=40.0)
    assert sweep_points(cfg) == [0.0, 40.0, 80.0]


# -- configuration validation ----------------------------------------------------


def test_config_defaults():
    cfg = SweepConfig()
    assert cfg.protocols == ("IAX", "RSW")
    assert cfg.media_frame_count() == 500
    with pytest.raises(AttributeError):  # a refused assignment
        cfg.seed = 2


@pytest.mark.parametrize(
    "config, change, error",
    [
        (SweepConfig(), {"seed": -7}, ValueError),
        (SweepConfig(), {"delay_start_ms": -1.0}, NegativeDelay),
        (LinkConfig(), {"delay_ms": -1.0}, NegativeDelay),
        (LinkConfig(), {"loss_prob": 1.5}, ValueError),
    ],
)
def test_a_replaced_config_is_validated_as_a_new_one(config, change, error):
    with pytest.raises(error):
        config._replace(**change)
    assert type(config._replace()) is type(config)


def test_negative_start_delay_is_typed():
    with pytest.raises(NegativeDelay):
        SweepConfig(delay_start_ms=-1.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(delay_start_ms=100.0, delay_end_ms=50.0),
        dict(delay_step_ms=0.0),
        dict(delay_step_ms=-5.0),
        dict(protocols=()),
        dict(protocols=("SIP",)),
        dict(duration_s=0.0),
        dict(duration_s=-1.0),
        dict(frame_interval_ms=0.5),
        dict(payload_bytes=0),
        dict(payload_bytes=1401),
        dict(link_rate_bps=0),
        dict(duration_s=0.005),  # rounds to zero media frames
        dict(duration_s=2000.0),  # frame count would overflow 16-bit sequencing
        dict(delay_start_ms=float("nan")),
        dict(delay_end_ms=float("inf")),
        dict(delay_end_ms=float("nan")),
        dict(delay_step_ms=float("inf")),
        dict(delay_step_ms=float("nan")),
        dict(duration_s=float("inf")),
        dict(delay_end_ms=1e12),  # 40,000,000,001 delays
        dict(delay_step_ms=1e-9),  # 2,000,000,000,001 delays
        dict(payload_bytes=160.5),
        dict(delay_end_ms=1e308, delay_step_ms=0.1),  # the point count overflows a float
        dict(link_rate_bps=float("nan")),
        dict(link_rate_bps=float("inf")),  # would score a link with no serialization
        dict(link_rate_bps=128_000.0),
        dict(seed=1.5),
        dict(seed=True),
        dict(seed=-1),  # random.Random would seed with abs(seed) and replay seed 1
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SweepConfig(**kwargs)


@pytest.mark.parametrize(
    "name,value",
    [
        ("payload_bytes", 160.5),
        ("link_rate_bps", float("nan")),
        ("link_rate_bps", float("inf")),
        ("link_rate_bps", True),
        ("seed", 1.5),
        ("seed", True),
    ],
)
def test_config_names_a_non_integer_setting(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an int"):
        SweepConfig(**{name: value})


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
@pytest.mark.parametrize(
    "name", ["delay_start_ms", "delay_end_ms", "delay_step_ms", "duration_s", "frame_interval_ms"]
)
def test_config_names_a_non_finite_setting(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SweepConfig(**{name: value})


def test_a_run_just_inside_the_32_bit_clock_is_accepted_and_exact():
    # 50 frames of 20 ms plus one interval, and four trips of the delay plus 12.5 ms,
    # the serialization of a 160 B payload behind a 12-byte header at 128 kbit/s, sum
    # to 1 ms below the clock; the float-error slack of 58 ulps adds under 3e-5 ms
    edge = (MAX_RUN_MS - 1 - 51 * 20 - 4 * 12.5) / 4
    cfg = SweepConfig(delay_start_ms=edge, delay_end_ms=edge, duration_s=1.0, protocols=("IAX",))
    assert MAX_RUN_MS - 1 < cfg.run_horizon_ms(edge) < MAX_RUN_MS - 1 + 3e-5
    report = run_scenario("IAX", edge, cfg)
    assert report.pkts_sent == report.pkts_recv == 50
    # link plus serialization, as at small delays; the media passes 2**31 ms, a change of the
    # timestamp's high 16 bits, so one frame goes out as a full frame, 8 bytes (0.5 ms) longer
    assert report.mean_e2e_delay_ms == (50 * (edge + 12.0) + 0.5) / 50
    # a quarter ms later the sum reaches the clock exactly, and the slack passes it
    with pytest.raises(ValueError, match=f"more than the {MAX_RUN_MS} ms"):
        SweepConfig(delay_start_ms=edge, delay_end_ms=edge + 0.25, duration_s=1.0)


_ROWS_AT_A_BILLION_MS = {
    "IAX": "IAX,1000000000.000,1000000012.000,2000000005.375,50,50,0.000,43.200,2.223",
}


# the IAX 32-bit clock binds IAX runs only; an RSW run's bound is its float clock's resolution
@pytest.mark.parametrize("protocol", ["IAX"])
def test_a_single_run_past_the_32_bit_clock_is_refused_before_it_starts(protocol):
    # the config's grid ends at 2000 ms, so only the run itself can refuse these delays
    cfg = SweepConfig(duration_s=1.0)
    trace = TraceLog(io.StringIO())
    for delay_ms in (3e9, 1e10):
        with pytest.raises(ValueError, match=f"more than the {MAX_RUN_MS} ms"):
            run_scenario(protocol, delay_ms, cfg, trace)
    assert trace.count == 0
    # inside the clock the row is its closed form: setup is two trips of the delay
    # plus the signals' serialization, media one trip
    assert experiment._csv_row(run_scenario(protocol, 1e9, cfg)) == _ROWS_AT_A_BILLION_MS[protocol]


# the run at this delay lasts 2**43 ms less 4 ms: past it the clock steps by 2**-9 ms
_RSW_CLOCK_EDGE_MS = (2**43 - 51 * 20 - 4 * 12.5) / 4 - 1


@pytest.mark.parametrize("delay_ms", [2e9, 1e10, 1e12, _RSW_CLOCK_EDGE_MS])
def test_an_rsw_run_past_the_32_bit_clock_is_its_closed_form(delay_ms):
    # RTP timestamps wrap by design: an RSW-only config or run is not held to the IAX clock.
    # Media is one trip of the delay plus 12.5 ms of serialization, setup two trips plus 7.9375 ms
    cfg = SweepConfig(delay_start_ms=delay_ms, delay_end_ms=delay_ms, duration_s=1.0, protocols=("RSW",))
    row = f"RSW,{delay_ms:.3f},{delay_ms + 12.5:.3f},{2 * delay_ms + 7.9375:.3f},50,50,0.000,43.200,2.223"
    assert experiment._csv_row(run_scenario("RSW", delay_ms, cfg)) == row
    assert experiment._csv_row(run_scenario("RSW", delay_ms, SweepConfig(duration_s=1.0))) == row
    with pytest.raises(ValueError, match=f"more than the {MAX_RUN_MS} ms"):
        cfg._replace(protocols=("IAX", "RSW"))  # with IAX in it, the grid is held to the IAX clock


def test_a_run_whose_clock_cannot_resolve_a_microsecond_is_refused():
    edge = _RSW_CLOCK_EDGE_MS
    cfg = SweepConfig(delay_start_ms=edge, delay_end_ms=edge, duration_s=1.0, protocols=("RSW",))
    assert math.ulp(cfg.run_horizon_ms(edge)) < 1e-3
    for delay_ms in (edge + 2, 1e14):
        with pytest.raises(ClockTooCoarse, match="more than 0.001 ms"):
            cfg._replace(delay_start_ms=delay_ms, delay_end_ms=delay_ms)
        trace = TraceLog(io.StringIO())
        with pytest.raises(ClockTooCoarse):
            run_scenario("RSW", delay_ms, cfg, trace)  # a run alone, before it starts
        assert trace.count == 0


def test_cli_runs_an_rsw_sweep_past_the_32_bit_clock_and_refuses_one_past_a_microsecond(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["--protocol", "rsw", "--delay-start", "2e9", "--delay-end", "2e9", "--duration", "1"]) == 0
    assert (tmp_path / "sweep.csv").read_text(encoding="ascii").splitlines()[1:] == [
        "RSW,2000000000.000,2000000012.500,4000000007.938,50,50,0.000,43.200,2.223"
    ]
    (tmp_path / "sweep.csv").unlink()
    capsys.readouterr()
    assert main(["--protocol", "rsw", "--delay-start", "1e14", "--delay-end", "1e14", "--duration", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("voipsim: error:") and "more than 0.001 ms" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "sweep.csv").exists()


@st.composite
def _schedules(draw):
    """Settings across the accepted range; the interval and the delay leave the run inside the clock."""
    frames = draw(st.sampled_from([1, 65_535]) | st.integers(1, 200) | st.integers(1, 65_535))
    most_ms = min(100_000.0, MAX_RUN_MS / (frames + 2))
    frame_ms = draw(st.sampled_from([x for x in (3.1, 65000.3) if x <= most_ms]) | st.floats(1.0, most_ms))
    delay = draw(st.floats(0.0, min(1e9, (MAX_RUN_MS - (frames + 2) * frame_ms) / 4)))
    return frames, frame_ms, delay


@settings(max_examples=25, deadline=None)
@given(
    protocol=st.sampled_from(["IAX", "RSW"]),
    schedule=_schedules(),
    link_rate=st.sampled_from([1, 10**12]) | st.integers(1, 10**12),
    payload=st.integers(1, 1400),
)
# 65,535 ticks summed in floats end 3.9e-6 ms (8,380 ulps) below their exact sum
@example(protocol="RSW", schedule=(65535, 34.96157823002068, 0.0), link_rate=10**12, payload=1)
def test_every_run_ends_inside_its_horizon(protocol, schedule, link_rate, payload):
    frames, frame_ms, delay = schedule
    try:
        cfg = SweepConfig(
            delay_start_ms=delay, delay_end_ms=delay, duration_s=frames * frame_ms / 1000,
            frame_interval_ms=frame_ms, payload_bytes=payload, link_rate_bps=link_rate,
        )
    except ValueError:  # the rounded frame count or the serialization passes a limit
        assume(False)
    horizon = cfg.run_horizon_ms(delay)
    create = encode_rsw(create_conference("chair", ["p1"], f"codec=pcm;frame_ms={frame_ms:g}"))
    ser = serialization_ms(LinkConfig(link_rate_bps=link_rate), max(len(create), RTP_HEADER_LEN + payload))
    ends = []
    with pytest.MonkeyPatch.context() as mp:
        real_run = scenarios._run
        mp.setattr(scenarios, "_run", lambda *args: ends.append(real_run(*args)))
        run_scenario(protocol, delay, cfg)
    (end,) = ends
    # IAX ends three trips after its last interval, RSW four trips after its frames
    slack = (cfg.media_frame_count() + 8) * math.ulp(horizon)
    # the horizon may exceed the float end by the end's own rounding too, at most one more slack
    assert end <= horizon <= end + frame_ms + delay + 4 * ser + 2 * slack


# -- single-scenario runs ------------------------------------------------------------


def test_iax_run_delay_is_exactly_link_plus_serialization():
    # 164-byte media frames at 128 kbps serialize in 12.0 ms, so every
    # measured delay is the configured 25 plus 12 with no float fuzz.
    report = run_scenario("IAX", 25.0)
    assert report.mean_e2e_delay_ms == 37.0
    assert report.pkts_sent == 500
    assert report.pkts_recv == 500
    assert report.loss_fraction == 0.0
    assert report.r_factor == 93.2 - idd(37.0)
    assert report.mos == r_to_mos(report.r_factor)
    assert report.protocol == "IAX"
    assert report.configured_delay_ms == 25.0


def test_rsw_run_carries_rtp_header_overhead():
    # 172-byte RTP packets serialize in 12.5 ms: half a millisecond more.
    report = run_scenario("RSW", 25.0)
    assert report.mean_e2e_delay_ms == 37.5
    assert report.pkts_sent == 500
    assert report.pkts_recv == 500
    assert report.loss_fraction == 0.0


def test_rsw_bridge_relays_media_only_in_an_active_conference():
    # the bridge, not the sender, holds media back until the invitee has joined and after END
    sim = Simulator()
    handlers = {"chair": lambda data: None}  # the server's ACKs and the relayed JOIN
    records = io.StringIO()
    server = scenarios._RswServerNode(sim, LinkConfig(), MediaStats(), TraceLog(records))
    rtp = encode_rtp(seq=1, timestamp=2, ssrc=3, payload=b"voice")
    relayed = []
    for phase in (None, ConferencePhase.CREATING, ConferencePhase.ACTIVE, ConferencePhase.ENDED):
        if phase is ConferencePhase.CREATING:
            # the host's invitee joins inside a CREATE's own event, so the Creating record is built here
            server.conf = server_route(create_conference("chair", ["p1"], "codec=pcm"), None)[1]
        elif phase is ConferencePhase.ACTIVE:
            server.handle(encode_rsw(RswMessage(Verb.JOIN, 1, "p1", "server")))
        elif phase is ConferencePhase.ENDED:
            server.handle(encode_rsw(RswMessage(Verb.END, 1, "chair", "server")))
        sim.run_until_idle(handlers)
        assert (None if server.conf is None else server.conf.phase) is phase
        dispatched = sim.dispatched
        server.handle(rtp)
        relayed.append(records.getvalue().count('"kind":"deliver"'))  # a relay is done when handle returns
        sim.run_until_idle(handlers)
        assert sim.dispatched == dispatched  # and media queues no event
    assert relayed == [0, 0, 1, 1]


def test_events_dispatched_per_run_at_200_ms(monkeypatch):
    # 500 frames at the defaults.  The RSW invitee sits on the server's host and
    # is reached by direct calls: relayed media used to cost a queued hop per
    # frame (1,510 events), and the invitation, JOIN, ACK and END 4 more (1,010).
    sims = []

    class CountedSimulator(Simulator):
        def __init__(self, seed):
            super().__init__(seed)
            sims.append(self)

    monkeypatch.setattr(scenarios, "Simulator", CountedSimulator)
    scenarios.run_iax_call(200.0, SweepConfig())
    scenarios.run_rsw_conference(200.0, SweepConfig())
    assert [sim.dispatched for sim in sims] == [1_006, 1_006]


def test_unimpaired_runs_make_no_call_on_the_simulators_rng(monkeypatch):
    # no send of an unimpaired run draws, so each run leaves its RNG as the seed left it
    sims = []

    class WatchedSimulator(Simulator):
        def __init__(self, seed):
            super().__init__(seed)
            self.rng = LoggedRandom(seed)
            sims.append(self)

    monkeypatch.setattr(scenarios, "Simulator", WatchedSimulator)
    cfg = SweepConfig(duration_s=1.0)
    scenarios.run_iax_call(200.0, cfg)
    scenarios.run_rsw_conference(200.0, cfg)
    assert len(sims) == 2
    for sim in sims:
        assert sim.rng.calls == []
        assert sim.rng.getstate() == random.Random(cfg.seed).getstate()


def _python_calls(run, duration_s: float) -> int:
    """Python-level function calls made by one run at 200 ms."""
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # no collection inside the count: hypothesis hooks a Python callback into every one
    gc.disable()
    sys.setprofile(count)
    try:
        run(200.0, SweepConfig(duration_s=duration_s))
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


@pytest.mark.parametrize("run, budget", [(run_iax_call, 10), (scenarios.run_rsw_conference, 11)])
def test_python_calls_per_counted_frame(run, budget):
    # a 2 s run sends 50 more 20 ms frames than a 1 s run; everything else is the same.
    # Media crosses both stacks as wire bytes, with no packet object and no call per field check.
    # An untraced run makes no trace call; the RSW server's relay is bound as one callable that
    # decodes the RTP and hands its seq on, one call more than the IAX callee's inline arrival
    per_frame = (_python_calls(run, 2) - _python_calls(run, 1)) / 50
    assert per_frame <= budget


def _relays_are_delivered_at_once(jsonl: str) -> int:
    """Relay records in an RSW trace; each must be followed at once by its delivery."""
    records = [json.loads(line) for line in jsonl.splitlines()]
    relays = 0
    for i, rec in enumerate(records):
        if rec["kind"] == "relay":
            nxt = records[i + 1] if i + 1 < len(records) else None
            assert nxt is not None and nxt["kind"] == "deliver" and nxt["t"] == rec["t"], (rec, nxt)
            assert (nxt["scenario"], nxt["dst"]) == (rec["scenario"], rec["dst"])
            relays += 1
    return relays


@settings(max_examples=40, deadline=None)
@given(
    eighths=st.integers(0, 4000),
    tie=st.booleans(),
    ticks=st.integers(0, 100),
    frame_ms=st.integers(1, 40),
    payload=st.integers(1, 400),
    frames=st.integers(1, 30),
)
def test_every_relay_is_delivered_in_the_same_instant(eighths, tie, ticks, frame_ms, payload, frames):
    # a tie puts each packet's arrival at the server on a later chairman tick
    rtp_ms = serialization_ms(LinkConfig(), payload + RTP_HEADER_LEN)
    delay = ticks * frame_ms - rtp_ms if tie else eighths / 8
    assume(delay >= 0)
    cfg = SweepConfig(duration_s=frames * frame_ms / 1000, frame_interval_ms=frame_ms, payload_bytes=payload)
    trace = TraceLog(io.StringIO())
    stats = scenarios.run_rsw_conference(delay, cfg, trace)
    # a frame the chairman's END overtakes on a slow link is dropped unrelayed
    assert _relays_are_delivered_at_once(trace.stream.getvalue()) == stats.frames_recv


def test_setup_time_crosses_the_link_twice():
    for protocol in ("IAX", "RSW"):
        at_zero = run_scenario(protocol, 0.0, SweepConfig(**FAST))
        at_40 = run_scenario(protocol, 40.0, SweepConfig(**FAST))
        assert at_zero.setup_time_ms > 0.0
        assert at_40.setup_time_ms == at_zero.setup_time_ms + 80.0


def test_iax_setup_time_at_zero_delay():
    # NEW (18 B) then ACCEPT (12 B) at 128 kbps: 2.875 + 2.5 ms of wire,
    # with ANSWER overlapping ACCEPT's arrival processing.
    report = run_scenario("IAX", 0.0, SweepConfig(**FAST))
    assert report.setup_time_ms == 5.375


def test_higher_delay_never_raises_the_score():
    cfg = SweepConfig(**FAST)
    near = run_scenario("IAX", 0.0, cfg)
    far = run_scenario("IAX", 2000.0, cfg)
    assert far.mos < near.mos
    assert far.mean_e2e_delay_ms == 2012.0


def test_unknown_protocol_is_refused():
    with pytest.raises(ValueError, match="unknown protocol"):
        run_scenario("SIP", 0.0)


@pytest.mark.parametrize(
    "protocol, traced",
    [("IAX", True), ("RSW", True), ("IAX", False), ("RSW", False)],
    ids=["IAX", "RSW", "IAX-untraced", "RSW-untraced"],
)
def test_finished_run_is_freed_without_the_cycle_collector(protocol, traced):
    # the two modes bind different per-packet paths; neither may hold its node
    cfg = SweepConfig(duration_s=0.5)
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        run_scenario(protocol, 100.0, cfg, TraceLog(io.StringIO()) if traced else None)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


# -- per-run media measurements -------------------------------------------------------


@given(st.data())
def test_media_stats_match_the_sent_list_and_arrival_dict_they_replace(data):
    # The reference is the record MediaStats replaced: a (key, send time) per
    # counted frame, the first arrival per key, and the delays in send order.
    keys = data.draw(st.lists(st.integers(0, 0xFFFFFFFF), unique=True, max_size=30))
    copies = data.draw(st.lists(st.integers(0, 3), min_size=len(keys), max_size=len(keys)))  # 0: lost
    strays = data.draw(st.lists(st.integers(0, 0xFFFFFFFF).filter(lambda k: k not in keys), max_size=4))
    in_order = data.draw(st.booleans())  # the wire keeps send order, as an unimpaired link does
    times = st.floats(min_value=0.0, max_value=1e7)
    sent: list[tuple[int, float]] = []
    send_time: dict[int, float] = {}
    recv: dict[int, float] = {}
    arrival_sum = 0.0  # first-arrival delays added left to right, in arrival order
    stats = MediaStats()
    pending = list(strays)  # copies on the wire
    next_frame = 0
    while next_frame < len(keys) or pending:
        now = data.draw(times)
        if next_frame < len(keys) and (not pending or data.draw(st.booleans())):
            key = keys[next_frame]
            sent.append((key, now))
            send_time[key] = now
            stats._in_flight[key] = now  # what the media source's loop does per counted frame
            stats.frames_sent += 1
            pending.extend([key] * copies[next_frame])
            next_frame += 1
        else:
            key = pending.pop(0 if in_order else data.draw(st.integers(0, len(pending) - 1)))
            if key in send_time and key not in recv:
                arrival_sum += now - send_time[key]
            recv.setdefault(key, now)
            stats._arrived(key, now)
        expected = [recv[k] - t for k, t in sent if k in recv]
        assert (stats.frames_sent, stats.frames_recv) == (len(sent), len(expected))
        assert stats.delay_sum.hex() == arrival_sum.hex()
        if in_order and sys.version_info < (3, 12):
            # sum() adds left to right before 3.12, so this is the parent's mean's numerator
            assert stats.delay_sum.hex() == sum(expected, 0.0).hex()


def test_media_stats_hold_the_same_memory_for_a_tenfold_longer_run():
    # What a finished run's MediaStats holds is the memory its release frees.
    # Slack, 64 B: the counters and the sum are one object each whatever the
    # frame count, and the in-flight map is sized by the frames in flight at
    # once (15 here), which the run length does not change; 64 B covers an int
    # counter's extra 4 B digit and allocator rounding.  The 5,400 extra frames
    # would need 1 B each to show 84 times over; a float per frame held ~173 KB.
    def held(duration_s: float) -> int:
        cfg = SweepConfig(duration_s=duration_s, frame_interval_ms=10.0, payload_bytes=10)
        run_iax_call(150.0, cfg)  # first-use caches are not the run's
        gc.collect()
        tracemalloc.start()
        try:
            stats = run_iax_call(150.0, cfg)
            assert stats.frames_sent == stats.frames_recv == cfg.media_frame_count()
            gc.collect()
            with_stats = tracemalloc.get_traced_memory()[0]
            del stats
            gc.collect()
            return with_stats - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    short, long = held(6.0), held(60.0)
    assert 0 < short < 4096, short
    assert abs(long - short) <= 64, (short, long)


# -- the sweep --------------------------------------------------------------------


@pytest.fixture(scope="module")
def fast_sweep():
    trace = TraceLog(io.StringIO())
    return run_sweep(SweepConfig(**FAST), trace), trace


def test_sweep_rows_are_sorted_by_protocol_then_delay(fast_sweep):
    rows, _ = fast_sweep
    keys = [(r.protocol, r.configured_delay_ms) for r in rows]
    assert keys == [
        ("IAX", 0.0),
        ("IAX", 25.0),
        ("IAX", 50.0),
        ("RSW", 0.0),
        ("RSW", 25.0),
        ("RSW", 50.0),
    ]


def test_sweep_deduplicates_protocols():
    rows = run_sweep(SweepConfig(protocols=("IAX", "IAX"), **FAST))
    assert [r.protocol for r in rows] == ["IAX"] * 3


def test_protocol_order_in_config_does_not_matter():
    swapped = run_sweep(SweepConfig(protocols=("RSW", "IAX"), **FAST))
    assert [r.protocol for r in swapped] == ["IAX"] * 3 + ["RSW"] * 3


# -- CSV ------------------------------------------------------------------------------


_FLOAT3 = re.compile(r"^\d+\.\d{3}$")


def test_csv_layout(fast_sweep, tmp_path):
    result, _ = fast_sweep
    path = tmp_path / "sweep.csv"
    emit_csv(result, path)
    text = path.read_text(encoding="ascii")
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 6
    for line in lines[1:]:
        protocol, delay, mean, setup, sent, recv, loss, r, mos = line.split(",")
        assert protocol in ("IAX", "RSW")
        for value in (delay, mean, setup, loss, r, mos):
            assert _FLOAT3.match(value), line
        assert sent.isdigit() and recv.isdigit()
        assert 1.0 <= float(mos) <= 4.5


def test_csv_first_data_row_frozen(fast_sweep, tmp_path):
    result, _ = fast_sweep
    path = tmp_path / "sweep.csv"
    emit_csv(result, path)
    first = path.read_text(encoding="ascii").splitlines()[1]
    assert first == "IAX,0.000,12.000,5.375,25,25,0.000,93.200,4.409"


# -- JSONL trace -----------------------------------------------------------------------


def test_trace_is_json_lines(fast_sweep):
    _, trace = fast_sweep
    text = trace.stream.getvalue()
    assert text.isascii() and text.endswith("\n")
    lines = text.splitlines()
    assert len(lines) == trace.count
    labels = set()
    for line in lines:
        record = json.loads(line)
        assert " " not in line  # compact separators
        labels.add(record["scenario"])
        assert "t" in record and "kind" in record
    assert labels == {f"{p}:{d:g}" for p in ("IAX", "RSW") for d in (0, 25, 50)}


def test_trace_record_needs_a_time_and_a_kind():
    trace = TraceLog(io.StringIO())
    trace.begin("IAX:0")
    with pytest.raises(TypeError):
        trace.add()  # would write '{"scenario":"IAX:0",}'
    trace.add(0.0, "state")
    assert json.loads(trace.stream.getvalue()) == {"scenario": "IAX:0", "t": 0.0, "kind": "state"}
    assert trace.count == 1


_NAMES = st.text(max_size=6) | st.sampled_from(['"', "\\", 'a"\\b', "\u00e9\u20ac", "\U0001f4de", "\x00\n"])
_TAKEN_KEYS = {"scenario", "t", "kind", "src", "dst"}


_TIMES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 123456789012345678.0]
)


def _begun(label: str, count: int = 2) -> list[TraceLog]:
    traces = [TraceLog(io.StringIO()) for _ in range(count)]
    for trace in traces:
        trace.begin(label)
    return traces


@given(
    label=_NAMES,
    t=_TIMES,
    kind=_NAMES,
    fields=st.dictionaries(st.sampled_from(["src", "dst"]), _NAMES),
    key=st.sampled_from(["ts", "seq"]) | _NAMES.filter(lambda k: k not in _TAKEN_KEYS | {"bytes"}),
    value=st.integers(),
    size=st.integers(min_value=0, max_value=1 << 16),
)
def test_packet_record_is_the_line_add_writes(label, t, kind, fields, key, value, size):
    # the writers _traced binds: an arrival (value, now) for any key but "bytes", and a
    # send (sim, data) for "bytes", which records len(data)
    sim, data = types.SimpleNamespace(now=t), bytes(size)
    for name, number, args in ((key, value, (value, t)), ("bytes", size, (sim, data))):
        by_add, by_writer = _begun(label)
        by_add.add(t, kind, **fields, **{name: number})
        writer = scenarios._traced(by_writer, lambda *forwarded: forwarded, kind, name, **fields)
        assert writer(*args) == args  # each call reaches forward, and returns its result
        line = by_writer.stream.getvalue()
        assert line == by_add.stream.getvalue()
        assert by_writer.count == by_add.count == 1
        assert json.loads(line) == {"scenario": label, "t": t, "kind": kind, **fields, name: number}


@given(label=_NAMES, t=_TIMES, seq=st.integers(0, 0xFFFF), size=st.integers(0, 1400))
def test_bridge_writes_the_relay_and_deliver_lines_add_writes(label, t, seq, size):
    by_add, by_bridge = _begun(label)
    data = encode_rtp(seq=seq, timestamp=7, ssrc=3, payload=bytes(size))
    by_add.add(t, "relay", src="server", dst="p1", bytes=len(data))
    by_add.add(t, "deliver", dst="p1", seq=seq)
    arrivals = []
    relay = scenarios._bridge(by_bridge, lambda *arrival: arrivals.append(arrival))
    relay(types.SimpleNamespace(now=t), data)
    assert arrivals == [(seq, t)]
    assert by_bridge.stream.getvalue() == by_add.stream.getvalue()
    assert by_bridge.count == by_add.count == 2


def test_bridge_writes_no_record_of_a_packet_it_cannot_decode():
    (trace,) = _begun("RSW:0", 1)
    relay = scenarios._bridge(trace, lambda *arrival: pytest.fail("an undecodable packet arrived"))
    with pytest.raises(DecodeError):
        relay(types.SimpleNamespace(now=1.0), b"\x80")
    assert (trace.stream.getvalue(), trace.count) == ("", 0)


def test_fast_sweep_matches_golden_digests(tmp_path, capsys):
    # a small seeded sweep pinned byte for byte: event order, RNG draws and
    # both writers must all stay as they are
    out, trace = tmp_path / "fast.csv", tmp_path / "fast.jsonl"
    argv = ["--delay-end", "50", "--duration", "0.5", "--seed", "7", "--out", str(out), "--trace", str(trace)]
    assert main(argv) == 0
    capsys.readouterr()
    digests = [(len(b), hashlib.sha256(b).hexdigest()) for b in (out.read_bytes(), trace.read_bytes())]
    assert digests == [
        (395, "5d9effa5b33333641989aad32c3ee749c5ccb0ea757220a6b961d51b9556715f"),
        (36_600, "4ba23b677278cebdf979b41fea6621a461827f1ed12389278c2d63006f4d3603"),
    ]


def test_relay_tie_grid_matches_golden_digests(tmp_path, capsys):
    # at delay 7.5 + 20k ms a 172-byte RTP packet (12.5 ms of wire) reaches the
    # server at the instant of a chairman tick.  Its delivery follows the relay
    # straight away, ahead of that tick's records: the CSV is the bytes the
    # queued co-located hop gave, the trace the same records reordered within
    # those instants.
    out, trace = tmp_path / "tie.csv", tmp_path / "tie.jsonl"
    argv = ["--delay-start", "7.5", "--delay-end", "207.5", "--delay-step", "20", "--duration", "2",
            "--out", str(out), "--trace", str(trace)]
    assert main(argv) == 0
    capsys.readouterr()
    csv, jsonl = out.read_bytes(), trace.read_bytes()
    assert len(csv.splitlines()) == 23
    assert hashlib.sha256(csv).hexdigest() == "0c6e388fa21afe7a044d6c7406d4b298b98e7302bf0af87514556bd59f4f5be8"
    assert hashlib.sha256(jsonl).hexdigest() == "e5b415a06b386919058b2ffe04f9a5883d157eb9a306b210310a1a003185394e"
    assert _relays_are_delivered_at_once(jsonl.decode("ascii")) == 11 * 100


def test_iax_tie_grid_matches_golden_digests(tmp_path, capsys):
    # at delay 8 + 20k ms a 164-byte mini frame (12 ms of wire) reaches the callee
    # at the instant of the caller's next tick.  The arrival was queued by the
    # tick before, so its delivery comes first, then that tick's frame.
    out, trace = tmp_path / "tie.csv", tmp_path / "tie.jsonl"
    argv = ["--protocol", "iax", "--delay-start", "8", "--delay-end", "208", "--delay-step", "20",
            "--duration", "2", "--out", str(out), "--trace", str(trace)]
    assert main(argv) == 0
    capsys.readouterr()
    csv, jsonl = out.read_bytes(), trace.read_bytes()
    assert len(csv.splitlines()) == 12
    assert hashlib.sha256(csv).hexdigest() == "e87123bd5d6f35b660c1931c0b08c0ed5625dd30458f6a6366980b84a4103734"
    assert hashlib.sha256(jsonl).hexdigest() == "d923112a751f973ec55c8cb924e569c357beb4090e6c647ba171fea46015f360"
    records = [json.loads(line) for line in jsonl.splitlines()]
    ties = sum(a["kind"] == "deliver" and b["kind"] == "media" and (a["scenario"], a["t"]) == (b["scenario"], b["t"])
               for a, b in zip(records, records[1:]))
    assert ties == 1_034


def test_repeated_sweep_is_byte_identical(tmp_path):
    cfg = SweepConfig(delay_end_ms=25.0, duration_s=0.5)
    blobs = []
    for tag in ("a", "b"):
        trace = TraceLog(io.StringIO())
        result = run_sweep(cfg, trace)
        csv_path = tmp_path / f"{tag}.csv"
        emit_csv(result, csv_path)
        blobs.append((csv_path.read_bytes(), trace.stream.getvalue()))
    assert blobs[0] == blobs[1]


def _traced_sweep_peak_bytes(points: int) -> int:
    cfg = SweepConfig(delay_end_ms=25.0 * (points - 1), duration_s=0.5)
    with open(os.devnull, "w", encoding="ascii") as sink:
        tracemalloc.start()
        try:
            run_sweep(cfg, TraceLog(sink))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_traced_sweep_memory_stays_flat_as_the_grid_grows():
    # records go to the stream as they happen, so only one run's state and a
    # row per run are alive at once; records kept in memory would grow the
    # peak nearly in step with the grid (about 3.8x from 2 to 8 points)
    small, large = _traced_sweep_peak_bytes(2), _traced_sweep_peak_bytes(8)
    assert large < 1.5 * small, (small, large)


_IMPAIRMENTS = {
    # IAX still raises StaleFrame under reordering and jitter (ROADMAP item 4)
    "IAX": [dict(loss_prob=0.05), dict(dup_prob=0.05)],
    "RSW": [dict(loss_prob=0.05), dict(dup_prob=0.05), dict(reorder_prob=0.05), dict(jitter_ms=30.0)],
}


def _runs_traced_and_not(protocol):
    """(untraced report, traced report, trace text) at 3 delays x 3 seeds."""
    runs = []
    for seed in (1, 2, 3):
        cfg = SweepConfig(duration_s=1.0, seed=seed)
        for delay_ms in (0.0, 150.0, 400.0):
            trace = TraceLog(io.StringIO())
            traced = run_scenario(protocol, delay_ms, cfg, trace)
            runs.append((run_scenario(protocol, delay_ms, cfg), traced, trace.stream.getvalue()))
    return runs


@pytest.mark.parametrize(
    "protocol,impairment", [(p, i) for p, kinds in _IMPAIRMENTS.items() for i in kinds], ids=repr
)
def test_tracing_never_changes_an_impaired_run(protocol, impairment, monkeypatch):
    # the golden digests cover unimpaired links only; no setting reaches the
    # impairments yet, so the scenarios' link is patched to carry them
    clean = _runs_traced_and_not(protocol)
    monkeypatch.setattr(scenarios, "LinkConfig", functools.partial(LinkConfig, **impairment))
    impaired = _runs_traced_and_not(protocol)
    for untraced, traced, _text in impaired:
        assert traced == untraced
    # the patch reached the runs: some trace differs from the clean link's
    assert [text for *_, text in impaired] != [text for *_, text in clean]


@pytest.mark.parametrize("protocol, size, digest", [
    ("RSW", 27_821, "7bdd8f99f0c03656198648ec62e2a9674dd789520938cbcab58bf2707d217a7a"),
    ("IAX", 18_351, "3eae023b71173fd4e2e1e0f37c21c223f8d6dd7c51cc21aeb938ee55deb38f25"),
])
def test_traced_duplicating_link_matches_golden_digests(protocol, size, digest, monkeypatch):
    # a duplicate copy passes through the receiver's trace writer a second time; the other
    # golden digests cover unimpaired links only, so the scenarios' link is patched
    monkeypatch.setattr(scenarios, "LinkConfig", functools.partial(LinkConfig, dup_prob=0.05))
    trace = TraceLog(io.StringIO())
    run_scenario(protocol, 150.0, SweepConfig(duration_s=2.0, seed=3), trace)
    text = trace.stream.getvalue().encode("ascii")
    assert text.count(b'"kind":"deliver"') > text.count(b'"kind":"media"')  # some copy arrived twice
    assert (len(text), hashlib.sha256(text).hexdigest()) == (size, digest)


def _lost_frames(run, delay_ms: float, cfg: SweepConfig) -> set[int]:
    """The ordinals of the counted frames a run lost: those left in flight, from their send times."""
    stats = run(delay_ms, cfg)
    # the first counted tick: one interval after setup for IAX, which sends its uncounted
    # anchor at setup, and at setup for RSW
    first = stats.setup_ms + (cfg.frame_interval_ms if run is run_iax_call else 0.0)
    lost = {round((sent - first) / cfg.frame_interval_ms) for sent in stats._in_flight.values()}
    assert len(lost) == stats.frames_sent - stats.frames_recv  # nothing arrives after the run
    return lost


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    loss=st.floats(0.01, 0.5),
    delays=st.lists(st.floats(0.0, 1500.0), min_size=2, max_size=2),
)
@example(seed=1, loss=0.05, delays=[200.0, 0.0])
def test_both_protocols_lose_the_same_frames_at_any_delay(seed, loss, delays):
    # each counted frame takes the same four draws in both protocols (common random numbers),
    # so at one seed IAX and RSW lose the same frames, and the delay moves none of them
    cfg = SweepConfig(duration_s=2.0, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "LinkConfig", functools.partial(LinkConfig, loss_prob=loss))
        lost = [_lost_frames(run, delay_ms, cfg) for delay_ms in delays
                for run in (run_iax_call, scenarios.run_rsw_conference)]
    assert all(frames == lost[0] for frames in lost[1:]), lost


# -- the sweep across processes ---------------------------------------------------------

ODD_GRID = dict(delay_end_ms=100.0, duration_s=0.5)  # 5 delays x 2 protocols


def _traced_sweep_with_workers(workers, monkeypatch, tmp_path):
    """(CSV bytes, or the error raised; the trace) of the odd grid on *workers* processes."""
    monkeypatch.setattr(experiment, "_worker_count", lambda runs: min(workers, runs))
    trace = TraceLog(io.StringIO())
    try:
        result = run_sweep(SweepConfig(**ODD_GRID), trace)
    except Exception as exc:
        return exc, trace
    csv_path = tmp_path / f"workers{workers}.csv"
    emit_csv(result, csv_path)
    return csv_path.read_bytes(), trace


def test_sweep_writes_the_same_bytes_over_any_worker_count(monkeypatch, tmp_path):
    outputs = []
    for workers in (1, 2, 3):
        csv, trace = _traced_sweep_with_workers(workers, monkeypatch, tmp_path)
        outputs.append((csv, trace.stream.getvalue(), trace.count))
    # a run's records (about 6 KB) fit in one copy chunk; at 7 bytes a chunk the
    # parent copies each run in many reads that split records and lines
    monkeypatch.setattr(forked, "_COPY_CHUNK", 7)
    for workers in (2, 3):
        csv, trace = _traced_sweep_with_workers(workers, monkeypatch, tmp_path)
        outputs.append((csv, trace.stream.getvalue(), trace.count))
    assert outputs[0][2] == len(outputs[0][1].splitlines()) > 0
    for output in outputs[1:]:
        assert output == outputs[0]


def test_the_cli_imports_neither_dataclasses_nor_the_forked_sweep():
    # dataclasses would pull in inspect, ast and dis, about 1 MiB of every run's peak memory;
    # voipsim.forked is imported only when a sweep forks
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    probe = "import sys, voipsim.cli; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    modules = set(loaded.stdout.split())
    assert "voipsim.cli" in modules
    assert not modules & {"dataclasses", "inspect", "ast", "dis", "voipsim.forked"}


def test_forked_sweep_raises_the_earliest_failing_run(monkeypatch, tmp_path, capsys):
    # IAX:75 (run 3) fails first in grid order and RSW:25 (run 6) later, whichever worker takes each
    real = dict(experiment._RUNNERS)

    def failing(protocol):
        def runner(delay_ms, cfg, trace=None):
            stats = real[protocol](delay_ms, cfg, trace)  # the failing run's records reach the trace
            if (protocol, delay_ms) == ("IAX", 75.0):
                raise ValueError("boom at IAX:75")
            if (protocol, delay_ms) == ("RSW", 25.0):
                raise ZeroDivisionError("a later run's failure")
            return stats

        return runner

    for protocol in real:
        monkeypatch.setitem(experiment._RUNNERS, protocol, failing(protocol))
    serial, serial_trace = _traced_sweep_with_workers(1, monkeypatch, tmp_path)
    forked, forked_trace = _traced_sweep_with_workers(2, monkeypatch, tmp_path)
    assert type(forked) is ValueError and str(forked) == "boom at IAX:75"
    assert (type(serial), str(serial)) == (ValueError, "boom at IAX:75")
    assert forked_trace.stream.getvalue() == serial_trace.stream.getvalue()
    assert forked_trace.count == serial_trace.count

    out = tmp_path / "failed.csv"
    assert main(["--delay-end", "100", "--duration", "0.5", "--out", str(out)]) == 2
    assert "boom at IAX:75" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every worker was reaped


def test_forked_sweep_reports_an_error_that_cannot_cross_processes(monkeypatch, tmp_path):
    def runner(delay_ms, cfg, trace=None):
        raise ProtocolViolation(CallState.UP, Signal.NEW)  # its args do not rebuild it

    monkeypatch.setitem(experiment._RUNNERS, "IAX", runner)
    error, _trace = _traced_sweep_with_workers(2, monkeypatch, tmp_path)
    assert type(error) is RuntimeError
    assert str(error) == "ProtocolViolation: signal NEW in state Up"


def test_each_forked_worker_runs_on_its_own_cpu(monkeypatch, tmp_path):
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if len(cpus) < 2:
        pytest.skip(f"pinning the workers apart needs two usable CPUs; this process may use {len(cpus)}")
    cfg = SweepConfig(delay_end_ms=25.0 * (len(cpus) - 1), duration_s=0.1)  # one delay per CPU, two protocols
    real_pin, real_run = os.sched_setaffinity, experiment.run_scenario
    log = os.open(tmp_path / "pinned", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def pin(pid, mask):
        # each worker notes its pid and the CPUs it may run on once pinned, whether or not it takes a run
        real_pin(pid, mask)
        os.write(log, f"{os.getpid()} {sorted(os.sched_getaffinity(0))}\n".encode())

    def report_cpus(protocol, delay_ms, cfg, trace=None):
        # a report's protocol field carries the worker's pid and the CPUs it may run on
        return real_run(protocol, delay_ms, cfg, trace)._replace(protocol=f"{os.getpid()} {sorted(os.sched_getaffinity(0))}")

    monkeypatch.setattr(os, "sched_setaffinity", pin)
    monkeypatch.setattr(experiment, "run_scenario", report_cpus)
    monkeypatch.setattr(experiment, "_worker_count", lambda runs: len(cpus))
    try:
        rows = run_sweep(cfg)
    finally:
        os.close(log)
    lines = (tmp_path / "pinned").read_text().splitlines()
    pinned = dict(line.split(" ", 1) for line in lines)
    assert len(pinned) == len(lines) == len(cpus) and str(os.getpid()) not in pinned
    masks = [json.loads(mask) for mask in pinned.values()]
    assert all(len(mask) == 1 for mask in masks)
    assert sorted(cpu for (cpu,) in masks) == cpus
    # every run ran in one of those workers, on the CPU it was pinned to
    for row in rows:
        pid, affinity = row.protocol.split(" ", 1)
        assert pinned[pid] == affinity


def test_a_slowed_worker_leaves_its_runs_to_the_others(monkeypatch, tmp_path):
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if len(cpus) < 2:
        pytest.skip(f"slowing one of two pinned workers needs two usable CPUs; this process may use {len(cpus)}")
    real = experiment.run_scenario
    log = os.open(tmp_path / "ran", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def slowed(protocol, delay_ms, cfg, trace=None):
        # the worker pinned to the first CPU of the mask sleeps before each run; each run notes its CPUs
        cpus_now = sorted(os.sched_getaffinity(0))
        if cpus_now == cpus[:1]:
            time.sleep(0.2)
        os.write(log, f"{cpus_now}\n".encode())
        return real(protocol, delay_ms, cfg, trace)

    serial, serial_trace = _traced_sweep_with_workers(1, monkeypatch, tmp_path)
    monkeypatch.setattr(experiment, "run_scenario", slowed)
    try:
        csv, trace = _traced_sweep_with_workers(2, monkeypatch, tmp_path)
    finally:
        os.close(log)
    taken = Counter((tmp_path / "ran").read_text().splitlines())
    assert sum(taken.values()) == 10 and set(taken) <= {str(cpus[:1]), str(cpus[1:2])}
    assert taken[str(cpus[:1])] < taken[str(cpus[1:2])]
    assert csv == serial
    assert (trace.stream.getvalue(), trace.count) == (serial_trace.stream.getvalue(), serial_trace.count)


@pytest.mark.parametrize("impairment", [{}, dict(loss_prob=0.05, dup_prob=0.05)], ids=repr)
def test_no_run_depends_on_the_runs_before_it(impairment, monkeypatch):
    # a worker of the shared queue runs a grid point after whichever runs it took before
    monkeypatch.setattr(scenarios, "LinkConfig", functools.partial(LinkConfig, **impairment))
    cfg = SweepConfig(**ODD_GRID)
    runs = [(protocol, delay_ms) for protocol in cfg.protocols for delay_ms in sweep_points(cfg)]

    def in_order(order):
        """Each run's (row, trace records, record count) when *order* runs in one process."""
        trace, results = TraceLog(io.StringIO()), {}
        for run in order:
            start, count = trace.stream.tell(), trace.count
            row = run_scenario(*run, cfg, trace)
            results[run] = (row, trace.stream.getvalue()[start:], trace.count - count)
        return results

    alone = {run: in_order([run])[run] for run in runs}
    assert all(records > 0 for _row, _text, records in alone.values())
    assert in_order(runs) == alone
    assert in_order(runs[::-1]) == alone


def test_a_forked_sweep_starts_no_run_after_its_first_failure(tmp_path):
    # job 0 fails at once; each worker then stops after its current run, where a serial
    # sweep would stop after one, and runs no job whose row the parent would discard
    workers, log = 2, os.open(tmp_path / "started", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def run(job, trace):
        os.write(log, f"{job}\n".encode())
        if job == 0:
            raise ValueError("boom at job 0")
        time.sleep(0.2)
        return (job,)

    try:
        with pytest.raises(ValueError, match="^boom at job 0$"):
            forked.run_forked(run, [(job,) for job in range(40)], None, workers)
    finally:
        os.close(log)
    started = (tmp_path / "started").read_text().split()
    assert "0" in started and len(started) <= 2 * workers
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every worker was reaped


def test_an_all_failing_grid_longer_than_the_pipe_does_not_hang():
    # 10,000 delays x 2 protocols is 80 KB of job numbers, more than a 64 KiB pipe holds; every
    # worker stops at its first run, and the parent must stop writing the queue, not wait
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    probe = """
import os
from voipsim import experiment

def failing(delay_ms, cfg, trace=None):
    raise ValueError(f"boom at {delay_ms:g}")

experiment._RUNNERS = {"IAX": failing, "RSW": failing}
experiment._worker_count = lambda runs: 2
cfg = experiment.SweepConfig(delay_end_ms=9999.0, delay_step_ms=1.0, duration_s=0.1)
assert len(experiment.sweep_points(cfg)) == experiment.MAX_DELAY_POINTS == 10_000
try:
    experiment.run_sweep(cfg)
except ValueError as exc:
    print(exc)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("every worker reaped")
"""
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == ["boom at 0", "every worker reaped"]


def test_sweep_stays_in_process_for_one_run_or_other_threads():
    assert experiment._worker_count(1) == 1
    assert experiment._worker_count(10) == min(len(os.sched_getaffinity(0)), 10)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert experiment._worker_count(10) == 1
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


# -- comparison report --------------------------------------------------------------------


def test_compare_report_shape(fast_sweep):
    result, _ = fast_sweep
    report = compare_report(result)
    lines = report.splitlines()
    assert lines[0] == "MOS comparison over 3 delay points (positive gap favors IAX)"
    assert len(lines) == 2 + 3 + 2  # header pair, one per point, two summary lines
    assert lines[2].split() == ["0.0", "4.409", "4.409", "+0.0000"]
    assert any(line.startswith("max gap +") for line in lines)


def test_compare_report_band_line():
    # three points above the band threshold, between two below it
    assert GAP_BAND_MOS == 0.01
    below, above = GAP_BAND_MOS / 2, 2 * GAP_BAND_MOS
    line = _report_for_gaps([below, above, above, above, below])
    assert line == "longest band with gap > 0.01 MOS: 3 points, delay 100..300 ms"


def _report_for_gaps(gaps: list[float]) -> str:
    iax = run_scenario("IAX", 0.0, SweepConfig(**FAST))
    rows = []
    for i, gap in enumerate(gaps):
        rows.append(iax._replace(configured_delay_ms=100.0 * i, mos=3.0 + gap))
        rows.append(iax._replace(protocol="RSW", configured_delay_ms=100.0 * i, mos=3.0))
    return compare_report(rows).splitlines()[-1]


@pytest.mark.parametrize(
    "gaps, line",
    [
        # two bands of two points: the first one is reported
        ([0.0, 0.5, 0.5, 0.0, 0.5, 0.5], "longest band with gap > 0.01 MOS: 2 points, delay 100..200 ms"),
        # the longest band runs to the last point
        ([0.5, 0.0, 0.5, 0.5, 0.5], "longest band with gap > 0.01 MOS: 3 points, delay 200..400 ms"),
        # no point above the threshold
        ([0.0, 0.005, 0.0], "gap never exceeds 0.01 MOS"),
    ],
)
def test_compare_report_longest_band(gaps, line):
    assert _report_for_gaps(gaps) == line


def test_compare_report_no_band_when_gap_tiny(fast_sweep):
    result, _ = fast_sweep
    # at <=50 ms configured delay both stacks sit below the delay knee
    assert "gap never exceeds 0.01 MOS" in compare_report(result)


def test_compare_report_equal_curves():
    iax = run_scenario("IAX", 0.0, SweepConfig(**FAST))
    fake_rsw = iax._replace(protocol="RSW")
    report = compare_report([iax, fake_rsw])
    assert "max gap +0.0000 MOS at delay 0 ms" in report


def test_compare_report_needs_both_protocols():
    result = run_sweep(SweepConfig(protocols=("IAX",), **FAST))
    with pytest.raises(MissingProtocol):
        compare_report(result)


def test_compare_report_needs_common_points():
    cfg_a = SweepConfig(delay_start_ms=0.0, delay_end_ms=0.0, duration_s=0.5)
    iax = run_scenario("IAX", 0.0, cfg_a)
    rsw = run_scenario("RSW", 25.0, cfg_a)
    with pytest.raises(MissingProtocol):
        compare_report([iax, rsw])


# -- command line -----------------------------------------------------------------------------


def test_cli_config_file_and_flags(tmp_path, capsys):
    out = tmp_path / "run.csv"
    config = tmp_path / "settings.conf"
    config.write_text(
        "# sweep settings\n"
        "delay-start = 0\n"
        "delay_end = 50   # underscores work too\n"
        "delay-step=25\n"
        "duration=0.5\n"
        "protocol=iax\n",
        encoding="utf-8",
    )
    code = main(["--config", str(config), "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert f"wrote 3 rows to {out}" in captured.out
    assert "MOS comparison" not in captured.out  # single-protocol run
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert [line.split(",")[0] for line in lines[1:]] == ["IAX"] * 3


def test_cli_flags_override_config(tmp_path, capsys):
    out = tmp_path / "run.csv"
    config = tmp_path / "settings.conf"
    config.write_text("delay-end=50\nduration=0.5\nprotocol=iax\n", encoding="utf-8")
    code = main(["--config", str(config), "--delay-end", "25", "--out", str(out)])
    assert code == 0
    assert "wrote 2 rows" in capsys.readouterr().out


def test_cli_both_protocols_prints_comparison(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(
        ["--delay-end", "25", "--duration", "0.5", "--out", str(out)]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "wrote 4 rows" in captured.out
    assert "MOS comparison over 2 delay points" in captured.out


def test_cli_writes_trace(tmp_path, capsys):
    out = tmp_path / "run.csv"
    trace_path = tmp_path / "run.jsonl"
    code = main(
        [
            "--delay-end", "0", "--duration", "0.5", "--protocol", "iax",
            "--out", str(out), "--trace", str(trace_path),
        ]
    )
    assert code == 0
    lines = trace_path.read_text().splitlines()
    assert f"wrote {len(lines)} trace records to {trace_path}" in capsys.readouterr().out
    assert all(json.loads(line) for line in lines)


def test_cli_refuses_an_unwritable_trace_before_the_sweep(tmp_path, capsys):
    out = tmp_path / "run.csv"
    trace_path = tmp_path / "missing" / "t.jsonl"
    argv = ["--delay-end", "0", "--duration", "0.5", "--out", str(out), "--trace", str(trace_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("voipsim: error:")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "out_name, trace_name, named",
    [
        pytest.param("missing/x.csv", "t.jsonl", "missing/x.csv", id="missing/x.csv"),
        pytest.param("a-directory", "t.jsonl", "a-directory", id="a-directory"),
        # an empty path is refused, not read as the default sweep.csv or as no trace
        pytest.param("", "t.jsonl", "--out", id="empty-csv"),
        pytest.param("x.csv", "", "--trace", id="empty-trace"),
    ],
)
def test_cli_refuses_an_unwritable_csv_before_the_sweep(out_name, trace_name, named, tmp_path, capsys, monkeypatch):
    def no_sweep(*_args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a-directory").mkdir()
    assert main(["--out", out_name, "--trace", trace_name]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("voipsim: error:")
    assert named in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-directory"]  # no CSV, no trace
    assert not any((tmp_path / "a-directory").iterdir())


@pytest.mark.parametrize("trace_name", ["same.csv", "./same.csv", "../work/same.csv"])
def test_cli_refuses_a_trace_path_that_names_the_csv(trace_name, tmp_path, capsys, monkeypatch):
    def no_sweep(*_args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["--out", "same.csv", "--trace", trace_name]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("voipsim: error:")
    assert "name the same file" in captured.err
    assert captured.out == ""
    assert not any(work.iterdir())


def test_cli_refuses_a_trace_path_hard_linked_to_the_csv(tmp_path, capsys, monkeypatch):
    def no_sweep(*_args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "same.csv").write_bytes(b"kept\n")
    os.link(tmp_path / "same.csv", tmp_path / "hard.jsonl")  # two names, one file
    fast = ["--delay-end", "0", "--duration", "0.1", "--protocol", "iax"]
    assert main([*fast, "--out", "same.csv", "--trace", "hard.jsonl"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("voipsim: error:")
    assert "name the same file" in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hard.jsonl", "same.csv"]
    assert (tmp_path / "same.csv").read_bytes() == b"kept\n"


def test_cli_rejects_bad_sweep_settings(capsys):
    code = main(["--delay-step", "-5"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("voipsim: error:")
    assert "delay_step_ms" in err


@pytest.mark.parametrize(
    "flag,value,name", [("--delay-end", "inf", "delay_end_ms"), ("--duration", "nan", "duration_s")]
)
def test_cli_rejects_a_non_finite_setting(flag, value, name, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("voipsim: error:")
    assert name in captured.err
    assert captured.out == ""
    assert not (tmp_path / "sweep.csv").exists()


def test_cli_rejects_an_oversized_delay_grid(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["--delay-end", "1e12"]) == 2  # refused before any delay list is built
    captured = capsys.readouterr()
    assert captured.err.startswith("voipsim: error:")
    assert "40000000001 points" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        # the caller's clock passes 2**32 ms mid-call
        ["--frame-ms", "1e8", "--duration", "6e9", "--delay-end", "0", "--protocol", "iax"],
        # the whole call sits past 2**32 ms, where the receiver's ts32 has wrapped
        ["--delay-start", "1e10", "--delay-end", "1e10", "--duration", "1", "--protocol", "iax"],
    ],
)
def test_cli_refuses_a_run_past_the_32_bit_clock(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("voipsim: error:")
    assert f"{MAX_RUN_MS} ms" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize(
    "argv, row",
    [
        # the caller's first counted frame goes out one interval after the anchor
        (["--protocol", "iax", "--duration", "100", "--frame-ms", "100000"],
         "IAX,0.000,12.500,5.375,1,1,0.000,93.200,4.409"),
        # 1.5 frames round up to 2, and the teardown tick follows the second
        (["--protocol", "rsw", "--duration", "1500", "--frame-ms", "1000000"],
         "RSW,0.000,12.500,8.125,2,2,0.000,93.200,4.409"),
        # 42,948 frames of 100 s: the float error of the summed ticks needs ulps, not an interval
        (["--protocol", "iax", "--duration", "4294800", "--frame-ms", "100000"],
         "IAX,0.000,12.500,5.375,42948,42948,0.000,93.200,4.409"),
    ],
)
def test_cli_horizon_covers_every_frame_interval(argv, row, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--delay-end", "0"]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "sweep.csv").read_text(encoding="ascii").splitlines()[1:] == [row]


def _with_closing(monkeypatch, closing):
    """Make every media source run ``closing(sim, name, cfg)`` in place of its protocol's closing phase."""
    real = scenarios._media_source

    def media_source(sim, name, transmit, cfg, stats, opening, next_frame, _closing):
        return real(sim, name, transmit, cfg, stats, opening, next_frame, closing(sim, name, cfg))

    monkeypatch.setattr(scenarios, "_media_source", media_source)


def test_cli_reports_a_run_past_its_horizon(tmp_path, capsys, monkeypatch):
    # a media source that never tears down ticks on past its schedule
    def tick_again(sim, name, cfg):
        while True:
            yield sim.now + cfg.frame_interval_ms

    _with_closing(monkeypatch, tick_again)
    monkeypatch.chdir(tmp_path)
    code = main(["--delay-end", "0", "--duration", "0.1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("voipsim: error:")
    assert "horizon" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("protocol", ["IAX", "RSW"])
def test_a_run_that_drains_short_of_its_terminal_state_is_refused(protocol, tmp_path, capsys, monkeypatch):
    # a media source that never tears down waits for a reply that never comes:
    # the call stays Up, or the conference Active, and the heap drains
    def wait_forever(sim, name, cfg):
        yield

    _with_closing(monkeypatch, wait_forever)
    message = f"run {protocol}:25 drained its events before its media source's script returned"
    with pytest.raises(RunNotEnded, match=message):
        run_scenario(protocol, 25.0, SweepConfig(**FAST))
    # the CLI reports it as an error, with status 2, and writes no CSV
    monkeypatch.chdir(tmp_path)
    assert main(["--protocol", protocol.lower(), "--delay-start", "25", "--delay-end", "25", "--duration", "0.5"]) == 2
    assert capsys.readouterr().err == f"voipsim: error: {message}\n"
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("frame", [1, 25])  # in mid-media, and in the wait for the tick that starts the closing
@pytest.mark.parametrize("protocol, source", [("IAX", "caller"), ("RSW", "chair")])
def test_a_packet_that_reaches_a_pacing_script_is_refused(protocol, source, frame, monkeypatch):
    # a stray packet queued as a counted frame goes out arrives before the next tick, an interval later
    real = scenarios._media_source

    def media_source(sim, name, transmit, cfg, stats, opening, next_frame, closing):
        sent = []

        def next_frame_then_stray(payload, now):
            sent.append(now)
            if len(sent) == frame:
                sim.schedule(now, name, b"stray")
            return next_frame(payload, now)

        return real(sim, name, transmit, cfg, stats, opening, next_frame_then_stray, closing)

    monkeypatch.setattr(scenarios, "_media_source", media_source)
    with pytest.raises(scenarios.PacketWhilePacing, match=f"^{source} got a packet while it waited for a tick$"):
        run_scenario(protocol, 25.0, SweepConfig(**FAST))


def test_a_typed_error_raised_inside_a_script_comes_out_as_itself(monkeypatch):
    # a callee that sends ACCEPT twice: the second reaches the caller's opening in state Accepted
    real = IaxEndpoint._on_new
    monkeypatch.setattr(IaxEndpoint, "_on_new", lambda self, f, now: real(self, f, now)[:1] * 2)
    with pytest.raises(ProtocolViolation) as info:
        run_iax_call(25.0, SweepConfig(**FAST))
    assert (info.value.state, info.value.signal) == (CallState.ACCEPTED, Signal.ACCEPT)


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "settings.conf"
    config.write_text("volume=11\n", encoding="utf-8")
    assert main(["--config", str(config)]) == 2
    assert "unknown setting" in capsys.readouterr().err


def test_cli_rejects_unparsable_config_value(tmp_path, capsys):
    config = tmp_path / "settings.conf"
    config.write_text("delay-start=abc\n", encoding="utf-8")
    assert main(["--config", str(config)]) == 2
    assert "cannot parse" in capsys.readouterr().err


def test_cli_missing_config_file(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.conf")]) == 2
    assert "voipsim: error:" in capsys.readouterr().err


def test_cli_rejects_unknown_protocol_flag(capsys):
    with pytest.raises(SystemExit):
        main(["--protocol", "sip"])


def test_config_file_parser_details(tmp_path):
    config = tmp_path / "settings.conf"
    config.write_text(
        "\n# full-line comment\n  seed = 9  # trailing comment\nLINK_RATE=256000\n",
        encoding="utf-8",
    )
    assert load_config_file(str(config)) == {"seed": "9", "link-rate": "256000"}
    bad = tmp_path / "bad.conf"
    bad.write_text("seed\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected key=value"):
        load_config_file(str(bad))
    empty = tmp_path / "empty.conf"
    empty.write_text("seed=\n", encoding="utf-8")
    with pytest.raises(ValueError, match="empty value"):
        load_config_file(str(empty))


# config-file key -> a value other than the default
_SETTING_VALUES = {
    "delay-start": "25",
    "delay-end": "50",
    "delay-step": "12.5",
    "protocol": "RSW",
    "duration": "0.5",
    "frame-ms": "10",
    "payload-bytes": "80",
    "link-rate": "64000",
    "seed": "3",
    "out": "run.csv",
    "trace": "run.jsonl",
}


@pytest.mark.parametrize("key", list(_SETTING_VALUES))
def test_every_setting_reads_the_same_from_a_config_file_and_a_flag(key, tmp_path, monkeypatch, capsys):
    value = _SETTING_VALUES[key]
    fast = ["--delay-end", "0", "--duration", "0.1", "--protocol", "iax"]
    seen = []
    for door in ("file", "flag"):
        workdir = tmp_path / door
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        if door == "file":
            (workdir / "settings.conf").write_text(f"{key}={value}\n", encoding="utf-8")
            argv = ["--config", "settings.conf"]
        else:
            argv = [f"--{key}", value]
        if key in ("out", "trace"):
            assert main(fast + argv) == 0
            capsys.readouterr()
            seen.append(sorted((p.name, p.read_bytes()) for p in workdir.iterdir() if p.name != "settings.conf"))
        else:
            seen.append(resolve_settings(build_parser().parse_args(argv)))
    assert seen[0] == seen[1]
    if key == "out":
        assert [name for name, _ in seen[0]] == ["run.csv"]
    elif key == "trace":
        assert [name for name, _ in seen[0]] == ["run.jsonl", "sweep.csv"]
    else:
        assert seen[0][0] != SweepConfig() and seen[0][1:] == ("sweep.csv", None)


def test_package_exports_names_not_modules():
    import voipsim

    assert "run_sweep" in voipsim.__all__ and "TraceLog" in voipsim.__all__
    for name in voipsim.__all__:
        assert not isinstance(getattr(voipsim, name), types.ModuleType), name
