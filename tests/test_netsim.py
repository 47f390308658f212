"""Event core and link tests: serialization math, channel semantics, determinism."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import LoggedRandom
from voipsim import scenarios
from voipsim.experiment import SweepConfig
from voipsim.netsim import (
    EmptyPacket,
    HorizonExceeded,
    Link,
    LinkConfig,
    Simulator,
    serialization_ms,
)
from voipsim.qos import NegativeDelay
from voipsim.scenarios import MediaStats


def _sink(sim, log):
    """A handler that records ``(sim.now, payload)`` for every event it is given."""
    return lambda data: log.append((sim.now, data))


# -------------------------------------------------------------- serialization


def test_serialization_frozen_values():
    link = LinkConfig()  # 128 kbps, 28 bytes overhead
    assert serialization_ms(link, 192) == 13.75
    assert serialization_ms(link, 200) == 14.25
    assert serialization_ms(link, 200) - serialization_ms(link, 192) == 0.5
    # the two media packet sizes the scenarios actually put on the wire
    assert serialization_ms(link, 164) == 12.0
    assert serialization_ms(link, 172) == 12.5


def test_serialization_scales_with_rate():
    fast = LinkConfig(link_rate_bps=10**9)
    assert serialization_ms(fast, 192) == 8 * 220 * 1000 / 1e9


def test_link_config_validation():
    with pytest.raises(NegativeDelay):
        LinkConfig(delay_ms=-1)
    with pytest.raises(ValueError):
        LinkConfig(jitter_ms=-0.5)
    with pytest.raises(ValueError):
        LinkConfig(loss_prob=1.5)
    with pytest.raises(ValueError):
        LinkConfig(reorder_prob=-0.1)
    with pytest.raises(ValueError):
        LinkConfig(link_rate_bps=0)


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
@pytest.mark.parametrize("name", ["delay_ms", "jitter_ms"])
def test_link_config_rejects_a_non_finite_time(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        LinkConfig(**{name: value})


# ------------------------------------------------------------------ transmit


def test_transmit_exact_arrival_with_defaults():
    sim = Simulator(seed=1)
    link = Link(LinkConfig(delay_ms=40.0), "a", "b")
    log = []
    assert link.transmit(sim, bytes(164)) == [40.0 + 12.0]
    sim.run_until_idle({"b": _sink(sim, log)})
    assert log == [(40.0 + 12.0, bytes(164))]  # delivered as the packet, not as a timer tick


def test_transmit_loss_prob_one_schedules_nothing():
    sim = Simulator(seed=1)
    assert Link(LinkConfig(loss_prob=1.0), "a", "b").transmit(sim, b"x") == []


def test_transmit_dup_prob_one_schedules_twice_at_same_time():
    sim = Simulator(seed=1)
    log = []
    arrivals = Link(LinkConfig(dup_prob=1.0), "a", "b").transmit(sim, bytes(164))
    assert arrivals == [12.0, 12.0]
    sim.schedule(12.0, "b", b"later")  # same due, queued after both copies
    sim.run_until_idle({"b": _sink(sim, log)})
    assert log == [(12.0, bytes(164)), (12.0, bytes(164)), (12.0, b"later")]


def test_transmit_reorder_skips_the_configured_delay():
    sim = Simulator(seed=1)
    link = Link(LinkConfig(delay_ms=500.0, reorder_prob=1.0), "a", "b")
    assert link.transmit(sim, bytes(164)) == [12.0]  # serialization only: the packet overtakes


def test_transmit_jitter_bounds_and_causality():
    sim = Simulator(seed=7)
    link = Link(LinkConfig(delay_ms=5.0, jitter_ms=20.0), "a", "b")
    for _ in range(200):
        (due,) = link.transmit(sim, bytes(164))
        # arrival never precedes now + serialization, never exceeds +delay+jitter
        assert sim.now + 12.0 <= due <= sim.now + 12.0 + 25.0


def test_transmit_empty_packet():
    sim = Simulator(seed=1)
    with pytest.raises(EmptyPacket):
        Link(LinkConfig(), "a", "b").transmit(sim, b"")
    with pytest.raises(EmptyPacket):
        sim.deliver_local(b"", "a")


def test_transmit_rng_draws_fixed_per_call():
    # same seed, different impairments: every impaired send takes four draws, so the RNG
    # stream stays aligned send by send; an unimpaired link takes none
    sims = [Simulator(seed=42) for _ in range(4)]
    configs = [LinkConfig(), LinkConfig(loss_prob=1.0), LinkConfig(dup_prob=1.0, jitter_ms=3.0),
               LinkConfig(reorder_prob=5e-324)]
    for sim, config in zip(sims, configs):
        link = Link(config, "a", "b")
        for _ in range(5):
            link.transmit(sim, b"pkt")
    ref = random.Random(42)
    assert sims[0].rng.getstate() == ref.getstate()
    for _ in range(4 * 5):
        ref.random()
    assert [sim.rng.getstate() for sim in sims[1:]] == [ref.getstate()] * 3


_prob = st.floats(0.0, 1.0)


@given(
    seed=st.integers(0, 2**32 - 1),
    calls=st.integers(1, 20),
    size=st.integers(1, 1400),
    delay=st.floats(0.0, 2000.0),
    jitter=st.floats(0.0, 2000.0),
    loss=_prob,
    dup=_prob,
    reorder=_prob,
)
# an unimpaired link makes no draw; Hypothesis alone rarely zeroes all four impairments
@example(seed=7, calls=20, size=10, delay=150.0, jitter=0.0, loss=0.0, dup=0.0, reorder=0.0)
def test_transmit_draw_contract(seed, calls, size, delay, jitter, loss, dup, reorder):
    # four random() draws per call (loss, dup, reorder, jitter) on an impaired link, and
    # the jitter is exactly what rng.uniform(-jitter, jitter) gives at that point; none on
    # an unimpaired link, where the reference's draws give the same arrival
    config = LinkConfig(delay_ms=delay, jitter_ms=jitter, loss_prob=loss, dup_prob=dup, reorder_prob=reorder)
    link = Link(config, "a", "b")
    sim = Simulator(seed=seed)
    ref = random.Random(seed)
    for _ in range(calls):
        arrivals = link.transmit(sim, bytes(size))
        lost = ref.random() < loss
        duplicated = ref.random() < dup
        reordered = ref.random() < reorder
        offset = ref.uniform(-jitter, jitter)
        if lost:
            assert arrivals == []
            continue
        base = 0.0 if reordered else delay
        due = sim.now + serialization_ms(config, size) + max(0.0, base + offset)
        assert arrivals == [due] * (2 if duplicated else 1)
    fresh = random.Random(seed)
    for _ in range(4 * calls if any((jitter, loss, dup, reorder)) else 0):
        fresh.random()
    assert sim.rng.getstate() == fresh.getstate()


# -------------------------------------------------------------- reliable_send


def test_reliable_send_exact_arrival_and_no_rng():
    sim = Simulator(seed=9)
    before = sim.rng.getstate()
    assert Link(LinkConfig(delay_ms=2000.0), "a", "b").reliable_send(sim, bytes(164)) == 2000.0 + 12.0
    assert sim.rng.getstate() == before


def test_reliable_send_fifo_per_pair():
    sim = Simulator(seed=1)
    link = Link(LinkConfig(delay_ms=10.0), "a", "b")
    log = []
    big = link.reliable_send(sim, bytes(1000))
    small = link.reliable_send(sim, bytes(10))
    # the small packet would serialize sooner; FIFO clamps it behind the big one
    assert small >= big
    sim.run_until_idle({"b": _sink(sim, log)})
    assert [len(p) for _, p in log] == [1000, 10]


def test_reliable_send_two_signals_arrive_in_send_order():
    sim = Simulator(seed=1)
    link = Link(LinkConfig(delay_ms=100.0), "a", "b")
    log = []
    link.reliable_send(sim, b"first")

    def send_second(_tick):  # returns None: a returned arrival time would ask for a tick at it
        link.reliable_send(sim, b"second")

    sim.run_until_idle({"b": _sink(sim, log), "a": send_second}, tick=(1.0, "a"))
    assert [p for _, p in log] == [b"first", b"second"]


def test_two_directions_share_the_rng_stream_and_keep_separate_fifo_fronts():
    sim = Simulator(seed=5)
    config = LinkConfig(delay_ms=10.0, jitter_ms=3.0, loss_prob=0.3, dup_prob=0.2, reorder_prob=0.2)
    links = {"b": Link(config, "a", "b"), "a": Link(config, "b", "a")}
    log = {dst: [] for dst in links}
    ref = random.Random(5)
    expected = {dst: [] for dst in links}
    for i, dst in enumerate("bbaabab"):
        pkt = bytes([i + 1]) * 100
        arrivals = links[dst].transmit(sim, pkt)
        # one stream in call order, four draws per call, whichever direction sends
        lost = ref.random() < 0.3
        duplicated = ref.random() < 0.2
        reordered = ref.random() < 0.2
        offset = ref.uniform(-3.0, 3.0)
        due = serialization_ms(config, 100) + max(0.0, (0.0 if reordered else 10.0) + offset)
        assert arrivals == ([] if lost else [due] * (2 if duplicated else 1))
        expected[dst] += [(due, pkt)] * len(arrivals)
    assert sim.rng.getstate() == ref.getstate()
    sim.run_until_idle({dst: _sink(sim, log[dst]) for dst in links})
    assert {dst: sorted(got) for dst, got in log.items()} == {dst: sorted(e) for dst, e in expected.items()}
    # a big then a small signal a->b: the small one waits behind the big one, b->a does not
    start = sim.now
    big = links["b"].reliable_send(sim, bytes(1000))
    assert links["b"].reliable_send(sim, bytes(10)) == big
    assert links["a"].reliable_send(sim, bytes(10)) == start + serialization_ms(config, 10) + 10.0 < big


@pytest.mark.parametrize("impairment", [None, "jitter_ms", "loss_prob", "dup_prob", "reorder_prob"])
def test_any_one_impairment_takes_the_drawing_path(impairment):
    # the smallest positive float is still an impairment; with none, the send makes no call
    # and leaves the RNG as the seed left it
    sim = Simulator(seed=3)
    sim.rng = logged = LoggedRandom(3)
    fields = {impairment: 5e-324} if impairment else {}
    Link(LinkConfig(delay_ms=40.0, **fields), "a", "b").transmit(sim, bytes(10))
    assert logged.calls == (["random"] * 4 if impairment else [])
    if not impairment:
        assert logged.getstate() == random.Random(3).getstate()


def test_unimpaired_and_impaired_links_interleave_on_one_stream():
    # the impaired link draws what one Random(seed) gives its own sends: an unimpaired send takes nothing
    sim = Simulator(seed=11)
    plain = Link(LinkConfig(delay_ms=150.0), "a", "b")
    config = LinkConfig(delay_ms=10.0, jitter_ms=3.0, loss_prob=0.3, dup_prob=0.2, reorder_prob=0.2)
    impaired = Link(config, "b", "a")
    ref = random.Random(11)
    for i, which in enumerate("ppippiipiipp"):
        pkt = bytes(i + 1)
        if which == "p":
            assert plain.transmit(sim, pkt) == [serialization_ms(config, i + 1) + 150.0]
            continue
        arrivals = impaired.transmit(sim, pkt)
        lost = ref.random() < 0.3
        duplicated = ref.random() < 0.2
        reordered = ref.random() < 0.2
        offset = ref.uniform(-3.0, 3.0)
        due = serialization_ms(config, i + 1) + max(0.0, (0.0 if reordered else 10.0) + offset)
        assert arrivals == ([] if lost else [due] * (2 if duplicated else 1))
    assert sim.rng.getstate() == ref.getstate()


# ----------------------------------------------------------------- event loop


def test_run_until_idle_empty_queue_returns_zero():
    assert Simulator(seed=1).run_until_idle({}) == 0.0


def test_same_due_dispatches_in_scheduling_order():
    sim = Simulator(seed=1)
    log = []
    sim.schedule(5.0, "x", b"one")
    sim.schedule(5.0, "x", b"two")
    sim.run_until_idle({"x": _sink(sim, log)})
    assert [p for _, p in log] == [b"one", b"two"]


@pytest.mark.parametrize("tick_first", [True, False])
def test_a_tick_and_a_packet_due_at_once_dispatch_in_scheduling_order(tick_first):
    # a tick takes its seq as the handler asking for it returns, so a packet queued
    # before that comes first at the same instant, and one queued after comes second
    sim = Simulator(seed=1)
    log = []

    def handler(data):
        log.append((sim.now, data))
        if data == b"ask":
            return 5.0
        if data == b"send":
            sim.schedule(5.0, "x", b"packet")
        return None

    sim.schedule(1.0, "x", b"ask" if tick_first else b"send")
    sim.schedule(2.0, "x", b"send" if tick_first else b"ask")
    sim.run_until_idle({"x": handler})
    assert log[2:] == ([(5.0, None), (5.0, b"packet")] if tick_first else [(5.0, b"packet"), (5.0, None)])
    assert sim.dispatched == 4 and sim._heap == [] and not sim._fifo


@settings(deadline=None)
@given(data=st.data(), primed=st.booleans())
def test_any_interleaving_of_schedules_and_a_tick_dispatches_in_due_seq_order(data, primed):
    # a packet joins the FIFO, or the heap when it is due before the FIFO's tail; either way the
    # packets and the tick reach their handler in the (due, seq) order they were queued in
    sim = Simulator(seed=1)
    offsets = st.sampled_from([0.0, 1.0, 2.5, 4.0])  # ties, dues equal to now, dues before a tail
    queued = []  # (due, seq, payload) of each packet and tick, in the order they took their seq
    log = []
    pending = [primed]

    def queue(count):
        for _ in range(count):
            due, payload = sim.now + data.draw(offsets), b"%d" % len(queued)
            queued.append((due, len(queued), payload))
            sim.schedule(due, "x", payload)

    def handler(payload):
        log.append((sim.now, payload))
        pending[0] &= payload is not None
        if len(queued) >= 40:
            return None
        queue(data.draw(st.integers(0, 3)))
        if pending[0] or not data.draw(st.booleans()):
            return None
        pending[0] = True
        queued.append((due := sim.now + data.draw(offsets), len(queued), None))  # the tick's seq comes last
        return due

    queue(data.draw(st.integers(1, 6)))
    tick = None
    if primed:
        queued.append((due := data.draw(offsets), len(queued), None))
        tick = (due, "x")
    sim.run_until_idle({"x": handler}, tick=tick)
    assert log == [(due, payload) for due, _seq, payload in sorted(queued)]
    assert not sim._fifo and sim._heap == []


@pytest.mark.parametrize("due", [float("nan"), 0.5])
@pytest.mark.parametrize("primed", [True, False], ids=["pending-at-start", "returned"])
def test_a_tick_due_nan_or_before_now_is_refused(due, primed):
    # the guard schedule() keeps for packets: let in, such a tick would run the clock backwards
    sim = Simulator(seed=1)
    sim.schedule(1.0, "x", b"p")
    if primed:
        sim.run_until_idle({"x": _sink(sim, [])})
    with pytest.raises(ValueError, match="precedes now 1.0"):
        sim.run_until_idle({"x": lambda data: due}, tick=(due, "x") if primed else None)


def test_a_tick_past_the_horizon_is_refused():
    sim = Simulator(seed=1)
    seen = []

    def ticker(data):  # never stops asking
        seen.append((sim.now, data))
        return sim.now + 20.0

    with pytest.raises(HorizonExceeded, match="due 60.0 > horizon 50.0"):
        sim.run_until_idle({"x": ticker}, horizon_ms=50.0, tick=(0.0, "x"))
    assert seen == [(0.0, None), (20.0, None), (40.0, None)]


@pytest.mark.parametrize("returned", ["5.0", [5.0], (5.0, "x")])
def test_a_handler_returning_neither_none_nor_a_number_is_refused(returned):
    # e.g. a handler that hands back Link.transmit's list of arrivals
    sim = Simulator(seed=1)
    sim.schedule(1.0, "x", b"p")
    with pytest.raises(TypeError, match="not at a number"):
        sim.run_until_idle({"x": lambda data: returned})


def test_a_second_pending_tick_is_refused():
    # a run holds one tick; a second would silently replace it
    sim = Simulator(seed=1)
    sim.schedule(1.0, "y", b"p")
    with pytest.raises(RuntimeError, match="'y' asked for a tick while the tick for 'x' was pending"):
        sim.run_until_idle({"x": _sink(sim, []), "y": lambda data: 3.0}, tick=(5.0, "x"))


def test_a_script_whose_opening_does_not_wait_gets_its_first_tick():
    # the run primes the script, which yields its first due without waiting for a
    # packet: the simulator must still dispatch that tick
    def opening():
        yield from ()
        return 7.0

    sims, stats, sent = [], MediaStats(), []
    cfg = SweepConfig(duration_s=0.1)  # 5 frames of 20 ms

    def transmit(sim, data):
        sent.append(sim.now)

    def script(sim, _config, cfg, stats, _trace):
        sims.append(sim)
        return scenarios._media_source(sim, "s", transmit, cfg, stats, opening(),
                                       lambda payload, now: (len(sent), payload), iter(()))

    # the callee is built as the script's peer, and gets no packet
    assert scenarios._run("IAX", 0.0, cfg, None, stats, "s", script, "callee", scenarios._IaxCalleeNode) == 107.0
    (sim,) = sims
    assert sent == [7.0, 27.0, 47.0, 67.0, 87.0]
    assert (stats.setup_ms, stats.frames_sent, sim.dispatched) == (0.0, 5, 6)


def test_schedule_in_the_past_rejected():
    sim = Simulator(seed=1)
    sim.schedule(3.0, "x", b"p")
    sim.run_until_idle({"x": _sink(sim, [])})
    assert sim.now == 3.0
    with pytest.raises(ValueError):
        sim.schedule(2.0, "x", b"p")


def test_schedule_refuses_a_nan_due():
    # NaN fails every comparison: let in, it would dispatch first and run the clock backwards
    sim = Simulator(seed=1)
    seen = []
    with pytest.raises(ValueError, match="precedes now"):
        sim.schedule(float("nan"), "x", b"p")
    sim.schedule(5.0, "x", b"p")
    sim.schedule(1.0, "x", b"p")
    sim.run_until_idle({"x": lambda data: seen.append(sim.now)})
    assert seen == [1.0, 5.0]


def test_clock_never_decreases_and_returns_final_time():
    sim = Simulator(seed=1)
    seen = []
    for due in (4.0, 1.0, 2.5):
        sim.schedule(due, "x", b"p")
    final = sim.run_until_idle({"x": lambda data: seen.append(sim.now)})
    assert seen == sorted(seen) == [1.0, 2.5, 4.0]
    assert final == 4.0


def test_horizon_exceeded():
    sim = Simulator(seed=1)
    sim.schedule(100.0, "x", b"p")
    with pytest.raises(HorizonExceeded):
        sim.run_until_idle({"x": _sink(sim, [])}, horizon_ms=50.0)


def test_missing_handler_is_an_error():
    sim = Simulator(seed=1)
    sim.schedule(1.0, "nobody", b"p")
    with pytest.raises(LookupError, match="'nobody'"):
        sim.run_until_idle({})


def test_a_returned_script_is_dropped_and_a_later_event_for_it_is_refused():
    sim = Simulator(seed=1)
    got = []

    def script():
        got.append((yield))  # returns with the first event it is sent

    source = script()
    next(source)
    handlers = {"s": source.send}
    sim.schedule(1.0, "s", b"last")
    sim.schedule(2.0, "s", b"late")
    with pytest.raises(LookupError, match="'s'"):
        sim.run_until_idle(handlers)
    assert got == [b"last"] and handlers == {}
    assert sim.dispatched == 1  # the event the script returned on is counted, the refused one is not


def test_dispatched_counts_handled_events_across_runs_and_a_raising_handler():
    sim = Simulator(seed=1)

    def handler(data):
        if data == b"boom":
            raise RuntimeError("boom")

    for payload in (b"a", b"b", b"boom", b"c"):
        sim.schedule(1.0, "x", payload)
    with pytest.raises(RuntimeError):
        sim.run_until_idle({"x": handler})
    assert sim.dispatched == 2  # the raising event is not counted
    sim.run_until_idle({"x": handler})
    assert sim.dispatched == 3


def test_deliver_local_arrives_at_once():
    sim = Simulator(seed=1)
    log = []
    handlers = {"x": _sink(sim, log)}
    assert sim.deliver_local(b"a", "x") == 0.0
    sim.run_until_idle(handlers, tick=(2.5, "x"))
    assert sim.deliver_local(b"b", "x") == 2.5  # from the clock as it stands, not from zero
    sim.run_until_idle(handlers)
    assert log == [(0.0, b"a"), (2.5, None), (2.5, b"b")]  # the timer tick reaches its handler as None


def test_dispatch_trace_is_deterministic():
    def run():
        sim = Simulator(seed=33)
        link = Link(LinkConfig(delay_ms=10.0, jitter_ms=4.0, loss_prob=0.2, dup_prob=0.1, reorder_prob=0.1), "a", "b")
        log = []

        def ticker(data):
            if sim.now < 200.0:
                link.transmit(sim, bytes(50))
                return sim.now + 10.0  # the next tick
            return None

        sim.run_until_idle({"b": _sink(sim, log), "a": ticker}, tick=(0.0, "a"))
        return log

    assert run() == run()


@given(st.integers(1, 1400), st.integers(0, 2000))
def test_per_packet_delay_is_delay_plus_serialization(size, delay):
    sim = Simulator(seed=1)
    config = LinkConfig(delay_ms=float(delay))
    assert Link(config, "a", "b").transmit(sim, bytes(size)) == [serialization_ms(config, size) + delay]


def test_conservation_without_impairments():
    sim = Simulator(seed=1)
    log = []
    link = Link(LinkConfig(delay_ms=1.0), "a", "b")
    for i in range(50):
        link.transmit(sim, bytes([i + 1]))
    sim.run_until_idle({"b": _sink(sim, log)})
    assert len(log) == 50
