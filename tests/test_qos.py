"""Scorer tests: frozen high-precision reference values and properties.

The reference values were produced by scripts/emodel_oracle.py, a standalone
brute-force evaluation (50-digit arithmetic for the impairment curve, exact
rationals for the rating-to-MOS cubic) written before this implementation.
"""

import math
import random

import pytest
from hypothesis import given, strategies as st

from voipsim.qos import (
    EModelError,
    NegativeDelay,
    idd,
    r_to_mos,
    score_run,
)

# oracle: delay ms -> impairment
IDD_REFERENCE = {
    0: 0.0,
    50: 0.0,
    100: 0.0,
    125: 0.00461688392577,
    200: 3.04441422352,
    250: 8.91670983083,
    500: 30.635924523771287,
    1000: 43.7895747013,
    1500: 46.9213546665,
    2000: 48.07637475518849,
    3000: 48.9561990536,
}

# oracle: rating -> MOS
MOS_REFERENCE = {
    0: 1.0,
    25: 1.415625,
    50: 2.575,
    60: 3.1,
    70: 3.597,
    80: 4.024,
    90: 4.339,
    93.2: 4.409285824,
    100: 4.5,
}

# oracle: one-way delay with default params, lossless -> MOS
MOS_AT_DELAY_REFERENCE = {
    0: 4.409285824,
    25: 4.409285824,
    100: 4.409285824,
    500: 3.23178067975,
    1000: 2.54407309461,
    1425: 2.39539039338,
    1925: 2.32765543626,
    2000: 2.3214665457621866,
}


# ------------------------------------------------------------------------ idd


def test_idd_zero_through_100ms():
    for ta in (0.0, 1.0, 50.0, 99.999, 100.0):
        assert idd(ta) == 0.0


def test_idd_matches_oracle():
    for ta, expected in IDD_REFERENCE.items():
        assert math.isclose(idd(ta), expected, rel_tol=1e-9), ta


def test_idd_tiny_just_past_the_knee():
    # heavy cancellation here: check absolutely, not relatively
    assert abs(idd(101) - 3.63136759093e-11) < 1e-13


def test_idd_continuous_at_the_knee():
    eps = 1e-6
    assert abs(idd(100 + eps) - idd(100 - eps)) < 1e-9


def test_idd_negative_delay():
    with pytest.raises(NegativeDelay):
        idd(-0.001)


@pytest.mark.parametrize("ta_ms", [math.inf, math.nan])
def test_idd_refuses_a_non_finite_delay(ta_ms):
    # either would score as nan
    with pytest.raises(EModelError, match="not finite"):
        idd(ta_ms)


def test_idd_monotone_past_the_knee():
    values = [idd(100 + 10 * k) for k in range(300)]
    assert all(a <= b for a, b in zip(values, values[1:]))


# ------------------------------------------------------------------- r_to_mos


def test_r_to_mos_matches_oracle():
    for r, expected in MOS_REFERENCE.items():
        assert math.isclose(r_to_mos(r), expected, rel_tol=1e-12), r


def test_r_to_mos_clamps():
    assert r_to_mos(-5.0) == 1.0
    assert r_to_mos(0.0) == 1.0
    assert r_to_mos(100.0) == 4.5
    assert r_to_mos(250.0) == 4.5
    # the raw cubic dips below 1 for small positive ratings; the MOS scale floor wins
    assert r_to_mos(5.0) == 1.0


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
def test_r_to_mos_refuses_a_non_finite_rating(r):
    # nan would map to nan, and an infinite rating to a clamped MOS
    with pytest.raises(EModelError, match="not finite"):
        r_to_mos(r)


@given(st.floats(min_value=-50, max_value=150, allow_nan=False))
def test_r_to_mos_range(r):
    assert 1.0 <= r_to_mos(r) <= 4.5


# ------------------------------------------------------------------ score_run


def test_score_run_at_reference_delays():
    for delay, expected in MOS_AT_DELAY_REFERENCE.items():
        report = score_run(float(delay) * 20, 20, 20)
        assert math.isclose(report.mos, expected, rel_tol=1e-9), delay
        assert report.mean_e2e_delay_ms == delay
        assert report.loss_fraction == 0.0


def test_score_run_statistics():
    report = score_run(10.0 + 20.0 + 30.0, 4, 3, protocol="IAX",
                       configured_delay_ms=15.0, setup_time_ms=44.0)
    assert report.mean_e2e_delay_ms == 20.0
    assert report.loss_fraction == 0.25
    assert report.pkts_sent == 4 and report.pkts_recv == 3
    assert report.protocol == "IAX"
    assert report.configured_delay_ms == 15.0
    assert report.setup_time_ms == 44.0
    assert report.r_factor == 93.2 - 30.0 * 0.25  # idd(20) == 0
    assert report.mos == r_to_mos(report.r_factor)


def test_score_run_loss_penalty_is_linear():
    half = score_run(0.0, 100, 50)
    assert math.isclose(half.r_factor, 93.2 - 15.0)
    assert math.isclose(half.loss_fraction, 0.5)


def test_score_run_nothing_received():
    report = score_run(0.0, 500, 0)
    assert report.pkts_recv == 0
    assert report.mos == 1.0
    assert report.loss_fraction == 1.0
    assert report.mean_e2e_delay_ms == 0.0
    # a run that never sent either is not counted as total loss
    idle = score_run(0.0, 0, 0)
    assert idle.loss_fraction == 0.0 and idle.pkts_recv == 0


def test_score_run_counter_validation():
    with pytest.raises(EModelError, match="exceeds"):
        score_run(3.0, 1, 2)  # recv > sent
    with pytest.raises(EModelError, match="non-negative"):
        score_run(0.0, -1, 0)
    with pytest.raises(EModelError, match="non-negative"):
        score_run(0.0, 1, -1)


@pytest.mark.parametrize("recv", [0, 1])
def test_score_run_refuses_a_negative_delay_sum(recv):
    with pytest.raises(NegativeDelay):
        score_run(-1.0, 1, recv)


@pytest.mark.parametrize("delay_sum", [1.0, 5e-324])
def test_score_run_refuses_delay_without_a_received_packet(delay_sum):
    with pytest.raises(EModelError, match="no packet received"):
        score_run(delay_sum, 3, 0)


@pytest.mark.parametrize("recv", [0, 1])
@pytest.mark.parametrize("delay_sum", [math.nan, math.inf])
def test_score_run_refuses_a_non_finite_delay_sum(delay_sum, recv):
    # either would score the run as MOS nan
    with pytest.raises(EModelError, match="not finite"):
        score_run(delay_sum, 1, recv)


# ----------------------------------------------------------------- properties


def test_mos_non_increasing_in_delay_over_random_sample():
    rng = random.Random(1234)
    delays = sorted(rng.uniform(0.0, 3000.0) for _ in range(1000))
    scores = [score_run(d, 1, 1).mos for d in delays]
    assert all(a >= b for a, b in zip(scores, scores[1:]))


@given(
    st.lists(st.floats(min_value=0, max_value=5000, allow_nan=False), min_size=1, max_size=40),
    st.integers(0, 40),
)
def test_score_run_range_invariant(delays, extra_lost):
    report = score_run(sum(delays), len(delays) + extra_lost, len(delays))
    assert report.mean_e2e_delay_ms == sum(delays) / len(delays)
    assert 1.0 <= report.mos <= 4.5
    assert 0.0 <= report.loss_fraction <= 1.0
