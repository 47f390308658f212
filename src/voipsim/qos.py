"""E-model scoring: delay impairment, rating-to-MOS mapping, run reports.

The transmission rating for a run is

    r = R0 - idd(mean_delay) - 30 * loss_fraction,    R0 = 93.2

and MOS follows the standard piecewise cubic on the 1..4.5 scale.  The raw
cubic dips slightly below 1 for small positive ratings, so the result is
floored at 1.0 to keep MOS inside the published scale.
"""

from __future__ import annotations

import math
from typing import NamedTuple

#: Base transmission rating (no equipment impairment, no advantage factor).
R0 = 93.2

_SIXTH = 1.0 / 6.0
_LN2 = math.log(2.0)


class NegativeDelay(ValueError):
    """A delay value below zero reached the scorer or a link config."""


class EModelError(ValueError):
    """Inconsistent run counters, or a delay or rating that is not finite."""


def idd(ta_ms: float) -> float:
    """Delay impairment for a one-way mouth-to-ear delay of ``ta_ms``.

    Zero up to 100 ms, then rises along the standard two-knee curve.  A
    negative delay raises :class:`NegativeDelay`, an infinite or NaN one
    :class:`EModelError`.
    """
    if ta_ms < 0:
        raise NegativeDelay(f"delay {ta_ms} ms")
    if not math.isfinite(ta_ms):
        raise EModelError(f"delay {ta_ms} ms is not finite")
    if ta_ms <= 100.0:
        return 0.0
    x = math.log(ta_ms / 100.0) / _LN2
    return 25.0 * ((1.0 + x**6) ** _SIXTH - 3.0 * (1.0 + (x / 3.0) ** 6) ** _SIXTH + 2.0)


def r_to_mos(r: float) -> float:
    """Map a transmission rating to MOS; clamped to [1.0, 4.5].

    An infinite or NaN rating raises :class:`EModelError`.
    """
    if not math.isfinite(r):
        raise EModelError(f"rating {r} is not finite")
    if r <= 0.0:
        return 1.0
    if r >= 100.0:
        return 4.5
    mos = 1.0 + 0.035 * r + r * (r - 60.0) * (100.0 - r) * 7e-6
    return max(mos, 1.0)


class QosReport(NamedTuple):
    """Scored outcome of one simulated call or conference run."""

    protocol: str
    configured_delay_ms: float
    mean_e2e_delay_ms: float
    setup_time_ms: float
    pkts_sent: int
    pkts_recv: int
    loss_fraction: float
    r_factor: float
    mos: float


def score_run(
    delay_sum: float,
    sent: int,
    recv: int,
    *,
    protocol: str = "",
    configured_delay_ms: float = 0.0,
    setup_time_ms: float = 0.0,
) -> QosReport:
    """Score one run from the sum of its one-way delays and its packet counters.

    ``delay_sum`` adds one delay per received packet (duplicates already
    removed), so ``recv <= sent`` and the mean delay, which feeds the
    impairment curve, is ``delay_sum / recv``.  A run that received nothing
    is reported as MOS 1.0 with a mean delay of 0 instead of raising.  A
    negative sum raises :class:`NegativeDelay`; a non-finite sum, a nonzero
    sum with nothing received, or inconsistent counters raise
    :class:`EModelError`.
    """
    if sent < 0 or recv < 0:
        raise EModelError("packet counters must be non-negative")
    if recv > sent:
        raise EModelError(f"recv={recv} exceeds sent={sent}")
    if delay_sum < 0:
        raise NegativeDelay(f"delay sum {delay_sum} ms")
    if not math.isfinite(delay_sum):
        raise EModelError(f"delay sum {delay_sum} ms is not finite")
    if recv == 0 and delay_sum != 0:
        raise EModelError(f"delay sum {delay_sum} ms but no packet received")

    if recv == 0:
        mean_delay = r = 0.0
        loss_fraction = 1.0 if sent else 0.0
    else:
        mean_delay = delay_sum / recv
        loss_fraction = 1.0 - recv / sent
        r = R0 - idd(mean_delay) - 30.0 * loss_fraction
    return QosReport(
        protocol=protocol,
        configured_delay_ms=configured_delay_ms,
        mean_e2e_delay_ms=mean_delay,
        setup_time_ms=setup_time_ms,
        pkts_sent=sent,
        pkts_recv=recv,
        loss_fraction=loss_fraction,
        r_factor=r,
        mos=r_to_mos(r),
    )
