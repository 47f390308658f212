"""E-model scoring: delay impairment, rating-to-MOS mapping, run reports.

The transmission rating for a run is

    r = r0 - idd(mean_delay) - ie - 30 * loss_fraction + advantage

and MOS follows the standard piecewise cubic on the 1..4.5 scale.  The raw
cubic dips slightly below 1 for small positive ratings, so the result is
floored at 1.0 to keep MOS inside the published scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

#: Subjective meaning of the integer MOS grades.
MOS_LABELS = {1: "bad", 2: "poor", 3: "fair", 4: "good", 5: "excellent"}

_SIXTH = 1.0 / 6.0
_LN2 = math.log(2.0)


class NegativeDelay(ValueError):
    """A delay value below zero reached the scorer or a link config."""


class EModelError(ValueError):
    """Invalid E-model parameters or inconsistent run counters."""


def idd(ta_ms: float) -> float:
    """Delay impairment for a one-way mouth-to-ear delay of ``ta_ms``.

    Zero up to 100 ms, then rises along the standard two-knee curve.
    """
    if ta_ms < 0:
        raise NegativeDelay(f"delay {ta_ms} ms")
    if ta_ms <= 100.0:
        return 0.0
    x = math.log(ta_ms / 100.0) / _LN2
    return 25.0 * ((1.0 + x**6) ** _SIXTH - 3.0 * (1.0 + (x / 3.0) ** 6) ** _SIXTH + 2.0)


def r_to_mos(r: float) -> float:
    """Map a transmission rating to MOS; clamped to [1.0, 4.5]."""
    if r <= 0.0:
        return 1.0
    if r >= 100.0:
        return 4.5
    mos = 1.0 + 0.035 * r + r * (r - 60.0) * (100.0 - r) * 7e-6
    return max(mos, 1.0)


def mos_label(mos: float) -> str:
    """Nearest subjective grade for a MOS value."""
    return MOS_LABELS[min(5, max(1, round(mos)))]


@dataclass(frozen=True)
class EModelParams:
    """Scoring constants: base rating, equipment impairment, advantage."""

    r0: float = 93.2
    ie: float = 0.0
    advantage: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.r0 <= 100.0:
            raise EModelError(f"r0 must be in (0, 100], got {self.r0}")
        if self.ie < 0.0:
            raise EModelError(f"ie must be >= 0, got {self.ie}")
        if self.advantage < 0.0:
            raise EModelError(f"advantage must be >= 0, got {self.advantage}")


@dataclass(frozen=True)
class QosReport:
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
    no_packets: bool = False


def score_run(
    delays: Sequence[float],
    sent: int,
    recv: int,
    params: EModelParams | None = None,
    *,
    protocol: str = "",
    configured_delay_ms: float = 0.0,
    setup_time_ms: float = 0.0,
    percentile: float | None = None,
) -> QosReport:
    """Score one run from its per-packet one-way delays and packet counters.

    ``delays`` holds one entry per received packet (duplicates already
    removed), so ``len(delays) == recv <= sent``.  A run that received
    nothing is reported as MOS 1.0 with ``no_packets`` set instead of
    raising.  By default the mean delay feeds the impairment curve;
    ``percentile`` switches that to a nearest-rank percentile (the report's
    ``mean_e2e_delay_ms`` stays the mean either way).
    """
    if params is None:
        params = EModelParams()
    if percentile is not None and not 0.0 < percentile <= 100.0:
        raise EModelError(f"percentile must be in (0, 100], got {percentile}")
    if sent < 0 or recv < 0:
        raise EModelError("packet counters must be non-negative")
    if recv != len(delays):
        raise EModelError(f"recv={recv} but {len(delays)} delay samples")
    if recv > sent:
        raise EModelError(f"recv={recv} exceeds sent={sent}")

    if recv == 0:
        mean_delay = r = 0.0
        loss_fraction = 1.0 if sent else 0.0
    else:
        mean_delay = sum(delays) / len(delays)
        if percentile is None:
            scored_delay = mean_delay
        else:
            ranked = sorted(delays)
            scored_delay = ranked[max(0, math.ceil(percentile / 100.0 * recv) - 1)]
        loss_fraction = 1.0 - recv / sent
        r = params.r0 - idd(scored_delay) - params.ie - 30.0 * loss_fraction + params.advantage
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
        no_packets=recv == 0,
    )
