"""Delay-sweep harness: run both scenarios across a delay grid and score them.

The sweep holds everything fixed except the configured one-way link delay,
runs one simulated call (or conference) per grid point per protocol, scores
each run with the E-model, and writes the results as CSV (one row per run).
An optional JSONL event trace streams to its file while the runs proceed.
Runs are deterministic: the same configuration and seed produce
byte-identical output files.

The runs share no state, so a sweep of more than one run is spread over one
forked worker per CPU this process may use, never more workers than runs;
each worker takes the next run of the grid when it has finished one (see
:mod:`voipsim.forked`).  The rows, the CSV and the trace are the bytes
a serial sweep writes, and a failing sweep raises the error of its earliest
failing run in grid order.  The sweep stays in this process when it has one
run, when only one CPU is usable, when ``os.fork`` is missing, or when the
process already runs other threads (a forked child would inherit their
locks held).
"""

from __future__ import annotations

import math
import os
import sys
from itertools import groupby
from typing import NamedTuple

from .qos import NegativeDelay, QosReport, score_run
from .scenarios import MediaStats, TraceLog, longest_trip_ms, run_iax_call, run_rsw_conference

CSV_HEADER = "protocol,delay_ms,mean_e2e_delay_ms,setup_time_ms,pkts_sent,pkts_recv,loss_fraction,r_factor,mos"

KNOWN_PROTOCOLS = ("IAX", "RSW")

_RUNNERS = {"IAX": run_iax_call, "RSW": run_rsw_conference}

# far above any paper grid (81 points at the defaults), far below one that
# would exhaust memory before its first run
MAX_DELAY_POINTS = 10_000

# an IAX endpoint stamps its frames with a run's milliseconds in 32 bits
MAX_RUN_MS = 2**32 - 1

# the coarsest step a run's float clock may take: one microsecond
CLOCK_RESOLUTION_MS = 1e-3

# compare_report's bands: the delays where IAX's MOS beats RSW's by more than this
GAP_BAND_MOS = 0.01


class MissingProtocol(ValueError):
    """A comparison needs results from both protocols."""


class ClockTooCoarse(ValueError):
    """A run would last so long that its float clock could not resolve a microsecond."""


class _SweepFields(NamedTuple):
    delay_start_ms: float = 0.0
    delay_end_ms: float = 2000.0
    delay_step_ms: float = 25.0
    protocols: tuple[str, ...] = KNOWN_PROTOCOLS
    duration_s: float = 10.0
    frame_interval_ms: float = 20.0
    payload_bytes: int = 160
    link_rate_bps: int = 128_000
    seed: int = 1


class SweepConfig(_SweepFields):
    """Parameters of one delay sweep, validated when built (``_replace`` included).

    The delay grid is ``delay_start_ms, delay_start_ms + delay_step_ms, ...``
    up to and including ``delay_end_ms``, at most ``MAX_DELAY_POINTS``
    delays; a degenerate sweep with ``delay_start_ms == delay_end_ms`` runs a
    single point per protocol.  The horizon of the run at ``delay_end_ms``,
    the bound its message schedule gives, must leave the clock a microsecond
    of resolution and, with IAX in ``protocols``, must not pass ``MAX_RUN_MS``
    (see ``run_horizon_ms``).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace builds through it, so it validates too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("delay_start_ms", "delay_end_ms", "delay_step_ms", "duration_s", "frame_interval_ms"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.delay_start_ms < 0:
            raise NegativeDelay(f"delay_start_ms must be >= 0, got {self.delay_start_ms}")
        if self.delay_end_ms < self.delay_start_ms:
            raise ValueError(
                f"delay_end_ms ({self.delay_end_ms}) must be >= delay_start_ms ({self.delay_start_ms})"
            )
        if self.delay_step_ms <= 0:
            raise ValueError(f"delay_step_ms must be > 0, got {self.delay_step_ms}")
        points = self.delay_point_count()
        if points > MAX_DELAY_POINTS:
            raise ValueError(f"the delay grid has {points} points, more than the {MAX_DELAY_POINTS} allowed")
        if not self.protocols:
            raise ValueError("protocols must not be empty")
        for name in self.protocols:
            if name not in KNOWN_PROTOCOLS:
                raise ValueError(f"unknown protocol {name!r}; expected one of {KNOWN_PROTOCOLS}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")
        if self.frame_interval_ms < 1.0:
            # sub-millisecond cadence would alias the integer media timestamps
            raise ValueError(f"frame_interval_ms must be >= 1, got {self.frame_interval_ms}")
        for name in ("payload_bytes", "link_rate_bps", "seed"):
            value = getattr(self, name)
            if type(value) is not int:  # a bool, or a float such as nan, would reach the run
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.seed < 0:
            # random.Random would seed with abs(seed): -7 would replay seed 7
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.payload_bytes <= 1400:
            raise ValueError(f"payload_bytes must be in 1..1400, got {self.payload_bytes}")
        if self.link_rate_bps <= 0:
            raise ValueError(f"link_rate_bps must be > 0, got {self.link_rate_bps}")
        if self.media_frame_count() < 1:
            raise ValueError("duration_s too short for a single media frame at this cadence")
        if self.media_frame_count() > 0xFFFF:
            raise ValueError("duration_s / frame_interval_ms exceeds the 16-bit sequence space")
        self.run_horizon_ms(self.delay_end_ms)  # the grid's longest run
        return self

    def media_frame_count(self) -> int:
        return int(round(self.duration_s * 1000.0 / self.frame_interval_ms))

    def run_horizon_ms(self, delay_ms: float, protocol: str | None = None) -> float:
        """Simulated time the ``protocol`` run at ``delay_ms`` may take; a run still busy then fails.

        A run is at most four one-way trips of ``longest_trip_ms`` (IAX:
        NEW, ACCEPT and ANSWER, HANGUP; RSW: CREATE, its ACK and the JOIN,
        END, its ACK) and its frames (the rounded count may pass
        ``duration_s``) plus one interval, before the first frame or after
        the last, and ``frames + 8`` ulps for the float error of the sums.
        Raises ValueError when an IAX run's horizon passes ``MAX_RUN_MS``
        (``protocol`` None checks every stack in ``protocols``), and
        :class:`ClockTooCoarse` when the clock steps by more than
        ``CLOCK_RESOLUTION_MS`` there: every run, in a sweep or alone,
        starts with these checks.
        """
        frames = self.media_frame_count()
        horizon = (frames + 1) * self.frame_interval_ms + 4 * longest_trip_ms(delay_ms, self)
        horizon += (frames + 8) * math.ulp(horizon)
        if horizon > MAX_RUN_MS and "IAX" in ((protocol,) if protocol else self.protocols):
            raise ValueError(
                f"a run at delay {delay_ms:g} ms may last {horizon:.0f} ms, more than the "
                f"{MAX_RUN_MS} ms (2**32 - 1) an IAX 32-bit timestamp can count"
            )
        if math.ulp(horizon) > CLOCK_RESOLUTION_MS:
            raise ClockTooCoarse(
                f"a run at delay {delay_ms:g} ms may last {horizon:.0f} ms, where its clock "
                f"steps by {math.ulp(horizon):g} ms, more than {CLOCK_RESOLUTION_MS:g} ms"
            )
        return horizon

    def delay_point_count(self) -> int:
        """Delays on the grid, endpoints included."""
        steps = (self.delay_end_ms - self.delay_start_ms) / self.delay_step_ms + 1e-9
        return int(min(steps, sys.float_info.max)) + 1  # an overflowed quotient is inf, which int() refuses


def sweep_points(cfg: SweepConfig) -> list[float]:
    """The delay grid for *cfg*, endpoints included."""
    return [cfg.delay_start_ms + i * cfg.delay_step_ms for i in range(cfg.delay_point_count())]


def run_scenario(
    protocol: str,
    delay_ms: float,
    cfg: SweepConfig | None = None,
    trace: TraceLog | None = None,
) -> QosReport:
    """Run one scenario at one configured delay and score it."""
    cfg = cfg if cfg is not None else SweepConfig()
    try:
        runner = _RUNNERS[protocol]
    except KeyError:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {KNOWN_PROTOCOLS}") from None
    stats: MediaStats = runner(delay_ms, cfg, trace)
    return score_run(
        stats.delay_sum,
        stats.frames_sent,
        stats.frames_recv,
        protocol=protocol,
        configured_delay_ms=delay_ms,
        setup_time_ms=stats.setup_ms,
    )


def run_sweep(cfg: SweepConfig | None = None, trace: TraceLog | None = None) -> list[QosReport]:
    """Run the full grid; rows come back sorted by (protocol, delay)."""
    cfg = cfg if cfg is not None else SweepConfig()
    protocols = sorted(set(cfg.protocols))
    runs = [(protocol, delay_ms, cfg) for protocol in protocols for delay_ms in sweep_points(cfg)]
    workers = _worker_count(len(runs))
    if workers > 1:
        # imported only here: compiling it with the package would raise every process's peak memory
        from .forked import run_forked

        return run_forked(run_scenario, runs, trace, workers)
    return [run_scenario(*run, trace) for run in runs]


def _worker_count(runs: int) -> int:
    """Processes to spread *runs* runs over; 1 keeps the sweep in this process."""
    if runs < 2 or not hasattr(os, "fork") or _runs_other_threads():
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, runs)


def _runs_other_threads() -> bool:
    try:
        return len(os.listdir("/proc/self/task")) > 1
    except OSError:  # no procfs: only the threads Python started can be seen
        threading = sys.modules.get("threading")
        return threading is not None and threading.active_count() > 1


def _csv_row(r: QosReport) -> str:
    return (
        f"{r.protocol},{r.configured_delay_ms:.3f},{r.mean_e2e_delay_ms:.3f},"
        f"{r.setup_time_ms:.3f},{r.pkts_sent},{r.pkts_recv},"
        f"{r.loss_fraction:.3f},{r.r_factor:.3f},{r.mos:.3f}"
    )


def emit_csv(rows: list[QosReport], path) -> None:
    """Write one row per run; floats carry three decimals, counts are ints."""
    lines = [CSV_HEADER]
    lines.extend(_csv_row(row) for row in rows)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def compare_report(rows: list[QosReport]) -> str:
    """Human-readable MOS comparison between the two protocols.

    Raises MissingProtocol unless *rows* holds rows for both.
    """
    by_proto: dict[str, dict[float, QosReport]] = {}
    for row in rows:
        by_proto.setdefault(row.protocol, {})[row.configured_delay_ms] = row
    for name in KNOWN_PROTOCOLS:
        if name not in by_proto:
            raise MissingProtocol(f"no rows for protocol {name!r}")
    common = sorted(set(by_proto["IAX"]) & set(by_proto["RSW"]))
    if not common:
        raise MissingProtocol("the two protocols share no delay points")

    lines = [
        f"MOS comparison over {len(common)} delay points (positive gap favors IAX)",
        f"{'delay_ms':>10} {'iax_mos':>9} {'rsw_mos':>9} {'gap':>9}",
    ]
    gaps: list[tuple[float, float]] = []
    for delay_ms in common:
        iax = by_proto["IAX"][delay_ms].mos
        rsw = by_proto["RSW"][delay_ms].mos
        gap = iax - rsw
        gaps.append((delay_ms, gap))
        lines.append(f"{delay_ms:>10.1f} {iax:>9.3f} {rsw:>9.3f} {gap:>+9.4f}")

    peak_delay, peak_gap = max(gaps, key=lambda item: item[1])
    lines.append(f"max gap {peak_gap:+.4f} MOS at delay {peak_delay:g} ms")

    bands = [list(band) for above, band in groupby(gaps, key=lambda item: item[1] > GAP_BAND_MOS) if above]
    if not bands:
        lines.append(f"gap never exceeds {GAP_BAND_MOS:g} MOS")
    else:
        band = max(bands, key=len)  # the first of equally long bands wins
        lines.append(
            f"longest band with gap > {GAP_BAND_MOS:g} MOS: "
            f"{len(band)} points, delay {band[0][0]:g}..{band[-1][0]:g} ms"
        )
    return "\n".join(lines)
