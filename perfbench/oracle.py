"""Row oracle: closed-form expectations for every CSV row of a workload.

On an unimpaired link (no jitter, loss, duplication or reordering) every
quantity in a voipsim CSV row has a closed form that depends only on the
workload settings and the wire sizes of the packets involved:

* every media frame arrives, so ``pkts_sent == pkts_recv ==`` the frame count;
* one media packet takes ``delay + ser(bytes)`` where
  ``ser(n) = 8 * (n + 28) * 1000 / rate`` ms (28 bytes of IP/UDP overhead);
* call setup is two link traversals plus the serialization of the packets on
  the critical path of the handshake;
* R and MOS follow from the mean delay through the E-model, evaluated here by
  the independent mpmath oracle in ``scripts/emodel_oracle.py``.

Wire sizes are derived from the protocol formats themselves (header lengths,
the RSW text line), not from the package's encoders, so a codec regression
shows up as a row mismatch.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import emodel_oracle  # noqa: E402  (independent E-model oracle, mpmath)
import mpmath  # noqa: E402

CSV_HEADER = "protocol,delay_ms,mean_e2e_delay_ms,setup_time_ms,pkts_sent,pkts_recv,loss_fraction,r_factor,mos"
OVERHEAD_BYTES = 28  # IP + UDP
IAX_FULL_HDR = 12
IAX_MINI_HDR = 4
RTP_HDR = 12
R0 = Fraction(932, 10)
TOLERANCE = Fraction(1, 2000)  # the CSV carries three decimals
TS_WRAP = 1 << 16


@dataclass(frozen=True)
class Settings:
    """One workload's sweep settings, at the paper's defaults unless given."""

    delay_start: int = 0
    delay_end: int = 2000
    delay_step: int = 25
    protocols: tuple[str, ...] = ("IAX", "RSW")
    duration_s: Fraction = Fraction(10)
    frame_ms: int = 20
    payload_bytes: int = 160
    link_rate: int = 128_000

    def cli_args(self) -> list[str]:
        """The voipsim flags that run exactly these settings."""
        protocol = "both" if len(set(self.protocols)) == 2 else self.protocols[0].lower()
        return [
            "--delay-start", str(self.delay_start),
            "--delay-end", str(self.delay_end),
            "--delay-step", str(self.delay_step),
            "--protocol", protocol,
            "--duration", f"{float(self.duration_s):g}",
            "--frame-ms", str(self.frame_ms),
            "--payload-bytes", str(self.payload_bytes),
            "--link-rate", str(self.link_rate),
        ]

    def delays(self) -> list[int]:
        n = (self.delay_end - self.delay_start) // self.delay_step + 1
        return [self.delay_start + i * self.delay_step for i in range(n)]

    def frame_count(self) -> int:
        return round(self.duration_s * 1000 / self.frame_ms)

    def expected_rows(self) -> list[tuple[str, int]]:
        """(protocol, delay) in the order the CSV lists them."""
        return [(p, d) for p in sorted(set(self.protocols)) for d in self.delays()]


def ser_ms(s: Settings, nbytes: int) -> Fraction:
    return Fraction(8 * (nbytes + OVERHEAD_BYTES) * 1000, s.link_rate)


def _rsw_line(verb: str, sender: str, recipient: str, body: str = "") -> int:
    """Byte length of one RSW/1 text line for conference 1."""
    line = f"RSW/1 {verb} 1 {sender} {recipient}" + (f" {body}" if body else "")
    return len(line) + 1  # trailing newline


def setup_ms(s: Settings, protocol: str, delay: int) -> Fraction:
    if protocol == "IAX":
        # NEW carries the callee name; ACCEPT and ANSWER leave together, and
        # the in-order channel holds ANSWER behind ACCEPT.
        new = IAX_FULL_HDR + len("callee")
        return 2 * delay + ser_ms(s, new) + ser_ms(s, IAX_FULL_HDR)
    # CREATE crosses the WAN; the co-located invitee's JOIN is free; the
    # server's ACK to the chairman and the relayed JOIN leave together.
    create = _rsw_line("CREATE", "chair", "p1", f"codec=pcm;frame_ms={s.frame_ms:g}")
    back = max(_rsw_line("ACK", "server", "chair"), _rsw_line("JOIN", "p1", "chair"))
    return 2 * delay + ser_ms(s, create) + ser_ms(s, back)


def mean_delay_ms(s: Settings, protocol: str, delay: int) -> Fraction:
    n = s.frame_count()
    if protocol == "RSW":
        return delay + ser_ms(s, s.payload_bytes + RTP_HDR)
    # Media goes in mini frames, except a full frame each time the high 16
    # bits of the millisecond timestamp change after the anchor frame.
    up = setup_ms(s, protocol, delay)
    full = math.floor(up + n * s.frame_ms) // TS_WRAP - math.floor(up) // TS_WRAP
    mini_ms = ser_ms(s, s.payload_bytes + IAX_MINI_HDR)
    full_ms = ser_ms(s, s.payload_bytes + IAX_FULL_HDR)
    return delay + (mini_ms * (n - full) + full_ms * full) / n


def _mp(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


def emodel(mean_ms: Fraction) -> tuple[Fraction, Fraction]:
    """(R, MOS) for a loss-free run, from the mpmath oracle."""
    r = _mp(R0) - emodel_oracle.delay_impairment(_mp(mean_ms))
    r_exact = Fraction(mpmath.nstr(r, 40))
    return r_exact, emodel_oracle.rating_to_mos(r_exact)


def _close(field: str, exact: Fraction) -> bool:
    try:
        return abs(Fraction(field) - exact) <= TOLERANCE
    except ValueError:  # not a number: the row is wrong, not the benchmark
        return False


def row_ok(s: Settings, protocol: str, delay: int, line: str) -> bool:
    """Does one CSV line hold the closed-form values for (protocol, delay)?"""
    f = line.split(",")
    if len(f) != 9 or f[0] != protocol or f[1] != f"{delay:.3f}":
        return False
    n = str(s.frame_count())
    if f[4] != n or f[5] != n or f[6] != "0.000":
        return False
    mean = mean_delay_ms(s, protocol, delay)
    r, mos = emodel(mean)
    return (
        _close(f[2], mean)
        and _close(f[3], setup_ms(s, protocol, delay))
        and _close(f[7], r)
        and _close(f[8], mos)
    )


def failing_rows(s: Settings, csv_text: str) -> set[int]:
    """Indices of expected rows that are missing or wrong in ``csv_text``."""
    header, *lines = csv_text.splitlines() or [""]
    expected = s.expected_rows()
    if header != CSV_HEADER or len(lines) != len(expected):
        return set(range(len(expected)))
    return {
        i
        for i, ((protocol, delay), line) in enumerate(zip(expected, lines))
        if not row_ok(s, protocol, delay, line)
    }


def differing_rows(s: Settings, reference: bytes, other: bytes) -> set[int]:
    """Indices of CSV rows that differ between two executions."""
    if reference == other:
        return set()
    ref, oth = reference.splitlines()[1:], other.splitlines()[1:]
    n = len(s.expected_rows())
    if len(ref) != n or len(oth) != n:
        return set(range(n))
    return {i for i in range(n) if ref[i] != oth[i]}


def _scenario_blocks(jsonl: bytes) -> dict[str, list[bytes]]:
    """Group trace lines by their ``scenario`` label (e.g. ``IAX:25``)."""
    blocks: dict[str, list[bytes]] = {}
    prefix = b'{"scenario":"'
    for line in jsonl.splitlines():
        label = line[len(prefix):].partition(b'"')[0] if line.startswith(prefix) else b""
        blocks.setdefault(label.decode("ascii", "replace"), []).append(line)
    return blocks


def differing_trace_rows(s: Settings, reference: bytes, other: bytes) -> set[int]:
    """Indices of CSV rows whose JSONL trace records differ between executions."""
    if reference == other:
        return set()
    ref, oth = _scenario_blocks(reference), _scenario_blocks(other)
    expected = s.expected_rows()
    labels = {f"{p}:{d:g}": i for i, (p, d) in enumerate(expected)}
    bad = set()
    for label in set(ref) | set(oth):
        if ref.get(label) != oth.get(label):
            # a record outside any known scenario taints every row
            bad |= {labels[label]} if label in labels else set(range(len(expected)))
    return bad
