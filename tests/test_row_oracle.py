"""The closed-form row oracle over random unimpaired settings.

``perfbench/oracle.py`` derives every field of a CSV row from the wire
formats and the mpmath E-model, not from the package's encoders.  Here it
checks whole CLI sweeps over random delay grids, frame intervals, payloads,
link rates and durations.  Links the media would saturate are left out:
their rows have no closed form until the link queues.
"""

from __future__ import annotations

import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import oracle  # noqa: E402

from voipsim.cli import main  # noqa: E402


@st.composite
def unimpaired_settings(draw) -> oracle.Settings:
    start = draw(st.integers(0, 1000))
    step = draw(st.integers(1, 500))
    end = start + draw(st.integers(0, 3 * step - 1))  # one to three points, end on or off the grid
    return oracle.Settings(
        delay_start=start,
        delay_end=end,
        delay_step=step,
        protocols=draw(st.sampled_from([("IAX", "RSW"), ("IAX",), ("RSW",)])),
        duration_s=Fraction(draw(st.integers(1, 5))),
        frame_ms=draw(st.integers(5, 40)),
        payload_bytes=draw(st.integers(10, 1000)),
        link_rate=draw(st.integers(64_000, 1_000_000)),
    )


@settings(max_examples=20)
@given(s=unimpaired_settings())
def test_every_row_of_an_unimpaired_sweep_meets_its_closed_form(s):
    # the largest packet (an IAX full frame) must serialize within one frame interval
    assume(oracle.ser_ms(s, s.payload_bytes + oracle.IAX_FULL_HDR) < s.frame_ms)
    with tempfile.TemporaryDirectory() as folder:
        out = Path(folder) / "sweep.csv"
        assert main([*s.cli_args(), "--out", str(out)]) == 0
        assert oracle.failing_rows(s, out.read_text()) == set()
