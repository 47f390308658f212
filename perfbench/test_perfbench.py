"""Self-tests for the benchmark's own arithmetic: python3 -m pytest perfbench"""

import itertools
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench" / "baseline")]

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

SMALL = oracle.Settings(delay_end=50, duration_s=Fraction(1, 5))
# 70 s of 10 ms frames crosses one 16-bit timestamp wrap: one extra full frame
WRAP = oracle.Settings(delay_start=150, delay_end=150, protocols=("IAX",),
                       duration_s=Fraction(70), frame_ms=10, payload_bytes=10)


def _sweep(settings, tmp_path, name="sweep.csv", trace=None):
    from voipsim.cli import main

    out = tmp_path / name
    argv = settings.cli_args() + ["--seed", "7", "--out", str(out)]
    if trace is not None:
        argv += ["--trace", str(tmp_path / trace)]
    assert main(argv) == 0
    return out


# -- self time -------------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    tracer = layers.LayerTracer(clock=itertools.count(0, 10).__next__)
    inner = tracer.wrap("netsim", "netsim.Simulator.transmit", lambda: None)

    def body():
        inner()
        inner()

    outer = tracer.wrap("experiment", layers.SWEEP_KEY, body)
    outer()
    # clock reads: outer 0, inner 10..20, inner 30..40, outer end 50
    assert tracer.stats[layers.SWEEP_KEY] == [1, 50, 30]
    assert tracer.stats["netsim.Simulator.transmit"] == [2, 20, 20]
    assert tracer.sweep_self_ns["experiment"] == 30
    assert tracer.sweep_self_ns["netsim"] == 20
    assert tracer.unaccounted_ns() == 0
    assert [s[3] for s in tracer.spans] == [layers.SWEEP_KEY]


def test_self_time_outside_the_sweep_is_not_booked_to_modules():
    tracer = layers.LayerTracer(clock=itertools.count(0, 10).__next__)
    tracer.wrap("frames", "frames.encode_full", lambda: None)()
    assert tracer.stats["frames.encode_full"] == [1, 10, 10]
    assert sum(tracer.sweep_self_ns.values()) == 0


def test_spans_carry_parent_and_run_ids():
    tracer = layers.LayerTracer(clock=itertools.count().__next__)
    run_call = tracer.wrap("scenarios", "scenarios.run_iax_call", lambda: None)
    scenario = tracer.wrap("experiment", "experiment.run_scenario", run_call)
    tracer.wrap("experiment", layers.SWEEP_KEY, lambda: (scenario(), scenario()))()
    by_name = {}
    for span_id, parent, run_id, name, _start, _end in tracer.spans:
        by_name.setdefault(name, []).append((span_id, parent, run_id))
    (sweep_id, sweep_parent, sweep_run), = by_name[layers.SWEEP_KEY]
    assert sweep_parent is None and sweep_run is None
    assert [r for _i, _p, r in by_name["experiment.run_scenario"]] == [1, 2]
    assert all(p == sweep_id for _i, p, _r in by_name["experiment.run_scenario"])
    scen_ids = {r: i for i, _p, r in by_name["experiment.run_scenario"]}
    assert [(p, r) for _i, p, r in by_name["scenarios.run_iax_call"]] == [(scen_ids[1], 1), (scen_ids[2], 2)]


# -- tail percentile -----------------------------------------------------------------


@pytest.mark.parametrize("n, pct", [(81, 75), (2001, 99), (100_000, 99.99), (20, 50), (19, 100), (1, 100), (0, 100)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    assert layers.tail_percentile(n) == pct


def test_nearest_rank():
    values = list(range(100, 0, -1))
    assert layers.nearest_rank(values, 50) == 50
    assert layers.nearest_rank(values, 99.9) == 100
    assert layers.nearest_rank([], 50) == 0.0


# -- row oracle and failed_frac --------------------------------------------------------


@pytest.mark.parametrize("settings", [SMALL, WRAP], ids=["small_grid", "timestamp_wrap"])
def test_oracle_accepts_the_program_rows(settings, tmp_path):
    csv = _sweep(settings, tmp_path)
    assert oracle.failing_rows(settings, csv.read_text()) == set()


def test_oracle_rejects_a_perturbed_row_and_counts_it(tmp_path):
    csv = _sweep(SMALL, tmp_path)
    lines = csv.read_text().splitlines()
    fields = lines[2].split(",")
    fields[2] = f"{float(fields[2]) + 0.001:.3f}"  # mean_e2e_delay_ms, one step
    lines[2] = ",".join(fields)
    csv.write_text("\n".join(lines) + "\n")

    checker = run.Checker(SMALL, csv, None)
    assert checker.record(True) == {1}
    assert (checker.failed, checker.attempted) == (1, 6)


def test_oracle_counts_a_malformed_row_instead_of_raising(tmp_path):
    lines = _sweep(SMALL, tmp_path).read_text().splitlines()
    fields = lines[4].split(",")
    fields[7] = "n/a"  # r_factor
    lines[4] = ",".join(fields)
    assert oracle.failing_rows(SMALL, "\n".join(lines)) == {3}


def test_checker_counts_rows_that_differ_between_executions(tmp_path):
    csv = _sweep(SMALL, tmp_path)
    checker = run.Checker(SMALL, csv, None)
    assert checker.record(True) == set()
    csv.write_text(csv.read_text().replace("RSW,25.000", "RSW,26.000"))
    assert checker.record(True) == {4}
    assert checker.record(False) == set(range(6))
    assert (checker.failed, checker.attempted) == (7, 18)


def test_trace_differences_map_to_their_rows(tmp_path):
    _sweep(SMALL, tmp_path, trace="t.jsonl")
    ref = (tmp_path / "t.jsonl").read_bytes()
    changed = ref.replace(b'{"scenario":"RSW:50","t":', b'{"scenario":"RSW:50","t":1', 1)
    assert changed != ref
    assert oracle.differing_trace_rows(SMALL, ref, ref) == set()
    assert oracle.differing_trace_rows(SMALL, ref, changed) == {5}


# -- frozen baseline -------------------------------------------------------------


def test_baseline_is_the_frozen_copy():
    assert run.baseline_digest() == run.BASELINE_SHA256


def test_baseline_writes_beside_the_program_outputs(tmp_path):
    argv = SMALL.cli_args() + ["--seed", "7", "--out", str(tmp_path / "sweep.csv"),
                               "--trace", str(tmp_path / "trace.jsonl")]
    base = run._baseline_argv(argv, tmp_path / "b")
    assert base[argv.index("--out") + 1] == str(tmp_path / "b" / "base.csv")
    assert base[argv.index("--trace") + 1] == str(tmp_path / "b" / "base.jsonl")
    assert [a for a in base if not a.startswith(str(tmp_path))] == \
        [a for a in argv if not a.startswith(str(tmp_path))]


def test_baseline_runs_the_same_workload(tmp_path):
    from voipsim_base.cli import main

    out = tmp_path / "base.csv"
    assert main(SMALL.cli_args() + ["--seed", "7", "--out", str(out)]) == 0
    assert oracle.failing_rows(SMALL, out.read_text()) == set()


# -- layer-traced execution ---------------------------------------------------------------


def test_install_wraps_imported_names_and_uninstall_restores(tmp_path):
    import voipsim.experiment as experiment
    import voipsim.frames as frames
    import voipsim.scenarios as scenarios

    original = frames.decode_rtp
    runners = dict(experiment._RUNNERS)
    reference = _sweep(SMALL, tmp_path, "plain.csv").read_bytes()

    tracer = layers.LayerTracer()
    tracer.install()
    try:
        assert scenarios.decode_rtp is not original
        assert scenarios.decode_rtp.__wrapped__ is original
        assert experiment._RUNNERS["IAX"].__wrapped__ is runners["IAX"]
        traced = _sweep(SMALL, tmp_path, "traced.csv").read_bytes()
    finally:
        tracer.uninstall()

    assert frames.decode_rtp is original and scenarios.decode_rtp is original
    assert experiment._RUNNERS == runners
    assert traced == reference
    assert tracer.unaccounted_ns() == 0
    metrics = tracer.metrics(run.LAYER_FUNCTIONS)
    assert metrics["frames.decode_rtp.calls"] == 2 * 3 * SMALL.frame_count()  # bridge + participant
    assert metrics["scenarios.iax_run.samples"] == 3
    assert metrics["netsim.events"] == metrics["netsim.schedule.calls"]
