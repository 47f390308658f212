#!/usr/bin/env python3
"""voipsim benchmark: end-to-end timing and memory, checked outputs, layer traces.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Every execution goes through ``voipsim.cli.main`` with the workload's flags
and ``--seed N``, writing its CSV (and, for ``paper_sweep_jsonl``, its JSONL
trace) to a scratch directory under ``.perfbench-out/`` at the repository
root.  Each benchmark run:

1. runs one warm-up execution (not timed) whose outputs become the reference;
2. repeats timed executions for ``--seconds`` (at least three), with a
   ``gc.collect()`` before each, outside the timed window.  Each execution is
   placed between two executions of the same workload by
   ``baseline/voipsim_base``, a frozen copy of voipsim.  ``wall_vs_base`` is
   the median over executions of the program's wall time divided by the mean
   of the copy's two around it.  The shared host changes speed by up to 2x,
   over seconds to hours, and the program and the copy slow down alike, so
   the ratio holds still where wall time does not;
3. checks every CSV row of every execution against the closed-form oracle
   (``oracle.py``) and requires CSV and JSONL bytes identical to the reference;
4. with ``--trace 0``: measures ``setup_s`` from set-up probes in fresh
   interpreters spread over the same window, each paired with a probe of the
   frozen copy: ``SETUP_REF_S`` times the median ratio of the two, so that
   it too follows the program and not the host's load; and ``peak_rss_mb``
   in a fresh child that does exactly one execution;
   with ``--trace 1``: makes one layer-traced execution (``layers.py``),
   checks it is byte-identical too, and writes its spans to
   ``.perfbench-out/spans-<workload>-seed<N>.jsonl``.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (CSV rows checked, and rows that raised, failed
the oracle or differed between executions) and the metrics named in
BENCHMARK.json.  The benchmark exits non-zero, printing no result, when it
cannot find the voipsim sources or the frozen copy has changed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import layers
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
CHILD = HERE / "child.py"
BASELINE = HERE / "baseline"  # holds voipsim_base, a frozen copy of voipsim
BASELINE_SHA256 = "fc0f5866a118afdeee5cfa289ced89d4149d4f8c79ec3ef050e1397bebcae8f9"

MIN_REPS = 3
SETUP_PROBES = 10
# setup_s is given in seconds on a host where the frozen copy sets up in this
# time: about its median on the quiet VM described in README.md
SETUP_REF_S = 0.1
CHILD_TIMEOUT_S = 60

LAYER_FUNCTIONS = (
    "netsim.schedule", "netsim.transmit", "netsim.reliable_send", "netsim.deliver_local",
    "frames.encode_full", "frames.decode_full", "frames.encode_mini", "frames.decode_mini",
    "frames.encode_rtp", "frames.decode_rtp", "frames.encode_rsw", "frames.decode_rsw",
    "iax.send_media", "iax.receive_media_frame", "iax.handle_signal",
    "rsw.send_media_rtp", "rsw.server_route",
    "qos.score_run",
)


@dataclass(frozen=True)
class Workload:
    settings: oracle.Settings
    jsonl: bool = False


WORKLOADS = {
    "paper_sweep": Workload(oracle.Settings()),
    # every run is a full paper run; the grid is halved so that a window holds
    # enough executions (see README.md)
    "paper_sweep_jsonl": Workload(oracle.Settings(delay_step=50), jsonl=True),
    "long_call": Workload(oracle.Settings(delay_start=150, delay_end=150, protocols=("IAX",),
                                          duration_s=Fraction(650), frame_ms=10, payload_bytes=10)),
}


def machine_record() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": model,
    }


# -- executions -------------------------------------------------------------


class Checker:
    """Counts attempted and failed rows over every execution of one workload."""

    def __init__(self, settings: oracle.Settings, csv_path: Path, jsonl_path: Path | None):
        self.settings = settings
        self.csv_path = csv_path
        self.jsonl_path = jsonl_path
        self.rows = len(settings.expected_rows())
        self.attempted = 0
        self.failed = 0
        self.reference: tuple[bytes, bytes | None] | None = None
        self._oracle_bad: set[int] = set()

    def clear(self) -> None:
        for path in (self.csv_path, self.jsonl_path):
            if path is not None:
                path.unlink(missing_ok=True)

    def record(self, ran: bool) -> set[int]:
        """Check the outputs of the execution that just ended; returns bad rows."""
        self.attempted += self.rows
        try:
            csv = self.csv_path.read_bytes() if ran else None
            jsonl = self.jsonl_path.read_bytes() if ran and self.jsonl_path else None
        except OSError:
            csv = None
        if csv is None:
            bad = set(range(self.rows))
        elif self.reference is None:
            self.reference = (csv, jsonl)
            self._oracle_bad = oracle.failing_rows(self.settings, csv.decode("ascii", "replace"))
            bad = set(self._oracle_bad)
        else:
            ref_csv, ref_jsonl = self.reference
            bad = self._oracle_bad | oracle.differing_rows(self.settings, ref_csv, csv)
            if self.jsonl_path is not None:
                bad |= oracle.differing_trace_rows(self.settings, ref_jsonl or b"", jsonl or b"")
        self.failed += len(bad)
        return bad


def _cpu_s() -> float:
    """CPU seconds of this process and its waited-for children."""
    return sum(
        r.ru_utime + r.ru_stime
        for r in (resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def execute(argv: list[str], package: str = "voipsim") -> tuple[bool, float, float]:
    """One in-process ``<package>.cli.main`` call: (succeeded, wall s, CPU s)."""
    cli = importlib.import_module(f"{package}.cli")
    sink = io.StringIO()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except Exception as exc:  # a crashing execution is counted, not fatal
        print(f"execution raised {type(exc).__name__}: {exc}", file=sys.stderr)
        rc = -1
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    if rc != 0:
        print(f"voipsim exited {rc}: {sink.getvalue()[-500:]}", file=sys.stderr)
    return rc == 0, wall, cpu


def baseline_digest() -> str:
    """SHA-256 over the frozen copy's file names and bytes."""
    digest = hashlib.sha256()
    for path in sorted((BASELINE / "voipsim_base").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _baseline_argv(argv: list[str], out_dir: Path) -> list[str]:
    """The same workload for the frozen copy, writing next to the program's outputs."""
    names = {"--out": "base.csv", "--trace": "base.jsonl"}
    return [str(out_dir / names[argv[i - 1]]) if i and argv[i - 1] in names else arg
            for i, arg in enumerate(argv)]


def _child(mode: str, argv: list[str], package: str = "voipsim") -> subprocess.CompletedProcess:
    path = SRC if package == "voipsim" else BASELINE
    proc = subprocess.run(
        [sys.executable, str(CHILD), mode, str(path), package, *argv],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} probe exited {proc.returncode}: {proc.stderr[-500:]}")
    return proc


def setup_probe(argv: list[str], package: str = "voipsim") -> float:
    """Seconds from starting a fresh interpreter to the moment the sweep could begin."""
    t0 = time.perf_counter()
    return float(_child("setup", argv, package).stdout.split()[-1]) - t0


def measure_peak_rss(argv: list[str], checker: Checker) -> float:
    """Peak RSS (MiB) of a fresh process doing exactly one execution."""
    checker.clear()
    info = json.loads(_child("rss", argv).stdout.strip().splitlines()[-1])
    checker.record(info["rc"] == 0)
    return info["hwm_kb"] / 1024


# -- one workload -------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: int, trace: bool, out_dir: Path) -> tuple[dict, Checker, bool]:
    """Measure one workload; returns (metric values, checker, books balanced)."""
    work = WORKLOADS[name]
    csv_path, jsonl_path = out_dir / "sweep.csv", (out_dir / "trace.jsonl" if work.jsonl else None)
    argv = work.settings.cli_args() + ["--seed", str(seed), "--out", str(csv_path)]
    if jsonl_path is not None:
        argv += ["--trace", str(jsonl_path)]
    checker = Checker(work.settings, csv_path, jsonl_path)

    base_argv = _baseline_argv(argv, out_dir)

    def time_baseline() -> float:
        gc.collect()
        ok, wall, _cpu = execute(base_argv, "voipsim_base")
        if not ok:
            raise RuntimeError(f"{name}: the frozen baseline failed")
        return wall

    setups: list[tuple[float, float]] = []

    def setup_pair() -> tuple[float, float]:
        """Set-up seconds of the program and of the frozen copy, probed back to back."""
        if len(setups) % 2:
            base = setup_probe(base_argv, "voipsim_base")
            return setup_probe(argv), base
        program = setup_probe(argv)
        return program, setup_probe(base_argv, "voipsim_base")

    checker.clear()
    checker.record(execute(argv)[0])  # warm-up; its outputs are the reference
    time_baseline()  # warm-up
    if not trace:
        setup_pair()  # warm-up; compiles and caches both packages' bytecode

    walls, bases, ratios, cpus = [], [], [], []
    start = pair_start = time.perf_counter()
    base_before = time_baseline()
    # every execution sits between two of the frozen copy's; stop when the
    # next execution and copy, taking as long as the last ones, would end
    # past the window
    while len(walls) < MIN_REPS or 2 * time.perf_counter() - pair_start - start < seconds:
        pair_start = time.perf_counter()
        gc.collect()  # runs leave reference cycles; free them outside the timed window
        checker.clear()
        ok, wall, cpu = execute(argv)
        checker.record(ok)
        base_after = time_baseline()
        if ok:
            walls.append(wall)
            bases.append(base_after)
            ratios.append(wall / ((base_before + base_after) / 2))
            cpus.append(cpu)
        elif time.perf_counter() - start > 3 * seconds:
            break
        base_before = base_after
        # spread the set-up probes evenly over the window, so that the host is
        # sampled at many moments
        while not trace and len(setups) < SETUP_PROBES * min(1.0, (time.perf_counter() - start) / seconds):
            setups.append(setup_pair())
    setups += [setup_pair() for _ in range(0 if trace else SETUP_PROBES - len(setups))]
    if not walls:
        raise RuntimeError(f"{name}: no execution succeeded")
    wall_vs_base = statistics.median(ratios)
    print(f"{name}: wall_s median {statistics.median(walls):.4f} s (min {min(walls):.4f} s), "
          f"baseline median {statistics.median(bases):.4f} s, wall_vs_base median {wall_vs_base:.4f} "
          f"over {len(walls)} pairs (warm-up excluded)")

    balanced = True
    if not trace:
        values = {
            "setup_s": SETUP_REF_S * statistics.median(p / b for p, b in setups),
            "wall_vs_base": wall_vs_base,
            "peak_rss_mb": measure_peak_rss(argv, checker),
        }
        print(f"{name}: setup_s {values['setup_s']:.4f} s; raw medians over {len(setups)} pairs of fresh "
              f"interpreters: {statistics.median(p for p, _ in setups):.4f} s, frozen copy "
              f"{statistics.median(b for _, b in setups):.4f} s")
    else:
        tracer = layers.LayerTracer()
        base = time_baseline()
        gc.collect()
        checker.clear()
        tracer.install()
        try:
            ok, traced_wall, _cpu = execute(argv)
        finally:
            tracer.uninstall()
        bad = checker.record(ok)
        base = (base + time_baseline()) / 2
        print(f"{name}: layer-traced execution {'byte-identical' if ok and not bad else 'DIFFERS'} "
              f"to the untraced reference")
        trace_bytes = jsonl_path.stat().st_size if jsonl_path and jsonl_path.exists() else 0
        values = tracer.metrics(LAYER_FUNCTIONS)
        emit_trace_s = values["experiment.emit_trace.s"]
        values.update({
            "scenarios.trace_records": _count_lines(jsonl_path) if jsonl_path else 0,
            "experiment.emit_trace.mb_per_s": trace_bytes / 1e6 / emit_trace_s if emit_trace_s else 0.0,
            "cli.wall_s": statistics.median(walls),
            "cli.cpu_s": statistics.median(cpus),
            "cli.trace_overhead": traced_wall / base / wall_vs_base,
        })
        unaccounted = tracer.unaccounted_ns()
        balanced = unaccounted == 0
        print(f"{name}: module self_s sum to the traced experiment.run_sweep.s "
              f"{values['experiment.run_sweep.s']:.4f} s (unaccounted {unaccounted} ns)")
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        tracer.write_spans(spans_path, {"workload": name, "seed": seed, "machine": machine_record()})
        print(f"{name}: {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    return values, checker, balanced


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "voipsim" / "cli.py").is_file():
        print(f"perfbench: voipsim sources not found under {SRC}", file=sys.stderr)
        return 2
    if baseline_digest() != BASELINE_SHA256:
        print(f"perfbench: the frozen baseline under {BASELINE} has changed", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BASELINE)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    machine = machine_record()
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    OUT_DIR.mkdir(exist_ok=True)
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as tmp:
            values, checker, balanced = run_workload(name, args.seed, args.seconds, bool(args.trace), Path(tmp))
        attempted += checker.attempted
        failed += checker.failed
        correct &= checker.failed == 0 and balanced
        prefix = "" if len(names) == 1 else f"{name}."
        for m in declared:
            metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"  {name:<18} {m['name']:<36} {values[m['name']]:>14.6g} {m['unit']}")
        print(f"  {name:<18} {'failed_frac':<36} {checker.failed / checker.attempted:>14.6g} ratio "
              f"({checker.failed} of {checker.attempted} rows)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
