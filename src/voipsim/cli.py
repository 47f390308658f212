"""Command-line front end for the delay sweep.

Settings come from three layers, strongest first: explicit flags, a
``key=value`` config file (``#`` starts a comment; dashes and underscores
in keys are interchangeable), and built-in defaults.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .experiment import (
    SweepConfig,
    compare_report,
    emit_csv,
    run_sweep,
)
from .netsim import HorizonExceeded
from .scenarios import RunNotEnded, TraceLog

_PROTOCOL_CHOICES = {"iax": ("IAX",), "rsw": ("RSW",), "both": ("IAX", "RSW")}

# config-file key (and flag name) -> (SweepConfig field or file, value parser, metavar, help)
_SETTINGS = {
    "delay-start": ("delay_start_ms", float, "MS", "first configured delay (default 0)"),
    "delay-end": ("delay_end_ms", float, "MS", "last configured delay, inclusive (default 2000)"),
    "delay-step": ("delay_step_ms", float, "MS", "grid step (default 25)"),
    "protocol": ("protocols", str.lower, None, "which stack(s) to run (default both)"),
    "duration": ("duration_s", float, "SECONDS", "media phase length per run (default 10)"),
    "frame-ms": ("frame_interval_ms", float, "MS", "media frame cadence (default 20)"),
    "payload-bytes": ("payload_bytes", int, "N", "media payload size, 1..1400 (default 160)"),
    "link-rate": ("link_rate_bps", int, "BPS", "link rate in bits/second (default 128000)"),
    "seed": ("seed", int, None, "simulation seed (default 1)"),
    "out": ("out", str, "CSV", "results file (default sweep.csv)"),
    "trace": ("trace", str, "JSONL", "also write a per-event trace"),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="voipsim",
        description="Sweep one-way link delay across two VoIP signaling stacks and score each run with an E-model MOS.",
    )
    p.add_argument("--config", metavar="FILE", help="key=value settings file; explicit flags win")
    for key, (dest, parse, metavar, help_text) in _SETTINGS.items():
        choices = sorted(_PROTOCOL_CHOICES) if key == "protocol" else None
        p.add_argument(f"--{key}", dest=dest, type=parse, choices=choices, metavar=metavar, help=help_text)
    return p


def load_config_file(path: str) -> dict[str, str]:
    """Parse a key=value settings file into raw string values."""
    settings: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().lower().replace("_", "-")
            value = value.strip()
            if key not in _SETTINGS:
                raise ValueError(f"{path}:{lineno}: unknown setting {key!r}")
            if not value:
                raise ValueError(f"{path}:{lineno}: empty value for {key!r}")
            settings[key] = value
    return settings


def resolve_settings(args: argparse.Namespace) -> tuple[SweepConfig, str, str | None]:
    """The sweep config, CSV path and trace path (or None) that parsed flags ask for.

    Config-file values are layered under explicit flags.  A trace path that
    names the CSV file is refused: the same file, hard links included, when
    both exist, else the same path after resolving links and relative parts.
    """
    merged: dict = {}
    if args.config:
        for key, raw in load_config_file(args.config).items():
            dest, parse = _SETTINGS[key][:2]
            try:
                merged[dest] = parse(raw)
            except ValueError:
                raise ValueError(f"{args.config}: setting {key!r}: cannot parse {raw!r}") from None
    for key, (dest, *_spec) in _SETTINGS.items():
        flag_value = getattr(args, dest)
        if flag_value == "":  # refused as in a config file, not read as the default
            raise ValueError(f"empty value for --{key}")
        if flag_value is not None:
            merged[dest] = flag_value
    out_path = merged.pop("out", "sweep.csv")
    trace_path = merged.pop("trace", None)
    if trace_path is not None and _same_file(trace_path, out_path):
        raise ValueError(f"the CSV ({out_path}) and the trace ({trace_path}) name the same file")
    protocol = merged.pop("protocols", "both")
    if protocol not in _PROTOCOL_CHOICES:
        raise ValueError(f"protocol must be one of {sorted(_PROTOCOL_CHOICES)}, got {protocol!r}")
    return SweepConfig(protocols=_PROTOCOL_CHOICES[protocol], **merged), out_path, trace_path


def _same_file(a: str, b: str) -> bool:
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _check_writable(path: str) -> None:
    """Refuse a CSV path that could not be written, before the sweep; creates nothing."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder) or not os.access(folder, os.W_OK | os.X_OK):
        raise OSError(f"cannot write {path}: {folder} is not a writable directory")
    if os.path.isdir(path) or (os.path.exists(path) and not os.access(path, os.W_OK)):
        raise OSError(f"cannot write {path}: not a writable file")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, out_path, trace_path = resolve_settings(args)
        _check_writable(out_path)
        # the trace streams out during the sweep, so a bad path fails before any run
        sink = open(trace_path, "w", encoding="ascii", newline="") if trace_path else contextlib.nullcontext()
        with sink as fh:
            trace = TraceLog(fh) if fh is not None else None
            rows = run_sweep(cfg, trace)
        emit_csv(rows, out_path)
        print(f"wrote {len(rows)} rows to {out_path}")
        if trace is not None:
            print(f"wrote {trace.count} trace records to {trace_path}")
        if len(set(cfg.protocols)) == 2:
            print(compare_report(rows))
    except (OSError, ValueError, HorizonExceeded, RunNotEnded) as exc:
        print(f"voipsim: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
