"""Command-line front end for the delay sweep.

Settings come from three layers, strongest first: explicit flags, a
``key=value`` config file (``#`` starts a comment; dashes and underscores
in keys are interchangeable), and built-in defaults.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .experiment import (
    SweepConfig,
    compare_report,
    emit_csv,
    run_sweep,
)
from .scenarios import TraceLog

_PROTOCOL_CHOICES = {"iax": ("IAX",), "rsw": ("RSW",), "both": ("IAX", "RSW")}

# config-file key -> (argparse dest, value parser)
_SETTING_SPEC = {
    "delay-start": ("delay_start", float),
    "delay-end": ("delay_end", float),
    "delay-step": ("delay_step", float),
    "protocol": ("protocol", str),
    "duration": ("duration", float),
    "frame-ms": ("frame_ms", float),
    "payload-bytes": ("payload_bytes", int),
    "link-rate": ("link_rate", int),
    "seed": ("seed", int),
    "out": ("out", str),
    "trace": ("trace", str),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="voipsim",
        description="Sweep one-way link delay across two VoIP signaling stacks and score each run with an E-model MOS.",
    )
    p.add_argument("--config", metavar="FILE", help="key=value settings file; explicit flags win")
    p.add_argument("--delay-start", dest="delay_start", type=float, metavar="MS",
                   help="first configured delay (default 0)")
    p.add_argument("--delay-end", dest="delay_end", type=float, metavar="MS",
                   help="last configured delay, inclusive (default 2000)")
    p.add_argument("--delay-step", dest="delay_step", type=float, metavar="MS",
                   help="grid step (default 25)")
    p.add_argument("--protocol", type=str.lower, choices=sorted(_PROTOCOL_CHOICES),
                   help="which stack(s) to run (default both)")
    p.add_argument("--duration", type=float, metavar="SECONDS",
                   help="media phase length per run (default 10)")
    p.add_argument("--frame-ms", dest="frame_ms", type=float, metavar="MS",
                   help="media frame cadence (default 20)")
    p.add_argument("--payload-bytes", dest="payload_bytes", type=int, metavar="N",
                   help="media payload size, 1..1400 (default 160)")
    p.add_argument("--link-rate", dest="link_rate", type=int, metavar="BPS",
                   help="link rate in bits/second (default 128000)")
    p.add_argument("--seed", type=int, help="simulation seed (default 1)")
    p.add_argument("--out", metavar="CSV", help="results file (default sweep.csv)")
    p.add_argument("--trace", metavar="JSONL", help="also write a per-event trace")
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
            if key not in _SETTING_SPEC:
                raise ValueError(f"{path}:{lineno}: unknown setting {key!r}")
            if not value:
                raise ValueError(f"{path}:{lineno}: empty value for {key!r}")
            settings[key] = value
    return settings


def _merge_settings(args: argparse.Namespace) -> dict:
    """Layer config-file values under explicit flags; returns dest -> value."""
    merged: dict = {dest: None for dest, _parse in _SETTING_SPEC.values()}
    if args.config:
        for key, raw in load_config_file(args.config).items():
            dest, parse = _SETTING_SPEC[key]
            try:
                merged[dest] = parse(raw)
            except ValueError:
                raise ValueError(f"{args.config}: setting {key!r}: cannot parse {raw!r}") from None
    for dest, _parse in _SETTING_SPEC.values():
        flag_value = getattr(args, dest)
        if flag_value is not None:
            merged[dest] = flag_value
    return merged


def _config_from(merged: dict) -> SweepConfig:
    protocol = (merged["protocol"] or "both").lower()
    if protocol not in _PROTOCOL_CHOICES:
        raise ValueError(f"protocol must be one of {sorted(_PROTOCOL_CHOICES)}, got {protocol!r}")
    kwargs = {"protocols": _PROTOCOL_CHOICES[protocol]}
    for dest, key in (
        ("delay_start", "delay_start_ms"),
        ("delay_end", "delay_end_ms"),
        ("delay_step", "delay_step_ms"),
        ("duration", "duration_s"),
        ("frame_ms", "frame_interval_ms"),
        ("payload_bytes", "payload_bytes"),
        ("link_rate", "link_rate_bps"),
        ("seed", "seed"),
    ):
        if merged[dest] is not None:
            kwargs[key] = merged[dest]
    return SweepConfig(**kwargs)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        merged = _merge_settings(args)
        cfg = _config_from(merged)
        trace_path = merged["trace"]
        # the trace streams out during the sweep, so a bad path fails before any run
        sink = open(trace_path, "w", encoding="ascii", newline="") if trace_path else contextlib.nullcontext()
        with sink as fh:
            trace = TraceLog(fh) if fh is not None else None
            result = run_sweep(cfg, trace)
        out_path = merged["out"] or "sweep.csv"
        emit_csv(result, out_path)
        print(f"wrote {len(result.rows)} rows to {out_path}")
        if trace is not None:
            print(f"wrote {trace.count} trace records to {trace_path}")
        if len(set(cfg.protocols)) == 2:
            print(compare_report(result))
    except (OSError, ValueError) as exc:
        print(f"voipsim: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
