"""Fresh-interpreter probes, started by run.py one process per measurement.

    python3 child.py setup PATH PACKAGE VOIPSIM_ARGS...
        Import PACKAGE (voipsim, or its frozen copy voipsim_base) and
        PACKAGE.cli from PATH, parse the arguments and build the sweep config
        through ``PACKAGE.cli.main``; print the monotonic clock at the moment
        the sweep would start, and exit before it runs.

    python3 child.py rss PATH PACKAGE VOIPSIM_ARGS...
        Run ``PACKAGE.cli.main`` once; print its exit code and the process's
        peak resident memory (VmHWM, KiB) as one JSON line.
"""

import importlib
import sys
import time


def _setup(package: str, argv: list[str]) -> int:
    importlib.import_module(package)  # counted: the package import is set-up
    cli = importlib.import_module(f"{package}.cli")

    def ready(*_args, **_kwargs):
        print(repr(time.perf_counter()), flush=True)
        raise SystemExit(0)

    cli.run_sweep = ready
    cli.main(argv)
    print(f"{package}.cli.main returned without starting the sweep", file=sys.stderr)
    return 1


def _rss(package: str, argv: list[str]) -> int:
    import contextlib
    import io
    import json

    cli = importlib.import_module(f"{package}.cli")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    # VmHWM belongs to this process's own address space.  ru_maxrss would not
    # do: Linux carries it across exec, so it starts at the parent's RSS.
    with open("/proc/self/status", encoding="ascii") as fh:
        hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    print(json.dumps({"rc": rc, "hwm_kb": hwm_kb}))
    return 0


if __name__ == "__main__":
    mode, path, package, args = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
    sys.path.insert(0, path)
    sys.exit({"setup": _setup, "rss": _rss}[mode](package, args))
