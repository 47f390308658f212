"""Layer-traced execution: wrap voipsim's layers from outside and time them.

:class:`LayerTracer` replaces every public function and every public method
of the classes defined in the traced modules with a timing wrapper, and
rebinds every other place the package holds the same object (names imported
with ``from .frames import decode_rtp``, values of module-level dicts such
as ``experiment._RUNNERS``), so the wrapper is what the caller looks up.
The scenario node classes are private but their ``handle`` methods are the
glue the event core dispatches to, so the public methods of private classes
are wrapped too.

Per-packet boundaries are aggregated into (calls, total ns, self ns) per
function.  Run-level boundaries and above (:data:`SPAN_KEYS`) are also kept
as full spans: ``(id, parent, run, name, start_ns, end_ns)``.  Self time is
a call's duration minus the durations of the wrapped calls directly inside
it, so the self times of all calls under a span add up to that span exactly.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import sys
import time
from enum import Enum
from fractions import Fraction

PACKAGE = "voipsim"
MODULES = ("netsim", "frames", "iax", "rsw", "qos", "scenarios", "experiment", "cli")

SWEEP_KEY = "experiment.run_sweep"
# A call to one of these is one simulated run; spans inside it carry its id.
RUN_KEYS = frozenset({"experiment.run_scenario", "scenarios.run_iax_call", "scenarios.run_rsw_conference"})
SPAN_KEYS = RUN_KEYS | {
    "cli.main",
    SWEEP_KEY,
    "experiment.emit_csv",
    "experiment.emit_trace",
    "experiment.compare_report",
}

TAIL_LADDER = (50, 75, 90, 95, 99, 99.9, 99.99)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of ``n`` samples beyond it.

    Fewer than 20 samples leave no such percentile; the maximum (100) is
    reported then, and the sample count next to it says why.
    """
    for pct in reversed(TAIL_LADDER):
        if n - math.ceil(Fraction(str(pct)) * n / 100) >= 10:
            return pct
    return 100


def nearest_rank(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 when there are none)."""
    if not values:
        return 0.0
    ranked = sorted(values)
    return ranked[max(0, math.ceil(Fraction(str(pct)) * len(ranked) / 100) - 1)]


def _targets():
    """(module label, key, owner, attribute, original) for every traced callable."""
    for label in MODULES:
        module = importlib.import_module(f"{PACKAGE}.{label}")
        for name, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and not name.startswith("_"):
                yield label, f"{label}.{name}", module, name, obj
            elif inspect.isclass(obj) and not issubclass(obj, (Enum, BaseException)):
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    if inspect.isfunction(member) or (isinstance(member, property) and member.fget):
                        yield label, f"{label}.{obj.__name__}.{attr}", obj, attr, member


class LayerTracer:
    """Wraps the package's layers while installed; collects calls and spans."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stats: dict[str, list[int]] = {}  # key -> [calls, total ns, self ns]
        self.sweep_self_ns: dict[str, int] = dict.fromkeys(MODULES, 0)
        self.spans: list[tuple] = []  # (id, parent, run, name, start ns, end ns)
        self.events = 0
        self.queue_hwm = 0
        self._stack: list[list[int]] = []  # child ns of each open call
        self._open_spans: list[int] = []
        self._run_id: int | None = None
        self._runs = 0
        self._sweep_depth = 0
        self._patches: list[tuple] = []
        # Counters read at boundaries of the event core.
        self._hooks = {
            "netsim.Simulator.schedule": (None, self._after_schedule),
            "netsim.Simulator.run_until_idle": (self._before_run, self._after_run),
        }

    # -- counters ------------------------------------------------------------

    def _after_schedule(self, args, _token) -> None:
        # scheduled but not yet dispatched; the heap only grows here
        self.queue_hwm = max(self.queue_hwm, len(getattr(args[0], "_heap", ())))

    @staticmethod
    def _before_run(args) -> int:
        return args[0].dispatched

    def _after_run(self, args, dispatched_before: int) -> None:
        self.events += args[0].dispatched - dispatched_before

    # -- wrappers --------------------------------------------------------------

    def wrap(self, label: str, key: str, fn):
        """A timing wrapper around ``fn`` that books its time under ``key``."""
        stat = self.stats.setdefault(key, [0, 0, 0])
        stack, clock, sweep_self = self._stack, self.clock, self.sweep_self_ns
        before, after = self._hooks.get(key, (None, None))
        is_span, is_run, is_sweep = key in SPAN_KEYS, key in RUN_KEYS, key == SWEEP_KEY
        tracer = self

        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            if is_span:
                span_id, parent, new_run = tracer._open_span(is_run)
                if is_sweep:
                    tracer._sweep_depth += 1
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                own = duration - frame[0]
                stat[0] += 1
                stat[1] += duration
                stat[2] += own
                if tracer._sweep_depth:
                    sweep_self[label] += own
                if is_span:
                    if is_sweep:
                        tracer._sweep_depth -= 1
                    tracer._close_span(span_id, parent, new_run, key, start, end)
                if after:
                    after(args, token)

        wrapper.__wrapped__ = fn
        return wrapper

    def _open_span(self, is_run: bool) -> tuple[int, int | None, bool]:
        span_id = len(self.spans) + len(self._open_spans)
        parent = self._open_spans[-1] if self._open_spans else None
        self._open_spans.append(span_id)
        new_run = is_run and self._run_id is None
        if new_run:
            self._runs += 1
            self._run_id = self._runs
        return span_id, parent, new_run

    def _close_span(self, span_id, parent, new_run, key, start, end) -> None:
        self._open_spans.pop()
        self.spans.append((span_id, parent, self._run_id, key, start, end))
        if new_run:
            self._run_id = None

    # -- install / uninstall ----------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced callable and rebind every name that holds one."""
        wrapped: dict[int, tuple[object, object]] = {}
        for label, key, owner, attr, original in list(_targets()):
            if isinstance(original, property):
                replacement = property(self.wrap(label, key, original.fget), original.fset, original.fdel)
            else:
                replacement = self.wrap(label, key, original)
            self._set(owner, attr, replacement)
            wrapped[id(original)] = (original, replacement)
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in modules:
            for name, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit and hit[0] is value:
                    self._set(module, name, hit[1])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        hit = wrapped.get(id(v))
                        if hit and hit[0] is v:
                            self._set(value, k, hit[1])

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------

    def write_spans(self, path, header: dict) -> None:
        """Write the header, then one span per line, in start order."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span_id, parent, run, name, start, end in sorted(self.spans, key=lambda s: (s[4], s[0])):
                fh.write(json.dumps({"id": span_id, "parent": parent, "run": run, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")

    def _short(self, metric: str) -> list[int]:
        """Stats of the callable named ``module.attr`` (class name elided)."""
        label, attr = metric.split(".", 1)
        found = [v for k, v in self.stats.items() if k.split(".")[0] == label and k.split(".")[-1] == attr]
        if len(found) != 1:
            raise LookupError(f"{metric!r} matches {len(found)} traced callables")
        return found[0]

    def span_seconds(self, key: str) -> float:
        return self.stats.get(key, [0, 0, 0])[1] / 1e9

    def run_ms(self, key: str) -> list[float]:
        return [(end - start) / 1e6 for _i, _p, _r, name, start, end in self.spans if name == key]

    def metrics(self, per_fn: tuple[str, ...]) -> dict[str, float]:
        """Calls, ns/call, module self time and event-core counters."""
        out: dict[str, float] = {}
        for metric in per_fn:
            calls, total, _own = self._short(metric)
            out[f"{metric}.calls"] = calls
            out[f"{metric}.ns"] = total / calls if calls else 0.0
        for label in MODULES:
            out[f"{label}.self_s"] = self.sweep_self_ns[label] / 1e9
        out["netsim.events"] = self.events
        out["netsim.ns_per_event"] = self.sweep_self_ns["netsim"] / self.events if self.events else 0.0
        out["netsim.queue_hwm"] = self.queue_hwm
        for name, key in (("iax_run", "scenarios.run_iax_call"), ("rsw_run", "scenarios.run_rsw_conference")):
            runs = self.run_ms(key)
            pct = tail_percentile(len(runs))
            out[f"scenarios.{name}.ms_p50"] = nearest_rank(runs, 50)
            out[f"scenarios.{name}.ms_tail"] = nearest_rank(runs, pct)
            out[f"scenarios.{name}.tail_pct"] = pct
            out[f"scenarios.{name}.samples"] = len(runs)
        for name in ("run_sweep", "emit_csv", "emit_trace", "compare_report"):
            out[f"experiment.{name}.s"] = self.span_seconds(f"experiment.{name}")
        return out

    def unaccounted_ns(self) -> int:
        """Traced run_sweep time not covered by the module self times (0 when the books balance)."""
        return self.stats.get(SWEEP_KEY, [0, 0, 0])[1] - sum(self.sweep_self_ns.values())
