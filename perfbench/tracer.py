"""Span wrappers around rtosim's public boundaries, for the traced run.

Installing a Tracer replaces each boundary in BOUNDARIES with a wrapper that
counts calls and adds up total and self nanoseconds; self time is the total
minus the time of the wrapped calls made inside it.  Spans are aggregated,
not stored.  A few boundaries also observe their arguments or result: the
engine's event kinds and queue depth, the recorder's timeout rows, and the
summaries' rows and delivered packets.

A boundary that no longer exists stops the install with its name, and
`require` names every boundary a workload should reach but did not, so a
refactor that moves a call shows up as an error, never as a zero.
"""
from __future__ import annotations

import importlib
import time
from collections import Counter
from dataclasses import dataclass

#: (label, module, class or None, attribute).  Functions are wrapped where
#: their caller looks them up, so a name imported into a module is wrapped
#: in that module.
BOUNDARIES = (
    ("cli.main", "rtosim.cli", None, "main"),
    ("config.build_scenario", "rtosim.config", None, "build_scenario"),
    ("config.build_scenario", "rtosim.cli", None, "build_scenario"),
    ("scenarios.prepare_scenario", "rtosim.scenarios", None,
     "prepare_scenario"),
    ("sim.Engine.run", "rtosim.sim", "Engine", "run"),
    ("sim.Engine.schedule", "rtosim.sim", "Engine", "schedule"),
    ("transport.Connection.on_ack", "rtosim.transport", "Connection",
     "on_ack"),
    ("transport.send_copy", "rtosim.transport", "FixedDelayPath",
     "send_copy"),
    ("transport.send_copy", "rtosim.transport", "ChainPath", "send_copy"),
    ("estimators.layer1_update", "rtosim.transport", None, "layer1_update"),
    ("estimators.extract_sample", "rtosim.transport", None, "extract_sample"),
    ("timeout.first_timeout", "rtosim.transport", None, "first_timeout"),
    ("timeout.backoff_interval", "rtosim.transport", None,
     "backoff_interval"),
    ("timeout.disconnect_decision", "rtosim.transport", None,
     "disconnect_decision"),
    ("metrics.TraceRecorder.record", "rtosim.metrics", "TraceRecorder",
     "record"),
    ("metrics.TraceRecorder.record_drop", "rtosim.metrics", "TraceRecorder",
     "record_drop"),
    ("metrics.summarize", "rtosim.scenarios", None, "summarize"),
    ("metrics.write_trace", "rtosim.cli", None, "write_trace"),
    ("metrics.read_trace", "rtosim.metrics", None, "read_trace"),
)

EVENT_KINDS = ("packet_arrival", "transmission_complete", "timer_expiry",
               "ack_arrival")


class MissingBoundary(RuntimeError):
    """A traced boundary is gone, or a workload no longer reaches it."""


@dataclass
class Span:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self, boundaries=BOUNDARIES) -> None:
        self.boundaries = boundaries
        self.spans = {label: Span() for label, *_ in boundaries}
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        for span in self.spans.values():
            span.calls = span.total_ns = span.self_ns = 0
        self.scheduled: Counter[str] = Counter()
        self.peak_pending = 0
        self.events = 0
        self.timeouts = 0
        self.summarized_rows = 0
        self.delivered = 0

    # -- observers: run after the wrapped call, outside its span ----------

    def _on_run(self, args, kwargs, result) -> None:
        self.events += result

    def _on_schedule(self, args, kwargs, result) -> None:
        self.scheduled[_arg(args, kwargs, 2, "kind").value] += 1
        self.peak_pending = max(self.peak_pending, args[0].pending())

    def _on_record(self, args, kwargs, result) -> None:
        if _arg(args, kwargs, 2, "event") == "timeout":
            self.timeouts += 1

    def _on_summarize(self, args, kwargs, result) -> None:
        self.summarized_rows += len(_arg(args, kwargs, 0, "rows"))
        self.delivered += result.packets_delivered

    def _wrap(self, label: str, fn):
        span = self.spans[label]
        stack = self._stack
        clock = time.perf_counter_ns
        observe = {"sim.Engine.run": self._on_run,
                   "sim.Engine.schedule": self._on_schedule,
                   "metrics.TraceRecorder.record": self._on_record,
                   "metrics.summarize": self._on_summarize}.get(label)

        def wrapper(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                span.calls += 1
                span.total_ns += elapsed
                span.self_ns += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        for label, module_name, class_name, attr in self.boundaries:
            where = ".".join(filter(None, (module_name, class_name, attr)))
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name, None)
                original = None if owner is None else owner.__dict__.get(attr)
            else:
                original = getattr(owner, attr, None)
            if not callable(original):
                self.uninstall()
                raise MissingBoundary(f"traced boundary {label} is missing: "
                                      f"{where} not found")
            setattr(owner, attr, self._wrap(label, original))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def require(self, unused: frozenset[str]) -> None:
        """Fail, naming them, if boundaries outside `unused` saw no call."""
        idle = sorted(label for label, span in self.spans.items()
                      if span.calls == 0 and label not in unused)
        if idle:
            raise MissingBoundary("traced boundaries never called: "
                                  + ", ".join(idle))

    # -- per-layer metrics of one iteration --------------------------------

    def layer_metrics(self) -> dict[str, float]:
        spans = self.spans

        def calls(*labels: str) -> int:
            return sum(spans[label].calls for label in labels)

        def self_s(*labels: str) -> float:
            return sum(spans[label].self_ns for label in labels) / 1e9

        record = ("metrics.TraceRecorder.record",
                  "metrics.TraceRecorder.record_drop")
        summarize_s = self_s("metrics.summarize")
        run_s = spans["sim.Engine.run"].total_ns / 1e9
        timers = self.scheduled["timer_expiry"]
        copies = calls("transport.send_copy")
        out = {
            "metrics.rows": calls(*record),
            "metrics.record_s": self_s(*record),
            "metrics.summarize_s": summarize_s,
            "metrics.summarize_rows_per_s":
                self.summarized_rows / summarize_s if summarize_s else 0.0,
            "metrics.write_trace_s": self_s("metrics.write_trace"),
            "metrics.read_trace_s": self_s("metrics.read_trace"),
            "sim.events": self.events,
            "sim.run_self_s": self_s("sim.Engine.run"),
            "sim.events_per_s": self.events / run_s if run_s else 0.0,
        }
        for kind in EVENT_KINDS:
            out[f"sim.scheduled.{kind}"] = self.scheduled[kind]
        out.update({
            "sim.peak_pending": self.peak_pending,
            "sim.stale_timer_share":
                1.0 - self.timeouts / timers if timers else 0.0,
            "transport.on_ack_calls": calls("transport.Connection.on_ack"),
            "transport.on_ack_s": self_s("transport.Connection.on_ack"),
            "transport.send_copy_calls": copies,
            "transport.send_copy_s": self_s("transport.send_copy"),
            "transport.copies_per_delivered":
                copies / self.delivered if self.delivered else 0.0,
            "transport.timeouts": self.timeouts,
        })
        for layer, name in (("estimators", "layer1_update"),
                            ("estimators", "extract_sample"),
                            ("timeout", "first_timeout"),
                            ("timeout", "backoff_interval"),
                            ("timeout", "disconnect_decision")):
            out[f"{layer}.{name}_calls"] = calls(f"{layer}.{name}")
            out[f"{layer}.{name}_s"] = self_s(f"{layer}.{name}")
        out.update({
            "config.build_calls": calls("config.build_scenario"),
            "config.build_s": self_s("config.build_scenario"),
            "scenarios.prepare_calls": calls("scenarios.prepare_scenario"),
            "scenarios.prepare_s": self_s("scenarios.prepare_scenario"),
            "cli.calls": calls("cli.main"),
            "cli.self_s": self_s("cli.main"),
        })
        return out
