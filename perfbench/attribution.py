"""Per-layer attribution from one traced run.

Spans come from two places: the ones ``repro`` already emits
(``loader.fetch``, ``loader.decode``, ``loader.collate``, ``loader.wait``,
``decode.batch``) and the ones the benchmark records around
its own calls into the stack (``bench.*``).  A span's *self time* is its
duration minus the time covered by the spans nested directly inside it on
the same thread, so self times along one thread add up to the wall time
that thread spent inside spans.
"""

from __future__ import annotations

import json
import os
import threading
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from repro.obs import SpanEvent, get_tracer

#: Which layer each span name belongs to, in the order the table prints.
SPAN_LAYERS = {
    "bench.convert": "core.convert",
    "bench.server_start": "serving.server",
    "server.storage_read": "serving.server",
    "bench.get_record_batch": "serving.cluster",
    "loader.fetch": "serving.client",
    "loader.decode": "codecs.decode",
    "decode.batch": "codecs.decode",
    "bench.next": "pipeline.loader",
    "loader.wait": "pipeline.loader",
    "loader.collate": "pipeline.loader",
    "loader.augment": "pipeline.loader",
    "bench.train_step": "training.loop",
    "bench.check": "benchmark",
}

#: Floating-point slack when deciding whether one span nests in another.
_NEST_SLACK_S = 1e-6


#: Name prefix of the record server's event-loop threads.
SERVER_THREAD_PREFIX = "pcr-record-server"


class SpanLog:
    """Spans moved out of the tracer's bounded ring buffer as a run goes.

    ``drain()`` must be called while no other thread records spans (between
    closed-loop calls, between epochs).  The record server runs in this
    process and its storage reads go through ``PCRReader``, which emits
    ``loader.fetch``; spans from live server threads are renamed
    ``server.storage_read`` here, so the client's fetches are not counted
    twice.
    """

    def __init__(self) -> None:
        self.events: list[SpanEvent] = []
        self.tracer = get_tracer()

    def drain(self) -> None:
        server_threads = {
            thread.ident for thread in threading.enumerate()
            if thread.name.startswith(SERVER_THREAD_PREFIX)
        }
        for event in self.tracer.events():
            if event.thread_id in server_threads and event.name == "loader.fetch":
                event = SpanEvent("server.storage_read", event.parent, event.start,
                                  event.duration, event.thread_id, event.args)
            self.events.append(event)
        self.tracer.clear()

    def drain_if_half_full(self) -> None:
        if len(self.tracer) * 2 >= self.tracer.capacity:
            self.drain()

    def export_chrome(self, path: Path) -> Path:
        """The collected spans as Chrome trace-event JSON (``"X"`` events)."""
        origin = min((event.start for event in self.events), default=0.0)
        trace = []
        for event in sorted(self.events, key=lambda e: e.start):
            args = dict(event.args or {})
            if event.parent is not None:
                args["parent"] = event.parent
            trace.append({
                "name": event.name, "ph": "X", "pid": os.getpid(), "tid": event.thread_id,
                "ts": (event.start - origin) * 1e6, "dur": event.duration * 1e6,
                "cat": event.name.split(".", 1)[0], "args": args,
            })
        path.write_text(json.dumps({"traceEvents": trace, "displayTimeUnit": "ms"}) + "\n")
        return path


@dataclass
class SpanTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def self_times(events, windows=None) -> dict[str, SpanTotals]:
    """Calls, total and self seconds per span name.

    ``windows`` is an optional list of ``(start, end)`` perf-counter
    intervals; only spans that start inside one of them are counted (the
    nesting itself is always computed over every span, so a parent outside
    a window still claims its children).
    """
    by_thread = defaultdict(list)
    for event in events:
        by_thread[event.thread_id].append(event)
    child_time: dict[int, float] = {}
    for thread_events in by_thread.values():
        thread_events.sort(key=lambda e: (e.start, -e.duration))
        stack = []
        for event in thread_events:
            while stack and stack[-1].end <= event.start + _NEST_SLACK_S:
                stack.pop()
            if stack and event.end <= stack[-1].end + _NEST_SLACK_S:
                parent = stack[-1]
                child_time[id(parent)] = child_time.get(id(parent), 0.0) + event.duration
            stack.append(event)
    totals: dict[str, SpanTotals] = defaultdict(SpanTotals)
    for event in events:
        if windows is not None and not any(lo <= event.start < hi for lo, hi in windows):
            continue
        entry = totals[event.name]
        entry.calls += 1
        entry.total_s += event.duration
        entry.self_s += max(0.0, event.duration - child_time.get(id(event), 0.0))
    return dict(totals)


def format_table(title: str, totals: dict[str, SpanTotals], wall_s: float) -> str:
    """A fixed-width attribution table, one row per span name."""
    order = list(SPAN_LAYERS)
    names = sorted(totals, key=lambda n: (order.index(n) if n in order else len(order), n))
    lines = [
        title,
        f"  {'layer':<16} {'span':<24} {'calls':>7} {'total_s':>9} {'self_s':>9} {'self%wall':>9}",
    ]
    for name in names:
        entry = totals[name]
        share = 100.0 * entry.self_s / wall_s if wall_s > 0 else 0.0
        lines.append(
            f"  {SPAN_LAYERS.get(name, '?'):<16} {name:<24} {entry.calls:>7d} "
            f"{entry.total_s:>9.3f} {entry.self_s:>9.3f} {share:>8.1f}%"
        )
    lines.append(f"  timed wall {wall_s:.3f} s")
    return "\n".join(lines)
