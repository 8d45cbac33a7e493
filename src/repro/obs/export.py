"""Exporters: JSON snapshot and chrome-trace (catapult) views.

The JSON snapshot (schema ``repro-obs/v1``) is the machine-readable
dump that ``tests/test_obs.py`` asserts against.  The chrome
trace (``chrome://tracing`` / https://ui.perfetto.dev) renders the
simulator's per-unit timeline: each hardware unit (``nttu``,
``bconvu``, ``kmu``, ``autou``, ``dsu``, ``hbm``) becomes one thread
row inside a "simulated time" process, wall-clock spans land in a
separate "wall clock" process.
"""

from __future__ import annotations

import json

from repro.obs.tracer import SIM, WALL, Span, Tracer

SCHEMA = "repro-obs/v1"

# Chrome-trace process ids per clock domain.
_PID = {WALL: 1, SIM: 2}
_PROCESS_NAMES = {1: "wall clock", 2: "simulated time"}


def snapshot(tracer: Tracer) -> dict:
    """Everything the tracer holds, as plain JSON-ready data."""
    return {
        "schema": SCHEMA,
        "enabled": tracer.enabled,
        "num_spans": len(tracer.spans),
        "dropped_events": tracer.dropped_events,
        "spans": [span.to_dict() for span in tracer.spans],
        "counters": tracer.metrics.counters(),
        "histograms": tracer.metrics.histograms(),
    }


def write_json(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot(tracer), fh, indent=1)


def _tid_map(spans: list[Span]) -> dict[tuple[str, str], int]:
    """Stable (clock, track) -> thread-id assignment, first-seen order."""
    tids: dict[tuple[str, str], int] = {}
    for span in spans:
        key = (span.clock, span.track or "main")
        if key not in tids:
            tids[key] = len(tids) + 1
    return tids


def to_chrome_trace(tracer: Tracer) -> dict:
    """The catapult JSON object format (``ph: X`` complete events)."""
    tids = _tid_map(tracer.spans)
    events: list[dict] = []
    for pid, name in _PROCESS_NAMES.items():
        events.append({"ph": "M", "pid": pid, "tid": 0,
                       "name": "process_name", "args": {"name": name}})
    for (clock, track), tid in tids.items():
        events.append({"ph": "M", "pid": _PID[clock], "tid": tid,
                       "name": "thread_name", "args": {"name": track}})
    for span in tracer.spans:
        tid = tids[(span.clock, span.track or "main")]
        args = dict(span.labels)
        if span.parent_id is not None:
            args["parent"] = span.parent_id
        events.append({
            "ph": "X", "pid": _PID[span.clock], "tid": tid,
            "name": span.name,
            "ts": span.start_s * 1e6,        # microseconds
            "dur": span.duration_s * 1e6,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(tracer), fh)
