"""Span export: Chrome trace-event JSON, OTLP JSON and a text tree renderer.

``to_chrome_trace`` emits the `chrome://tracing` / Perfetto "trace event"
format — a JSON list of complete (``"ph": "X"``) events with microsecond
timestamps — so a traced polystore query can be dropped straight into the
browser's trace viewer: one row per thread (runtime workers, plan-wave
threads), spans nested by time.

``to_otlp`` shapes the same spans as an OTLP/JSON ``ExportTraceServiceRequest``
(``resourceSpans`` → ``scopeSpans`` → ``spans`` with hex ids, nanosecond
timestamps and typed attribute values), so traces can be posted to any
OpenTelemetry collector's ``/v1/traces`` endpoint without an SDK dependency.

``render_tree`` is the terminal-friendly view: the same spans as an
indented parent/child tree with durations and attributes, grouped by trace.
"""

from __future__ import annotations

import json
import os
from typing import IO, Any, Iterable

from repro.observability.tracing import Span

__all__ = ["render_tree", "to_chrome_trace", "to_otlp", "write_chrome_trace", "write_otlp"]


def to_chrome_trace(spans: Iterable[Span]) -> list[dict[str, Any]]:
    """Spans as Chrome trace-event dicts (complete events, ``ph="X"``)."""
    events: list[dict[str, Any]] = []
    tids: dict[str, int] = {}
    ordered = sorted(spans, key=lambda s: (s.start_s, s.span_id))
    for span in ordered:
        tid = tids.setdefault(span.thread, len(tids) + 1)
        events.append(
            {
                "name": span.name,
                "cat": span.kind,
                "ph": "X",
                "ts": round(span.start_s * 1_000_000, 3),
                "dur": round(span.duration_s * 1_000_000, 3),
                "pid": span.trace_id,
                "tid": tid,
                "args": {
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    **span.attrs,
                },
            }
        )
    # Thread-name metadata rows so the viewer labels each lane.
    for name, tid in tids.items():
        pids = {event["pid"] for event in events}
        for pid in sorted(pids):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": name},
                }
            )
    return events


def write_chrome_trace(target: "str | os.PathLike[str] | IO[str]",
                       spans: Iterable[Span]) -> int:
    """Write spans as Chrome trace JSON to a path or file object.

    Returns the number of trace events written (metadata rows included).
    """
    events = to_chrome_trace(spans)
    payload = json.dumps(events, indent=1, default=str)
    if isinstance(target, (str, os.PathLike)):
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        target.write(payload)
    return len(events)


def _otlp_value(value: Any) -> dict[str, Any]:
    """One attribute value in OTLP's typed ``AnyValue`` JSON encoding."""
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}  # int64s are JSON strings in OTLP
    if isinstance(value, float):
        return {"doubleValue": value}
    return {"stringValue": str(value)}


def _otlp_attributes(attrs: dict[str, Any]) -> list[dict[str, Any]]:
    return [
        {"key": key, "value": _otlp_value(value)}
        for key, value in sorted(attrs.items())
    ]


def to_otlp(spans: Iterable[Span],
            service_name: str = "bigdawg-repro") -> dict[str, Any]:
    """Spans as an OTLP/JSON ``ExportTraceServiceRequest`` body.

    The returned dict can be ``json.dumps``-ed and POSTed to an
    OpenTelemetry collector's ``/v1/traces`` endpoint as-is.  Trace and
    span ids are zero-padded hex (32 and 16 chars — the tracer's small
    integer ids embed in the low bits); timestamps are unix nanoseconds
    encoded as strings, per the OTLP JSON mapping of int64.  The span's
    ``kind`` and recording thread travel as attributes, since our span
    kinds (``query``, ``cast``, ``resilience``...) are domain labels, not
    OTLP's client/server enum.
    """
    otlp_spans: list[dict[str, Any]] = []
    for span in sorted(spans, key=lambda s: (s.start_s, s.span_id)):
        start_ns = int(span.start_s * 1_000_000_000)
        end_ns = start_ns + int(span.duration_s * 1_000_000_000)
        otlp_spans.append(
            {
                "traceId": f"{span.trace_id & (2**128 - 1):032x}",
                "spanId": f"{span.span_id & (2**64 - 1):016x}",
                "parentSpanId": (
                    "" if span.parent_id is None
                    else f"{span.parent_id & (2**64 - 1):016x}"
                ),
                "name": span.name,
                "kind": 1,  # SPAN_KIND_INTERNAL
                "startTimeUnixNano": str(start_ns),
                "endTimeUnixNano": str(end_ns),
                "attributes": _otlp_attributes(
                    {"span.kind": span.kind, "thread.name": span.thread, **span.attrs}
                ),
            }
        )
    return {
        "resourceSpans": [
            {
                "resource": {
                    "attributes": _otlp_attributes({"service.name": service_name}),
                },
                "scopeSpans": [
                    {
                        "scope": {"name": "repro.observability", "version": "1"},
                        "spans": otlp_spans,
                    }
                ],
            }
        ]
    }


def write_otlp(target: "str | os.PathLike[str] | IO[str]", spans: Iterable[Span],
               service_name: str = "bigdawg-repro") -> int:
    """Write spans as an OTLP/JSON request body to a path or file object.

    Returns the number of spans written.
    """
    payload = to_otlp(spans, service_name=service_name)
    text = json.dumps(payload, indent=1, default=str)
    if isinstance(target, (str, os.PathLike)):
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        target.write(text)
    return len(payload["resourceSpans"][0]["scopeSpans"][0]["spans"])


def render_tree(spans: Iterable[Span], include_attrs: bool = True) -> str:
    """Spans as an indented text tree, one block per trace.

    Orphaned spans (parent dropped by the tracer's buffer bound, or
    recorded outside any ambient span) render as additional roots.
    """
    span_list = sorted(spans, key=lambda s: (s.trace_id, s.start_s, s.span_id))
    by_id = {span.span_id: span for span in span_list}
    children: dict[int | None, list[Span]] = {}
    for span in span_list:
        parent = span.parent_id if span.parent_id in by_id else None
        children.setdefault(parent, []).append(span)

    lines: list[str] = []

    def emit(span: Span, depth: int) -> None:
        suffix = ""
        if include_attrs and span.attrs:
            rendered = ", ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
            suffix = f"  [{rendered}]"
        lines.append(
            f"{'  ' * depth}{span.name}  {span.duration_s * 1000:.3f}ms{suffix}"
        )
        for child in children.get(span.span_id, ()):
            emit(child, depth + 1)

    roots = children.get(None, ())
    last_trace: int | None = None
    for root in roots:
        if root.trace_id != last_trace:
            if lines:
                lines.append("")
            lines.append(f"trace {root.trace_id}:")
            last_trace = root.trace_id
        emit(root, 1)
    return "\n".join(lines)
