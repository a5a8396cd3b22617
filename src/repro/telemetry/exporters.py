"""Exporters: Chrome trace-event JSON and Prometheus-style text.

Both exports are **deterministic**: identical runs produce byte-identical
output.  Ordering is fixed (tracks sorted, spans in record order, metric
families name-sorted), timestamps are simulated time only, and no
wall-clock or host-identity field is ever emitted (lint rule RL001's
contract extended to the export surface).

The Chrome format loads directly in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``: scoped spans become complete ``X`` events, async
spans ``b``/``e`` pairs, instant markers ``i`` events, and time-series
samples ``C`` counter events that render as filled line charts.
"""

from __future__ import annotations

import json
from itertools import islice
from typing import IO, Any, Iterator

from repro.telemetry.instruments import Counter, Gauge, Histogram, Registry
from repro.telemetry.sink import Telemetry
from repro.units import to_us

# ---------------------------------------------------------------------------
# Chrome trace-event JSON
# ---------------------------------------------------------------------------


#: The ``otherData`` header of a simulated-time trace.
SIMULATED_TIMEBASE: dict[str, str] = {
    "generator": "repro.telemetry", "timebase": "simulated",
}

#: Events :func:`write_chrome_trace` encodes per C-encoder call: enough to
#: amortize the call, few enough that a batch's dicts and text stay in the
#: CPU cache (on the cg 4x4 trace, 4096-event batches encode ~10% slower).
CHROME_BATCH_EVENTS = 512


def _chrome_events(telemetry: Telemetry) -> Iterator[dict[str, Any]]:
    """Yield the trace events for *telemetry*, in document order.

    Tracks map to trace "processes" (sorted by name for stable pids);
    every event of a track runs on its thread 0.
    """
    tracks = telemetry.tracks()
    pids = {track: index for index, track in enumerate(tracks)}
    for track in tracks:
        pid = pids[track]
        yield {
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": track},
        }
        yield {
            "ph": "M", "name": "process_sort_index", "pid": pid, "tid": 0,
            "args": {"sort_index": pid},
        }

    async_id = 0
    for span in telemetry.spans:
        pid = pids[span.track]
        cat = span.category or "span"
        args = dict(span.args)
        if span.kind == "instant":
            yield {
                "ph": "i", "name": span.name, "cat": cat, "pid": pid,
                "tid": 0, "ts": to_us(span.start), "s": "p", "args": args,
            }
        elif span.kind == "async":
            async_id += 1
            yield {
                "ph": "b", "name": span.name, "cat": cat, "id": async_id,
                "pid": pid, "tid": 0, "ts": to_us(span.start), "args": args,
            }
            yield {
                "ph": "e", "name": span.name, "cat": cat, "id": async_id,
                "pid": pid, "tid": 0, "ts": to_us(span.end), "args": {},
            }
        else:
            yield {
                "ph": "X", "name": span.name, "cat": cat, "pid": pid,
                "tid": 0, "ts": to_us(span.start),
                "dur": to_us(span.seconds), "args": args,
            }

    for point in telemetry.samples:
        yield {
            "ph": "C", "name": point.name, "pid": pids[point.track], "tid": 0,
            "ts": to_us(point.time), "args": {point.name: point.value},
        }


def _frame(other_data: dict[str, str] | None) -> dict[str, Any]:
    """The document's fields besides ``traceEvents``."""
    if other_data is None:
        other_data = SIMULATED_TIMEBASE
    return {"displayTimeUnit": "ms", "otherData": dict(other_data)}


def to_chrome_trace(
    telemetry: Telemetry, other_data: dict[str, str] | None = None
) -> dict[str, Any]:
    """Build the whole Chrome trace-event document for *telemetry*.

    *other_data* is the document's ``otherData`` header, naming the
    generator and the clock domain of the timestamps; it defaults to
    :data:`SIMULATED_TIMEBASE`.
    """
    return {"traceEvents": list(_chrome_events(telemetry)), **_frame(other_data)}


def write_chrome_trace(
    telemetry: Telemetry,
    stream: IO[str],
    other_data: dict[str, str] | None = None,
) -> None:
    """Stream the Chrome trace for *telemetry* to a text *stream*.

    Writes the bytes of ``json.dumps(to_chrome_trace(telemetry, other_data),
    sort_keys=True, separators=(",", ":"))`` without building the event
    list: events are encoded in batches of :data:`CHROME_BATCH_EVENTS` by
    the C encoder, which ``json.dump`` never uses.
    """
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    # traceEvents sorts after displayTimeUnit and otherData, so its empty
    # list is the last "[]" of the encoded frame.
    head, _, tail = encode(
        {"traceEvents": [], **_frame(other_data)}
    ).rpartition("[]")
    stream.write(head + "[")
    events = _chrome_events(telemetry)
    separator = ""
    while batch := list(islice(events, CHROME_BATCH_EVENTS)):
        stream.write(separator + encode(batch)[1:-1])
        separator = ","
    stream.write("]" + tail)


# ---------------------------------------------------------------------------
# Prometheus-style text snapshot
# ---------------------------------------------------------------------------


def _format_value(value: float) -> str:
    """Render a sample value: integral floats lose the fraction."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    """Escape per the exposition format: backslash, quote, newline."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(labelnames: tuple[str, ...], labelvalues: tuple[str, ...],
                   extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = list(zip(labelnames, labelvalues)) + list(extra)
    if not pairs:
        return ""
    body = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in pairs
    )
    return "{" + body + "}"


def to_prometheus_text(registry: Registry) -> str:
    """Render a registry as Prometheus exposition text (name-sorted).

    Counters and gauges emit one sample per label tuple; histograms emit
    cumulative ``_bucket`` samples (with the canonical ``le`` label), plus
    ``_sum`` and ``_count``.
    """
    lines: list[str] = []
    for instrument in registry.instruments():
        help_text = instrument.description or instrument.name
        if instrument.unit:
            help_text += f" [{instrument.unit}]"
        lines.append(f"# HELP {instrument.name} {help_text}")
        lines.append(f"# TYPE {instrument.name} {instrument.kind}")
        if isinstance(instrument, (Counter, Gauge)):
            for labelvalues, value in sorted(instrument.series()):
                labels = _format_labels(instrument.labelnames, labelvalues)
                lines.append(
                    f"{instrument.name}{labels} {_format_value(value)}"
                )
        elif isinstance(instrument, Histogram):
            for labelvalues, series in sorted(
                instrument.series(), key=lambda item: item[0]
            ):
                cumulative = 0
                for bound, count in zip(
                    instrument.buckets, series.bucket_counts
                ):
                    cumulative += count
                    labels = _format_labels(
                        instrument.labelnames, labelvalues,
                        extra=(("le", _format_value(bound)),),
                    )
                    lines.append(
                        f"{instrument.name}_bucket{labels} {cumulative}"
                    )
                cumulative += series.bucket_counts[-1]
                labels = _format_labels(
                    instrument.labelnames, labelvalues, extra=(("le", "+Inf"),)
                )
                lines.append(f"{instrument.name}_bucket{labels} {cumulative}")
                base = _format_labels(instrument.labelnames, labelvalues)
                lines.append(
                    f"{instrument.name}_sum{base} {_format_value(series.total)}"
                )
                lines.append(f"{instrument.name}_count{base} {series.count}")
    return "\n".join(lines) + ("\n" if lines else "")
