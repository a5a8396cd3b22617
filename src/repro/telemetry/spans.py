"""Span records and the context managers that open them.

A span is a named interval on one *track* of the exported timeline, stamped
with **simulated** time at open and close (never wall clock — RL001).  Two
flavours map onto the two Chrome-trace encodings:

* *scoped* spans (``kind="scoped"``) promise proper nesting on their track
  (a ``with`` block inside a ``with`` block) and export as complete ``X``
  events; used where the simulator serializes work (a rank's compute
  bursts, a GPU engine's kernels).
* *async* spans (``kind="async"``) may overlap freely on a track and export
  as ``b``/``e`` pairs; used for concurrent flows (fabric transfers, the
  send leg of a ``sendrecv``).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class SpanRecord:
    """One finished (or instant) interval on the telemetry timeline."""

    track: str
    name: str
    category: str
    start: float
    end: float
    kind: str = "scoped"  # "scoped" | "async" | "instant"
    args: dict[str, object] = field(default_factory=dict)
    #: True when the span closed via an exception (the failure is noted in
    #: ``args["error"]``).
    error: bool = False

    @property
    def seconds(self) -> float:
        """Span duration in simulated seconds."""
        return self.end - self.start


class SpanHandle:
    """The live object a ``with telemetry.span(...)`` block receives.

    ``set(key=value)`` attaches arguments that are only known mid-flight
    (a transfer's negotiated rate, a receive's matched source).
    """

    __slots__ = ("_sink", "_record")

    def __init__(self, sink, record: SpanRecord) -> None:
        self._sink = sink
        self._record = record

    def set(self, **args: object) -> None:
        """Attach or overwrite span arguments."""
        self._record.args.update(args)

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        record = self._record
        record.end = self._sink._env.now
        if exc is not None:
            record.error = True
            record.args["error"] = f"{type(exc).__name__}: {exc}"
        self._sink._finish(record)


class NullSpanHandle:
    """A reusable no-op stand-in for :class:`SpanHandle`.

    One shared instance serves every disabled span: entering, exiting, and
    ``set`` do nothing, so an instrumented call site costs two method calls
    when telemetry is off.
    """

    __slots__ = ()

    def set(self, **args: object) -> None:
        """No-op."""

    def __enter__(self) -> "NullSpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: The shared disabled-span instance.
NULL_SPAN = NullSpanHandle()
