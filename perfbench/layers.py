"""Per-layer timing and counting for a traced perfbench pass.

:class:`LayerMeter` wraps one public entry point of each simulator layer
(by replacing the module or class attribute the pipeline calls through),
times it with :func:`repro.hostprof.clock.read_clock` and counts the work
it sees.  ``Workload.run_on`` additionally attaches a
:class:`~repro.hostprof.HostProfiler` to the run's environment, so the
kernel, MPI and fabric report their exact counts.  Every wrapper calls
straight through and returns what the wrapped function returned, so a
traced pass makes the same artifacts as an untraced one (``selftest.py``
checks the digests).

Times are inclusive.  ``TOP_LEVEL`` lists the timers that never run inside
one another; the pass wall time minus their sum is reported as
``unattributed_s``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.hostprof.clock import read_clock

SECONDS = (
    "sim.run_on_s",
    "tracing.finalize_s",
    "serialize.encode_s",
    "serialize.decode_s",
    "serialize.checksum_s",
    "store.put_s",
    "store.get_s",
    "replay.replay_s",
    "replay.ideal_network_s",
    "replay.ideal_lb_s",
    "analysis.fit_s",
    "analysis.render_s",
    "spec.normalize_s",
    "spec.fingerprint_s",
    "telemetry.chrome_export_s",
    "telemetry.prom_export_s",
)

#: Timers that never nest in one another within the pass wall time
#: (the checksum runs inside store get/put; the fingerprint is set-up).
TOP_LEVEL = tuple(
    key for key in SECONDS
    if key not in ("serialize.checksum_s", "spec.fingerprint_s")
)

#: Our count name <- HostProfiler.deterministic_counts() name, summed.
PROFILER_SUMS = (
    ("sim.events", "events"),
    ("sim.process_switches", "process_switches"),
    ("sim.processes", "processes"),
    ("mpi.hops", "mpi_hops"),
    ("network.flow_rounds", "fabric_flow_rounds"),
)

#: Our count name <- profiler high-water name, maximum over runs.
PROFILER_MAXES = (
    ("sim.heap_high_water", "heap_depth_high_water"),
    ("network.active_flows_high_water", "active_flows_high_water"),
)

COUNTS = (
    "sim.runs",
    *(ours for ours, _ in PROFILER_SUMS + PROFILER_MAXES),
    "tracing.records",
    "serialize.checksum_calls",
    "store.bytes_written",
    "store.bytes_read",
    "replay.calls",
    "replay.records_in",
)


def _trace_records(trace: Any) -> int:
    return len(trace.states) + len(trace.comms) + len(trace.recvs)


class LayerMeter:
    """Accumulates inclusive seconds and counts per layer for one pass."""

    def __init__(self) -> None:
        self.seconds = dict.fromkeys(SECONDS, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        #: Duration of the most recent ``run_on``, recorded even when paused.
        self.last_run_on_s = 0.0
        self._active = True

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Run side measurements without adding them to the pass totals."""
        self._active = False
        try:
            yield
        finally:
            self._active = True

    def _wrap(
        self,
        owner: Any,
        attr: str,
        key: str,
        after: Callable[[tuple, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a timed pass-through."""
        original = getattr(owner, attr)
        meter = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = read_clock()
            try:
                result = original(*args, **kwargs)
            finally:
                if meter._active:
                    meter.seconds[key] += read_clock() - start
            if meter._active and after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)

    def _count(self, key: str, amount: Callable[[tuple, Any], int]) -> Callable:
        def after(args: tuple, result: Any) -> None:
            self.counts[key] += amount(args, result)
        return after

    def install(self) -> None:
        """Wrap every layer's entry point for the rest of this process."""
        import repro.bench.experiments as ex
        import repro.bench.tables as tables
        import repro.campaign.serialize as serialize
        import repro.campaign.spec as spec
        import repro.telemetry as telemetry
        from repro.campaign.store import ResultStore
        from repro.tracing.tracer import Tracer
        from repro.workloads.base import Workload

        self._wrap_run_on(Workload)
        self._wrap(Tracer, "finalize", "tracing.finalize_s",
                   self._count("tracing.records",
                               lambda args, trace: _trace_records(trace)))
        self._wrap(serialize, "run_to_payload", "serialize.encode_s")
        self._wrap(serialize, "run_from_payload", "serialize.decode_s")
        self._wrap(serialize, "payload_checksum", "serialize.checksum_s",
                   self._count("serialize.checksum_calls", lambda a, r: 1))
        self._wrap(ResultStore, "put", "store.put_s",
                   self._count("store.bytes_written",
                               lambda args, path: path.stat().st_size if path else 0))
        self._wrap(ResultStore, "get", "store.get_s",
                   self._count("store.bytes_read", _bytes_read))
        for attr, key in (("replay", "replay.replay_s"),
                          ("ideal_network_runtime", "replay.ideal_network_s"),
                          ("ideal_load_balance_runtime", "replay.ideal_lb_s")):
            self._wrap(ex, attr, key, self._replayed)
        self._wrap(ex, "fit_usl", "analysis.fit_s")
        self._wrap(tables, "format_scalability", "analysis.render_s")
        self._wrap(spec.RunSpec, "normalize", "spec.normalize_s")
        self._wrap(spec, "code_fingerprint", "spec.fingerprint_s")
        self._wrap(telemetry, "write_chrome_trace", "telemetry.chrome_export_s")
        self._wrap(telemetry, "to_prometheus_text", "telemetry.prom_export_s")

    def _replayed(self, args: tuple, result: Any) -> None:
        self.counts["replay.calls"] += 1
        self.counts["replay.records_in"] += _trace_records(args[0])

    def _wrap_run_on(self, workload_cls: type) -> None:
        """Time ``run_on`` and attach a HostProfiler for the exact counts."""
        from repro.hostprof import HostProfiler

        original = workload_cls.run_on
        meter = self

        def run_on(workload: Any, cluster: Any, *args: Any, **kwargs: Any) -> Any:
            profiler = HostProfiler() if meter._active else None
            if profiler is not None:
                cluster.env.set_host_profiler(profiler)
            start = read_clock()
            try:
                return original(workload, cluster, *args, **kwargs)
            finally:
                meter.last_run_on_s = read_clock() - start
                if profiler is not None:
                    profiler.finish()
                    cluster.env.set_host_profiler(None)
                    meter._add_run(profiler.deterministic_counts())

        run_on.__wrapped__ = original
        workload_cls.run_on = run_on

    def _add_run(self, counts: dict[str, int]) -> None:
        self.seconds["sim.run_on_s"] += self.last_run_on_s
        self.counts["sim.runs"] += 1
        for ours, theirs in PROFILER_SUMS:
            self.counts[ours] += counts[theirs]
        for ours, theirs in PROFILER_MAXES:
            self.counts[ours] = max(self.counts[ours], counts[theirs])

    def report(self, wall_s: float) -> dict[str, float]:
        """Every layer figure of the pass, plus the unattributed remainder."""
        out: dict[str, float] = {**self.seconds, **self.counts}
        out["unattributed_s"] = wall_s - sum(self.seconds[k] for k in TOP_LEVEL)
        return out


def _bytes_read(args: tuple, payload: Any) -> int:
    """Size of the entry a store hit was read from (0 on a miss)."""
    if payload is None:
        return 0
    store, kind, digest = args[0], args[1], args[2]
    return store.entry_path(kind, digest).stat().st_size
