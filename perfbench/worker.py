"""One pass of a perfbench workload, in a fresh interpreter.

``run.py`` starts this script once per pass, so no import, memo or store
state carries over from one pass to the next::

    python3 perfbench/worker.py pass --workload paper-cold --out pass.json [--trace]

It first does the set-up every workload pays (import the package, the
experiments and telemetry modules, hash the source tree) and prints
``SETUP_DONE`` on stdout, so the caller can time the set-up from process
start.  It then times ``CAL_ROUNDS`` host-speed calibration rounds, runs
the workload once and writes its wall time, calibration times, peak
memory, artifact digests, cache counters and provenance to ``--out``.  With ``--trace`` the layer wrappers of
``layers.py`` are installed first and their per-layer figures are added.

The workloads read only the paper's fixed inputs: nothing here is random,
so there is no workload seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import heapq
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from typing import Any, Callable

#: Fig. 5 and Fig. 6 curves the paper workloads regenerate: one GPGPU
#: curve (large halo transfers, 16 ranks at 16 nodes) and two NPB curves
#: (many small messages, 64 ranks at 16 nodes).  The subset keeps a cold
#: pass near 4 s and a warm one near 1.5 s on a 2-core host, so a run
#: takes the median of many passes: this host's speed swings by 20% or
#: more within seconds, and a median over few long passes follows it.
FIG5_SUBSET = ("jacobi",)
FIG6_SUBSET = ("bt", "mg")

#: (workload, nodes, ranks per node) simulated by telemetry-export, 10 GbE.
#: One spec keeps a pass near 2.5 s (about 50 k spans, 12 MB of trace).
TELEMETRY_SPECS = (("cg", 4, 4),)

#: The line a pass prints on stdout once its set-up is done.
SETUP_DONE = "setup-done"

#: Calibration rounds timed in each pass process just before the pass.
CAL_ROUNDS = 3

#: Kernel bookkeeping counters the Prometheus digest leaves out (the
#: fast-path identity contract excludes them too).
PROM_EXCLUDED = ("sim_events_processed_total", "sim_processes_started_total")


# ---------------------------------------------------------------------------
# Host-speed calibration
# ---------------------------------------------------------------------------


def _ticker(steps: int):
    """A generator that yields *steps* increasing delays."""
    delay = 0.0
    for step in range(steps):
        delay += (step % 7) * 0.25
        yield delay


def calibration_round() -> None:
    """Fixed work shaped like the workloads, in plain Python.

    Generators resumed in time order off a heap (the event loop), then
    many small dicts formatted, JSON-encoded, hashed and decoded (trace
    records, store payloads).  It calls nothing in ``repro``, so its time
    follows the host's speed, not the program's.
    """
    heap = [(0.0, key, _ticker(400)) for key in range(64)]
    heapq.heapify(heap)
    while heap:
        now, key, gen = heapq.heappop(heap)
        delay = next(gen, None)
        if delay is not None:
            heapq.heappush(heap, (now + delay, key, gen))
    rows = [{"name": f"span{i % 997}", "ts": i * 0.5, "tid": i & 63}
            for i in range(30_000)]
    text = json.dumps(rows, sort_keys=True)
    hashlib.sha256(text.encode("utf-8")).hexdigest()
    json.loads(text)


def calibrate() -> list[float]:
    """Seconds each of ``CAL_ROUNDS`` calibration rounds takes now, GC off."""
    from repro.hostprof.clock import Stopwatch

    times = []
    gc.disable()
    try:
        for _ in range(CAL_ROUNDS):
            watch = Stopwatch()
            calibration_round()
            times.append(watch.elapsed())
    finally:
        gc.enable()
    return times


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------


def canonical(value: Any) -> Any:
    """*value* as JSON-safe data, floats written exactly via ``float.hex``."""
    import numpy as np

    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return canonical(value.tolist())
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"cannot digest {type(value).__name__}")


def digest(value: Any) -> str:
    """SHA-256 of the canonical JSON form of *value*."""
    text = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_digest(path: Path) -> str:
    sha = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


def prometheus_digest(text: str) -> str:
    """Digest of a Prometheus snapshot minus the kernel bookkeeping series."""
    kept = []
    for line in text.splitlines():
        if line.startswith("#"):
            name = line.split(" ")[2]
        else:
            name = line.split("{")[0].split(" ")[0]
        if name not in PROM_EXCLUDED:
            kept.append(line)
    return hashlib.sha256("\n".join(kept).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Pass:
    """State of one pass: the artifacts it made and the errors it hit."""

    def __init__(self) -> None:
        self.digests: dict[str, str] = {}
        self.errors: list[str] = []
        self.specs_served = 0
        #: Telemetry volume (spans, samples, Chrome-trace bytes), kept in
        #: every pass because it costs nothing; reported when traced.
        self.telemetry = {"telemetry.spans": 0, "telemetry.samples": 0,
                          "telemetry.chrome_bytes": 0}

    def artifact(self, name: str, make: Callable[[], Any]) -> Any:
        """Run *make*; an exception marks artifact *name* failed."""
        try:
            return make()
        except Exception:  # a raising artifact is a counted failure
            self.errors.append(name)
            traceback.print_exc()
            return None


def paper_pipeline(state: Pass, workdir: Path) -> Callable[[], None]:
    """Figs. 5 and 6 through the result store; returns the digest step."""
    from repro.bench import experiments as ex, tables
    from repro.bench.runner import CLUSTER_SIZES

    def fig5():
        curves = [ex._scalability_for(name, CLUSTER_SIZES, ranks_per_node=None)
                  for name in FIG5_SUBSET]
        return curves, tables.format_scalability(curves)

    def fig6():
        curves = [ex._scalability_for(name, CLUSTER_SIZES, ranks_per_node=4)
                  for name in FIG6_SUBSET]
        return curves, tables.format_scalability(curves)

    made = {"fig5": state.artifact("fig5", fig5),
            "fig6": state.artifact("fig6", fig6)}

    def finish() -> None:
        for name, value in made.items():
            if value is not None:
                curves, text = value
                state.digests[name] = digest({"curves": curves, "table": text})

    return finish


def telemetry_pipeline(state: Pass, workdir: Path) -> Callable[[], None]:
    """Simulate each spec uncached with a sink, then export it."""
    import repro.telemetry as tm
    from repro.bench.runner import run_workload

    outputs: dict[str, tuple[Path, str]] = {}

    def export(name: str, nodes: int, rpn: int | None):
        def make():
            sink = tm.Telemetry()
            run_workload(name, nodes=nodes, network="10G", ranks_per_node=rpn,
                         use_cache=False, telemetry=sink)
            path = workdir / f"{name}.trace.json"
            with path.open("w", encoding="utf-8") as handle:
                tm.write_chrome_trace(sink, handle)
            prom = tm.to_prometheus_text(sink.registry)
            state.telemetry["telemetry.spans"] += len(sink.spans)
            state.telemetry["telemetry.samples"] += len(sink.samples)
            outputs[name] = (path, prom)
        return make

    for name, nodes, rpn in TELEMETRY_SPECS:
        state.artifact(f"{name}.export", export(name, nodes, rpn))
        state.specs_served += 1

    def finish() -> None:
        for name, (path, prom) in outputs.items():
            state.digests[f"{name}.chrome"] = file_digest(path)
            state.digests[f"{name}.prom"] = prometheus_digest(prom)
            state.telemetry["telemetry.chrome_bytes"] += path.stat().st_size
            path.unlink()

    return finish


def telemetry_overhead(meter: Any) -> float:
    """``run_on`` seconds with a sink over without, summed over the specs.

    Both runs are extra, unprofiled and outside the pass wall time.
    """
    import repro.telemetry as tm
    from repro.bench.runner import run_workload

    sink_s = bare_s = 0.0
    with meter.paused():
        for name, nodes, rpn in TELEMETRY_SPECS:
            run_workload(name, nodes=nodes, network="10G", ranks_per_node=rpn,
                         use_cache=False)
            bare_s += meter.last_run_on_s
            run_workload(name, nodes=nodes, network="10G", ranks_per_node=rpn,
                         use_cache=False, telemetry=tm.Telemetry())
            sink_s += meter.last_run_on_s
    return sink_s / bare_s


WORKLOADS = {
    "paper-cold": paper_pipeline,
    "paper-warm": paper_pipeline,
    "telemetry-export": telemetry_pipeline,
}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def setup() -> str:
    """The set-up every workload pays; returns the code fingerprint."""
    import repro  # noqa: F401
    import repro.bench.experiments  # noqa: F401
    import repro.telemetry  # noqa: F401
    from repro.campaign.spec import code_fingerprint

    return code_fingerprint()


def check_hermetic() -> None:
    """Refuse to run against anything but the private store ``run.py`` made."""
    from repro.campaign.store import resolve_cache_root

    private = os.environ.get("REPRO_CACHE_DIR")
    if not private or resolve_cache_root() != private:
        raise SystemExit("worker: REPRO_CACHE_DIR must name a private store")
    if "REPRO_FAST_PATH" in os.environ or "REPRO_DISK_CACHE" in os.environ:
        raise SystemExit("worker: REPRO_FAST_PATH/REPRO_DISK_CACHE must be unset")


def run_pass(workload: str, trace: bool, out: Path) -> None:
    import numpy as np

    from repro.hostprof.clock import Stopwatch

    meter = None
    if trace:
        from layers import LayerMeter  # perfbench/ is sys.path[0]

        meter = LayerMeter()
        meter.install()
    fingerprint = setup()
    print(SETUP_DONE, flush=True)
    check_hermetic()

    from repro.bench import runner
    from repro.campaign.store import default_store

    state = Pass()
    workdir = out.parent
    calibration_s = calibrate()
    wall = Stopwatch()
    finish = WORKLOADS[workload](state, workdir)
    wall_s = wall.elapsed()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finish()

    cache = runner.cache_stats()
    store = default_store()
    if workload != "telemetry-export":
        state.specs_served = cache["memory_hits"] + cache["memory_misses"]
    result = {
        "workload": workload,
        "wall_s": wall_s,
        "calibration_s": calibration_s,
        "peak_rss_mb": rss_mb,
        "digests": state.digests,
        "errors": state.errors,
        "specs_served": state.specs_served,
        "cache": cache,
        "store": {"hits": store.hits, "misses": store.misses,
                  "corrupt_repaired": store.corrupt_repaired},
        "provenance": {
            "code_fingerprint": fingerprint,
            "engine": "des",
            "fast_path": runner._resolve_fast_path(None),
            "cache": {"paper-cold": "cold", "paper-warm": "warm"}.get(
                workload, "bypassed"),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "workload_seed": None,
        },
    }
    if meter is not None:
        layers = {**meter.report(wall_s), **state.telemetry}
        layers["telemetry.run_overhead_x"] = (
            telemetry_overhead(meter) if workload == "telemetry-export" else 0.0)
        result["layers"] = layers
    out.write_text(json.dumps(result, sort_keys=True), encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    pass_p = sub.add_parser("pass", help="run one workload pass")
    pass_p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    pass_p.add_argument("--out", type=Path, required=True)
    pass_p.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    run_pass(args.workload, args.trace, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
