"""perfbench: host-time benchmark of the repro paper pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 35 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

``paper-cold``
    The Fig. 5 and Fig. 6 curves in ``worker.FIG5_SUBSET`` and
    ``worker.FIG6_SUBSET``, simulated, traced, stored, replayed, fitted and
    rendered against an empty private result store.
``paper-warm``
    The same artifacts served from a store that an untimed ``paper-cold``
    pass filled at the same code fingerprint.  It simulates nothing.
``telemetry-export``
    ``worker.TELEMETRY_SPECS`` simulated uncached with a Telemetry sink,
    then exported as Chrome-trace JSON and Prometheus text.

Every pass runs in a fresh interpreter (``worker.py``) with its own
temporary ``REPRO_CACHE_DIR`` under ``.bench_build/perfbench/``; every
``REPRO_*`` variable of the caller is dropped, so the engine is the DES
with the fast path off.  Passes repeat until ``--seconds`` of passes
have run (at least one); each pass takes a few seconds, so a run holds
many of them and its medians ride out the host's short slow spells.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median pass time
from the first spec to the last artifact), ``setup_s`` (median set-up time
of the pass processes, from their start until the worker reports that the
interpreter has started and the package, experiments and telemetry modules
are imported and ``code_fingerprint()`` is computed) and ``peak_rss_mb``
(median peak RSS of a pass process).

Both times are scaled to a reference host speed.  The host this benchmark
was built on is shared: as other tenants come and go its speed swings by up
to 2x over minutes, which would swamp any change in the program.  So each
pass process, just before its pass, times ``worker.CAL_ROUNDS`` rounds of
``worker.calibration_round()``, a fixed pure-Python loop that touches no
``repro`` code, and the runner multiplies each median time by
``CAL_REFERENCE_S`` over the run's median round time.  A time reads as it
would on a host where a round takes ``CAL_REFERENCE_S``; a change to the
program moves it as before, a change in host load mostly cancels out.  The
raw medians and the calibration median are printed on their own
``perfbench:`` line.

``--trace 1`` runs one untraced and one traced pass and prints the traced
pass's per-layer metrics (``layers.py``, raw host seconds) with
``trace.overhead_s``, ``unattributed_s`` and ``error_rate``.  A per-layer
figure reads 0 where its layer does no work on the workload.

An operation is one RunSpec served or one artifact produced.  It fails if
it raises, if the artifact's digest differs from ``reference.json``, or if
the cache guard trips: a ``paper-warm`` lookup that missed the store (or a
traced ``paper-warm`` pass that simulated), or a ``paper-cold`` lookup that
hit it.  Any failure makes the exit code 1.  The last line of stdout is the
JSON result.  The workloads have no random input: ``--seed`` is recorded
in the provenance line and changes nothing.

``--write-reference`` regenerates ``reference.json`` from the current tree;
run it only at a commit whose outputs are known good.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Any

from worker import SETUP_DONE  # perfbench/ is sys.path[0]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"

#: Artifacts each workload must reproduce, by name in ``reference.json``.
ARTIFACTS = {
    "paper-cold": ("fig5", "fig6"),
    "paper-warm": ("fig5", "fig6"),
    "telemetry-export": ("cg.chrome", "cg.prom"),
}

#: Seconds ``worker.calibration_round()`` takes on the reference host (about
#: what it takes on an idle 2-core host; end-to-end times are scaled to it).
CAL_REFERENCE_S = 0.1

#: A run gives up (exit 1, no result) once this much host time has passed.
DEADLINE_S = 170.0


class BenchError(Exception):
    """A pass could not run to completion."""


class Bench:
    """Starts passes in fresh interpreters."""

    def __init__(self, stopwatch_cls: type, deadline_s: float | None) -> None:
        self._stopwatch_cls = stopwatch_cls
        self._clock = stopwatch_cls()
        self._deadline_s = deadline_s
        self.work = ROOT / ".bench_build" / "perfbench"
        self.work.mkdir(parents=True, exist_ok=True)

    def stopwatch(self) -> Any:
        return self._stopwatch_cls()

    def _spawn(self, args: list[str], cache_dir: Path) -> float:
        """Run the worker; returns its set-up time (start to ``SETUP_DONE``)."""
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_") and key != "PYTHONPATH"}
        env.update(
            PYTHONPATH=str(ROOT / "src"),
            REPRO_CACHE_DIR=str(cache_dir),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        timeout = None
        if self._deadline_s is not None:
            timeout = self._deadline_s - self._clock.elapsed()
            if timeout <= 0:
                raise BenchError("out of time")
        watch = self.stopwatch()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), *args], env=env, cwd=ROOT,
            stdout=subprocess.PIPE, text=True,
        )
        # Past the deadline the worker is killed, and the run fails.
        killer = threading.Timer(timeout, proc.kill) if timeout else None
        if killer is not None:
            killer.start()
        try:
            first = proc.stdout.readline()
            setup_s = watch.elapsed()
            sys.stderr.write(proc.stdout.read())
            code = proc.wait()
        finally:
            if killer is not None:
                killer.cancel()
            if proc.returncode is None:  # left the try early
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or first.strip() != SETUP_DONE:
            sys.stderr.write(first)
            raise BenchError(f"worker {args[0]} exited {code}")
        return setup_s

    def run_pass(
        self, workload: str, trace: bool, store: Path | None = None,
        seed_store: Path | None = None,
    ) -> dict[str, Any]:
        """One pass in a fresh process; *store* defaults to a private one.

        *seed_store* is hard-linked into the private store first (warm
        start): the store never writes a file in place (it replaces or
        unlinks), so a pass cannot alter the shared copy.
        """
        with tempfile.TemporaryDirectory(prefix="pass-", dir=self.work) as tmp:
            tmp_path = Path(tmp)
            if store is None:
                store = tmp_path / "store"
                if seed_store is not None:
                    shutil.copytree(seed_store, store, copy_function=os.link)
                else:
                    store.mkdir()
            out = tmp_path / "pass.json"
            args = ["pass", "--workload", workload, "--out", str(out)]
            setup_s = self._spawn(args + (["--trace"] if trace else []), store)
            result = json.loads(out.read_text(encoding="utf-8"))
            result["setup_s"] = setup_s
            return result

    def warm_store(self, fingerprint: str, reference: dict[str, str]) -> Path:
        """The filled store for this code and workload set, filled on first use.

        It is keyed by the package fingerprint and the worker's source, so
        an edit to either refills it instead of tripping the warm guard.
        """
        worker = hashlib.sha256(WORKER.read_bytes()).hexdigest()[:12]
        final = self.work / f"warm-{fingerprint}-{worker}"
        if final.is_dir():
            return final
        for stale in self.work.glob("warm-*"):
            shutil.rmtree(stale, ignore_errors=True)
        staging = Path(tempfile.mkdtemp(prefix="fill-", dir=self.work))
        try:
            result = self.run_pass("paper-cold", False, store=staging)
            _, failed, problems = score(result, reference, trace=False)
            if failed:
                raise BenchError("warm-store fill failed: " + "; ".join(problems))
            staging.rename(final)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
        return final


def disk_hit_ratio(cache: dict[str, int]) -> float:
    """Useful store hits over store lookups (0 when nothing was looked up)."""
    lookups = cache["disk_hits"] + cache["disk_misses"]
    return cache["disk_hits"] / lookups if lookups else 0.0


def score(
    result: dict[str, Any], reference: dict[str, str], trace: bool
) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one pass."""
    workload = result["workload"]
    names = ARTIFACTS[workload]
    problems = [f"artifact {name} raised" for name in result["errors"]]
    bad = [name for name in names if result["digests"].get(name) != reference[name]]
    problems += [f"artifact {name} differs from reference.json" for name in bad
                 if name not in result["errors"]]
    failed = len(bad)
    cache = result["cache"]
    if workload == "paper-warm":
        if disk_hit_ratio(cache) != 1.0:
            failed += max(cache["disk_misses"], 1)
            problems.append(f"warm guard: disk hit ratio {disk_hit_ratio(cache)}")
        if trace and result["layers"]["sim.runs"]:
            failed += result["layers"]["sim.runs"]
            problems.append(f"warm guard: {result['layers']['sim.runs']} runs simulated")
    elif workload == "paper-cold" and cache["disk_hits"]:
        failed += cache["disk_hits"]
        problems.append(f"cold guard: {cache['disk_hits']} store hits")
    return result["specs_served"] + len(names), failed, problems


def per_layer(plain: dict[str, Any], traced: dict[str, Any],
              error_rate: float) -> dict[str, float]:
    """The traced pass's layer figures plus cache ratio and trace overhead."""
    layers = dict(traced["layers"])
    cache = traced["cache"]
    layers["cache.memory_hits"] = cache["memory_hits"]
    layers["cache.disk_hits"] = cache["disk_hits"]
    layers["cache.disk_hit_ratio"] = disk_hit_ratio(cache)
    for key, value in traced["store"].items():
        layers[f"store.{key}"] = value
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    layers["error_rate"] = error_rate
    return layers


def write_reference(bench: Bench) -> int:
    digests: dict[str, str] = {}
    for workload in ("paper-cold", "telemetry-export"):
        result = bench.run_pass(workload, trace=False)
        if result["errors"]:
            print(f"perfbench: {workload} raised: {result['errors']}", file=sys.stderr)
            return 1
        digests.update(result["digests"])
    REFERENCE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                         encoding="utf-8")
    print(f"perfbench: wrote {len(digests)} digests to {REFERENCE.name}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repro pipeline benchmark")
    parser.add_argument("--workload", choices=sorted(ARTIFACTS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro.campaign.spec import code_fingerprint
    from repro.hostprof.clock import Stopwatch

    if args.write_reference:
        return write_reference(Bench(Stopwatch, deadline_s=None))
    if args.workload is None:
        parser.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in section}
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    bench = Bench(Stopwatch, DEADLINE_S)

    try:
        seed_store = None
        if args.workload == "paper-warm":
            seed_store = bench.warm_store(code_fingerprint(), reference)
        results: list[dict[str, Any]] = []
        if args.trace:
            for trace in (False, True):
                results.append(bench.run_pass(args.workload, trace, seed_store=seed_store))
        else:
            measured = bench.stopwatch()
            while not results or measured.elapsed() < args.seconds:
                results.append(bench.run_pass(args.workload, False, seed_store=seed_store))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = failed = 0
    for index, result in enumerate(results):
        tried, bad, problems = score(result, reference, trace=args.trace and index == 1)
        attempted += tried
        failed += bad
        for problem in problems:
            print(f"perfbench: FAIL {problem}", file=sys.stderr)

    if args.trace:
        values = per_layer(results[0], results[1], failed / attempted)
    else:
        raw = {name: statistics.median(r[name] for r in results)
               for name in ("wall_s", "setup_s")}
        cal_s = statistics.median(t for r in results for t in r["calibration_s"])
        print(f"perfbench: raw wall_s {raw['wall_s']:.6g} s, raw setup_s "
              f"{raw['setup_s']:.6g} s, calibration {cal_s:.6g} s "
              f"(reference {CAL_REFERENCE_S} s)")
        values = {name: value * CAL_REFERENCE_S / cal_s for name, value in raw.items()}
        values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in results)
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} do not match "
              f"BENCHMARK.json", file=sys.stderr)
        return 3

    provenance = dict(results[-1]["provenance"], workload=args.workload,
                      seed=args.seed, passes=len(results), trace=args.trace)
    print("perfbench: provenance " + json.dumps(provenance, sort_keys=True))
    print("perfbench: artifacts " + json.dumps(results[-1]["digests"], sort_keys=True))
    for name in sorted(values):
        print(f"perfbench: {name:<34} {values[name]:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in sorted(values)},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
