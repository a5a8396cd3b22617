"""Shared measurement machinery for the experiments.

``run_workload`` is the single funnel every figure, bench, and fault
experiment measures through.  Requests are normalized to a
:class:`~repro.campaign.spec.RunSpec` (defaults resolved, ignored
dimensions canonicalized — see ``docs/CAMPAIGN.md``) and served from the
one run cache: the persistent :class:`~repro.campaign.store.ResultStore`
under ``.repro-cache/``, invalidated by the package source fingerprint, so
a repeat request, a second invocation or a campaign worker warm-starts
instead of re-simulating.

A hit is revived with :func:`~repro.campaign.serialize.run_from_payload`,
which builds a fresh workload, cluster, result and trace on every call; a
miss is simulated by the discrete-event kernel (the only engine),
published, and returned live.  Either way the caller is the run's only
owner, so no two callers share mutable state.  The simulator is
deterministic and floats survive the JSON round trip exactly, so a
warm-started run is bit-identical to a cold one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.campaign.serialize import (
    UncacheableRunError,
    run_from_payload,
    run_to_payload,
)
from repro.campaign.spec import RunSpec, build_cluster, build_workload
from repro.campaign.store import default_store
from repro.cluster import Cluster
from repro.cluster.job import JobResult
from repro.tracing import Trace, Tracer
from repro.workloads.base import Workload

#: The paper's cluster sizes (Figs. 1-2, 5-7, 9-10).
CLUSTER_SIZES = (2, 4, 8, 16)


@dataclass
class ExperimentRun:
    """One measured run: results plus the cluster and optional trace."""

    workload: Workload
    cluster: Cluster
    result: JobResult
    trace: Trace | None
    rank_to_node: list[int]
    #: The telemetry sink the run recorded into, when one was passed.
    telemetry: Any = None

    @property
    def runtime(self) -> float:
        """Wall duration of the run."""
        return self.result.elapsed_seconds


def cache_stats() -> dict[str, int]:
    """Run-cache counters, derived from the default store's lookups.

    The store is the only cache, so ``memory_hits`` is always 0 and
    ``memory_misses`` counts the lookups served (every counter is 0 while
    the store is disabled).  The benchmark (``perfbench/worker.py`` and
    ``perfbench/run.py``) reads all four keys; drop the ``memory_*`` pair
    together with :func:`_resolve_fast_path` at the next benchmark change.
    """
    store = default_store()
    hits, misses = (store.hits, store.misses) if store is not None else (0, 0)
    return {
        "memory_hits": 0,
        "memory_misses": hits + misses,
        "disk_hits": hits,
        "disk_misses": misses,
    }


def _resolve_fast_path(fast_path: bool | None) -> bool:
    """Whether a run used an engine other than the DES: always ``False``.

    The DES is the only engine, so *fast_path* is ignored.  The function
    stays because the benchmark worker (``perfbench/worker.py``) records
    its result in the provenance line of every pass.
    """
    return False


def _simulate(spec: RunSpec, telemetry: Any) -> ExperimentRun:
    """One cold measurement of *spec* (no cache involved).

    The workload is rebuilt from the spec's canonical kwargs, and every
    simulation goes through :meth:`Workload.run_on` on a freshly built
    cluster, so a profiler or meter that wraps ``run_on`` sees each one.
    A traced spec gets a :class:`Tracer` sized to the job, and its
    finalized trace becomes the run's trace; a telemetry sink, when one is
    passed, is kept on the run.
    """
    workload = build_workload(spec.name, spec.constructor_kwargs())
    cluster = build_cluster(spec)
    rpn = spec.ranks_per_node
    tracer = Tracer(cluster.node_count * rpn) if spec.traced else None
    result = workload.run_on(
        cluster, ranks_per_node=rpn, tracer=tracer, telemetry=telemetry
    )
    return ExperimentRun(
        workload=workload,
        cluster=cluster,
        result=result,
        trace=tracer.finalize() if tracer else None,
        rank_to_node=[r // rpn for r in range(cluster.node_count * rpn)],
        telemetry=telemetry,
    )


def run_spec(
    spec: RunSpec,
    use_cache: bool = True,
    telemetry: Any = None,
) -> ExperimentRun:
    """Run a normalized :class:`RunSpec`, served through the result store.

    A sink is stateful (it accumulates one timeline), so a run recording
    into an enabled :class:`~repro.telemetry.Telemetry` sink always
    simulates and bypasses the store, as does ``use_cache=False``.  A run
    whose rank values cannot be serialized simulates on every request.
    """
    if telemetry is not None and not getattr(telemetry, "enabled", False):
        telemetry = None
    store = default_store() if use_cache and telemetry is None else None
    if store is not None:
        payload = store.get("run", spec.digest, spec.fingerprint)
        if payload is not None:
            return run_from_payload(spec, payload)
    run = _simulate(spec, telemetry)
    if store is not None:
        try:
            store.put("run", spec.digest, spec.fingerprint, run_to_payload(run))
        except UncacheableRunError:
            pass  # ad-hoc rank return values: nothing to publish
    return run


def run_workload(
    name: str,
    nodes: int = 16,
    network: str = "10G",
    system: str = "tx1",
    ranks_per_node: int | None = None,
    traced: bool = False,
    use_cache: bool = True,
    telemetry: Any = None,
    **workload_kwargs: Any,
) -> ExperimentRun:
    """Run benchmark *name* on a cluster and return the measurements.

    ``system`` selects the machine: ``"tx1"`` (the proposed cluster),
    ``"gtx980"`` (discrete-GPGPU hosts), or ``"thunderx"`` (the Cavium
    server; *nodes* is ignored, 64 ranks as in §IV-A).  The request is
    normalized and served by :func:`run_spec`; *use_cache* and *telemetry*
    behave as documented there.
    """
    spec = RunSpec.normalize(
        name,
        nodes=nodes,
        network=network,
        system=system,
        ranks_per_node=ranks_per_node,
        traced=traced,
        **workload_kwargs,
    )
    return run_spec(spec, use_cache=use_cache, telemetry=telemetry)
