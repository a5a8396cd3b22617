"""Periodic utilization sampling driven by the simulation clock.

The sampler is a plain sim :class:`~repro.sim.core.Process` that wakes every
``interval`` simulated seconds and appends read-only utilization samples —
per-node NIC utilization, CPU and GPU occupancy, fabric link utilization,
and active flow count — to the bound :class:`~repro.telemetry.sink.Telemetry`.

Two properties keep it safe to leave running:

* It is **read-only**: sampling inspects cumulative accounting the layers
  already keep (bytes moved, busy-seconds) and mutates nothing, so a
  sampled run's workload results are bit-identical to an unsampled one.
* It is **self-terminating**: when the sampler wakes to an otherwise empty
  event queue, nothing else can ever happen (only triggered events sit in
  the queue), so it stops instead of ticking forever — which keeps the
  queue-drain deadlock detection of tolerant fault runs working.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.errors import TelemetryError
from repro.telemetry.sink import Telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster
    from repro.sim.core import Process


class UtilizationSampler:
    """Samples cluster utilization into a telemetry sink at fixed intervals."""

    def __init__(
        self,
        telemetry: Telemetry,
        cluster: "Cluster",
        interval: float | None = None,
    ) -> None:
        if interval is None:
            interval = telemetry.sample_interval
        if interval <= 0:
            raise TelemetryError(f"sampler interval must be positive, got {interval}")
        self.telemetry = telemetry
        self.cluster = cluster
        self.interval = float(interval)
        self.samples_taken = 0
        self._stopped = False
        self._finished = False
        self._process: "Process | None" = None
        #: Simulated time of the last emitted sample (interval start).
        self._last_sample_time = float(cluster.env.now)
        # Cumulative accounting at the previous tick, keyed by node id.
        self._prev_nic: dict[int, float] = {}
        self._prev_cpu: dict[int, float] = {}
        self._prev_gpu: dict[int, float] = {}
        self._prev_fabric_bytes = 0.0
        env = cluster.env
        telemetry.bind_env(env)
        nic_gauge = telemetry.gauge(
            "node_nic_utilization", "NIC utilization over the last sample interval",
            unit="ratio", labelnames=("node",),
        )
        cpu_gauge = telemetry.gauge(
            "node_cpu_occupancy", "busy core-seconds per core over the interval",
            unit="ratio", labelnames=("node",),
        )
        gpu_gauge = telemetry.gauge(
            "node_gpu_occupancy", "GPU busy fraction over the interval",
            unit="ratio", labelnames=("node",),
        )
        #: node id -> its (track, NIC, CPU, GPU gauge children).
        self._node_series = {
            node.node_id: (
                f"node{node.node_id}",
                nic_gauge.labels(node=node.node_id),
                cpu_gauge.labels(node=node.node_id),
                gpu_gauge.labels(node=node.node_id),
            )
            for node in cluster.nodes
        }
        self._link_gauge = telemetry.gauge(
            "fabric_link_utilization",
            "aggregate traffic over bisection bandwidth for the interval",
            unit="ratio",
        ).labels()
        self._flows_gauge = telemetry.gauge(
            "fabric_active_flows", "concurrent flows at the sample instant",
        ).labels()

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "Process":
        """Start the sampling process (idempotent)."""
        if self._process is None:
            self._stopped = False
            self._finished = False
            self._last_sample_time = float(self.cluster.env.now)
            self._process = self.cluster.env.process(self._run())
        return self._process

    def stop(self) -> None:
        """Ask the sampler to exit at its next wake-up."""
        self._stopped = True

    def finish(self) -> None:
        """Emit one final sample covering the trailing partial interval.

        A job rarely ends exactly on a tick; without this, the work done
        between the last tick and job completion would never be sampled.
        Idempotent: the second call finds zero elapsed time and does nothing.
        """
        if self._finished:
            return
        self._finished = True
        elapsed = float(self.cluster.env.now) - self._last_sample_time
        if elapsed > 0:
            self._take_sample(elapsed)

    # -- the process -----------------------------------------------------------

    def _run(self):
        env = self.cluster.env
        while True:
            yield env.timeout(self.interval)
            if self._stopped:
                return
            self._take_sample(self.interval)
            # An empty queue after sampling means no process can ever run
            # again (untriggered events are not queued): stop rather than
            # keep the simulation alive forever.
            if math.isinf(env.peek()):
                return

    def _take_sample(self, interval: float) -> None:
        tm = self.telemetry
        self.samples_taken += 1
        self._last_sample_time = float(self.cluster.env.now)
        for node in self.cluster.nodes:
            track, nic_gauge, cpu_gauge, gpu_gauge = self._node_series[node.node_id]

            moved = node.network_bytes_sent + node.network_bytes_received
            delta = moved - self._prev_nic.get(node.node_id, 0.0)
            self._prev_nic[node.node_id] = moved
            nic_util = delta / (interval * node.nic.achievable_rate)
            tm.sample(track, "nic_utilization", nic_util)
            nic_gauge.set(nic_util)

            busy = node.power.cpu_busy_core_seconds
            delta = busy - self._prev_cpu.get(node.node_id, 0.0)
            self._prev_cpu[node.node_id] = busy
            cpu_occ = delta / (interval * node.spec.core_count)
            tm.sample(track, "cpu_occupancy", cpu_occ)
            cpu_gauge.set(cpu_occ)

            if node.has_gpu:
                busy = node.power.gpu_busy_seconds
                delta = busy - self._prev_gpu.get(node.node_id, 0.0)
                self._prev_gpu[node.node_id] = busy
                gpu_occ = delta / interval
                tm.sample(track, "gpu_occupancy", gpu_occ)
                gpu_gauge.set(gpu_occ)

        fabric = self.cluster.fabric
        delta = fabric.total_bytes - self._prev_fabric_bytes
        self._prev_fabric_bytes = fabric.total_bytes
        link_util = delta / (interval * fabric.switch.bisection_bandwidth)
        tm.sample("fabric", "link_utilization", link_util)
        self._link_gauge.set(link_util)
        tm.sample("fabric", "active_flows", float(fabric.active_flows))
        self._flows_gauge.set(float(fabric.active_flows))
