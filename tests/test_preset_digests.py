"""Per-preset result-digest gate: pins what the DES computes for every preset.

Every valid workload x system x network preset at ``nodes=2``, plus the
heavy-contention cases (cg, ft and is at ``nodes=4`` on tx1/10G, where most
fabric reserves queue), is simulated uncached. Each payload is hashed as
SHA-256 of ``json.dumps(run_to_payload(run), sort_keys=True)`` and compared
with ``preset_digests.json`` next to this file. Any change to a simulated
result (a timing constant, a same-instant ordering, a payload field)
changes a digest and fails the gate. The GPGPU workloads have no
``thunderx`` preset: those combinations are listed explicitly and must
raise :class:`ConfigurationError`.

Regenerate the digests only for an intended change of simulated output,
and record why in the change log::

    PYTHONPATH=src python tests/test_preset_digests.py > tests/preset_digests.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from itertools import product
from pathlib import Path

import pytest

from repro.bench.runner import run_spec
from repro.campaign.serialize import run_to_payload
from repro.campaign.spec import KNOWN_NETWORKS, KNOWN_SYSTEMS, RunSpec
from repro.errors import ConfigurationError
from repro.workloads import ALL_NAMES

DIGESTS_PATH = Path(__file__).with_name("preset_digests.json")

#: (workload, nodes, system, network) runs beyond the nodes=2 matrix.
HEAVY_CONTENTION = (
    ("cg", 4, "tx1", "10G"),
    ("ft", 4, "tx1", "10G"),
    ("is", 4, "tx1", "10G"),
)

#: Workloads that need a GPU, so ``thunderx`` cannot run them.
GPU_ONLY = (
    "alexnet", "cloverleaf", "googlenet", "hpl", "jacobi", "tealeaf2d",
    "tealeaf3d",
)
INVALID = tuple(
    (name, "thunderx", network) for name in GPU_ONLY for network in KNOWN_NETWORKS
)


def _key(name: str, nodes: int, system: str, network: str) -> str:
    return f"{name}/nodes={nodes}/{system}/{network}"


def _presets() -> list[tuple[str, int, str, str]]:
    """Every run the gate pins, in a stable order."""
    presets = [
        (name, 2, system, network)
        for name, system, network in product(ALL_NAMES, KNOWN_SYSTEMS, KNOWN_NETWORKS)
        if (name, system, network) not in INVALID
    ]
    return presets + list(HEAVY_CONTENTION)


def _digest(name: str, nodes: int, system: str, network: str) -> str:
    spec = RunSpec.normalize(name, nodes=nodes, network=network, system=system)
    payload = run_to_payload(run_spec(spec, use_cache=False))
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _expected() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


def test_digest_file_covers_exactly_the_presets():
    assert sorted(_expected()) == sorted(_key(*preset) for preset in _presets())
    assert len(_presets()) == 76 + len(HEAVY_CONTENTION)


@pytest.mark.parametrize("workload", ALL_NAMES)
def test_preset_digest(workload):
    """Every valid system x network preset of *workload* at nodes=2."""
    expected = _expected()
    runs = [p for p in _presets() if p[0] == workload and p[1] == 2]
    assert runs
    mismatched = [
        _key(*preset) for preset in runs
        if _digest(*preset) != expected[_key(*preset)]
    ]
    assert mismatched == []


@pytest.mark.parametrize("workload", [p[0] for p in HEAVY_CONTENTION])
def test_heavy_contention_digest(workload):
    (preset,) = [p for p in HEAVY_CONTENTION if p[0] == workload]
    assert _digest(*preset) == _expected()[_key(*preset)]


@pytest.mark.parametrize("workload,system,network", INVALID)
def test_gpu_workload_on_gpu_less_system_is_rejected(workload, system, network):
    spec = RunSpec.normalize(workload, nodes=2, network=network, system=system)
    with pytest.raises(ConfigurationError):
        run_spec(spec, use_cache=False)


if __name__ == "__main__":
    digests = {_key(*preset): _digest(*preset) for preset in _presets()}
    json.dump(digests, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
