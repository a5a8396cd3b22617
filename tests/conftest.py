"""Shared fixtures: small simulated clusters for network/MPI/CUDA tests."""

from __future__ import annotations

import pytest

from repro.hardware import catalog
from repro.hardware.node import Node
from tests._store_isolation import _isolated_result_store  # noqa: F401
from repro.network import Fabric, SwitchSpec
from repro.sim import Environment


def build_tx1_fabric(n_nodes: int, nic=None, switch=None):
    """An Environment + Fabric with *n_nodes* TX1 nodes attached."""
    env = Environment()
    nic = nic or catalog.XGBE_PCIE
    switch = switch or SwitchSpec.from_catalog(catalog.SWITCH_10G)
    fabric = Fabric(env, switch)
    spec = catalog.jetson_tx1()
    nodes = [Node(env, spec, node_id=i, nic=nic) for i in range(n_nodes)]
    for node in nodes:
        fabric.attach(node)
    return env, fabric, nodes


@pytest.fixture
def fresh_store(tmp_path, monkeypatch):
    """A private, empty result store for one test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))


@pytest.fixture
def tx1_pair():
    """Two TX1 nodes on a 10 GbE fabric."""
    return build_tx1_fabric(2)


@pytest.fixture
def tx1_quad():
    """Four TX1 nodes on a 10 GbE fabric."""
    return build_tx1_fabric(4)
