"""Shared test fixtures: micro-topologies and hand-wired harnesses.

Node-level protocol tests should not depend on CAN geometry, so they run
on :class:`LineOverlay` — an explicit path ``n0 - n1 - ... - nk`` where
every key's authority is ``n0`` and routing walks toward it.  This makes
CUP-tree positions (depths, parents) literal in the test body.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.channels import CapacityConfig
from repro.core.node import CupNode, NodeEnv
from repro.core.policies import CutoffPolicy, SecondChancePolicy
from repro.metrics.collector import MetricsCollector
from repro.overlay.base import NodeId, Overlay
from repro.sim.engine import Simulator
from repro.sim.network import Transport
from repro.sim.random import RandomStreams


class LineOverlay(Overlay):
    """nodes[0] is the authority for every key; routing walks left."""

    def __init__(self, length: int):
        if length < 1:
            raise ValueError("need at least one node")
        self.names = [f"n{i}" for i in range(length)]
        self.epoch = 0

    def node_ids(self):
        return list(self.names)

    def neighbors(self, node_id: NodeId):
        i = self.names.index(node_id)
        out = []
        if i > 0:
            out.append(self.names[i - 1])
        if i < len(self.names) - 1:
            out.append(self.names[i + 1])
        return out

    def authority(self, key: str) -> NodeId:
        return self.names[0]

    def next_hop(self, node_id: NodeId, key: str) -> Optional[NodeId]:
        i = self.names.index(node_id)
        return None if i == 0 else self.names[i - 1]


class MicroNet:
    """A hand-wired CUP deployment on a line topology.

    Exposes the raw pieces (sim, transport, nodes by name) so tests can
    drive individual protocol steps and inspect per-node state.
    """

    def __init__(
        self,
        length: int = 4,
        policy: Optional[CutoffPolicy] = None,
        persistent_interest: bool = True,
        coalesce: bool = True,
        link_delay: float = 0.01,
        pfu_timeout: float = 5.0,
        capacity: Optional[CapacityConfig] = None,
        replica_independent_cutoff: bool = True,
    ):
        self.sim = Simulator()
        self.streams = RandomStreams(seed=1234)
        self.transport = Transport(self.sim, default_delay=link_delay)
        self.metrics = MetricsCollector()
        self.transport.add_send_observer(self.metrics.on_send)
        self.overlay = LineOverlay(length)
        self.policy = policy or SecondChancePolicy()
        self.nodes: Dict[str, CupNode] = {}
        for name in self.overlay.node_ids():
            # One env per node: each draws its own cap-{name} stream.
            env = NodeEnv(
                self.sim, self.transport, self.overlay, self.policy,
                self.metrics,
                persistent_interest=persistent_interest,
                coalesce=coalesce,
                replica_independent_cutoff=replica_independent_cutoff,
                initial_capacity=capacity,
                capacity_rng=self.streams.get(f"cap-{name}"),
                pfu_timeout=pfu_timeout,
            )
            node = self.nodes[name] = CupNode(name, env)
            self.transport.register(name, node)

    @property
    def authority(self) -> CupNode:
        return self.nodes["n0"]

    def node(self, index: int) -> CupNode:
        return self.nodes[f"n{index}"]

    def seed_authority(self, key: str, lifetime: float = 100.0,
                       replicas: int = 1) -> None:
        """Install fresh entries for ``key`` in the authority directory."""
        from repro.core.messages import ReplicaEvent, ReplicaMessage

        for i in range(replicas):
            message = ReplicaMessage(
                ReplicaEvent.BIRTH, key, f"{key}/r{i}",
                f"addr://{key}/r{i}", lifetime,
            )
            self.authority.receive(message, None)

    def refresh_authority(self, key: str, lifetime: float = 100.0,
                          replica: int = 0) -> None:
        """Deliver one replica refresh to the authority."""
        from repro.core.messages import ReplicaEvent, ReplicaMessage

        message = ReplicaMessage(
            ReplicaEvent.REFRESH, key, f"{key}/r{replica}",
            f"addr://{key}/r{replica}", lifetime,
        )
        self.authority.receive(message, None)

    def settle(self, duration: float = 5.0) -> None:
        """Run the simulation forward enough for in-flight traffic."""
        self.sim.run_until(self.sim.now + duration)
