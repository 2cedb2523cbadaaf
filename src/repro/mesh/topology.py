"""Global topology snapshots for evaluation.

The mesh itself is fully decentralised; this module is the *observer* used by
the benchmark harness to quantify what the decentralised protocol achieved:
how many connected components exist, how large they are, how long links live,
and how quickly the mesh forms and dissolves as vehicles move (experiment
E3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.mesh.discovery import BeaconAgent
from repro.simcore.simulator import Simulator


@dataclass
class TopologySnapshot:
    """The mesh graph at one instant, with derived statistics."""

    time: float
    graph: nx.Graph

    @property
    def node_count(self) -> int:
        """Number of nodes in the snapshot."""
        return self.graph.number_of_nodes()

    @property
    def edge_count(self) -> int:
        """Number of bidirectionally confirmed links."""
        return self.graph.number_of_edges()

    def components(self) -> List[set]:
        """Connected components (each is a set of node names)."""
        return [set(c) for c in nx.connected_components(self.graph)]

    def largest_component_size(self) -> int:
        """Size of the largest connected component (0 for empty graph)."""
        comps = self.components()
        return max((len(c) for c in comps), default=0)

    def mean_degree(self) -> float:
        """Average node degree."""
        n = self.graph.number_of_nodes()
        if n == 0:
            return 0.0
        return 2.0 * self.graph.number_of_edges() / n

    def is_connected(self) -> bool:
        """Whether every node can reach every other node over the mesh."""
        if self.graph.number_of_nodes() == 0:
            return False
        return nx.is_connected(self.graph)


class TopologyObserver:
    """Periodically snapshots the union of all nodes' neighbour tables."""

    def __init__(
        self,
        sim: Simulator,
        agents: Sequence[BeaconAgent],
        period: float = 1.0,
        require_bidirectional: bool = True,
    ) -> None:
        self.sim = sim
        self.agents = list(agents)
        self.require_bidirectional = require_bidirectional
        self.snapshots: List[TopologySnapshot] = []
        self._link_first_seen: Dict[Tuple[str, str], float] = {}
        self.link_lifetimes: List[float] = []
        self._task = sim.schedule_periodic(period, self.take_snapshot, name="topology")

    def add_agent(self, agent: BeaconAgent) -> None:
        """Track an agent added after construction."""
        self.agents.append(agent)

    def replace_agent(self, agent: BeaconAgent) -> None:
        """Swap in a rebuilt agent for the same node name (crash recovery).

        A recovered node gets a brand-new beacon agent; the old one's frozen
        neighbour table must stop contributing to snapshots.
        """
        name = agent.interface.node_name
        self.agents = [
            existing
            for existing in self.agents
            if existing.interface.node_name != name
        ]
        self.agents.append(agent)

    def stop(self) -> None:
        """Stop periodic snapshotting."""
        self._task.cancel()

    # ------------------------------------------------------------ snapshots

    def take_snapshot(self) -> TopologySnapshot:
        """Build a snapshot now and append it to the history."""
        graph = nx.Graph()
        directed: Dict[Tuple[str, str], bool] = {}
        now = self.sim.now
        for agent in self.agents:
            owner = agent.interface.node_name
            graph.add_node(owner)
            # Age-filtered: a silent (e.g. crashed) peer stops contributing
            # edges once past the neighbour lifetime, even between the
            # owner's periodic expiry sweeps.
            for neighbor in agent.neighbors.active_names(now):
                directed[(owner, neighbor)] = True
        for (a, b) in directed:
            if not self.require_bidirectional or (b, a) in directed:
                graph.add_edge(a, b)
        snapshot = TopologySnapshot(self.sim.now, graph)
        self._update_link_lifetimes(snapshot)
        self.snapshots.append(snapshot)
        self.sim.monitor.timeseries("mesh.largest_component").record(
            self.sim.now, float(snapshot.largest_component_size())
        )
        self.sim.monitor.timeseries("mesh.edge_count").record(
            self.sim.now, float(snapshot.edge_count)
        )
        return snapshot

    def _update_link_lifetimes(self, snapshot: TopologySnapshot) -> None:
        current = {tuple(sorted(edge)) for edge in snapshot.graph.edges}
        known = set(self._link_first_seen)
        # Sorted, not set order: the dict's insertion order and the lifetime
        # list end up in snapshots, which must not depend on PYTHONHASHSEED.
        for link in sorted(current - known):
            self._link_first_seen[link] = snapshot.time
        for link in sorted(known - current):
            start = self._link_first_seen.pop(link)
            self.link_lifetimes.append(snapshot.time - start)

    # ------------------------------------------------------------- analysis

    def latest(self) -> Optional[TopologySnapshot]:
        """Most recent snapshot, or ``None`` before the first tick."""
        return self.snapshots[-1] if self.snapshots else None

    def mean_link_lifetime(self) -> float:
        """Average observed lifetime of links that have already ended."""
        if not self.link_lifetimes:
            return 0.0
        return sum(self.link_lifetimes) / len(self.link_lifetimes)

    def formation_time(self, min_size: int) -> Optional[float]:
        """First time the largest component reached ``min_size`` nodes."""
        for snapshot in self.snapshots:
            if snapshot.largest_component_size() >= min_size:
                return snapshot.time
        return None
