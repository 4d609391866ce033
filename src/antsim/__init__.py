"""Discrete-event simulator of packet-switched datagram networks.

Provides an event-driven network model (store-and-forward nodes, two-priority
FIFO link queues, shared buffers, TTL), workload generators, and seven routing
algorithms: the ant-based adaptive router plus ospf, spf, bf, qr, pqr and an
omniscient daemon bound.
"""

from antsim.engine import Simulator
from antsim.topology import Topology, Link, builtin_topology, topology_stats

__all__ = [
    "Simulator",
    "Topology",
    "Link",
    "builtin_topology",
    "topology_stats",
]
