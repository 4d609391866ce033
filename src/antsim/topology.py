"""Network topologies: JSON loader, built-in testbeds, hop statistics."""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from importlib import resources
from operator import add
from typing import Dict, List, Tuple

from antsim.checks import ConfigError, check_number

BUILTIN_NAMES = ("simplenet", "nsfnet", "nttnet")


@dataclass(frozen=True)
class Link:
    src: int
    dst: int
    bandwidth_bps: float
    prop_delay_s: float


@dataclass
class Topology:
    """Directed weighted graph; every link is stored with its reverse."""

    n_nodes: int
    links: List[Link] = field(default_factory=list)

    def __post_init__(self):
        check_number("nodes", self.n_nodes, 1, integer=True)
        self.nodes = list(range(1, self.n_nodes + 1))
        self.out_links: Dict[int, List[Link]] = {u: [] for u in self.nodes}
        self.link_map: Dict[Tuple[int, int], Link] = {}
        for link in self.links:
            name = f"link {link.src}->{link.dst}"
            check_number(f"{name}: bandwidth", link.bandwidth_bps, 0)
            check_number(f"{name}: delay", link.prop_delay_s, 0, strict=False)
            check_number(f"{name}: endpoint", link.src, integer=True)
            check_number(f"{name}: endpoint", link.dst, integer=True)
            if link.src not in self.out_links or link.dst not in self.out_links:
                raise ValueError(f"{name}: endpoint outside 1..{self.n_nodes}")
            if link.src == link.dst:
                raise ValueError(f"{name}: self-loop")
            if (link.src, link.dst) in self.link_map:
                raise ValueError(f"{name}: repeated")
            self.out_links[link.src].append(link)
            self.link_map[(link.src, link.dst)] = link
        for u in self.nodes:
            self.out_links[u].sort(key=lambda l: l.dst)
        for (u, v) in self.link_map:
            if (v, u) not in self.link_map:
                raise ValueError(f"link {u}->{v} has no reverse")
        if not self.is_connected():
            raise ValueError("topology is not connected")

    def neighbors(self, node: int) -> List[int]:
        return [l.dst for l in self.out_links[node]]

    def is_connected(self) -> bool:
        return len(self.hop_distances(1)) == self.n_nodes

    def hop_distances(self, src: int) -> Dict[int, int]:
        dist = {src: 0}
        frontier = deque([src])
        while frontier:
            u = frontier.popleft()
            for l in self.out_links[u]:
                if l.dst not in dist:
                    dist[l.dst] = dist[u] + 1
                    frontier.append(l.dst)
        return dist


def from_edge_list(n_nodes: int, edges, bandwidth_bps, prop_delay_s) -> Topology:
    """Build a topology from undirected edges, mirroring every link.

    ``bandwidth_bps``/``prop_delay_s`` may be scalars or per-edge lists.
    """
    links = []
    for i, (a, b) in enumerate(edges):
        bw = bandwidth_bps[i] if isinstance(bandwidth_bps, (list, tuple)) else bandwidth_bps
        pd = prop_delay_s[i] if isinstance(prop_delay_s, (list, tuple)) else prop_delay_s
        links.append(Link(a, b, bw, pd))
        links.append(Link(b, a, bw, pd))
    return Topology(n_nodes, links)


def _check_keys(prefix: str, value, keys) -> None:
    """A ``ConfigError`` under ``prefix`` unless ``value`` is an object with ``keys``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{prefix}must be a JSON object, got {type(value).__name__}")
    for key in keys:
        if key not in value:
            raise ConfigError(f"{prefix}{key}: missing key")


def load_topology_dict(spec: dict) -> Topology:
    """The topology ``spec`` describes; a fault names its key or link index."""
    _check_keys("", spec, ("nodes", "links"))
    links = spec["links"]
    if not isinstance(links, list):
        raise ConfigError(f"links: must be a JSON array, got {type(links).__name__}")
    for i, e in enumerate(links):
        _check_keys(f"links: item {i}: ", e, ("a", "b", "bandwidth_bps", "prop_delay_s"))
    edges = [(e["a"], e["b"]) for e in links]
    bws = [e["bandwidth_bps"] for e in links]
    pds = [e["prop_delay_s"] for e in links]
    return from_edge_list(spec["nodes"], edges, bws, pds)


def load_topology_file(path: str) -> Topology:
    with open(path) as fh:
        return load_topology_dict(json.load(fh))


def _load_builtin_data(name: str) -> Topology:
    text = resources.files("antsim.data").joinpath(f"{name}.json").read_text()
    return load_topology_dict(json.loads(text))


_SIMPLENET_EDGES = [(1, 2), (1, 3), (1, 8), (2, 4), (3, 5), (4, 5), (5, 6), (6, 7), (7, 8)]


def builtin_topology(name: str) -> Topology:
    """Built-in testbeds: simplenet (8 nodes), nsfnet (14), nttnet (57)."""
    if name == "simplenet":
        return from_edge_list(8, _SIMPLENET_EDGES, 10e6, 0.001)
    if name in ("nsfnet", "nttnet"):
        return _load_builtin_data(name)
    raise ValueError(f"unknown topology {name!r}; expected one of {BUILTIN_NAMES}")


def topology_stats(topo: Topology) -> Tuple[float, float, int]:
    """(mean, std, N) of all-pairs hop distances over ordered node pairs.

    The dispersion is the population standard deviation of the hop counts.
    """
    dists = []
    for u in topo.nodes:
        d = topo.hop_distances(u)
        dists.extend(d[v] for v in topo.nodes if v != u)
    mean = reduce(add, dists, 0.0) / len(dists)
    var = reduce(add, ((x - mean) ** 2 for x in dists), 0.0) / len(dists)
    return mean, math.sqrt(var), topo.n_nodes
