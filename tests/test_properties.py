"""Whole-simulator properties on drawn topologies.

Hypothesis draws connected graphs of 4-10 nodes from networkx and writes
each as a topology file, its links in a drawn order and orientation. On
each graph every algorithm runs a short trial twice, and the test checks
what must hold on any topology: the two runs write the same bytes, every
AntNet row stays a distribution, and the network's port lists follow the
topology's neighbour order."""

import json
import math
import os
import random
import tempfile
from unittest import mock

import networkx as nx
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from antsim.cli import ALGORITHMS, ExperimentConfig, run_experiment
from antsim.network import Network

RESULT_FILES = ("trial_0.json", "trial_0_series.csv", "aggregate.json")


@st.composite
def topologies(draw):
    """Topology JSON of a connected graph: a random labelled tree plus a
    G(n, m) graph over the same nodes, drawn by networkx from a drawn seed.
    The same seed shuffles the links, orients them and picks their speeds,
    so an example is four numbers and shrinks in a few steps."""
    n = draw(st.integers(4, 10))
    extra = draw(st.integers(0, n))
    seed = draw(st.integers(0, 2**16))
    graph = nx.compose(
        nx.random_labeled_tree(n, seed=seed), nx.gnm_random_graph(n, extra, seed=seed)
    )
    rng = random.Random(seed)
    edges = sorted(graph.edges())
    rng.shuffle(edges)
    links = []
    for a, b in edges:
        if rng.random() < 0.5:
            a, b = b, a
        links.append({
            "a": a + 1,
            "b": b + 1,
            "bandwidth_bps": rng.choice([1.5e6, 10e6]),
            "prop_delay_s": rng.choice([0.001, 0.01]),
        })
    return {"nodes": n, "links": links}


def run_once(topology_path, algorithm, seed, out_dir):
    """One 1+2 sim-s trial; returns its result files' bytes and its network."""
    nets = []
    set_algorithm = Network.set_algorithm

    def recording(net, algo):
        nets.append(net)
        set_algorithm(net, algo)

    cfg = ExperimentConfig(
        topology=topology_path,
        algorithm=algorithm,
        traffic={"msia_s": 0.5},
        warmup_s=1.0,
        run_length_s=2.0,
        trials=1,
        master_seed=seed,
        out_dir=out_dir,
        label="run",
    )
    with mock.patch.object(Network, "set_algorithm", recording):
        run_experiment(cfg)
    files = {}
    for name in RESULT_FILES:
        with open(os.path.join(out_dir, "run", name), "rb") as fh:
            files[name] = fh.read()
    (net,) = nets
    return files, net


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
# no explain phase: its line tracing makes each failing replay several times slower
@settings(
    derandomize=True,
    max_examples=15,
    deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink],
)
@given(spec=topologies(), seed=st.integers(0, 1000))
def test_trial_properties_on_drawn_topologies(algorithm, spec, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "topo.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        first, net = run_once(path, algorithm, seed, os.path.join(tmp, "a"))
        second, _ = run_once(path, algorithm, seed, os.path.join(tmp, "b"))
    assert first == second
    topo = net.topo
    for u in topo.nodes:
        assert [p.dst for p in net.out_ports[u]] == topo.neighbors(u), u
    if algorithm == "antnet":
        for u, rows in net.algorithm.tables.items():
            for d, row in rows.items():
                assert all(0.0 <= p <= 1.0 for p in row), (u, d, row)
                assert abs(math.fsum(row) - 1.0) <= 1e-9, (u, d, row)
