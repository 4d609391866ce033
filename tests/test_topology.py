import json
import math

import pytest

from antsim.topology import (
    Link,
    Topology,
    builtin_topology,
    from_edge_list,
    load_topology_file,
    topology_stats,
)


def test_simplenet_shape():
    topo = builtin_topology("simplenet")
    assert topo.n_nodes == 8
    assert len(topo.links) == 18  # 9 bidirectional links
    for link in topo.links:
        assert link.bandwidth_bps == 10e6
        assert link.prop_delay_s == 0.001
    assert topo.neighbors(1) == [2, 3, 8]
    assert topo.neighbors(6) == [5, 7]


def test_simplenet_hop_stats():
    mean, std, n = topology_stats(builtin_topology("simplenet"))
    assert n == 8
    assert abs(mean - 1.9286) < 1e-3
    assert abs(std - 0.7525) < 1e-3


def test_nsfnet_hop_stats():
    topo = builtin_topology("nsfnet")
    assert len(topo.links) == 42  # 21 bidirectional links
    mean, std, n = topology_stats(topo)
    assert n == 14
    assert abs(mean - 2.1648) < 1e-3
    assert abs(std - 0.8020) < 1e-3
    for link in topo.links:
        assert link.bandwidth_bps == 1.5e6


def test_nttnet_hop_stats():
    topo = builtin_topology("nttnet")
    assert len(topo.links) == 162  # 81 bidirectional links
    mean, std, n = topology_stats(topo)
    assert n == 57
    assert abs(mean - 6.5006) < 1e-3
    assert abs(std - 3.7811) < 1e-3
    for link in topo.links:
        assert link.bandwidth_bps == 6e6
        assert 0.001 <= link.prop_delay_s <= 0.005


def test_unknown_builtin_raises():
    with pytest.raises(ValueError):
        builtin_topology("arpanet")


def test_every_link_has_reverse():
    for name in ("simplenet", "nsfnet", "nttnet"):
        topo = builtin_topology(name)
        for link in topo.links:
            rev = topo.link_map[(link.dst, link.src)]
            assert rev.bandwidth_bps == link.bandwidth_bps
            assert rev.prop_delay_s == link.prop_delay_s


def test_missing_reverse_rejected():
    with pytest.raises(ValueError):
        Topology(2, [Link(1, 2, 1e6, 0.001)])


def test_disconnected_graph_rejected():
    edges = [(1, 2), (3, 4)]
    with pytest.raises(ValueError):
        from_edge_list(4, edges, 1e6, 0.001)


def test_nonpositive_bandwidth_rejected():
    for bandwidth in (0.0, -1e6, math.nan, math.inf, True, "1"):
        with pytest.raises(ValueError, match=r"^link 1->2: bandwidth"):
            Topology(2, [Link(1, 2, bandwidth, 0.001), Link(2, 1, bandwidth, 0.001)])


def test_negative_delay_rejected():
    for delay in (-0.001, math.nan, math.inf, True, "0"):
        with pytest.raises(ValueError, match=r"^link 1->2: delay"):
            Topology(2, [Link(1, 2, 1e6, delay), Link(2, 1, 1e6, delay)])


@pytest.mark.parametrize(
    "edges, n_nodes, message",
    [
        pytest.param([(1, 2), (2, 3), (3, 3)], 3, r"^link 3->3: self-loop", id="self_loop"),
        pytest.param([(1, 2), (2, 3), (1, 2)], 3, r"^link 1->2: repeated", id="repeated_edge"),
        pytest.param([(1, 2), (2, 7)], 3, r"^link 2->7: endpoint outside 1\.\.3",
                     id="endpoint_out_of_range"),
        pytest.param([(1, 2), (True, 3)], 3, r"^link True->3: endpoint", id="endpoint_bool"),
        pytest.param([(1, 2), (2, 3.0)], 3, r"^link 2->3\.0: endpoint", id="endpoint_float"),
        pytest.param([(1, 2), (2, 3)], 3.0, r"^nodes: ", id="node_count_float"),
        pytest.param([(1, 2), (2, 3)], True, r"^nodes: ", id="node_count_bool"),
        pytest.param([], 1, r"^nodes: must be an integer > 1", id="node_count_one"),
    ],
)
def test_malformed_link_rejected(edges, n_nodes, message):
    bandwidths = [1e6 * (i + 1) for i in range(len(edges))]  # a repeat differs in value
    with pytest.raises(ValueError, match=message):
        from_edge_list(n_nodes, edges, bandwidths, 0.001)


def test_hop_distances_bfs():
    topo = builtin_topology("simplenet")
    d = topo.hop_distances(1)
    assert d[1] == 0
    assert d[2] == d[3] == d[8] == 1
    assert d[6] == 3


def test_out_links_sorted_by_neighbor():
    topo = builtin_topology("nttnet")
    for u in topo.nodes:
        dsts = [l.dst for l in topo.out_links[u]]
        assert dsts == sorted(dsts)


def test_file_loader_roundtrip(tmp_path):
    spec = {
        "nodes": 3,
        "links": [
            {"a": 1, "b": 2, "bandwidth_bps": 2e6, "prop_delay_s": 0.002},
            {"a": 2, "b": 3, "bandwidth_bps": 3e6, "prop_delay_s": 0.003, "note": "unread"},
        ],
    }
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(spec))
    topo = load_topology_file(str(path))
    assert topo.n_nodes == 3
    assert topo.link_map[(1, 2)].bandwidth_bps == 2e6
    assert topo.link_map[(3, 2)].prop_delay_s == 0.003


def test_per_edge_attribute_lists():
    topo = from_edge_list(3, [(1, 2), (2, 3)], [1e6, 2e6], [0.001, 0.002])
    assert topo.link_map[(1, 2)].bandwidth_bps == 1e6
    assert topo.link_map[(2, 3)].bandwidth_bps == 2e6
    assert topo.link_map[(3, 2)].prop_delay_s == 0.002
