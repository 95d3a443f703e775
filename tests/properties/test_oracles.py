"""The in-house graph storage and t quantile against networkx and scipy.

``Topology`` keeps its own adjacency dicts and ``t_critical`` its own
Student-t quantile; these properties pin both to the reference libraries
they replaced, which remain test-only dependencies.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TopologyError
from repro.graph.topology import Topology
from repro.metrics.stats import t_critical
from tests.oracles import networkx_graph, scipy_t_critical

NODES = st.integers(0, 9)
#: Every node first, in a random order, so most link operations apply.
SEEDING = st.permutations(range(10))
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("add_node"), NODES),
        st.tuples(st.just("remove_node"), NODES),
        st.tuples(
            st.just("add_link"), NODES, NODES,
            st.floats(0.5, 20.0, allow_nan=False),
        ),
        st.tuples(st.just("remove_link"), NODES, NODES),
    ),
    max_size=60,
)


def apply(topology: Topology, graph: nx.Graph, operation: tuple) -> None:
    """Apply one operation to both; the Topology must raise exactly when
    networkx would reject it (or, for self-loops, silently accept it)."""
    kind, *args = operation
    if kind == "add_node":
        (node,) = args
        if node in graph:
            with pytest.raises(TopologyError):
                topology.add_node(node)
            return
        topology.add_node(node, pos=(float(node), 0.0))
        graph.add_node(node, pos=(float(node), 0.0))
    elif kind == "remove_node":
        (node,) = args
        if node not in graph:
            with pytest.raises(TopologyError):
                topology.remove_node(node)
            return
        topology.remove_node(node)
        graph.remove_node(node)
    elif kind == "add_link":
        u, v, delay = args
        if u == v or u not in graph or v not in graph or graph.has_edge(u, v):
            with pytest.raises(TopologyError):
                topology.add_link(u, v, delay=delay)
            return
        link = topology.add_link(u, v, delay=delay, cost=2 * delay)
        assert link.key == (min(u, v), max(u, v))
        graph.add_edge(u, v, delay=delay, cost=2 * delay)
    else:
        u, v = args
        if not graph.has_edge(u, v):
            with pytest.raises(TopologyError):
                topology.remove_link(u, v)
            return
        topology.remove_link(u, v)
        graph.remove_edge(u, v)


def assert_agrees(topology: Topology, graph: nx.Graph) -> None:
    assert topology.nodes() == sorted(graph.nodes)
    assert topology.num_nodes == graph.number_of_nodes()
    assert topology.num_links == graph.number_of_edges()
    assert [(l.u, l.v, l.delay, l.cost) for l in topology.links()] == sorted(
        (min(u, v), max(u, v), d["delay"], d["cost"])
        for u, v, d in graph.edges(data=True)
    )
    # Insertion order, node by node and neighbour by neighbour, is what
    # delay-tie resolution downstream sees through adjacency().
    adjacency = topology.adjacency()
    assert list(adjacency) == list(graph.adj)
    for node in graph:
        assert list(adjacency[node].items()) == [
            (v, d["delay"]) for v, d in graph.adj[node].items()
        ]
        assert list(topology.neighbors(node)) == sorted(graph.neighbors(node))
        assert topology.degree(node) == graph.degree(node)
        assert topology.position(node) == graph.nodes[node]["pos"]
    for source in graph:
        for path in nx.single_source_shortest_path(graph, source).values():
            assert topology.path_delay(path) == nx.path_weight(graph, path, "delay")
            assert topology.path_cost(path) == nx.path_weight(graph, path, "cost")
    assert topology.is_connected() == (
        graph.number_of_nodes() == 0 or nx.is_connected(graph)
    )
    assert topology.connected_components() == [
        set(c) for c in nx.connected_components(graph)
    ]


def build(seeding, operations) -> tuple[Topology, nx.Graph]:
    topology, graph = Topology("oracle"), nx.Graph()
    for node in seeding:
        apply(topology, graph, ("add_node", node))
    for operation in operations:
        apply(topology, graph, operation)
    return topology, graph


class TestTopologyAgainstNetworkx:
    @settings(max_examples=150, deadline=None)
    @given(SEEDING, OPERATIONS)
    def test_random_mutations_agree(self, seeding, operations):
        topology, graph = build(seeding, operations)
        assert_agrees(topology, graph)
        assert nx.utils.graphs_equal(networkx_graph(topology), graph)

    @settings(max_examples=60, deadline=None)
    @given(SEEDING, OPERATIONS, OPERATIONS)
    def test_copy_is_independent(self, seeding, before, after):
        topology, graph = build(seeding, before)
        token = topology.cache_token()
        # Replayed rather than graph.copy(): nx.Graph.copy() re-inserts
        # edges in adjacency-walk order, so its neighbour order can differ
        # from the original's, while Topology.copy() keeps it.
        clone, (_, clone_graph) = topology.copy(), build(seeding, before)
        assert clone.cache_token() != token
        for operation in after:
            apply(clone, clone_graph, operation)
        assert_agrees(clone, clone_graph)
        assert_agrees(topology, graph)
        assert topology.cache_token() == token


@pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
def test_t_critical_matches_scipy(confidence):
    dfs = range(1, 1001)
    for df, reference in zip(dfs, scipy_t_critical(confidence, dfs)):
        ours = t_critical(confidence, df)
        assert abs(ours - reference) <= 1e-12 * reference, (df, ours, reference)
