"""Test-only oracles: reference implementations from networkx and scipy.

Neither library is a runtime dependency of ``repro``; both come with the
``test`` extra (``pip install -e ".[test]"``) and serve only to
cross-check the package's own graph and statistics code.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx
from scipy import stats

from repro.graph.topology import Topology


def networkx_graph(topology: Topology) -> nx.Graph:
    """An ``nx.Graph`` copy of ``topology``: every node with its ``pos``,
    every link with its ``delay`` and ``cost``."""
    graph = nx.Graph()
    for node in topology.nodes():
        graph.add_node(node, pos=topology.position(node))
    for link in topology.links():
        graph.add_edge(link.u, link.v, delay=link.delay, cost=link.cost)
    return graph


def scipy_t_critical(confidence: float, dfs: Sequence[int]) -> list[float]:
    """``scipy.stats.t.ppf`` two-sided critical values, one per ``df``."""
    return [float(t) for t in stats.t.ppf(0.5 + confidence / 2.0, list(dfs))]
