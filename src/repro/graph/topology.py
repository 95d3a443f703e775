"""Delay/cost-weighted network topologies.

A :class:`Topology` is an undirected graph whose links carry two positive
weights:

``delay``
    The transmission latency across the link.  The paper's end-to-end delay
    metric and the recovery-distance metric are both sums of link delays.

``cost``
    The resource cost of using the link.  The paper's tree-cost metric is a
    sum of link costs.  By default ``cost == delay`` (as in the paper's
    figures, where one number labels each link), but the two can differ.

Storage is one adjacency dict ``{u: {v: Link}}`` in which both directions
of a link point at the same frozen :class:`Link`, plus a positions dict.
Both dicts keep insertion order, which is what neighbour iteration
(:meth:`Topology.adjacency`) and component order
(:meth:`Topology.connected_components`) follow.  Queries hand back the
stored links; nothing is rebuilt per call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.errors import TopologyError

NodeId = int
Edge = tuple[NodeId, NodeId]

#: Process-wide source of topology cache tokens.  Every Topology instance
#: draws a fresh token at construction and after every mutation, so a token
#: identifies one *state* of one instance — never reused, even after the
#: instance is garbage-collected (unlike ``id()``).
_CACHE_TOKENS = itertools.count(1)


def edge_key(u: NodeId, v: NodeId) -> Edge:
    """Return the canonical (sorted) form of an undirected edge.

    Undirected links are stored and compared in canonical form so that
    ``(u, v)`` and ``(v, u)`` always refer to the same link.
    """
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Link:
    """An undirected link with its weights.

    Instances are value objects: two links are equal when they connect the
    same endpoints with the same weights.
    """

    u: NodeId
    v: NodeId
    delay: float
    cost: float

    def __post_init__(self) -> None:
        if self.delay <= 0:
            raise TopologyError(f"link {self.key} has non-positive delay {self.delay}")
        if self.cost <= 0:
            raise TopologyError(f"link {self.key} has non-positive cost {self.cost}")

    @property
    def key(self) -> Edge:
        """Canonical endpoint pair identifying this link."""
        return edge_key(self.u, self.v)

    def other(self, node: NodeId) -> NodeId:
        """Return the endpoint opposite ``node``."""
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise TopologyError(f"node {node} is not an endpoint of link {self.key}")


class Topology:
    """An undirected, weighted network topology.

    Parameters
    ----------
    name:
        Human-readable identifier used in experiment reports.

    Examples
    --------
    >>> topo = Topology("triangle")
    >>> for n in (0, 1, 2):
    ...     topo.add_node(n)
    >>> _ = topo.add_link(0, 1, delay=1.0)
    >>> _ = topo.add_link(1, 2, delay=2.0)
    >>> _ = topo.add_link(0, 2, delay=2.5)
    >>> topo.delay(0, 1)
    1.0
    >>> sorted(topo.neighbors(1))
    [0, 2]
    """

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._adj: dict[NodeId, dict[NodeId, Link]] = {}
        self._pos: dict[NodeId, tuple[float, float] | None] = {}
        self._adjacency_cache: dict[NodeId, dict[NodeId, float]] | None = None
        self._csr_cache = None
        self._cache_token = next(_CACHE_TOKENS)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId, pos: tuple[float, float] | None = None) -> None:
        """Add a node, optionally with a 2-D position (used by Waxman)."""
        if node in self._adj:
            raise TopologyError(f"node {node} already exists")
        self._adj[node] = {}
        self._pos[node] = pos
        self._invalidate_caches()

    def add_link(
        self, u: NodeId, v: NodeId, delay: float, cost: float | None = None
    ) -> Link:
        """Add an undirected link; ``cost`` defaults to ``delay``.

        Returns the created :class:`Link`.
        """
        if u == v:
            raise TopologyError(f"self-loop on node {u} is not allowed")
        for node in (u, v):
            if node not in self._adj:
                raise TopologyError(f"node {node} does not exist")
        if v in self._adj[u]:
            raise TopologyError(f"link {edge_key(u, v)} already exists")
        link = Link(*edge_key(u, v), delay=delay, cost=cost if cost is not None else delay)
        self._adj[link.u][link.v] = link
        self._adj[link.v][link.u] = link
        self._invalidate_caches()
        return link

    def remove_link(self, u: NodeId, v: NodeId) -> None:
        """Permanently remove a link (topology change, not a failure)."""
        if not self.has_link(u, v):
            raise TopologyError(f"link {edge_key(u, v)} does not exist")
        del self._adj[u][v]
        del self._adj[v][u]
        self._invalidate_caches()

    def remove_node(self, node: NodeId) -> None:
        """Permanently remove a node and its incident links."""
        if node not in self._adj:
            raise TopologyError(f"node {node} does not exist")
        for neighbor in self._adj.pop(node):
            del self._adj[neighbor][node]
        del self._pos[node]
        self._invalidate_caches()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    @property
    def num_links(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def nodes(self) -> list[NodeId]:
        """All node ids, sorted for determinism."""
        return sorted(self._adj)

    def links(self) -> list[Link]:
        """All links, in canonical-key order."""
        out = [
            link
            for u, nbrs in self._adj.items()
            for link in nbrs.values()
            if u == link.u
        ]
        out.sort(key=lambda link: link.key)
        return out

    def has_node(self, node: NodeId) -> bool:
        return node in self._adj

    def has_link(self, u: NodeId, v: NodeId) -> bool:
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def link(self, u: NodeId, v: NodeId) -> Link:
        """Return the :class:`Link` between ``u`` and ``v``."""
        nbrs = self._adj.get(u)
        link = nbrs.get(v) if nbrs is not None else None
        if link is None:
            raise TopologyError(f"link {edge_key(u, v)} does not exist")
        return link

    def delay(self, u: NodeId, v: NodeId) -> float:
        return self.link(u, v).delay

    def cost(self, u: NodeId, v: NodeId) -> float:
        return self.link(u, v).cost

    def neighbors(self, node: NodeId) -> Iterator[NodeId]:
        if node not in self._adj:
            raise TopologyError(f"node {node} does not exist")
        return iter(sorted(self._adj[node]))

    def degree(self, node: NodeId) -> int:
        if node not in self._adj:
            raise TopologyError(f"node {node} does not exist")
        return len(self._adj[node])

    def average_degree(self) -> float:
        """Realised average node degree (2E/N)."""
        if self.num_nodes == 0:
            return 0.0
        return 2.0 * self.num_links / self.num_nodes

    def position(self, node: NodeId) -> tuple[float, float] | None:
        """The node's planar position, if one was assigned."""
        if node not in self._adj:
            raise TopologyError(f"node {node} does not exist")
        return self._pos[node]

    def path_delay(self, path: Iterable[NodeId]) -> float:
        """Sum of link delays along a node path."""
        return self._path_weight(path, "delay")

    def path_cost(self, path: Iterable[NodeId]) -> float:
        """Sum of link costs along a node path."""
        return self._path_weight(path, "cost")

    def _path_weight(self, path: Iterable[NodeId], attr: str) -> float:
        nodes = list(path)
        total = 0.0
        for u, v in zip(nodes, nodes[1:]):
            nbrs = self._adj.get(u)
            if nbrs is None or v not in nbrs:
                raise TopologyError(f"path uses missing link {edge_key(u, v)}")
            total += getattr(nbrs[v], attr)
        return total

    def is_connected(self) -> bool:
        if self.num_nodes == 0:
            return True
        return len(self._component(next(iter(self._adj)))) == self.num_nodes

    def connected_components(self) -> list[set[NodeId]]:
        """Components in order of their first node by insertion order."""
        components: list[set[NodeId]] = []
        seen: set[NodeId] = set()
        for node in self._adj:
            if node not in seen:
                component = self._component(node)
                seen.update(component)
                components.append(component)
        return components

    def _component(self, root: NodeId) -> set[NodeId]:
        """Nodes reachable from ``root``, by level-order BFS."""
        adj = self._adj
        seen = {root}
        frontier = [root]
        while frontier:
            level, frontier = frontier, []
            for u in level:
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        frontier.append(v)
        return seen

    # ------------------------------------------------------------------
    # Views and export
    # ------------------------------------------------------------------
    def _invalidate_caches(self) -> None:
        """Mutation hook: drop derived state and advance the cache token."""
        self._adjacency_cache = None
        self._csr_cache = None
        self._cache_token = next(_CACHE_TOKENS)

    def cache_token(self) -> int:
        """Opaque token identifying this topology *state* for caching.

        Two calls return the same token iff the topology has not been
        mutated in between; tokens are never reused across instances, so
        ``(cache_token(), …)`` keys are safe in long-lived caches (see
        :class:`repro.routing.route_cache.RouteCache`).
        """
        return self._cache_token

    def adjacency(self) -> Mapping[NodeId, dict[NodeId, float]]:
        """Delay-weighted adjacency mapping ``{u: {v: delay}}``.

        Cached (and invalidated on mutation): shortest-path computations
        call this on every invocation, thousands of times per experiment.
        Callers must treat the result as read-only.
        """
        if self._adjacency_cache is None:
            self._adjacency_cache = {
                u: {v: link.delay for v, link in nbrs.items()}
                for u, nbrs in self._adj.items()
            }
        return self._adjacency_cache

    def csr(self):
        """The compiled :class:`~repro.routing.csr.CsrGraph` for this state.

        Built lazily on first use and invalidated on mutation, like
        :meth:`adjacency`.  All SPF kernels in :mod:`repro.routing.spf`
        run over this compiled form; :class:`~repro.graph.cache.TopologyCache`
        pre-compiles it at build time so cached topologies arrive hot.
        """
        if self._csr_cache is None:
            # Imported here: repro.routing.csr imports NodeId from this
            # module, so a top-level import would be circular.
            from repro.routing.csr import CsrGraph

            self._csr_cache = CsrGraph(self)
        return self._csr_cache

    def copy(self, name: str | None = None) -> "Topology":
        """Copy; topology mutations on the copy do not affect this one.

        Links are frozen, so the copy shares them; only the dicts are new.
        """
        clone = Topology(name or self.name)
        clone._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        clone._pos = dict(self._pos)
        return clone

    def validate(self) -> None:
        """Raise :class:`TopologyError` if any structural invariant fails.

        Checks: positive weights, no self-loops, and (when positions exist)
        positions present on every node.
        """
        positioned = sum(pos is not None for pos in self._pos.values())
        if positioned not in (0, self.num_nodes):
            raise TopologyError(
                f"{self.name}: {positioned}/{self.num_nodes} nodes have positions; "
                "positions must be assigned to all nodes or none"
            )
        for link in self.links():
            if link.u == link.v:
                raise TopologyError(f"{self.name}: self-loop on node {link.u}")
            if link.delay <= 0 or link.cost <= 0:
                raise TopologyError(
                    f"{self.name}: link {link.key} has non-positive weight"
                )

    def __repr__(self) -> str:
        return (
            f"Topology(name={self.name!r}, nodes={self.num_nodes}, "
            f"links={self.num_links}, avg_degree={self.average_degree():.2f})"
        )
