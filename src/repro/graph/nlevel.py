"""N-level nested domain topologies (paper §3.3.3).

The paper presents its recovery architecture on a 2-level transit-stub
network but notes that it "can be easily generalized into an N-level
architecture": domains nest, each with an agent (gateway) connecting it
to its parent domain.  This generator produces such nested topologies:

- one **root domain** (level 0) generated as a Waxman graph,
- each domain at level *k* sponsors ``fanout`` child domains at level
  *k+1*, each a Waxman graph attached through a gateway link (plus an
  optional redundant attachment, so the parent domain can detour around
  a failed primary attachment — the Figure 6 recovery story),
- members live in the **leaf domains** (the paper: "members are usually
  clustered into the lowest level").

The result records the domain tree (parent/children), each domain's
gateway and attachment, and the domain of every node, which is exactly
what :class:`repro.core.nlevel.NLevelMulticast` needs to scope recovery.
The paper's own 2-level instance,
:func:`~repro.graph.transit_stub.transit_stub_topology`, builds the same
:class:`NLevelNetwork`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.placement import euclidean
from repro.graph.topology import NodeId, Topology
from repro.graph.waxman import WaxmanConfig, waxman_topology


@dataclass(frozen=True)
class LevelSpec:
    """How domains at one level look and how many children they sponsor.

    ``fanout`` is the number of child domains *each* domain at this level
    sponsors at the next level (0 for the leaf level).
    """

    size: int
    fanout: int = 0
    alpha: float = 0.6
    beta: float = 0.5
    scale: float = 50.0
    gateway_delay: float = 8.0
    gateway_redundancy: int = 2
    standby_gateways: int = 1

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ConfigurationError(f"domain size must be >= 2, got {self.size}")
        if self.fanout < 0:
            raise ConfigurationError(f"fanout must be >= 0, got {self.fanout}")
        if self.gateway_delay <= 0:
            raise ConfigurationError("gateway_delay must be positive")
        if not 1 <= self.gateway_redundancy <= self.size:
            raise ConfigurationError(
                f"gateway_redundancy must be in [1, {self.size}]"
            )
        if not 0 <= self.standby_gateways < self.size:
            raise ConfigurationError(
                f"standby_gateways must be in [0, {self.size}), got "
                f"{self.standby_gateways}"
            )


@dataclass
class NestedDomain:
    """One domain in the hierarchy."""

    domain_id: int
    level: int
    nodes: set[NodeId] = field(default_factory=set)
    gateway: NodeId | None = None  # entry node (None for the root domain)
    attachments: tuple[NodeId, ...] = ()  # parent-domain nodes it links to
    #: Standby agents: also linked into the parent domain, ready to take
    #: over when the primary gateway node fails (agent failover).
    standbys: tuple[NodeId, ...] = ()
    parent: int | None = None
    children: list[int] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_root(self) -> bool:
        return self.parent is None


@dataclass
class NLevelNetwork:
    """Generated topology plus the domain hierarchy."""

    topology: Topology
    domains: list[NestedDomain] = field(default_factory=list)
    domain_of: dict[NodeId, int] = field(default_factory=dict)

    @property
    def root(self) -> NestedDomain:
        return self.domains[0]

    @property
    def depth(self) -> int:
        """Number of levels (a transit-stub network has 2)."""
        return 1 + max(d.level for d in self.domains)

    def leaf_domains(self) -> list[NestedDomain]:
        return [d for d in self.domains if d.is_leaf]

    def domain_path(self, domain_id: int) -> list[int]:
        """Domain ids from the root down to ``domain_id`` (inclusive)."""
        path = [domain_id]
        cursor = self.domains[domain_id]
        while cursor.parent is not None:
            path.append(cursor.parent)
            cursor = self.domains[cursor.parent]
        path.reverse()
        return path

    def lowest_common_ancestor(self, a: int, b: int) -> int:
        """The deepest domain containing both domain subtrees."""
        path_a = self.domain_path(a)
        path_b = self.domain_path(b)
        lca = path_a[0]
        for x, y in zip(path_a, path_b):
            if x != y:
                break
            lca = x
        return lca


def n_level_topology(specs: list[LevelSpec], seed: int = 0) -> NLevelNetwork:
    """Generate an N-level nested topology from per-level specs.

    ``specs[0]`` is the root domain; ``specs[k].fanout`` children are
    created at level ``k+1`` for every level-``k`` domain, so the list
    must end with a ``fanout=0`` leaf level.
    """
    if not specs:
        raise ConfigurationError("at least one level spec is required")
    if specs[-1].fanout != 0:
        raise ConfigurationError("the last level must have fanout 0")
    for k, spec in enumerate(specs[:-1]):
        if spec.fanout == 0:
            raise ConfigurationError(f"non-leaf level {k} must have fanout > 0")

    rng = np.random.default_rng(seed)
    topo = Topology(f"nlevel(depth={len(specs)},seed={seed})")
    network = NLevelNetwork(topology=topo)

    next_node = 0
    frontier: list[int] = []

    def create_domain(level: int, parent: NestedDomain | None) -> NestedDomain:
        nonlocal next_node
        spec = specs[level]
        sub = waxman_topology(
            WaxmanConfig(
                n=spec.size,
                alpha=spec.alpha,
                beta=spec.beta,
                scale=spec.scale,
                seed=int(rng.integers(2**31 - 1)),
            )
        ).topology
        domain = NestedDomain(
            domain_id=len(network.domains),
            level=level,
            parent=None if parent is None else parent.domain_id,
        )
        offset = next_node
        _splice(topo, sub, offset)
        domain.nodes = {n + offset for n in sub.nodes()}
        next_node += spec.size

        if parent is not None:
            domain.gateway = _central_node(sub, offset)
            parent_nodes = sorted(parent.nodes)
            # Primary attachment rotates over the parent's nodes so child
            # domains spread out; backups go to the following nodes.
            start = len(parent.children) % len(parent_nodes)
            redundancy = min(spec.gateway_redundancy, len(parent_nodes))
            attachments = []
            for k in range(redundancy):
                target = parent_nodes[(start + k) % len(parent_nodes)]
                delay = spec.gateway_delay * (1.0 if k == 0 else 1.5)
                topo.add_link(domain.gateway, target, delay=delay)
                attachments.append(target)
            domain.attachments = tuple(attachments)
            # Standby agents: distinct domain nodes, each with its own
            # (longer) uplink to the primary attachment — alive spares
            # for agent failover.
            standbys = []
            spare_pool = [
                n + offset
                for n in sorted(
                    sub.nodes(),
                    key=lambda n: (sub.degree(n) * -1, n),
                )
                if n + offset != domain.gateway
            ]
            for k in range(min(spec.standby_gateways, len(spare_pool))):
                standby = spare_pool[k]
                topo.add_link(
                    standby, attachments[0], delay=spec.gateway_delay * 1.5
                )
                standbys.append(standby)
            domain.standbys = tuple(standbys)
            parent.children.append(domain.domain_id)
        network.domains.append(domain)
        for node in domain.nodes:
            network.domain_of[node] = domain.domain_id
        return domain

    root = create_domain(0, None)
    frontier = [root.domain_id]
    for level in range(1, len(specs)):
        next_frontier: list[int] = []
        for parent_id in frontier:
            parent = network.domains[parent_id]
            for _ in range(specs[level - 1].fanout):
                child = create_domain(level, parent)
                next_frontier.append(child.domain_id)
        frontier = next_frontier

    topo.validate()
    return network


def _splice(target: Topology, source: Topology, offset: int) -> None:
    """Copy ``source`` into ``target`` with node ids shifted by ``offset``."""
    for node in source.nodes():
        target.add_node(node + offset, pos=source.position(node))
    for link in source.links():
        target.add_link(
            link.u + offset, link.v + offset, delay=link.delay, cost=link.cost
        )


def _central_node(sub: Topology, offset: int) -> NodeId:
    """The node nearest the domain's centroid (deterministic gateway pick)."""
    nodes = sub.nodes()
    positions = [sub.position(n) for n in nodes]
    if any(p is None for p in positions):
        return nodes[0] + offset
    cx = sum(p[0] for p in positions) / len(positions)
    cy = sum(p[1] for p in positions) / len(positions)
    best = min(nodes, key=lambda n: (euclidean(sub.position(n), (cx, cy)), n))
    return best + offset
