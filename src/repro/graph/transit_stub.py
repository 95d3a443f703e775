"""Transit-stub hierarchical topologies.

Section 3.3.3 of the paper maps its 2-level hierarchical recovery
architecture onto "the current transit-stub Internet structure": stub
domains (where multicast members cluster) hang off a transit backbone, and
each domain forms an independent *recovery domain* with an agent node.

GT-ITM ships a transit-stub generator; this module is a from-scratch
equivalent at the scale the paper needs.  A single transit (backbone)
domain is generated as a Waxman graph; each transit node sponsors a number
of stub domains, each itself a small Waxman graph attached to its transit
node via a gateway link.  The result is a 2-level
:class:`~repro.graph.nlevel.NLevelNetwork` — the transit domain is the
root, the stubs are its leaf children — so
:class:`~repro.core.nlevel.NLevelMulticast` scopes recovery on it exactly
as on any deeper hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.nlevel import NestedDomain, NLevelNetwork, _central_node, _splice
from repro.graph.topology import Topology
from repro.graph.waxman import WaxmanConfig, waxman_topology


@dataclass(frozen=True)
class TransitStubConfig:
    """Parameters of a 2-level transit-stub topology.

    Attributes
    ----------
    transit_nodes:
        Number of backbone routers.
    stubs_per_transit:
        Stub domains attached to each backbone router.
    stub_size:
        Routers per stub domain.
    transit_alpha / stub_alpha:
        Waxman edge densities for the backbone and for each stub domain.
    beta:
        Waxman distance-decay parameter, shared by all domains.
    transit_scale / stub_scale:
        Placement-square sides.  The backbone spans a wide area (long
        delays); each stub is compact (short delays), reflecting the
        transit-stub delay structure of real internetworks.
    gateway_delay:
        Delay of each stub-to-transit gateway link.
    gateway_redundancy:
        How many transit routers each stub gateway attaches to.  The
        paper's recovery story (Figure 6: agent A2 reconnects through its
        neighbor agent A3) requires the transit recovery domain to offer
        detours, i.e. multi-homed agents; 2 is the realistic default.
        Backup attachments use a 50% longer link, so primary routes win
        under SPF.
    seed:
        Master seed; each domain draws from a derived child seed.
    """

    transit_nodes: int = 4
    stubs_per_transit: int = 3
    stub_size: int = 8
    transit_alpha: float = 0.9
    stub_alpha: float = 0.5
    beta: float = 0.5
    transit_scale: float = 200.0
    stub_scale: float = 30.0
    gateway_delay: float = 10.0
    gateway_redundancy: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.transit_nodes < 2:
            raise ConfigurationError(
                f"need at least 2 transit nodes, got {self.transit_nodes}"
            )
        if self.stubs_per_transit < 1:
            raise ConfigurationError(
                f"need at least 1 stub per transit, got {self.stubs_per_transit}"
            )
        if self.stub_size < 2:
            raise ConfigurationError(f"stub_size must be >= 2, got {self.stub_size}")
        if self.gateway_delay <= 0:
            raise ConfigurationError(
                f"gateway_delay must be positive, got {self.gateway_delay}"
            )
        if not 1 <= self.gateway_redundancy <= self.transit_nodes:
            raise ConfigurationError(
                f"gateway_redundancy must be in [1, {self.transit_nodes}], "
                f"got {self.gateway_redundancy}"
            )

    @property
    def total_nodes(self) -> int:
        return self.transit_nodes * (1 + self.stubs_per_transit * self.stub_size)


def transit_stub_topology(config: TransitStubConfig) -> NLevelNetwork:
    """Generate a 2-level transit-stub topology.

    Node ids are assigned contiguously: transit nodes first, then each stub
    domain's nodes in generation order.  Domain 0 is the transit backbone
    (level 0); every stub is a level-1 leaf whose ``attachments`` are its
    primary transit router followed by its backups, with no standby
    agents.
    """
    rng = np.random.default_rng(config.seed)
    seed_stream = rng.integers(0, 2**31 - 1, size=1 + config.transit_nodes
                               * config.stubs_per_transit)

    topo = Topology(
        f"transit_stub(t={config.transit_nodes},"
        f"s={config.stubs_per_transit}x{config.stub_size},seed={config.seed})"
    )
    network = NLevelNetwork(topology=topo)

    transit = waxman_topology(
        WaxmanConfig(
            n=config.transit_nodes,
            alpha=config.transit_alpha,
            beta=config.beta,
            scale=config.transit_scale,
            seed=int(seed_stream[0]),
        )
    )
    transit_domain = NestedDomain(domain_id=0, level=0)
    _splice(topo, transit.topology, offset=0)
    transit_domain.nodes = set(range(config.transit_nodes))
    network.domains.append(transit_domain)
    for node in transit_domain.nodes:
        network.domain_of[node] = 0

    next_id = config.transit_nodes
    next_seed = 1
    for transit_node in range(config.transit_nodes):
        for _ in range(config.stubs_per_transit):
            stub = waxman_topology(
                WaxmanConfig(
                    n=config.stub_size,
                    alpha=config.stub_alpha,
                    beta=config.beta,
                    scale=config.stub_scale,
                    seed=int(seed_stream[next_seed]),
                )
            )
            next_seed += 1
            domain = NestedDomain(
                domain_id=len(network.domains), level=1, parent=0
            )
            _splice(topo, stub.topology, offset=next_id)
            domain.nodes = set(range(next_id, next_id + config.stub_size))
            # The gateway is the stub node closest to the stub's own centre —
            # deterministic given the stub layout.
            gateway = _central_node(stub.topology, next_id)
            domain.gateway = gateway
            topo.add_link(gateway, transit_node, delay=config.gateway_delay)
            attachments = [transit_node]
            # Backup attachments (multi-homing): longer links to further
            # transit routers, giving the transit recovery domain detours.
            for k in range(1, config.gateway_redundancy):
                backup = (transit_node + k) % config.transit_nodes
                topo.add_link(
                    gateway, backup, delay=config.gateway_delay * 1.5
                )
                attachments.append(backup)
            domain.attachments = tuple(attachments)
            transit_domain.children.append(domain.domain_id)
            network.domains.append(domain)
            for node in domain.nodes:
                network.domain_of[node] = domain.domain_id
            next_id += config.stub_size

    topo.validate()
    return network
