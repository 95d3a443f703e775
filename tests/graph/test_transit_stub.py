"""Tests for the transit-stub hierarchical topology generator."""

import pytest

from repro.errors import ConfigurationError
from repro.graph.transit_stub import TransitStubConfig, transit_stub_topology


CONFIG = TransitStubConfig(seed=5)


@pytest.fixture(scope="module")
def network():
    return transit_stub_topology(CONFIG)


class TestConfig:
    def test_total_nodes(self):
        cfg = TransitStubConfig(transit_nodes=4, stubs_per_transit=3, stub_size=8)
        assert cfg.total_nodes == 4 * (1 + 3 * 8)

    def test_rejects_single_transit(self):
        with pytest.raises(ConfigurationError):
            TransitStubConfig(transit_nodes=1)

    def test_rejects_zero_stubs(self):
        with pytest.raises(ConfigurationError):
            TransitStubConfig(stubs_per_transit=0)

    def test_rejects_tiny_stub(self):
        with pytest.raises(ConfigurationError):
            TransitStubConfig(stub_size=1)


class TestStructure:
    def test_node_count(self, network):
        assert network.topology.num_nodes == CONFIG.total_nodes

    def test_connected(self, network):
        assert network.topology.is_connected()

    def test_domain_count(self, network):
        assert len(network.domains) == (
            1 + CONFIG.transit_nodes * CONFIG.stubs_per_transit
        )
        assert network.root.level == 0
        assert all(d.level == 1 for d in network.leaf_domains())

    def test_two_level_hierarchy(self, network):
        """The transit domain is the root; every stub is its leaf child."""
        assert network.depth == 2
        assert network.root.parent is None
        assert network.root.children == [
            d.domain_id for d in network.leaf_domains()
        ]
        assert len(network.leaf_domains()) == len(network.domains) - 1
        for stub in network.leaf_domains():
            assert stub.parent == network.root.domain_id
            assert stub.children == []
            assert stub.standbys == ()
            assert len(stub.attachments) == CONFIG.gateway_redundancy

    def test_domains_partition_nodes(self, network):
        seen: set[int] = set()
        for domain in network.domains:
            assert not (domain.nodes & seen), "domains must be disjoint"
            seen |= domain.nodes
        assert seen == set(network.topology.nodes())

    def test_domain_of_is_consistent(self, network):
        for domain in network.domains:
            for node in domain.nodes:
                assert network.domain_of[node] == domain.domain_id

    def test_every_stub_has_gateway_link(self, network):
        for stub in network.leaf_domains():
            primary = stub.attachments[0]
            assert stub.gateway in stub.nodes
            assert primary in network.root.nodes
            assert network.topology.has_link(stub.gateway, primary)
            assert network.topology.delay(
                stub.gateway, primary
            ) == CONFIG.gateway_delay

    def test_stub_internal_links_stay_internal(self, network):
        """The only link leaving a stub domain is its gateway link."""
        for stub in network.leaf_domains():
            for link in network.topology.links():
                inside = link.u in stub.nodes, link.v in stub.nodes
                if inside == (True, False) or inside == (False, True):
                    stub_end = link.u if inside[0] else link.v
                    assert stub_end == stub.gateway

    def test_reproducible(self):
        a = transit_stub_topology(TransitStubConfig(seed=9))
        b = transit_stub_topology(TransitStubConfig(seed=9))
        assert [l.key for l in a.topology.links()] == [
            l.key for l in b.topology.links()
        ]
