"""Figure 6 — the hierarchical recovery architecture (paper §3.3.3).

The paper has no quantitative figure for the hierarchy; its claim is
structural: "any node/link failure inside a recovery domain is handled by
that domain" and "all tree reconfigurations are confined inside" it.
This bench quantifies that confinement against a flat SMRP instance on
the same transit-stub topology: the hierarchical recovery touches the
nodes of one domain, while the flat recovery may touch state anywhere.
"""

import numpy as np

from repro.graph.transit_stub import TransitStubConfig, transit_stub_topology
from repro.core.nlevel import NLevelMulticast
from repro.core.protocol import SMRPConfig, SMRPProtocol
from repro.core.recovery import repair_tree
from repro.routing.failure_view import FailureSet
from repro.routing.route_cache import RouteCache


def build_world(seed: int = 3):
    network = transit_stub_topology(
        TransitStubConfig(
            transit_nodes=4, stubs_per_transit=3, stub_size=8, seed=seed
        )
    )
    rng = np.random.default_rng(seed + 1)
    stub_nodes = [
        n
        for d in network.leaf_domains()
        for n in sorted(d.nodes)
        if n != d.gateway
    ]
    source = stub_nodes[0]
    members = [
        int(stub_nodes[i])
        for i in rng.choice(len(stub_nodes), size=12, replace=False)
        if stub_nodes[i] != source
    ]
    return network, source, members


def run_comparison():
    network, source, members = build_world()
    config = SMRPConfig(d_thresh=0.5)

    hierarchical = NLevelMulticast(network, source, config=config)
    for m in members:
        hierarchical.join(m)

    flat = SMRPProtocol(network.topology, source, config=config)
    flat.build(members)

    # Fail one internal link of a member-bearing stub domain.
    target_domain = network.domains[network.domain_of[members[0]]]
    internal = [
        link.key
        for link in network.topology.links()
        if link.u in target_domain.nodes and link.v in target_domain.nodes
    ]
    failure = FailureSet.links(internal[0])

    route_cache = RouteCache()
    report = hierarchical.recover(failure, route_cache=route_cache)
    flat_report = repair_tree(
        network.topology, flat.tree, failure, "local", route_cache=route_cache
    )
    return network, report, flat_report, target_domain


def test_hierarchical_recovery_confined(benchmark):
    network, report, flat_report, target_domain = benchmark.pedantic(
        run_comparison, rounds=1, iterations=1
    )
    total_nodes = network.topology.num_nodes
    print(
        f"\nhierarchical scope: {report.scope_nodes}/{total_nodes} nodes, "
        f"domains {report.domains_reconfigured}; flat scope: {total_nodes}"
    )
    # Reconfiguration is confined to the failing domain (or touched
    # nothing when the failed link was off-tree).
    assert set(report.domains_reconfigured) <= {target_domain.domain_id}
    assert report.scope_nodes <= len(target_domain.nodes)
    assert report.scope_nodes < total_nodes
    # The flat repair, by contrast, considers the whole network.
    assert flat_report.repaired_tree.topology.num_nodes == total_nodes


def test_hierarchical_membership_scales(benchmark):
    """Join cost stays domain-local: activating a member only builds
    state in its own domain chain."""

    def run():
        network, source, members = build_world(seed=9)
        session = NLevelMulticast(network, source)
        for m in members:
            session.join(m)
        return network, session

    network, session = benchmark.pedantic(run, rounds=1, iterations=1)
    active = session.active_domains()
    # Only domains that actually host members (plus transit + source
    # domain) are active — idle stubs hold zero session state.
    member_domains = {network.domain_of[m] for m in session.members}
    expected = member_domains | {0, session.source_domain_id}
    assert set(active) <= expected
    assert session.total_cost() > 0
