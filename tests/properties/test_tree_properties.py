"""Property tests: tree invariants survive arbitrary operation sequences."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.errors import JoinRejectedError, UnrecoverableFailureError
from repro.graph.waxman import WaxmanConfig, waxman_topology
from repro.core.protocol import SMRPConfig, SMRPProtocol
from repro.core.shr import shr_incremental
from repro.multicast.validation import check_tree_invariants
from repro.routing.spf import dijkstra


def make_topology(seed: int):
    return waxman_topology(
        WaxmanConfig(n=25, alpha=0.5, beta=0.4, seed=seed)
    ).topology


@st.composite
def operation_sequences(draw):
    """A random interleaving of joins and leaves over node ids 1..24."""
    seed = draw(st.integers(0, 100))
    ops = draw(
        st.lists(
            st.tuples(st.booleans(), st.integers(1, 24)),
            min_size=1,
            max_size=25,
        )
    )
    d_thresh = draw(st.sampled_from([0.0, 0.2, 0.4, 1.0]))
    return seed, ops, d_thresh


class TestOperationSequences:
    @settings(max_examples=30, deadline=None)
    @given(operation_sequences())
    def test_invariants_always_hold(self, case):
        seed, ops, d_thresh = case
        topology = make_topology(seed)
        proto = SMRPProtocol(
            topology, 0, config=SMRPConfig(d_thresh=d_thresh, self_check=False)
        )
        for is_join, node in ops:
            if is_join and not proto.tree.is_member(node):
                proto.join(node)
            elif not is_join and proto.tree.is_member(node):
                proto.leave(node)
            check_tree_invariants(proto.tree)
            # Distributed state stays consistent with the tree.
            assert proto.shr_values() == shr_incremental(proto.tree)

    @settings(max_examples=30, deadline=None)
    @given(operation_sequences())
    def test_members_exactly_tracked(self, case):
        seed, ops, d_thresh = case
        topology = make_topology(seed)
        proto = SMRPProtocol(topology, 0, config=SMRPConfig(d_thresh=d_thresh))
        expected: set[int] = set()
        for is_join, node in ops:
            if is_join and node not in expected:
                proto.join(node)
                expected.add(node)
            elif not is_join and node in expected:
                proto.leave(node)
                expected.discard(node)
        assert proto.tree.members == frozenset(expected)

    @settings(max_examples=20, deadline=None)
    @given(operation_sequences())
    # Node 17 is a relay on member 6's graft; promoting it to member
    # used to skip the delay bound.
    @example((66, [(True, 1), (True, 6), (True, 17)], 0.2))
    def test_delay_bound_for_non_fallback_joins(self, case):
        seed, ops, d_thresh = case
        topology = make_topology(seed)
        proto = SMRPProtocol(
            topology, 0, config=SMRPConfig(d_thresh=d_thresh, allow_fallback=False)
        )
        spf = dijkstra(topology, 0)
        for is_join, node in ops:
            try:
                if is_join and not proto.tree.is_member(node):
                    proto.join(node)
                elif not is_join and proto.tree.is_member(node):
                    proto.leave(node)
            except JoinRejectedError:
                continue
            for member in proto.tree.members:
                assert (
                    proto.tree.delay_from_source(member)
                    <= (1 + d_thresh) * spf.dist[member] + 1e-9
                )


class TestRecoveryProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 100),
        st.integers(0, 100),
        st.integers(0, 10_000),
    )
    def test_recovery_avoids_failures_and_local_wins(
        self, topo_seed, member_seed, failure_seed
    ):
        """For a random worst-case member failure: detours avoid faulty
        components and the local detour never exceeds the global one."""
        from repro.core.recovery import (
            global_detour_recovery,
            local_detour_recovery,
            worst_case_failure,
        )

        topology = make_topology(topo_seed)
        rng = np.random.default_rng(member_seed)
        members = [int(m) for m in rng.choice(range(1, 25), 6, replace=False)]
        proto = SMRPProtocol(topology, 0, config=SMRPConfig(d_thresh=0.4))
        proto.build(members)
        member = members[failure_seed % len(members)]
        failure = worst_case_failure(proto.tree, member)
        try:
            local = local_detour_recovery(topology, proto.tree, member, failure)
            global_ = global_detour_recovery(topology, proto.tree, member, failure)
        except UnrecoverableFailureError:
            return  # bridge failure: nothing to compare
        assert not failure.path_affected(local.restoration_path)
        assert not failure.path_affected(global_.restoration_path)
        assert local.recovery_distance <= global_.recovery_distance + 1e-9
        # Restoration paths merge onto the surviving tree.
        surviving = proto.tree.surviving_component(failure)
        assert local.restoration_path[-1] in surviving
        assert global_.restoration_path[-1] in surviving
