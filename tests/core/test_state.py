"""Tests for distributed SMRP state maintenance and message accounting."""

import numpy as np
import pytest

from repro.core.protocol import SMRPConfig, SMRPProtocol
from repro.errors import ConfigurationError, NotOnTreeError
from repro.graph.generators import node_id
from repro.graph.waxman import WaxmanConfig, waxman_topology
from repro.multicast.tree import MulticastTree
from repro.core.shr import shr_table, subtree_member_counts
from repro.core.state import StateManager


@pytest.fixture
def tree(fig4):
    t = MulticastTree(fig4, node_id("S"))
    t.graft([node_id("S"), node_id("A"), node_id("D"), node_id("E")])
    return t


class TestConsistency:
    def test_initial_state_matches_tree(self, tree):
        manager = StateManager(tree)
        counts = subtree_member_counts(tree)
        shr = shr_table(tree)
        for node in tree.on_tree_nodes():
            state = manager.state_of(node)
            assert state.n_r == counts[node]
            assert state.shr == shr[node]
            assert state.consistent()

    def test_interface_counts(self, tree):
        tree.graft([node_id("D"), node_id("F")])
        manager = StateManager(tree)
        state = manager.state_of(node_id("D"))
        assert state.n_per_interface == {node_id("E"): 1, node_id("F"): 1}

    def test_off_tree_query_rejected(self, tree):
        manager = StateManager(tree)
        with pytest.raises(NotOnTreeError):
            manager.shr(node_id("B"))

    def test_invalid_mode_rejected(self, tree):
        with pytest.raises(ConfigurationError):
            StateManager(tree, mode="psychic")

    def test_state_follows_graft_and_prune(self, tree):
        manager = StateManager(tree)
        tree.graft([node_id("D"), node_id("F")])
        manager.notify_graft([node_id("D"), node_id("F")])
        assert manager.shr(node_id("D")) == 4
        tree.prune(node_id("F"))
        manager.notify_prune(node_id("D"))
        assert manager.shr(node_id("D")) == 2


class TestConditionI:
    def test_delta_tracks_upstream_growth(self, tree):
        manager = StateManager(tree)
        assert manager.condition_i_delta(node_id("E")) == 0
        tree.graft([node_id("D"), node_id("F")])
        manager.notify_graft([node_id("D"), node_id("F")])
        # E's upstream D went from SHR 2 to 4.
        assert manager.condition_i_delta(node_id("E")) == 2

    def test_baseline_reset(self, tree):
        manager = StateManager(tree)
        tree.graft([node_id("D"), node_id("F")])
        manager.notify_graft([node_id("D"), node_id("F")])
        manager.record_reshape_baseline(node_id("E"))
        assert manager.condition_i_delta(node_id("E")) == 0

    def test_rebind_restarts_nodes_that_left_the_tree(self, tree):
        """A node that left and came back under the same upstream starts a
        fresh baseline: the one it had before leaving is stale."""
        D, E, F = node_id("D"), node_id("E"), node_id("F")
        manager = StateManager(tree)
        tree.graft([D, F])
        manager.notify_graft([D, F])
        tree.prune(E)
        manager.notify_prune(D)
        manager.record_reshape_baseline(F)  # SHR(D) = 2 with F alone
        tree.graft([D, E])
        manager.notify_graft([D, E])
        tree.prune(F)
        manager.notify_prune(D)
        replacement = tree.copy()
        replacement.graft([D, F])
        manager.rebind(replacement)
        assert manager.condition_i_delta(F) == 0

    def test_source_has_no_delta(self, tree):
        manager = StateManager(tree)
        assert manager.condition_i_delta(node_id("S")) == 0


class TestMessageAccounting:
    def test_eager_charges_pushes(self, tree):
        manager = StateManager(tree, mode="eager")
        tree.graft([node_id("D"), node_id("F")])
        manager.notify_graft([node_id("D"), node_id("F")])
        assert manager.counters.n_updates > 0
        assert manager.counters.shr_pushes > 0
        assert manager.counters.shr_pulls == 0

    def test_deferred_charges_pulls_on_demand(self, tree):
        manager = StateManager(tree, mode="deferred")
        tree.graft([node_id("D"), node_id("F")])
        manager.notify_graft([node_id("D"), node_id("F")])
        assert manager.counters.shr_pushes == 0
        pulls_before = manager.counters.shr_pulls
        _ = manager.shr(node_id("E"))
        assert manager.counters.shr_pulls > pulls_before

    def test_deferred_values_still_correct(self, tree):
        manager = StateManager(tree, mode="deferred")
        tree.graft([node_id("D"), node_id("F")])
        manager.notify_graft([node_id("D"), node_id("F")])
        assert manager.shr_snapshot() == shr_table(tree)

    def test_deferred_cheaper_under_rare_queries(self, tree):
        """§3.3.2's point: amortizing SHR maintenance into joins wins when
        queries are rarer than membership changes."""
        eager = StateManager(tree, mode="eager")
        deferred = StateManager(tree.copy(), mode="deferred")
        # Several membership changes, zero queries.
        for manager in (eager, deferred):
            t = manager.tree
            t.graft([node_id("D"), node_id("F")])
            manager.notify_graft([node_id("D"), node_id("F")])
            t.prune(node_id("F"))
            manager.notify_prune(node_id("D"))
        assert deferred.counters.total < eager.counters.total


class TestModesAgree:
    """Eager and deferred maintenance differ only in message accounting."""

    @pytest.mark.parametrize("seed", range(4))
    def test_same_trees_same_reshapes(self, seed):
        topology = waxman_topology(
            WaxmanConfig(n=60, alpha=0.25, seed=seed)
        ).topology
        rng = np.random.default_rng(seed)
        members = [int(m) for m in rng.choice(range(1, 60), 15, replace=False)]
        runs = {}
        for mode in ("eager", "deferred"):
            proto = SMRPProtocol(topology, 0, config=SMRPConfig(state_mode=mode))
            proto.build(members)
            runs[mode] = proto
        eager, deferred = runs["eager"], runs["deferred"]
        assert eager.tree.tree_links() == deferred.tree.tree_links()
        assert eager.stats.reshape_evaluations == deferred.stats.reshape_evaluations
        assert eager.stats.reshapes_performed == deferred.stats.reshapes_performed
        assert eager.state.counters.n_updates == deferred.state.counters.n_updates
        assert eager.state.counters.shr_pulls == 0
        assert deferred.state.counters.shr_pushes == 0
        for node in eager.tree.on_tree_nodes():
            assert eager.state.condition_i_delta(
                node
            ) == deferred.state.condition_i_delta(node)
