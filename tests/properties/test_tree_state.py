"""Stateful property tests: the state the tree and the manager maintain
incrementally always equals a recount from scratch.

:class:`~repro.multicast.tree.MulticastTree` keeps ``N_R``, the
Equation (2) SHR table and the on-tree delay table up to date across
mutations, and :class:`~repro.core.state.StateManager` keeps only the
Condition-I baselines.  The machine below drives random tree mutations, copies and
repairs on seeded Waxman topologies and, after every step, compares that
state with :func:`subtree_member_counts`, :func:`shr_incremental`,
per-node :meth:`~MulticastTree.delay_from_source` walks and a reference
manager that rebuilds everything after every event.
"""

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.leave import process_leave
from repro.core.protocol import SMRPConfig, SMRPProtocol
from repro.core.recovery import repair_tree
from repro.core.shr import shr_incremental, subtree_member_counts
from repro.core.state import StateManager
from repro.graph.waxman import WaxmanConfig, waxman_topology
from repro.multicast.tree import MulticastTree
from repro.multicast.validation import check_tree_invariants
from repro.routing.failure_view import FailureSet

SOURCE = 0


def make_topology(seed: int):
    return waxman_topology(
        WaxmanConfig(n=20, alpha=0.5, beta=0.4, seed=seed)
    ).topology


class RebuildEverythingManager:
    """Reference Condition-I bookkeeping: rebuild every node after every event.

    A node keeps its baseline while its upstream stays the same; any other
    node starts from its upstream's current SHR, recounted from scratch.
    """

    def __init__(self, tree: MulticastTree) -> None:
        self.tree = tree
        self.upstream: dict = {}
        self.baseline: dict = {}
        self.rebuild()

    def rebuild(self) -> None:
        shr = shr_incremental(self.tree)
        upstream, baseline = {}, {}
        for node in self.tree.on_tree_nodes():
            up = self.tree.parent(node)
            upstream[node] = up
            if up is None:
                continue
            if node in self.upstream and self.upstream[node] == up:
                baseline[node] = self.baseline[node]
            else:
                baseline[node] = shr[up]
        self.upstream, self.baseline = upstream, baseline

    def rebind(self, tree: MulticastTree) -> None:
        self.tree = tree
        self.rebuild()

    def record(self, node) -> None:
        up = self.tree.parent(node)
        if up is not None:
            self.baseline[node] = shr_incremental(self.tree)[up]

    def delta(self, node) -> int:
        up = self.tree.parent(node)
        if up is None:
            return 0
        return shr_incremental(self.tree)[up] - self.baseline[node]


class TreeStateMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 50), mode=st.sampled_from(["eager", "deferred"]))
    def start(self, seed, mode):
        self.topology = make_topology(seed)
        self.tree = MulticastTree(self.topology, SOURCE)
        self.manager = StateManager(self.tree, mode=mode)
        self.reference = RebuildEverythingManager(self.tree)

    def _off_tree_neighbors(self, node, exclude=()):
        return sorted(
            v
            for v in self.topology.neighbors(node)
            if not self.tree.is_on_tree(v) and v not in exclude
        )

    @rule(data=st.data())
    def graft(self, data):
        merge = data.draw(st.sampled_from(self.tree.on_tree_nodes()))
        path = [merge]
        for _ in range(data.draw(st.integers(1, 3))):
            options = self._off_tree_neighbors(path[-1], exclude=path)
            if not options:
                break
            path.append(data.draw(st.sampled_from(options)))
        if len(path) == 1:
            return
        self.tree.graft(path)
        self.manager.notify_graft(path)
        self.reference.rebuild()

    @precondition(lambda self: len(self.tree) > len(self.tree.members) + 1)
    @rule(data=st.data())
    def add_member(self, data):
        relays = [
            n
            for n in self.tree.on_tree_nodes()
            if n != SOURCE and not self.tree.is_member(n)
        ]
        node = data.draw(st.sampled_from(relays))
        self.tree.add_member(node)
        self.manager.notify_graft([node])
        self.reference.rebuild()

    @precondition(lambda self: bool(self.tree.members))
    @rule(data=st.data())
    def prune(self, data):
        member = data.draw(st.sampled_from(sorted(self.tree.members)))
        outcome = process_leave(self.tree, member)
        self.manager.notify_prune(outcome.stopped_at)
        self.reference.rebuild()

    @precondition(lambda self: len(self.tree) > 1)
    @rule(data=st.data())
    def move_subtree(self, data):
        tree = self.tree
        node = data.draw(
            st.sampled_from([n for n in tree.on_tree_nodes() if n != SOURCE])
        )
        subtree = tree.subtree_nodes(node)
        paths = []
        for merge in tree.on_tree_nodes():
            if merge in subtree:
                continue
            if self.topology.has_link(merge, node):
                paths.append([merge, node])
            for middle in self._off_tree_neighbors(merge):
                if self.topology.has_link(middle, node):
                    paths.append([merge, middle, node])
        if not paths:
            return
        path = data.draw(st.sampled_from(paths))
        tree.move_subtree(node, path)
        self.manager.notify_move(node, path)
        self.reference.rebuild()

    @precondition(lambda self: len(self.tree) > 1)
    @rule(data=st.data())
    def record_baseline(self, data):
        node = data.draw(
            st.sampled_from([n for n in self.tree.on_tree_nodes() if n != SOURCE])
        )
        self.manager.record_reshape_baseline(node)
        self.reference.record(node)

    @rule()
    def copy(self):
        clone = self.tree.copy()
        assert list(clone.shr_values().items()) == list(
            self.tree.shr_values().items()
        )
        self.tree = clone
        self.manager.rebind(clone)
        self.reference.rebind(clone)

    @precondition(lambda self: len(self.tree) > 1)
    @rule(data=st.data())
    def repair(self, data):
        tree = self.tree
        victims = [n for n in tree.on_tree_nodes() if n != SOURCE]
        child = data.draw(st.sampled_from(victims))
        if data.draw(st.booleans()):
            failures = FailureSet.links((child, tree.parent(child)))
        else:
            failures = FailureSet.nodes(child)
        report = repair_tree(self.topology, tree, failures)
        self.tree = report.repaired_tree
        self.manager.rebind(self.tree)
        self.reference.rebind(self.tree)

    @invariant()
    def maintained_state_matches_recount(self):
        tree = self.tree
        check_tree_invariants(tree)
        counts = subtree_member_counts(tree)
        for node in tree.on_tree_nodes():
            assert tree.subtree_member_count(node) == counts[node]
        # Values *and* insertion order.
        assert list(tree.shr_values().items()) == list(
            shr_incremental(tree).items()
        )
        # The cached on-tree delay table equals the per-node path walk.
        assert tree.delays_from_source() == {
            node: tree.delay_from_source(node) for node in tree.on_tree_nodes()
        }

    @invariant()
    def condition_i_matches_reference(self):
        for node in self.tree.on_tree_nodes():
            assert self.manager.condition_i_delta(node) == self.reference.delta(
                node
            )


TestTreeStateMachine = TreeStateMachine.TestCase
TestTreeStateMachine.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)


# ----------------------------------------------------------------------
# surviving_component against the full-walk oracle
# ----------------------------------------------------------------------
def surviving_by_walk(tree: MulticastTree, failures: FailureSet) -> set:
    """Walk the tree from the source, stopping at failed links and nodes."""
    if failures.node_failed(tree.source):
        return set()
    component = {tree.source}
    stack = [tree.source]
    while stack:
        node = stack.pop()
        for child in tree.children(node):
            if failures.node_failed(child):
                continue
            if not failures.link_usable(node, child):
                continue
            component.add(child)
            stack.append(child)
    return component


@st.composite
def trees_and_failures(draw):
    topology = make_topology(draw(st.integers(0, 50)))
    members = draw(
        st.lists(st.integers(1, 19), min_size=1, max_size=10, unique=True)
    )
    proto = SMRPProtocol(topology, SOURCE, config=SMRPConfig(self_check=False))
    proto.build(members)
    tree = proto.tree
    tree_links = sorted(tree.tree_links())
    other_links = sorted(
        link.key for link in topology.links() if link.key not in set(tree_links)
    )
    relays = [
        n for n in tree.on_tree_nodes() if n != SOURCE and not tree.is_member(n)
    ]
    failed_links = set()
    failed_nodes = set()
    if tree_links:
        failed_links |= set(draw(st.lists(st.sampled_from(tree_links), max_size=3)))
    if other_links:
        failed_links |= set(draw(st.lists(st.sampled_from(other_links), max_size=3)))
    if relays:
        failed_nodes |= set(draw(st.lists(st.sampled_from(relays), max_size=2)))
    failed_nodes |= set(
        draw(st.lists(st.sampled_from(sorted(tree.members)), max_size=2))
    )
    if draw(st.integers(0, 9)) == 0:
        failed_nodes.add(SOURCE)
    failures = FailureSet(
        failed_links=frozenset(failed_links), failed_nodes=frozenset(failed_nodes)
    )
    return tree, failures


class TestSurvivingComponent:
    @settings(max_examples=60, deadline=None)
    @given(trees_and_failures())
    def test_equals_full_walk(self, case):
        tree, failures = case
        assert tree.surviving_component(failures) == surviving_by_walk(
            tree, failures
        )

    def test_failed_source_leaves_nothing(self):
        tree = SMRPProtocol(make_topology(3), SOURCE).build([4, 7])
        assert tree.surviving_component(FailureSet.nodes(SOURCE)) == set()
