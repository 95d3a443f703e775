"""The multicast tree data structure.

A :class:`MulticastTree` is a source-rooted tree embedded in a
:class:`~repro.graph.topology.Topology`.  It distinguishes *on-tree nodes*
(every router the tree passes through) from *members* (the receivers of
§3.2 that issue joins/leaves); an on-tree node may be a pure relay.

The structure supports the operations every protocol in this library is
built from:

- ``graft(path)`` — splice a new branch onto the tree (a member join),
- ``prune(member)`` — remove a member and any branch that only served it
  (a member leave, §3.2.2),
- ``move_subtree(node, path)`` — re-hang a node (with its entire subtree)
  onto a new attachment path (tree reshaping, §3.2.3, and failure
  recovery, §4.3.1),
- queries used by the SHR metric and the evaluation metrics: on-tree
  paths, subtree member counts, link/cost/delay aggregates, and the
  partition induced by a failure.

The tree keeps the SMRP per-node state that follows from its shape
incrementally, as the distributed protocol does (§3.2.1): ``N_R`` for
every on-tree node is updated only along the path to the source of each
mutation, and the Equation (2) SHR table is cached per mutation
:attr:`~MulticastTree.version`, so neither is ever recounted from
scratch between two mutations; the per-node on-tree delay table is
cached the same way.

All mutators validate their inputs against the topology and the current
tree, and the structure can always be re-checked with
:func:`repro.multicast.validation.check_tree_invariants`.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import MulticastError, NotOnTreeError, TopologyError
from repro.graph.topology import Edge, NodeId, Topology, edge_key
from repro.routing.failure_view import NO_FAILURES, FailureSet


class MulticastTree:
    """A source-rooted multicast distribution tree.

    Parameters
    ----------
    topology:
        The network the tree is embedded in.
    source:
        The multicast source ``S`` (the tree root; the paper folds the
        rendezvous-point case into this one, footnote 2).
    """

    def __init__(self, topology: Topology, source: NodeId) -> None:
        if not topology.has_node(source):
            raise TopologyError(f"source {source} is not in the topology")
        self.topology = topology
        self.source = source
        self._parent: dict[NodeId, NodeId | None] = {source: None}
        self._children: dict[NodeId, set[NodeId]] = {source: set()}
        self._members: set[NodeId] = set()
        # N_R per on-tree node, maintained along the path to the source.
        self._count: dict[NodeId, int] = {source: 0}
        self._version = 0
        # The Equation (2) SHR table and the version it was built at.
        self._shr: dict[NodeId, int] = {}
        self._shr_version = -1
        # The on-tree delay table and the (version, topology state) it
        # was built at.
        self._delays: dict[NodeId, float] = {}
        self._delays_key: tuple[int, int] | None = None

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def members(self) -> frozenset[NodeId]:
        """The current receiver set."""
        return frozenset(self._members)

    def on_tree_nodes(self) -> list[NodeId]:
        """Every node the tree passes through, sorted."""
        return sorted(self._parent)

    def is_on_tree(self, node: NodeId) -> bool:
        return node in self._parent

    def is_member(self, node: NodeId) -> bool:
        return node in self._members

    @property
    def version(self) -> int:
        """Mutation counter: changes whenever the tree or its members do."""
        return self._version

    def parent(self, node: NodeId) -> NodeId | None:
        """Upstream node ``R_u`` of ``node`` (None for the source)."""
        try:
            return self._parent[node]
        except KeyError:
            raise NotOnTreeError(node) from None

    def children(self, node: NodeId) -> list[NodeId]:
        """Downstream neighbors of ``node``, sorted."""
        try:
            return sorted(self._children[node])
        except KeyError:
            raise NotOnTreeError(node) from None

    def tree_links(self) -> set[Edge]:
        """All links of the tree, as canonical edges."""
        return {
            edge_key(node, parent)
            for node, parent in self._parent.items()
            if parent is not None
        }

    def path_from_source(self, node: NodeId) -> list[NodeId]:
        """The on-tree path ``P_T(S, node)`` as ``[S, …, node]``."""
        if node not in self._parent:
            raise NotOnTreeError(node)
        path: list[NodeId] = []
        cursor: NodeId | None = node
        while cursor is not None:
            path.append(cursor)
            cursor = self._parent[cursor]
        path.reverse()
        if path[0] != self.source:
            raise MulticastError(
                f"corrupt tree: path from {node} terminates at {path[0]}"
            )
        return path

    def delay_from_source(self, node: NodeId) -> float:
        """End-to-end delay ``D_{S,node}`` along the tree."""
        return self.topology.path_delay(self.path_from_source(node))

    def delays_from_source(self) -> dict[NodeId, float]:
        """``D_{S,node}`` for *every* on-tree node, in one traversal.

        Equivalent to calling :meth:`delay_from_source` per node but
        linear in the tree size instead of quadratic: candidate search
        prices every merge point of every join and reshape with it.
        Accumulation runs top-down (``delay(child) = delay(node) + link``),
        the same left-to-right summation order as the per-node path walk,
        so the floats are bit-identical.  Built once per :attr:`version`
        (and topology state) and cached; the returned dict is the cache
        itself: callers must copy it before changing it.
        """
        key = (self._version, self.topology.cache_token())
        if self._delays_key != key:
            adjacency = self.topology.adjacency()
            children = self._children
            delays: dict[NodeId, float] = {self.source: 0.0}
            stack = [self.source]
            while stack:
                node = stack.pop()
                d = delays[node]
                row = adjacency[node]
                for child in children[node]:
                    delays[child] = d + row[child]
                    stack.append(child)
            self._delays = delays
            self._delays_key = key
        return self._delays

    def tree_cost(self) -> float:
        """Total cost of the tree (the paper's ``Cost_T``)."""
        return sum(self.topology.cost(u, v) for u, v in self.tree_links())

    def total_delay(self) -> float:
        """Sum of link delays over the tree (an auxiliary size measure)."""
        return sum(self.topology.delay(u, v) for u, v in self.tree_links())

    def subtree_nodes(self, node: NodeId) -> set[NodeId]:
        """All on-tree nodes in the subtree rooted at ``node`` (inclusive)."""
        if node not in self._parent:
            raise NotOnTreeError(node)
        result: set[NodeId] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            result.add(current)
            stack.extend(self._children[current])
        return result

    def subtree_member_count(self, node: NodeId) -> int:
        """``N_R``: members in the subtree rooted at ``node`` (paper §3.2.1).

        Maintained incrementally by every mutator, so this is a lookup.
        """
        try:
            return self._count[node]
        except KeyError:
            raise NotOnTreeError(node) from None

    def shr_values(self) -> dict[NodeId, int]:
        """``SHR_{S,R}`` for every on-tree node via Equation (2).

        Built once per :attr:`version` from the maintained ``N_R`` and
        cached; the walk visits children in sorted order, so the table's
        insertion order equals
        :func:`~repro.core.shr.shr_incremental`'s.  The returned dict is
        the cache itself: callers must copy it before changing it.
        """
        if self._shr_version != self._version:
            count = self._count
            children = self._children
            shr: dict[NodeId, int] = {self.source: 0}
            stack = [self.source]
            while stack:
                node = stack.pop()
                base = shr[node]
                kids = sorted(children[node])
                for child in kids:
                    shr[child] = base + count[child]
                stack.extend(kids)
            self._shr = shr
            self._shr_version = self._version
        return self._shr

    def downstream_interface_counts(self, node: NodeId) -> dict[NodeId, int]:
        """``N_R^i`` per downstream interface ``i`` (keyed by child node)."""
        return {
            child: self.subtree_member_count(child) for child in self.children(node)
        }

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_member(self, node: NodeId) -> None:
        """Mark an already-on-tree node as a receiver."""
        if node not in self._parent:
            raise NotOnTreeError(node)
        if node not in self._members:
            self._members.add(node)
            self._add_count(node, 1)
            self._version += 1

    def graft(self, path: list[NodeId], member: bool = True) -> None:
        """Splice a branch onto the tree.

        ``path[0]`` must already be on the tree (the merge node ``R``);
        every subsequent node must be new.  The final node becomes a member
        unless ``member`` is False (used when relaying for a sub-domain).
        """
        if len(path) < 1:
            raise MulticastError("graft path is empty")
        merge = path[0]
        if merge not in self._parent:
            raise NotOnTreeError(merge)
        if len(path) == 1:
            # Joining node is already on the tree: it just becomes a member.
            if member:
                self.add_member(merge)
            return
        for node in path[1:]:
            if node in self._parent:
                raise MulticastError(
                    f"graft path revisits on-tree node {node}; it must merge "
                    f"exactly once (at {merge})"
                )
            if not self.topology.has_node(node):
                raise TopologyError(f"graft path uses unknown node {node}")
        for u, v in zip(path, path[1:]):
            if not self.topology.has_link(u, v):
                raise TopologyError(f"graft path uses missing link {edge_key(u, v)}")
        for u, v in zip(path, path[1:]):
            self._parent[v] = u
            self._children[v] = set()
            self._children[u].add(v)
            self._count[v] = 0
        self._version += 1
        if member:
            self.add_member(path[-1])

    def prune(self, member: NodeId) -> list[NodeId]:
        """Remove a member; trim any branch that served only this member.

        Mirrors the paper's ``Leave_Req`` walk: remove membership, then
        walk toward the source deleting relay nodes that now have no
        children and are not members themselves.  Returns the list of
        nodes removed from the tree (possibly empty when the member is an
        interior node that must keep relaying).
        """
        if member not in self._members:
            raise MulticastError(f"node {member} is not a member")
        self._members.discard(member)
        self._add_count(member, -1)
        self._version += 1
        return self._release_dead_branch(member)

    def move_subtree(self, node: NodeId, new_path: list[NodeId]) -> None:
        """Re-hang ``node`` (and its whole subtree) via ``new_path``.

        ``new_path`` runs from an on-tree merge node to ``node``:
        ``new_path[0]`` is on the tree (and outside ``node``'s subtree),
        ``new_path[-1] == node``, and interior nodes are fresh.  This is
        the path-switching step of tree reshaping (§3.2.3) and of local
        recovery: the old upstream branch is released afterwards exactly
        like a member departure.
        """
        if node not in self._parent:
            raise NotOnTreeError(node)
        if node == self.source:
            raise MulticastError("cannot move the source")
        if not new_path or new_path[-1] != node:
            raise MulticastError(f"new path must end at {node}, got {new_path}")
        merge = new_path[0]
        if merge not in self._parent:
            raise NotOnTreeError(merge)
        subtree = self.subtree_nodes(node)
        if merge in subtree:
            raise MulticastError(
                f"merge node {merge} lies inside the subtree of {node}; "
                "moving there would create a cycle"
            )
        for middle in new_path[1:-1]:
            if middle in self._parent:
                raise MulticastError(
                    f"new path interior node {middle} is already on the tree"
                )
            if not self.topology.has_node(middle):
                raise TopologyError(f"new path uses unknown node {middle}")
        for u, v in zip(new_path, new_path[1:]):
            if not self.topology.has_link(u, v):
                raise TopologyError(f"new path uses missing link {edge_key(u, v)}")

        # Make before break (§3.2.3): detach from the old parent, attach
        # along the new path, and only then release the dead upstream
        # branch — the merge node may itself sit on the old branch (e.g.
        # re-attaching under the same parent), so pruning must come last.
        old_parent = self._parent[node]
        assert old_parent is not None
        moving = self._count[node]
        self._add_count(old_parent, -moving)
        self._children[old_parent].discard(node)

        for u, v in zip(new_path, new_path[1:]):
            if v == node:
                self._parent[node] = u
                self._children[u].add(node)
            else:
                self._parent[v] = u
                self._children[v] = set()
                self._children[u].add(v)
                self._count[v] = 0
        self._add_count(new_path[-2], moving)
        self._version += 1

        self._release_dead_branch(old_parent)

    # ------------------------------------------------------------------
    # Mutation internals
    # ------------------------------------------------------------------
    def _add_count(self, node: NodeId, delta: int) -> None:
        """Add ``delta`` to ``N_R`` on the path ``node → S`` (inclusive)."""
        count = self._count
        parent = self._parent
        cursor: NodeId | None = node
        while cursor is not None:
            count[cursor] += delta
            cursor = parent[cursor]

    def _release_dead_branch(self, node: NodeId) -> list[NodeId]:
        """Walk toward the source from ``node``, deleting childless relays.

        The ``Leave_Req`` walk of §3.2.2: stops at the source, a member,
        or a node that still has children.  Returns the removed nodes.
        """
        removed: list[NodeId] = []
        cursor = node
        while (
            cursor != self.source
            and not self._children[cursor]
            and cursor not in self._members
        ):
            parent = self._parent[cursor]
            assert parent is not None
            self._children[parent].discard(cursor)
            del self._parent[cursor]
            del self._children[cursor]
            del self._count[cursor]
            removed.append(cursor)
            cursor = parent
        return removed

    # ------------------------------------------------------------------
    # Failure analysis
    # ------------------------------------------------------------------
    def affected_by(self, failures: FailureSet) -> bool:
        """True when any tree component is failed."""
        if any(node in failures.failed_nodes for node in self._parent):
            return True
        return any(
            not failures.link_usable(u, v) for u, v in self.tree_links()
        )

    def surviving_component(self, failures: FailureSet = NO_FAILURES) -> set[NodeId]:
        """On-tree nodes still connected to the source after ``failures``.

        The on-tree nodes minus every subtree hanging below a failed tree
        link or a failed on-tree node; only the failed components are
        visited, not the whole tree.  The source itself is excluded if it
        failed (session unrecoverable).
        """
        if self.source in failures.failed_nodes:
            return set()
        parent = self._parent
        cuts = [node for node in failures.failed_nodes if node in parent]
        for u, v in failures.failed_links:
            if parent.get(v) == u:
                cuts.append(v)
            elif parent.get(u) == v:
                cuts.append(u)
        component = set(parent)
        for cut in cuts:
            if cut in component:
                component -= self.subtree_nodes(cut)
        return component

    def disconnected_members(self, failures: FailureSet) -> list[NodeId]:
        """Members cut off from the source by ``failures``, sorted."""
        surviving = self.surviving_component(failures)
        return sorted(m for m in self._members if m not in surviving)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def copy(self) -> "MulticastTree":
        """Independent copy sharing the same (immutable-by-convention) topology."""
        clone = MulticastTree(self.topology, self.source)
        clone._parent = dict(self._parent)
        clone._children = {node: set(kids) for node, kids in self._children.items()}
        clone._members = set(self._members)
        clone._count = dict(self._count)
        return clone

    def __contains__(self, node: NodeId) -> bool:
        return node in self._parent

    def __len__(self) -> int:
        """Number of on-tree nodes (always ≥ 1: the source)."""
        return len(self._parent)

    def __repr__(self) -> str:
        return (
            f"MulticastTree(source={self.source}, members={len(self._members)}, "
            f"on_tree={len(self._parent)}, cost={self.tree_cost():.2f})"
        )
