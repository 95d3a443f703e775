"""Distributed per-node SMRP state (paper §3.2.1 and §3.3.2).

Each on-tree node ``R`` maintains:

- ``N_R`` — members in the subtree rooted at ``R`` (kept implicitly as the
  sum of the per-interface counts),
- ``N_R^i`` — members reachable through each downstream interface,
- ``SHR_{S,R}`` — learned incrementally from the upstream node via Eq. (2),
- ``SHR^{old}_{S,R_u}`` — the upstream SHR recorded at the last reshape,
  used by reshaping Condition I.

The first three follow from the tree's shape, and the
:class:`~repro.multicast.tree.MulticastTree` itself keeps them: ``N_R``
is updated along the path to the source by every mutation, and the SHR
table is cached per mutation version.  The :class:`StateManager` owns
only what the shape does not determine — each node's Condition-I
baseline, set when the node gains a new upstream (it is grafted, or it
or its new path is moved in) and reset when it reshapes — and *accounts
for the control messages* the distributed protocol would spend keeping
the state consistent.  :meth:`StateManager.state_of` assembles a node's
full state block on demand.  Two maintenance modes implement the design
choice discussed in §3.3.2:

``eager``
    Every membership change immediately propagates: ``N`` updates travel
    up the path to the source, then refreshed ``SHR`` values travel down
    into every subtree whose value changed ("a new tree-wide update
    process").

``deferred``
    ``SHR`` recalculation is postponed until a query from a joining member
    actually needs the value; the cost is then one message per hop up the
    path from the queried node to the source ("the maintenance overhead is
    amortized into each member's join process").

Both modes run the same state-maintenance code and always *answer*
queries with values consistent with the current tree, so protocol
behaviour is identical — only the message accounting (``shr_pushes``
versus ``shr_pulls``) differs.  The overhead ablation bench compares the
two counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import NotOnTreeError, ConfigurationError
from repro.graph.topology import NodeId
from repro.multicast.tree import MulticastTree
from repro.obs import NULL_OBS, Observability


@dataclass
class SmrpNodeState:
    """The state block one on-tree node keeps (Figure 3 in the paper)."""

    node: NodeId
    upstream: NodeId | None
    n_r: int = 0
    n_per_interface: dict[NodeId, int] = field(default_factory=dict)
    shr: int = 0
    shr_old_upstream: int = 0

    def consistent(self) -> bool:
        """``N_R`` must equal the sum of interface counts plus self-membership.

        The self-membership term is folded into ``n_r`` by the manager, so
        here we only check it is never below the interface sum.
        """
        return self.n_r >= sum(self.n_per_interface.values())


@dataclass
class MessageCounters:
    """Control-message accounting for state maintenance."""

    n_updates: int = 0  # hop-by-hop N_R updates toward the source
    shr_pushes: int = 0  # downward SHR refresh messages (eager mode)
    shr_pulls: int = 0  # on-demand recomputation messages (deferred mode)

    @property
    def total(self) -> int:
        return self.n_updates + self.shr_pushes + self.shr_pulls


class StateManager:
    """Maintains per-node SMRP state consistently with a multicast tree.

    Parameters
    ----------
    tree:
        The tree whose state is being maintained.  The manager reads the
        tree but never mutates it; every mutation must be followed by the
        matching ``notify_*`` call.
    mode:
        ``"eager"`` or ``"deferred"`` (see module docstring).
    """

    def __init__(
        self,
        tree: MulticastTree,
        mode: str = "eager",
        obs: Observability | None = None,
    ) -> None:
        if mode not in ("eager", "deferred"):
            raise ConfigurationError(f"unknown state mode {mode!r}")
        self.tree = tree
        self.mode = mode
        self.counters = MessageCounters()
        obs = obs if obs is not None else NULL_OBS
        self._c_n_updates = obs.counter("smrp.state.n_updates")
        self._c_shr_pushes = obs.counter("smrp.state.shr_pushes")
        self._c_shr_pulls = obs.counter("smrp.state.shr_pulls")
        # (R_u, SHR^{old}_{S,R_u}) per on-tree node.  Entries of nodes
        # that left the tree are stale and never read: every way back onto
        # the tree sets a new one.
        self._baseline: dict[NodeId, tuple[NodeId, int]] = {}
        # Deferred mode: SHR changed since the last pull.
        self._shr_dirty = False
        self.rebind(tree)

    # ------------------------------------------------------------------
    # Bulk (re)construction
    # ------------------------------------------------------------------
    def rebind(self, tree: MulticastTree) -> None:
        """Re-anchor the manager to a replacement tree (session repair).

        Cumulative message counters carry over, and so does the
        Condition-I baseline of every node that sat on the previous tree
        under the same upstream; every other node starts from its
        upstream's current SHR.  The rebuild itself carries no message
        charge — restoration signaling is accounted by the recovery path
        that produced the replacement tree.
        """
        previous, self.tree = self.tree, tree
        shr = tree.shr_values()
        old = self._baseline
        self._baseline = {}
        for node in tree.on_tree_nodes():
            upstream = tree.parent(node)
            if upstream is None:
                continue
            entry = old.get(node)
            if (
                entry is not None
                and entry[0] == upstream
                and previous.is_on_tree(node)
            ):
                self._baseline[node] = entry
            else:
                self._baseline[node] = (upstream, shr[upstream])
        self._shr_dirty = False

    # ------------------------------------------------------------------
    # Event notifications (message accounting)
    # ------------------------------------------------------------------
    def notify_graft(self, graft_path: list[NodeId]) -> None:
        """Account for a join along ``graft_path`` (merge node first).

        The ``Join_Req`` travels the graft path anyway (not charged here);
        the state cost is: ``N`` increments hop-by-hop from the merge node
        to the source, plus — in eager mode — SHR refresh pushed into every
        subtree whose SHR changed (every node below any ancestor of the
        merge node).  Every node past the merge node gained an upstream.
        """
        self._charge(graft_path[0], 1)
        self._new_upstream(graft_path[1:])

    def notify_prune(self, pruned_from: NodeId) -> None:
        """Account for a leave whose ``Leave_Req`` stopped at ``pruned_from``."""
        self._charge(pruned_from, 1)

    def notify_move(self, mover: NodeId, new_path: list[NodeId]) -> None:
        """Account for a reshape/recovery path switch at ``mover``.

        ``new_path`` is the path the mover now hangs from (merge node
        first, ``mover`` last).  Charged as a prune at the old attachment
        plus a graft at the new one; both attachments are read from the
        *current* (post-move) tree, so callers invoke this after mutating
        the tree.  The new path's interior nodes gained an upstream, and
        so did the mover unless it re-attached under its old one.
        """
        parent = self.tree.parent(mover)
        self._charge(parent if parent is not None else mover, 2)
        fresh = new_path[1:-1]
        if self._baseline[mover][0] != parent:
            fresh.append(mover)
        self._new_upstream(fresh)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def state_of(self, node: NodeId) -> SmrpNodeState:
        """The state block ``node`` keeps, assembled from the tree."""
        tree = self.tree
        upstream = tree.parent(node)  # raises NotOnTreeError off the tree
        return SmrpNodeState(
            node=node,
            upstream=upstream,
            n_r=tree.subtree_member_count(node),
            n_per_interface=tree.downstream_interface_counts(node),
            shr=tree.shr_values()[node],
            shr_old_upstream=(
                0 if upstream is None else self._baseline[node][1]
            ),
        )

    def shr(self, node: NodeId) -> int:
        """``SHR_{S,node}``; charged as a pull in deferred mode.

        In deferred mode the recomputation walks the path from the source
        to the node, one pull message per hop (§3.3.2).
        """
        if not self.tree.is_on_tree(node):
            raise NotOnTreeError(node)
        if self._shr_dirty:
            self._pull(len(self.tree.path_from_source(node)) - 1)
        return self.tree.shr_values()[node]

    def shr_snapshot(self) -> dict[NodeId, int]:
        """All SHR values (charged as a refresh in deferred mode).

        Charged as one pull per on-tree link: a full tree walk answers
        every node at once.
        """
        if self._shr_dirty:
            self._pull(max(len(self.tree) - 1, 0))
        return dict(self.tree.shr_values())

    def record_reshape_baseline(self, node: NodeId) -> None:
        """Store ``SHR^{old}_{S,R_u}`` at ``node`` after a reshape decision."""
        upstream = self.tree.parent(node)
        if upstream is not None:
            self._baseline[node] = (upstream, self.shr(upstream))

    def condition_i_delta(self, node: NodeId) -> int:
        """``SHR_{S,R_u} − SHR^{old}_{S,R_u}`` as seen by ``node``."""
        upstream = self.tree.parent(node)
        if upstream is None:
            return 0
        return self.shr(upstream) - self._baseline[node][1]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _charge(self, anchor: NodeId, times: int) -> None:
        """Charge the messages of ``times`` ``N`` changes on ``S → anchor``.

        ``N`` updates travel hop by hop to the source; the SHR change they
        cause is pushed at once in eager mode and pulled on the next query
        in deferred mode.
        """
        depth = len(self.tree.path_from_source(anchor)) - 1
        self.counters.n_updates += times * depth
        self._c_n_updates.inc(times * depth)
        if self.mode == "eager":
            pushed = self._changed_subtree_size(anchor)
            self.counters.shr_pushes += pushed
            self._c_shr_pushes.inc(pushed)
        else:
            self._shr_dirty = True

    def _pull(self, pulled: int) -> None:
        self.counters.shr_pulls += pulled
        self._c_shr_pulls.inc(pulled)
        self._shr_dirty = False

    def _new_upstream(self, nodes: list[NodeId]) -> None:
        """Start the Condition-I baseline of nodes that gained an upstream."""
        tree = self.tree
        shr = tree.shr_values()
        for node in nodes:
            upstream = tree.parent(node)
            self._baseline[node] = (upstream, shr[upstream])

    def _changed_subtree_size(self, anchor: NodeId) -> int:
        """Nodes whose SHR changes when ``N`` changed on the path S→anchor.

        Every node whose path shares a link with ``S → anchor`` sees a new
        SHR: that is the union of subtrees rooted at each node on that
        path.  Equals the subtree of the first path node below S.
        """
        path = self.tree.path_from_source(anchor)
        if len(path) < 2:
            return 0
        return len(self.tree.subtree_nodes(path[1]))
