"""The SHR sharing metric (paper §3.1 and §3.2.1).

``SHR_{S,R}`` measures how heavily the on-tree path from the source ``S``
to node ``R`` is shared by other members.  Equation (1) defines it over
links:

.. math::

    SHR_{S,R} = \\sum_{L_{i,j} \\subset P_T(S,R)} N_{L_{i,j}}

where ``N_L`` is the number of members whose on-tree path uses link ``L``.
Because every member below ``R`` reaches the source over ``R``'s upstream
link, ``N_{L_{R,R_u}} = N_R``, which yields the incremental form of
Equation (2):

.. math::

    SHR_{S,R} = SHR_{S,R_u} + N_R

Both forms are implemented; a property test asserts they agree on
arbitrary trees (this is exactly the identity the distributed protocol
relies on to maintain SHR with only neighbor message exchange).

The tree itself maintains ``N_R`` per node and caches the Equation (2)
table per mutation version (:meth:`MulticastTree.shr_values
<repro.multicast.tree.MulticastTree.shr_values>`); the table builders
below read that state on small trees.  Large trees evaluate through
:class:`TreeArrays`, an int-indexed snapshot over which subtree counts,
SHR, and adjusted SHR run as per-depth-level numpy sweeps instead of
per-node dict walks.  :func:`shr_incremental` and
:func:`subtree_member_counts` recount from scratch and remain the
executable reference — every table builder takes a ``vectorized``
override, dispatches on tree size by default, and both paths produce
dictionaries with the *same values and the same insertion order* as the
reference (property suites pin this).
"""

from __future__ import annotations

import numpy as np

from repro.errors import NotOnTreeError
from repro.graph.topology import NodeId
from repro.multicast.tree import MulticastTree

#: On-tree size at which the array kernels overtake the dict walks.
#: Below this the per-call numpy overhead dominates; the table builders
#: auto-dispatch on it unless ``vectorized`` is forced.
VECTOR_MIN_NODES = 96


def _use_arrays(tree: MulticastTree, vectorized: bool | None) -> bool:
    if vectorized is None:
        return len(tree) >= VECTOR_MIN_NODES
    return bool(vectorized)


def _count_shr_call(obs, used_arrays: bool) -> None:
    if obs is not None:
        obs.counter("routing.batch.shr_calls").inc()
        if used_arrays:
            obs.counter("routing.batch.shr_vectorized").inc()


class TreeArrays:
    """Int-indexed snapshot of one tree, the substrate of the array path.

    Nodes map to dense indices in sorted-id order (matching the CSR
    convention); the structure is captured as a parent-index array, a
    member mask, children grouped contiguously per parent, and the BFS
    depth levels.  Subtree counts and SHR then run as one numpy sweep
    per depth level — ``np.add.at`` pushing counts up a level, a gather
    pulling SHR down a level — instead of one dict operation per node.

    Snapshots are throwaway: each table build captures fresh arrays
    (linear) and recounts ``N_R`` and SHR over them, because the level
    sweeps need them in index space.  The dict path instead reads the
    counts and the SHR table the tree maintains per
    :attr:`~repro.multicast.tree.MulticastTree.version`.
    """

    __slots__ = (
        "nodes",
        "index_of",
        "parent",
        "member_mask",
        "levels",
        "_src",
        "_child_flat",
        "_child_ptr",
        "_counts",
        "_shr",
        "_insertion",
    )

    def __init__(self, tree: MulticastTree) -> None:
        nodes = tree.on_tree_nodes()
        m = len(nodes)
        index_of = {nid: i for i, nid in enumerate(nodes)}
        parent = np.empty(m, dtype=np.int64)
        for i, nid in enumerate(nodes):
            p = tree.parent(nid)
            parent[i] = -1 if p is None else index_of[p]
        members = tree.members
        member_mask = np.fromiter(
            (nid in members for nid in nodes), dtype=bool, count=m
        )
        self.nodes = nodes
        self.index_of = index_of
        self.parent = parent
        self.member_mask = member_mask

        # Children grouped per parent: stable argsort on the parent index
        # puts the source (parent -1) first and keeps siblings in
        # ascending index (= ascending id) order, matching the sorted
        # ``tree.children`` iteration the reference walks use.
        grouped = np.argsort(parent, kind="stable")
        self._src = int(grouped[0])
        child_flat = grouped[1:]
        child_counts = np.bincount(parent[parent >= 0], minlength=m)
        child_ptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(child_counts, out=child_ptr[1:])
        self._child_flat = child_flat
        self._child_ptr = child_ptr

        # BFS depth levels: every node's children sit exactly one level
        # below it, so one array per level orders the sweeps.
        levels = [grouped[:1]]
        frontier = levels[0]
        while True:
            starts = child_ptr[frontier]
            lens = child_ptr[frontier + 1] - starts
            total = int(lens.sum())
            if total == 0:
                break
            ends = np.cumsum(lens)
            take = (
                np.arange(total, dtype=np.int64)
                - np.repeat(ends - lens, lens)
                + np.repeat(starts, lens)
            )
            frontier = child_flat[take]
            levels.append(frontier)
        self.levels = levels
        self._counts = None
        self._shr = None
        self._insertion = None

    def member_counts(self) -> np.ndarray:
        """``N_R`` per node index, swept bottom-up one level at a time."""
        counts = self._counts
        if counts is None:
            counts = self.member_mask.astype(np.int64)
            parent = self.parent
            for frontier in reversed(self.levels[1:]):
                np.add.at(counts, parent[frontier], counts[frontier])
            self._counts = counts
        return counts

    def shr(self) -> np.ndarray:
        """``SHR_{S,R}`` per node index via Equation (2), swept top-down."""
        shr = self._shr
        if shr is None:
            counts = self.member_counts()
            shr = np.zeros(len(self.nodes), dtype=np.int64)
            parent = self.parent
            for frontier in self.levels[1:]:
                shr[frontier] = shr[parent[frontier]] + counts[frontier]
            self._shr = shr
        return shr

    def overlap_with_path(self, tip: int) -> np.ndarray:
        """Per-node overlap with the on-tree path ``S → tip`` (S excluded).

        ``overlap(child) = overlap(node) + [child on the path]`` — the
        incremental form :func:`adjusted_shr_table` rests on — as one
        gather-and-add per depth level.
        """
        m = len(self.nodes)
        parent = self.parent
        on_path = np.zeros(m, dtype=np.int64)
        cursor = tip
        while parent[cursor] >= 0:
            on_path[cursor] = 1
            cursor = int(parent[cursor])
        overlap = np.zeros(m, dtype=np.int64)
        for frontier in self.levels[1:]:
            overlap[frontier] = overlap[parent[frontier]] + on_path[frontier]
        return overlap

    def insertion_order(self) -> list[int]:
        """Node indices in the reference tables' dict insertion order.

        :func:`shr_incremental` (and :func:`adjusted_shr_table`) insert
        the source first, then — each time the LIFO walk pops a node —
        that node's children in ascending order.  The walk here replays
        those stack dynamics over plain int lists; values come from the
        arrays, so this is the only per-node Python left in the path.
        """
        order = self._insertion
        if order is None:
            flat = self._child_flat.tolist()
            ptr = self._child_ptr.tolist()
            order = [self._src]
            stack = [self._src]
            while stack:
                i = stack.pop()
                kids = flat[ptr[i] : ptr[i + 1]]
                order.extend(kids)
                stack.extend(kids)
            self._insertion = order
        return order


def shr_direct(tree: MulticastTree, node: NodeId) -> int:
    """``SHR_{S,node}`` via Equation (1): sum link utilisations on the path.

    ``N_L`` for a tree link equals the member count of the subtree hanging
    below the link (its child-side endpoint).
    """
    path = tree.path_from_source(node)
    total = 0
    for child in path[1:]:
        # The link (parent(child), child) carries every member below child.
        total += tree.subtree_member_count(child)
    return total


def shr_incremental(tree: MulticastTree) -> dict[NodeId, int]:
    """``SHR`` for every on-tree node via Equation (2), in one traversal.

    ``SHR_{S,S} = 0``; each node adds its own subtree member count to its
    upstream node's value.  This mirrors the neighbor-to-neighbor exchange
    of the distributed protocol (each node learns ``SHR_{S,R_u}`` from its
    parent and adds its locally known ``N_R``).
    """
    shr: dict[NodeId, int] = {tree.source: 0}
    # Pre-compute subtree member counts bottom-up in one pass instead of
    # calling subtree_member_count per node (which would be quadratic).
    counts = subtree_member_counts(tree)
    stack = [tree.source]
    while stack:
        node = stack.pop()
        for child in tree.children(node):
            shr[child] = shr[node] + counts[child]
            stack.append(child)
    return shr


def subtree_member_counts(tree: MulticastTree) -> dict[NodeId, int]:
    """``N_R`` for every on-tree node, computed bottom-up in linear time."""
    counts: dict[NodeId, int] = {}
    order: list[NodeId] = []
    stack = [tree.source]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(tree.children(node))
    for node in reversed(order):
        counts[node] = (1 if tree.is_member(node) else 0) + sum(
            counts[child] for child in tree.children(node)
        )
    return counts


def shr_table(
    tree: MulticastTree,
    *,
    vectorized: bool | None = None,
    obs=None,
) -> dict[NodeId, int]:
    """``SHR_{S,R}`` for every on-tree node.

    Dispatches between :func:`shr_incremental` (the dict reference) and
    the :class:`TreeArrays` level sweeps: ``vectorized=None`` picks the
    array path for trees of :data:`VECTOR_MIN_NODES` or more nodes,
    ``True``/``False`` force one side.  Both produce the identical
    dictionary — values *and* insertion order.  ``obs`` accounts the
    dispatch under ``routing.batch.shr_calls`` /
    ``routing.batch.shr_vectorized`` (the vectorization hit-rate the
    obs report derives).
    """
    use_arrays = _use_arrays(tree, vectorized)
    _count_shr_call(obs, use_arrays)
    if not use_arrays:
        return dict(tree.shr_values())
    arrays = TreeArrays(tree)
    values = arrays.shr().tolist()
    nodes = arrays.nodes
    return {nodes[i]: values[i] for i in arrays.insertion_order()}


def link_utilisation(
    tree: MulticastTree,
    *,
    vectorized: bool | None = None,
) -> dict[tuple[NodeId, NodeId], int]:
    """``N_L`` for every tree link (canonical edge → member count below it)."""
    if _use_arrays(tree, vectorized):
        arrays = TreeArrays(tree)
        counts = arrays.member_counts().tolist()
        parents = arrays.parent.tolist()
        nodes = arrays.nodes
        utilisation: dict[tuple[NodeId, NodeId], int] = {}
        for i, node in enumerate(nodes):
            p = parents[i]
            if p < 0:
                continue
            parent = nodes[p]
            a, b = (node, parent) if node <= parent else (parent, node)
            utilisation[(a, b)] = counts[i]
        return utilisation
    utilisation = {}
    for node in tree.on_tree_nodes():
        parent = tree.parent(node)
        if parent is None:
            continue
        a, b = (node, parent) if node <= parent else (parent, node)
        utilisation[(a, b)] = tree.subtree_member_count(node)
    return utilisation


def adjusted_shr_table(
    tree: MulticastTree,
    mover: NodeId,
    *,
    vectorized: bool | None = None,
    obs=None,
) -> dict[NodeId, int]:
    """:func:`shr_excluding_subtree` for *every* on-tree node at once.

    Reshape evaluation (§3.2.3) needs the adjusted SHR of each potential
    merge point; calling :func:`shr_excluding_subtree` per node repeats
    the path walk and subtree count for every candidate — quadratic per
    evaluation, and the dominant cost of a reshaping build.  With
    ``overlap(R)`` the number of nodes the on-tree paths ``S → R`` and
    ``S → mover`` share (S excluded),

    ``adjusted(R) = SHR_{S,R} − N_mover × overlap(R)``

    which is nonzero only inside the subtree of the mover's first hop.
    Values agree exactly with the per-node form (a property test pins
    this); the mover's own subtree is included in the result — callers
    exclude it, as they already must.

    ``vectorized`` / ``obs`` dispatch and account exactly as in
    :func:`shr_table`; the dict path starts from the tree's cached SHR
    table, and the array path runs the same recurrences as level sweeps
    over a :class:`TreeArrays` snapshot.
    """
    if not tree.is_on_tree(mover):
        raise NotOnTreeError(mover)
    use_arrays = _use_arrays(tree, vectorized)
    _count_shr_call(obs, use_arrays)
    if use_arrays:
        arrays = TreeArrays(tree)
        mover_idx = arrays.index_of[mover]
        moving = int(arrays.member_counts()[mover_idx])
        values = (
            arrays.shr() - moving * arrays.overlap_with_path(mover_idx)
        ).tolist()
        nodes = arrays.nodes
        return {nodes[i]: values[i] for i in arrays.insertion_order()}
    # overlap(R) counts the nodes R' of S → mover whose subtree holds R:
    # subtract N_mover once per such subtree.  Values change in place, so
    # the insertion order stays the cached table's.
    adjusted = dict(tree.shr_values())
    moving_members = tree.subtree_member_count(mover)
    if moving_members:
        for on_path in tree.path_from_source(mover)[1:]:  # exclude S
            for node in tree.subtree_nodes(on_path):
                adjusted[node] -= moving_members
    return adjusted


def shr_excluding_subtree(
    tree: MulticastTree, merge_node: NodeId, mover: NodeId
) -> int:
    """``SHR_{S,merge_node}`` as if ``mover``'s subtree had already left.

    Used by tree reshaping (§3.2.3): "since the current path still exists
    when the new path is located, the value of SHR may be inaccurate and
    should be adjusted before the path comparison is made."  Every member
    in ``mover``'s subtree contributes 1 to ``N_{R'}`` for each node ``R'``
    on the path ``S → mover``; those contributions are subtracted from the
    candidate merge node's SHR wherever the two paths overlap.
    """
    if not tree.is_on_tree(merge_node):
        raise NotOnTreeError(merge_node)
    if not tree.is_on_tree(mover):
        raise NotOnTreeError(mover)
    moving_members = tree.subtree_member_count(mover)
    mover_path = set(tree.path_from_source(mover)[1:])  # exclude S
    merge_path = tree.path_from_source(merge_node)[1:]
    overlap = sum(1 for node in merge_path if node in mover_path)
    raw = shr_direct(tree, merge_node)
    return raw - moving_members * overlap
