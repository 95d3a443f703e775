"""Candidate-path search for SMRP joins and reshapes (paper §3.2.2).

A joining member ``NR`` considers, for every on-tree node ``R_i``, the path
that reaches the tree at ``R_i``: the shortest path ``NR → R_i`` (footnote
4: only the shortest connection to each merge point is considered)
concatenated with ``R_i``'s on-tree path to the source.

Two refinements the paper leaves implicit:

- **First-contact semantics.**  A join request travelling toward ``R_i``
  merges at the *first* on-tree node it reaches, so the connection to
  ``R_i`` must not cross the tree earlier.  Candidates are therefore
  computed with a barrier-aware shortest-path search
  (:func:`repro.routing.spf.dijkstra_with_barriers`): on-tree nodes are
  valid endpoints but cannot be traversed.  (The paper's Figure 4 depends
  on this: G's option ``G→B→S`` is *not* G's globally shortest route to
  S — that one runs through on-tree node D — yet it is a legitimate
  merge-at-S candidate.)
- **Exclusions.**  Reshaping reuses the same search but must not merge
  inside the moving node's own subtree (that would create a cycle), so
  callers can exclude node sets from both the merge-point set and the
  connecting paths.

Two entry points share that search.  :class:`MergeSearch` is what the
protocols run: it applies the Path Selection Criterion in place, straight
from the kernel's arrays, and builds a :class:`Candidate` (walking its
graft path) only for the winner; a reshape bounds the search itself at
the delay bound, since no merge point beyond it can be feasible.
:func:`enumerate_candidates` materializes every option, sorted, for
callers that need the full list (:func:`repro.core.join.select_path`, the
query-scheme comparison, and the property tests that pin the fused
selection against it).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.shr import VECTOR_MIN_NODES
from repro.graph.topology import NodeId, Topology
from repro.multicast.tree import MulticastTree
from repro.routing.csr import INF, NO_PARENT
from repro.routing.failure_view import NO_FAILURES, FailureSet
from repro.routing.spf import barrier_search_arrays, dijkstra_with_barriers


@dataclass(frozen=True)
class Candidate:
    """One join option ``P_T^{R_i}(S, NR)``.

    Attributes
    ----------
    merge_node:
        The on-tree node ``R_i`` where the new path merges.
    graft_path:
        The new branch, from ``merge_node`` to the joining node.
    new_delay:
        Delay of the new branch only (the links brought into the tree —
        also the candidate's recovery-distance contribution).
    total_delay:
        End-to-end delay ``D^{R_i}_{S,NR}``: on-tree delay to the merge
        node plus the new branch.
    shr:
        ``SHR_{S,R_i}`` of the merge node at enumeration time.
    """

    merge_node: NodeId
    graft_path: tuple[NodeId, ...]
    new_delay: float
    total_delay: float
    shr: int

    @property
    def joiner(self) -> NodeId:
        return self.graft_path[-1]


@dataclass(frozen=True)
class MergeScan:
    """The Path Selection Criterion applied to one :class:`MergeSearch`.

    Attributes
    ----------
    best:
        The feasible winner — minimum ``(shr, total delay, merge id)``
        among merge points within the delay bound — or None.
    fastest:
        When nothing is feasible: the minimum ``(total delay, shr, merge
        id)`` priced merge point (the fallback choice), else None.
    num_candidates:
        Merge points priced: every reachable one after a complete
        search, those within the limit after a bounded one.
    num_feasible:
        Priced merge points within the delay bound.
    """

    best: Candidate | None
    fastest: Candidate | None
    num_candidates: int
    num_feasible: int


class MergeSearch:
    """One barrier search from ``joiner`` toward the tree, scored in place.

    The search prices the connection to every merge point the
    :func:`enumerate_candidates` contract admits (same exclusions, same
    ``shr_values`` filter), and
    :meth:`select` applies the Path Selection Criterion to the kernel's
    ``dist`` array directly — a :class:`Candidate` is built, and its
    graft path walked, only for the winner.  The result equals
    ``select_path(enumerate_candidates(...))``; the property tests in
    ``tests/properties/test_fused_selection.py`` pin that.

    ``limit`` bounds the search: only nodes within that delay of
    ``joiner`` are settled, and only settled merge points are priced.  A
    reshape passes its delay bound: a merge point's total delay is at
    least its connection delay, so none beyond the bound is feasible.

    ``upstream`` (reshapes) is the mover's current attachment: reaching
    it through the direct link merely re-selects the current path, so
    that merge point is never a candidate.

    ``obs`` accounts the search (``routing.candidates.batched_searches``)
    and, per :meth:`select`, the merge points priced
    (``routing.candidates.evaluated``) plus a ``search.candidates``
    instant in an open restoration episode.
    """

    __slots__ = (
        "_joiner", "_csr", "_search", "_merges", "_shr", "_delays", "_upstream", "_obs",
    )

    def __init__(
        self,
        topology: Topology,
        tree: MulticastTree,
        joiner: NodeId,
        shr_values: dict[NodeId, int],
        failures: FailureSet = NO_FAILURES,
        excluded_nodes: frozenset[NodeId] = frozenset(),
        mover: NodeId | None = None,
        upstream: NodeId | None = None,
        limit: float = INF,
        obs=None,
    ) -> None:
        mask, on_tree = _search_scope(tree, failures, excluded_nodes, mover)
        self._joiner = joiner
        self._shr = shr_values
        self._delays = tree.delays_from_source()
        self._obs = obs
        self._csr, self._search = barrier_search_arrays(
            topology, joiner, on_tree, weight="delay", failures=mask, obs=obs,
            limit=limit,
        )
        index_of = self._csr.index_of
        self._merges = [
            (node, index_of[node]) for node in on_tree if node in shr_values
        ]
        self._upstream = NO_PARENT if upstream is None else index_of[upstream]
        if obs is not None:
            obs.counter("routing.candidates.batched_searches").inc()

    def _degenerate(self, index: int) -> bool:
        """True when ``index`` is the upstream reached through the direct
        link (decided once it is settled: its parent is final then)."""
        return (
            index == self._upstream != NO_PARENT
            and self._search.parent[index] == self._search.source_index
        )

    def _candidate(self, merge: NodeId, index: int) -> Candidate:
        """The :class:`Candidate` merging at settled node ``merge``."""
        search = self._search
        parent = search.parent
        ids = self._csr.node_ids
        graft: list[NodeId] = []
        cursor = index
        while cursor != NO_PARENT:  # merge → … → joiner along the parent chain
            graft.append(ids[cursor])
            cursor = parent[cursor]
        delay = search.dist[index]
        return Candidate(
            merge_node=merge,
            graft_path=tuple(graft),
            new_delay=delay,
            total_delay=self._delays[merge] + delay,
            shr=self._shr[merge],
        )

    def select(self, bound: float) -> MergeScan:
        """Apply the criterion with delay bound ``bound`` in one pass.

        Feasible means ``total ≤ bound + 1e-12``, the tolerance of
        :func:`repro.core.join.select_path`.  The scan also tracks the
        minimum-delay merge point, built only when nothing is feasible.
        """
        search = self._search
        best = fastest = None
        priced = feasible = 0
        if search is not None:
            settled = search.settled
            dist = search.dist
            delays = self._delays
            shr_values = self._shr
            skip = self._upstream if self._degenerate(self._upstream) else NO_PARENT
            limit = bound + 1e-12
            best_key = fast_key = None
            for merge, index in self._merges:
                if not settled[index] or index == skip:
                    continue
                priced += 1
                total = delays[merge] + dist[index]
                shr = shr_values[merge]
                if total <= limit:
                    feasible += 1
                    key = (shr, total, merge)
                    if best_key is None or key < best_key:
                        best_key, best = key, (merge, index)
                key = (total, shr, merge)
                if fast_key is None or key < fast_key:
                    fast_key, fastest = key, (merge, index)
            if best is not None:
                best, fastest = self._candidate(*best), None
            elif fastest is not None:
                fastest = self._candidate(*fastest)
        _account(self._obs, self._joiner, priced)
        return MergeScan(best, fastest, priced, feasible)

    def reaches_merge(self) -> bool:
        """Resume the search until an eligible, non-degenerate merge point
        settles; True if one does.

        For a bounded search that priced nothing: it tells "no
        alternative attachment reachable" apart from "nothing within the
        bound", settling no more than that takes.
        """
        search = self._search
        if search is None:
            return False
        eligible = bytearray(self._csr.num_nodes)
        for _, index in self._merges:
            eligible[index] = 1

        def stop(index: int) -> bool:
            return bool(eligible[index]) and not self._degenerate(index)

        return search.run(INF, stop) != NO_PARENT


def _account(obs, joiner: NodeId, evaluated: int) -> None:
    """Book ``evaluated`` priced merge points of one search on ``obs``."""
    if obs is None:
        return
    obs.counter("routing.candidates.evaluated").inc(evaluated)
    tracer = getattr(obs, "tracer", None)
    if tracer is not None:
        # When a restoration episode is open (DES recovery/reshape in
        # flight), the candidate search shows up inside it as an instant
        # span; otherwise this is a no-op.
        tracer.ambient_instant(
            "search.candidates", joiner, payload={"evaluated": evaluated}
        )


def _search_scope(
    tree: MulticastTree,
    failures: FailureSet,
    excluded_nodes: frozenset[NodeId],
    mover: NodeId | None,
) -> tuple[FailureSet, set[NodeId]]:
    """The search's failure mask and its barrier (merge-point) set."""
    mask = failures
    if excluded_nodes:
        mask = failures.union(FailureSet(failed_nodes=frozenset(excluded_nodes)))
    on_tree = set(tree.on_tree_nodes()) - set(excluded_nodes)
    if mover is not None:
        on_tree.discard(mover)
    return mask, on_tree


def enumerate_candidates(
    topology: Topology,
    tree: MulticastTree,
    joiner: NodeId,
    shr_values: dict[NodeId, int],
    failures: FailureSet = NO_FAILURES,
    excluded_nodes: frozenset[NodeId] = frozenset(),
    allowed_merge_nodes: frozenset[NodeId] | None = None,
    mover: NodeId | None = None,
    obs=None,
    vectorized: bool | None = None,
) -> list[Candidate]:
    """All valid join options for ``joiner``, sorted by (shr, delay, id).

    The full list, for callers that need every option (the public API,
    :func:`repro.core.join.select_path` users, the query-scheme
    comparison, and the property tests' oracle).  The protocols' own joins
    and reshapes run :class:`MergeSearch` instead, which selects without
    materializing the losers.

    Parameters
    ----------
    shr_values:
        ``SHR_{S,R}`` per on-tree node, supplied by the caller (full
        knowledge via :func:`repro.core.shr.shr_table`, or the restricted
        view produced by the query scheme).
    failures:
        Components to route around (used by recovery-time joins).
    excluded_nodes:
        Nodes the connecting path must avoid and that cannot serve as
        merge points (a reshaping node's own subtree).
    allowed_merge_nodes:
        When given, only these on-tree nodes are eligible merge points
        (used by the hierarchical protocol to keep joins inside a domain,
        and by the query scheme which only learns some SHR values).
    mover:
        When enumerating for a *reshape*, the node being moved: it is
        itself on the tree, so it must not count as tree contact along
        the candidate paths (they all start at it), nor be a merge point.
    obs:
        Optional :class:`~repro.obs.Observability`; accounts each batched
        enumeration (``routing.candidates.batched_searches``) and every
        merge point priced (``routing.candidates.evaluated``).

    One barrier-aware kernel pass prices the connection to *every* merge
    point at once, and one tree traversal
    (:meth:`~repro.multicast.tree.MulticastTree.delays_from_source`)
    prices every merge point's on-tree delay — the whole enumeration is
    two batched operations, never a per-candidate search.

    On topologies of :data:`~repro.core.shr.VECTOR_MIN_NODES` nodes or
    more (or with ``vectorized=True``) the scoring itself runs as one
    array pass over the kernel's raw output: merge-point distances are
    gathered, totalled, and ordered with a single ``lexsort`` instead of
    materializing the full :class:`~repro.routing.spf.ShortestPaths`
    dict and sorting per-candidate key tuples.  The result — values,
    builtin float/int field types, and ordering — is identical to the
    dict path (property-tested); ``routing.batch.candidates_vectorized``
    counts the enumerations that took the array pass.
    """
    mask, on_tree = _search_scope(tree, failures, excluded_nodes, mover)
    use_arrays = (
        topology.num_nodes >= VECTOR_MIN_NODES if vectorized is None else vectorized
    )
    on_tree_delays = tree.delays_from_source()
    if use_arrays:
        candidates = _score_candidates_arrays(
            topology,
            tree,
            joiner,
            shr_values,
            mask,
            on_tree,
            on_tree_delays,
            allowed_merge_nodes,
            obs,
        )
    else:
        paths = dijkstra_with_barriers(
            topology, joiner, barriers=on_tree, weight="delay", failures=mask, obs=obs
        )
        candidates = []
        for merge in sorted(on_tree):
            if merge not in paths.dist:
                continue
            if allowed_merge_nodes is not None and merge not in allowed_merge_nodes:
                continue
            if merge not in shr_values:
                continue
            toward_merge = paths.path_to(merge)
            graft = tuple(reversed(toward_merge))
            new_delay = paths.dist[merge]
            candidates.append(
                Candidate(
                    merge_node=merge,
                    graft_path=graft,
                    new_delay=new_delay,
                    total_delay=on_tree_delays[merge] + new_delay,
                    shr=shr_values[merge],
                )
            )
        candidates.sort(key=lambda c: (c.shr, c.total_delay, c.merge_node))
    if obs is not None:
        if use_arrays:
            obs.counter("routing.batch.candidates_vectorized").inc()
        obs.counter("routing.candidates.batched_searches").inc()
        _account(obs, joiner, len(candidates))
    return candidates


def _score_candidates_arrays(
    topology: Topology,
    tree: MulticastTree,
    joiner: NodeId,
    shr_values: dict[NodeId, int],
    mask: FailureSet,
    on_tree: set,
    on_tree_delays: dict[NodeId, float],
    allowed_merge_nodes,
    obs,
) -> list[Candidate]:
    """Score and order every merge point in one array pass.

    Consumes the barrier search's raw ``(dist, parent)`` arrays: one
    gather prices all merge points, one ``lexsort`` orders them by
    ``(shr, total delay, merge id)``.  Only the final winners' graft
    paths are walked (index-space parent chains), and every
    :class:`Candidate` field is built from builtin floats/ids so the
    objects are indistinguishable from the dict path's.
    """
    import numpy as np

    csr, search = barrier_search_arrays(
        topology, joiner, on_tree, weight="delay", failures=mask, obs=obs
    )
    if search is None or not on_tree:
        return []
    dist, parent = search.dist, search.parent
    index_of = csr.index_of
    merges = [
        node
        for node in sorted(on_tree)
        if (allowed_merge_nodes is None or node in allowed_merge_nodes)
        and node in shr_values
    ]
    if not merges:
        return []
    rows = np.asarray([index_of[node] for node in merges], dtype=np.int64)
    new_delay = np.asarray(dist, dtype=np.float64)[rows]
    reachable = np.isfinite(new_delay)
    if not reachable.any():
        return []
    shr = np.asarray([shr_values[node] for node in merges], dtype=np.int64)
    total = (
        np.asarray([on_tree_delays[node] for node in merges], dtype=np.float64)
        + new_delay
    )
    picked = np.nonzero(reachable)[0]
    # Primary key shr, then total delay, then merge id — `merges` is
    # sorted ascending, so the position key reproduces the id tie-break
    # for any ordered id type.
    picked = picked[np.lexsort((picked, total[picked], shr[picked]))]

    ids = csr.node_ids
    candidates: list[Candidate] = []
    for k in picked.tolist():
        merge = merges[k]
        cursor = int(rows[k])
        graft: list[NodeId] = []
        while cursor != -1:  # merge → … → joiner along the parent chain
            graft.append(ids[cursor])
            cursor = parent[cursor]
        delay = dist[rows[k]]
        candidates.append(
            Candidate(
                merge_node=merge,
                graft_path=tuple(graft),
                new_delay=delay,
                total_delay=on_tree_delays[merge] + delay,
                shr=shr_values[merge],
            )
        )
    return candidates
