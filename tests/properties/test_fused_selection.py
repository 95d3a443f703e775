"""Delay-bounded, selection-fused candidate search vs. the full enumeration.

Joins and reshapes select their path straight from one barrier search
(:class:`repro.core.candidates.MergeSearch`): a reshape stops the search
at its delay bound, and only the winning graft is ever built.  These
properties pin that shortcut to the definitions it replaces:

- a bounded :class:`~repro.routing.csr.DijkstraSearch`, resumed to
  ``INF`` (in one or more steps, with or without a stop predicate), is
  the full search — same ``dist``, ``parent`` and discovery ``order``;
- :func:`repro.core.join.select_join` returns the
  :class:`~repro.core.join.PathSelection` (or raises the error) of
  ``select_path(enumerate_candidates(...))``;
- :func:`repro.core.reshape.evaluate_reshape` returns, field for field,
  the decision of a reference built here from ``enumerate_candidates``
  and ``select_path``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.candidates import enumerate_candidates
from repro.core.join import select_join, select_path
from repro.core.protocol import SMRPConfig, SMRPProtocol
from repro.core.reshape import ReshapeDecision, evaluate_reshape
from repro.core.shr import adjusted_shr_table, shr_table
from repro.errors import JoinRejectedError, NoPathError
from repro.graph.topology import Topology
from repro.graph.waxman import WaxmanConfig, waxman_topology
from repro.multicast.tree import MulticastTree
from repro.routing.csr import (
    INF,
    NO_PARENT,
    DijkstraSearch,
    barrier_flags,
    compile_failures,
    csr_dijkstra,
)
from repro.routing.failure_view import NO_FAILURES, FailureSet
from repro.routing.spf import dijkstra

N = 30


def make_topology(seed: int, alpha: float = 0.5):
    return waxman_topology(
        WaxmanConfig(n=N, alpha=alpha, beta=0.4, seed=seed)
    ).topology


def random_failures(topology, link_indices, node_ids) -> FailureSet:
    links = topology.links()
    failed_links = frozenset(links[i % len(links)].key for i in link_indices)
    failed_nodes = frozenset(n for n in node_ids if topology.has_node(n))
    if not failed_links and not failed_nodes:
        return NO_FAILURES
    return FailureSet(failed_links=failed_links, failed_nodes=failed_nodes)


def build_tree(topo_seed: int, member_seed: int, alpha: float):
    topology = make_topology(topo_seed, alpha)
    rng = np.random.default_rng(member_seed)
    members = [int(m) for m in rng.choice(range(1, N), size=8, replace=False)]
    proto = SMRPProtocol(topology, 0, config=SMRPConfig(d_thresh=0.3))
    proto.build(members)
    return topology, proto.tree


# ----------------------------------------------------------------------
# (a) A bounded search resumed to INF is the full search
# ----------------------------------------------------------------------
class TestResumableSearch:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 300),
        st.integers(0, N - 1),
        st.lists(st.integers(0, N - 1), max_size=12),
        st.lists(st.integers(0, 200), max_size=3),
        st.lists(st.integers(0, N - 1), max_size=2),
        st.lists(
            st.one_of(
                st.just(0.0),
                st.integers(0, N - 1),  # a node's exact distance: a tie
                st.floats(0.0, 3.0),  # a fraction of the farthest distance
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_bounded_then_resumed_equals_full(
        self, seed, source, barrier_ids, link_idx, node_ids, limits
    ):
        topology = make_topology(seed)
        csr = topology.csr()
        failures = random_failures(topology, link_idx, node_ids)
        mask = compile_failures(csr, failures)
        weights = csr.weight_list("delay")
        flags = barrier_flags(csr, barrier_ids)
        full = csr_dijkstra(csr, source, weights, mask, barriers=flags)
        reached = [d for d in full[0] if d != INF]
        far = max(reached)

        search = DijkstraSearch(csr, source, weights, mask, flags)
        for raw in sorted(
            full[0][raw] if isinstance(raw, int) else raw * far for raw in limits
        ):
            limit = raw
            assert search.run(limit) == NO_PARENT
            for i, d in enumerate(full[0]):
                if search.settled[i]:
                    # Settled nodes already carry their final values.
                    assert search.dist[i] == d and search.parent[i] == full[1][i]
                    assert d <= limit
                elif d != INF and d <= limit:
                    pytest.fail(f"node {i} within {limit} left unsettled")
        search.run()
        assert (search.dist, search.parent, search.order) == full

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 300),
        st.integers(0, N - 1),
        st.lists(st.integers(0, N - 1), min_size=1, max_size=12),
        st.lists(st.integers(0, 200), max_size=3),
        st.integers(1, 4),
    )
    def test_stop_predicate_then_resumed_equals_full(
        self, seed, source, barrier_ids, link_idx, stop_after
    ):
        topology = make_topology(seed)
        csr = topology.csr()
        mask = compile_failures(csr, random_failures(topology, link_idx, []))
        weights = csr.weight_list("delay")
        flags = barrier_flags(csr, barrier_ids)
        full = csr_dijkstra(csr, source, weights, mask, barriers=flags)

        seen = []

        def stop(index):
            assert flags[index] and index != source
            seen.append(index)
            return len(seen) == stop_after

        search = DijkstraSearch(csr, source, weights, mask, flags)
        stopped = search.run(INF, stop)
        if stopped != NO_PARENT:
            assert stopped == seen[-1] and len(seen) == stop_after
            assert search.dist[stopped] == full[0][stopped]
            assert search.parent[stopped] == full[1][stopped]
        search.run()
        assert (search.dist, search.parent, search.order) == full


# ----------------------------------------------------------------------
# (b) The fused join equals select_path(enumerate_candidates(...))
# ----------------------------------------------------------------------
def outcome(fn):
    try:
        return fn()
    except JoinRejectedError as exc:
        return ("rejected", str(exc))


class TestFusedJoin:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 200),
        st.integers(0, 200),
        st.sampled_from([0.25, 0.5]),
        st.integers(1, N - 1),
        st.sampled_from([0.0, 0.1, 0.3, 1.0]),
        st.sampled_from([1.0, 0.9, 0.5]),
        st.booleans(),
        st.lists(st.integers(0, 200), max_size=3),
        st.booleans(),
    )
    def test_same_selection(
        self, topo_seed, member_seed, alpha, joiner, d_thresh, spf_scale,
        allow_fallback, link_idx, partial_shr,
    ):
        topology, tree = build_tree(topo_seed, member_seed, alpha)
        if tree.is_on_tree(joiner):
            return
        failures = random_failures(topology, link_idx, [])
        try:
            spf = dijkstra(topology, joiner, failures=failures).distance(0)
        except NoPathError:
            spf = 1.0
        # Scaling the SPF delay down forces fallbacks and rejections.
        spf_delay = spf * spf_scale
        shr_values = shr_table(tree)
        if partial_shr:
            # A partial SHR view (the DES join's) restricts the merge points.
            shr_values = {n: v for n, v in shr_values.items() if n % 3}
        want = outcome(lambda: select_path(
            enumerate_candidates(
                topology, tree, joiner, shr_values, failures=failures,
            ),
            spf_delay,
            d_thresh,
            allow_fallback=allow_fallback,
        ))
        got = outcome(lambda: select_join(
            topology, tree, joiner, shr_values, spf_delay, d_thresh,
            failures=failures, allow_fallback=allow_fallback,
        ))
        assert got == want  # every PathSelection field, or the message


# ----------------------------------------------------------------------
# (c) evaluate_reshape equals the enumerate + select_path reference
# ----------------------------------------------------------------------
def reference_reshape(topology, tree, node, d_thresh, failures):
    """The reshape decision from the full candidate list."""
    upstream = tree.parent(node)
    table = adjusted_shr_table(tree, node)
    current = table[upstream]
    declined = dict(
        node=node, performed=False,
        current_upstream=upstream, current_shr_adjusted=current,
    )
    subtree = tree.subtree_nodes(node)
    candidates = [
        c
        for c in enumerate_candidates(
            topology, tree, joiner=node,
            shr_values={m: v for m, v in table.items() if m not in subtree},
            failures=failures, excluded_nodes=frozenset(subtree - {node}),
            mover=node,
        )
        if not (len(c.graft_path) == 2 and c.merge_node == upstream)
    ]
    if not candidates:
        return ReshapeDecision(
            reason="no alternative attachment reachable", **declined
        )
    spf = dijkstra(topology, node, failures=failures)
    if tree.source not in spf.dist:
        return ReshapeDecision(reason="source unreachable", **declined)
    try:
        chosen = select_path(
            candidates, spf.dist[tree.source], d_thresh, allow_fallback=False
        ).candidate
    except JoinRejectedError:
        return ReshapeDecision(
            reason="no candidate within the delay bound", **declined
        )
    if chosen.shr >= current:
        return ReshapeDecision(
            reason=(
                f"best alternative SHR {chosen.shr} does not improve on "
                f"current {current}"
            ),
            new_merge_node=chosen.merge_node, new_shr_adjusted=chosen.shr,
            **declined,
        )
    return ReshapeDecision(
        node=node, performed=True,
        reason="strictly smaller adjusted SHR within delay bound",
        current_upstream=upstream, current_shr_adjusted=current,
        new_merge_node=chosen.merge_node, new_shr_adjusted=chosen.shr,
        new_path=chosen.graft_path,
    )


class TestBoundedReshape:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 200),
        st.integers(0, 200),
        st.sampled_from([0.25, 0.5]),
        st.sampled_from([0.0, 0.1, 0.3, 1.0]),
        st.lists(st.integers(0, 200), max_size=3),
        st.lists(st.integers(1, N - 1), max_size=2),
    )
    def test_same_decision_for_every_mover(
        self, topo_seed, member_seed, alpha, d_thresh, link_idx, node_ids
    ):
        topology, tree = build_tree(topo_seed, member_seed, alpha)
        failures = random_failures(topology, link_idx, node_ids)
        for mover in tree.on_tree_nodes():
            if mover == tree.source:
                continue
            got = evaluate_reshape(topology, tree, mover, d_thresh, failures)
            want = reference_reshape(topology, tree, mover, d_thresh, failures)
            assert got == want

    def test_every_reason_is_exercised(self):
        """The sampled space reaches every decision branch."""
        reasons = set()
        for seed in range(12):
            topology, tree = build_tree(seed, seed, 0.25 if seed % 2 else 0.5)
            links = sorted(tree.tree_links())
            for failures in (NO_FAILURES, FailureSet.links(links[0])):
                for d_thresh in (0.0, 0.3):
                    for mover in tree.on_tree_nodes():
                        if mover == tree.source:
                            continue
                        got = evaluate_reshape(
                            topology, tree, mover, d_thresh, failures
                        )
                        assert got == reference_reshape(
                            topology, tree, mover, d_thresh, failures
                        )
                        reasons.add(got.reason.split(" SHR")[0])
        assert reasons >= {
            "no alternative attachment reachable",
            "source unreachable",
            "no candidate within the delay bound",
            "best alternative",
            "strictly smaller adjusted",
        }

    def test_bound_keeps_select_path_tolerance(self):
        """A merge point one rounding error past the bound stays feasible.

        S–U–M is the tree (0.15 + 0.15 = 0.3 exactly, also M's SPF
        delay); the alternative M–X–S sums to 0.30000000000000004.  With
        ``D_thresh = 0`` only the ``1e-12`` tolerance of ``select_path``
        admits it, so the bounded search must settle that far too.
        """
        S, U, M, X = 0, 1, 2, 3
        topology = Topology("tolerance")
        for node in (S, U, M, X):
            topology.add_node(node)
        for u, v, delay in [(S, U, 0.15), (U, M, 0.15), (M, X, 0.2), (X, S, 0.1)]:
            topology.add_link(u, v, delay=delay)
        tree = MulticastTree(topology, S)
        tree.graft([S, U, M])
        assert dijkstra(topology, M).dist[S] == 0.3
        got = evaluate_reshape(topology, tree, M, 0.0)
        assert got == reference_reshape(topology, tree, M, 0.0, NO_FAILURES)
        assert got.new_merge_node == S
        assert got.reason == "best alternative SHR 0 does not improve on current 0"
