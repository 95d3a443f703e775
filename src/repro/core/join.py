"""SMRP path selection for joining members (paper §3.2.2).

The Path Selection Criterion: among the candidate paths, pick the one whose
merge node has the minimum ``SHR_{S,R_i}``, subject to the delay bound

.. math::

    D^{R^*}_{S,NR} \\le (1 + D_{thresh}) \\cdot D^{SPF}_{S,NR}

with ties broken by the shorter path.  ``D_thresh`` is the paper's knob
trading transmission efficiency for recovery speed.

When *no* candidate satisfies the bound (possible on sparse topologies
where every detour to the tree is long — the paper does not discuss this
corner), the selection falls back to the minimum-delay candidate and flags
the fallback, so experiments can report how often it happens.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, JoinRejectedError
from repro.core.candidates import Candidate, MergeSearch
from repro.graph.topology import NodeId, Topology
from repro.multicast.tree import MulticastTree
from repro.routing.failure_view import NO_FAILURES, FailureSet


@dataclass(frozen=True)
class PathSelection:
    """The outcome of one path selection."""

    candidate: Candidate
    spf_delay: float
    bound: float
    fallback: bool
    num_candidates: int
    num_feasible: int

    @property
    def within_bound(self) -> bool:
        return self.candidate.total_delay <= self.bound + 1e-12


def select_path(
    candidates: list[Candidate],
    spf_delay: float,
    d_thresh: float,
    allow_fallback: bool = True,
) -> PathSelection:
    """Apply the Path Selection Criterion.

    Parameters
    ----------
    candidates:
        Options from :func:`repro.core.candidates.enumerate_candidates`.
    spf_delay:
        ``D^{SPF}_{S,NR}`` — the member's unicast shortest-path delay to
        the source, computed by the underlying routing protocol.
    d_thresh:
        The delay-stretch bound ``D_thresh`` (0 forces pure SPF behaviour
        in terms of delay, larger values admit more sharing reduction).
    allow_fallback:
        When False, an empty feasible set raises
        :class:`~repro.errors.JoinRejectedError` instead of falling back
        to the minimum-delay candidate.
    """
    bound = delay_bound(spf_delay, d_thresh)
    if not candidates:
        raise JoinRejectedError(None, "no candidate paths reach the tree")

    feasible = [c for c in candidates if c.total_delay <= bound + 1e-12]
    if feasible:
        best = min(feasible, key=lambda c: (c.shr, c.total_delay, c.merge_node))
        return PathSelection(
            candidate=best,
            spf_delay=spf_delay,
            bound=bound,
            fallback=False,
            num_candidates=len(candidates),
            num_feasible=len(feasible),
        )
    if not allow_fallback:
        raise JoinRejectedError(
            candidates[0].joiner,
            f"no candidate within delay bound {bound:.3f} "
            f"(best total delay {min(c.total_delay for c in candidates):.3f})",
        )
    best = min(candidates, key=lambda c: (c.total_delay, c.shr, c.merge_node))
    return PathSelection(
        candidate=best,
        spf_delay=spf_delay,
        bound=bound,
        fallback=True,
        num_candidates=len(candidates),
        num_feasible=0,
    )


def delay_bound(spf_delay: float, d_thresh: float) -> float:
    """``(1 + D_thresh) · D^{SPF}_{S,NR}``, after validating both inputs."""
    if d_thresh < 0:
        raise ConfigurationError(f"D_thresh must be non-negative, got {d_thresh}")
    if spf_delay < 0:
        raise ConfigurationError(f"SPF delay must be non-negative, got {spf_delay}")
    return (1.0 + d_thresh) * spf_delay


def select_join(
    topology: Topology,
    tree: MulticastTree,
    joiner: NodeId,
    shr_values: dict[NodeId, int],
    spf_delay: float,
    d_thresh: float,
    failures: FailureSet = NO_FAILURES,
    allow_fallback: bool = True,
    obs=None,
) -> PathSelection:
    """Search and select a join path in one pass.

    Returns the :class:`PathSelection` — and raises the errors — of
    ``select_path(enumerate_candidates(topology, tree, joiner, shr_values,
    failures=failures), spf_delay, d_thresh, allow_fallback)``, but scores merge points straight from
    the barrier search (:class:`~repro.core.candidates.MergeSearch`) and
    builds only the chosen :class:`Candidate`.  The search is complete,
    so ``num_candidates`` still counts every reachable merge point.
    """
    bound = delay_bound(spf_delay, d_thresh)
    scan = MergeSearch(
        topology, tree, joiner, shr_values, failures=failures, obs=obs
    ).select(bound)
    if not scan.num_candidates:
        raise JoinRejectedError(None, "no candidate paths reach the tree")
    if scan.best is not None:
        return PathSelection(
            candidate=scan.best,
            spf_delay=spf_delay,
            bound=bound,
            fallback=False,
            num_candidates=scan.num_candidates,
            num_feasible=scan.num_feasible,
        )
    if not allow_fallback:
        raise JoinRejectedError(
            joiner,
            f"no candidate within delay bound {bound:.3f} "
            f"(best total delay {scan.fastest.total_delay:.3f})",
        )
    return PathSelection(
        candidate=scan.fastest,
        spf_delay=spf_delay,
        bound=bound,
        fallback=True,
        num_candidates=scan.num_candidates,
        num_feasible=0,
    )
