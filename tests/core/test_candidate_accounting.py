"""The candidate search keeps its observability accounting.

Every graft join and every reshape evaluation runs exactly one batched
barrier search, and each search books the merge points it priced and
leaves a ``search.candidates`` instant in an open restoration episode.
These counters feed the run report's search lines; nothing else fails
if they silently stop being emitted, so they are pinned here on a
seeded SMRP build.
"""

import numpy as np

from repro.core.protocol import SMRPConfig, SMRPProtocol
from repro.core.reshape import evaluate_reshape
from repro.graph.waxman import WaxmanConfig, waxman_topology
from repro.obs import Observability
from repro.obs.tracing import RestorationTracer


def seeded_build(obs, n=40, members=12, seed=5):
    topology = waxman_topology(
        WaxmanConfig(n=n, alpha=0.4, beta=0.3, seed=seed)
    ).topology
    rng = np.random.default_rng(seed)
    order = [int(m) for m in rng.choice(range(1, n), size=members, replace=False)]
    proto = SMRPProtocol(topology, 0, config=SMRPConfig(d_thresh=0.3), obs=obs)
    selections = [proto.join(member) for member in order]
    return topology, proto, selections


def test_one_batched_search_per_graft_join_and_reshape_evaluation():
    obs = Observability()
    _, proto, selections = seeded_build(obs)
    graft_joins = sum(1 for s in selections if s is not None)
    evaluations = proto.stats.reshape_evaluations
    assert graft_joins > 0 and evaluations > 0
    counters = obs.metrics.counters()
    searches = counters["routing.candidates.batched_searches"]
    assert searches == graft_joins + evaluations
    assert counters["routing.kernel.barrier_calls"] >= searches
    # A join prices every reachable merge point; reshapes add the ones
    # within their delay bound.
    priced_by_joins = sum(s.num_candidates for s in selections if s is not None)
    assert counters["routing.candidates.evaluated"] >= priced_by_joins > 0


def test_search_leaves_an_instant_in_the_open_episode():
    tracer = RestorationTracer()
    tracer.bind_clock(lambda: 1.0)
    obs = Observability(tracer=tracer)
    topology, proto, _ = seeded_build(obs)
    member = sorted(proto.tree.members)[0]
    tracer.open(member, "local", "f", 0.0)
    decision = evaluate_reshape(topology, proto.tree, member, 0.3, obs=obs)
    off_tree = next(
        n for n in topology.nodes() if not proto.tree.is_on_tree(n)
    )
    selection = proto.join(off_tree)
    tracer.close(member, 2.0)
    (episode,) = tracer.episodes
    searches = [s for s in episode.spans if s.phase == "search.candidates"]
    # The reshape evaluation, the join, and the reshapes the join set off.
    assert len(searches) >= 2
    assert searches[0].node == member
    assert searches[1].node == off_tree
    assert searches[1].payload == {"evaluated": selection.num_candidates}
    assert decision.reason  # the evaluation itself ran to a decision
