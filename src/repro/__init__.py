"""SMRP reproduction: Survivable Multicast Routing Protocol (DSN 2005).

A from-scratch Python implementation of Wu & Shin's SMRP — a multicast
routing protocol that builds trees with reduced path sharing so that
members disconnected by persistent failures can restore service through
short local detours — together with every substrate its evaluation needs:
Waxman/transit-stub topology generation, an OSPF-like unicast routing
plane, a PIM-style SPF multicast baseline, a discrete-event protocol
simulator, and the full experiment harness for the paper's Figures 7–10.

Quickstart
----------
>>> from repro import SMRPProtocol, SMRPConfig, waxman_topology, WaxmanConfig
>>> net = waxman_topology(WaxmanConfig(n=50, alpha=0.25, seed=7)).topology
>>> proto = SMRPProtocol(net, source=0, config=SMRPConfig(d_thresh=0.3))
>>> tree = proto.build([5, 12, 23, 31, 44])
>>> sorted(tree.members)
[5, 12, 23, 31, 44]

For running experiments (scenarios, sweeps, the paper's figures) use the
high-level facade :mod:`repro.api` — declarative ``ExperimentSpec`` plus
serial or process-parallel executors.
"""

from repro.errors import (
    ConfigurationError,
    JoinRejectedError,
    MulticastError,
    NoPathError,
    RecoveryError,
    ReproError,
    RoutingError,
    SimulationError,
    TopologyError,
    UnrecoverableFailureError,
)
from repro.graph import (
    Topology,
    TransitStubConfig,
    WaxmanConfig,
    figure1_topology,
    figure4_topology,
    transit_stub_topology,
    waxman_topology,
)
from repro.routing import FailureSet, NO_FAILURES, dijkstra, shortest_path
from repro.multicast import MulticastTree, SPFMulticastProtocol
from repro.core import (
    NLevelMulticast,
    SMRPConfig,
    SMRPProtocol,
    global_detour_recovery,
    local_detour_recovery,
    repair_tree,
    worst_case_failure,
)
from repro.obs import NULL_OBS, Observability

__version__ = "1.1.0"


def __getattr__(name: str):
    # ``repro.api`` pulls in the whole experiment harness; load it lazily
    # so ``import repro`` stays cheap for protocol-only users.
    if name == "api":
        import repro.api as api

        return api
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ReproError",
    "TopologyError",
    "RoutingError",
    "NoPathError",
    "MulticastError",
    "JoinRejectedError",
    "RecoveryError",
    "UnrecoverableFailureError",
    "SimulationError",
    "ConfigurationError",
    "Topology",
    "WaxmanConfig",
    "waxman_topology",
    "TransitStubConfig",
    "transit_stub_topology",
    "figure1_topology",
    "figure4_topology",
    "FailureSet",
    "NO_FAILURES",
    "dijkstra",
    "shortest_path",
    "MulticastTree",
    "SPFMulticastProtocol",
    "SMRPProtocol",
    "SMRPConfig",
    "NLevelMulticast",
    "local_detour_recovery",
    "global_detour_recovery",
    "repair_tree",
    "worst_case_failure",
    "Observability",
    "NULL_OBS",
    "__version__",
]
