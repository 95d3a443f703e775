"""Per-layer timing from outside the program.

The traced run wraps public functions of ``repro`` modules in timing
and counting shims; nothing inside ``src/`` is instrumented.  Each
target is a module-level function or a class method:

- a method is replaced on its class, so every instance (and every
  subclass that does not override it) goes through the shim;
- a function is rebound in *every* loaded ``repro.*`` module that holds
  it, because ``from x import f`` copies the reference and a shim left
  only on ``x`` would miss those callers.

Timings are self time: a call's wall time minus the wall time of timed
calls nested inside it, so the layer figures partition the traced wall
instead of double-counting it.  The shims only observe: they pass
arguments and results through untouched, which the benchmark proves by
comparing the traced run's digests with an untraced run's.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: (layer key, module, function or ``Class.method``).  Several targets
#: may share a key; their counts and self times add up.
TARGETS = (
    ("graph.topology", "repro.graph.waxman", "waxman_topology"),
    ("routing.spf", "repro.routing.spf", "dijkstra"),
    ("routing.spf", "repro.routing.spf", "dijkstra_with_barriers"),
    ("routing.spf", "repro.routing.spf", "barrier_search_arrays"),
    ("routing.batch", "repro.routing.route_cache", "RouteCache.warm_batch"),
    ("routing.batch", "repro.routing.batch", "dijkstra_multi"),
    ("routing.convergence", "repro.routing.link_state",
     "ConvergenceModel.convergence_times"),
    ("routing.alternate", "repro.routing.alternate", "build_alternate_table"),
    ("core.join", "repro.core.protocol", "SMRPProtocol.join"),
    ("core.leave", "repro.core.protocol", "SMRPProtocol.leave"),
    ("core.candidates", "repro.core.candidates", "enumerate_candidates"),
    ("core.shr", "repro.core.shr", "shr_table"),
    ("core.shr", "repro.core.shr", "adjusted_shr_table"),
    ("core.reshape_evaluate", "repro.core.reshape", "evaluate_reshape"),
    ("core.reshape_apply", "repro.core.reshape", "apply_reshape"),
    ("core.recovery", "repro.core.recovery", "local_detour_recovery"),
    ("core.recovery", "repro.core.recovery", "global_detour_recovery"),
    ("core.recovery", "repro.core.recovery", "repair_tree"),
    ("core.latency_estimate", "repro.core.recovery",
     "estimate_restoration_latency"),
    ("multicast.backup_build", "repro.multicast.backup_trees",
     "PerLinkBackupTrees.ensure"),
    ("multicast.backup_build", "repro.multicast.backup_trees",
     "AlternatePathProtocol.ensure_tables"),
    ("multicast.spf_join", "repro.multicast.spf_protocol",
     "SPFMulticastProtocol.join"),
    ("controller.fail", "repro.controller.controller",
     "MulticastController.fail"),
    ("controller.restore", "repro.controller.controller",
     "MulticastController.restore"),
    ("experiments.scenario", "repro.experiments.runner", "run_scenario"),
    ("sim.run", "repro.sim.engine", "Simulator.run"),
    ("sim.transmit", "repro.sim.network", "SimNetwork.transmit"),
)

#: Count-only shims (no timing): how many events were scheduled and
#: cancelled, for ``sim.events_cancelled_ratio``.
COUNTED = (
    ("sim.scheduled", "repro.sim.engine", "Simulator.schedule_at"),
    ("sim.cancelled", "repro.sim.engine", "EventHandle.cancel"),
)


class Stat:
    """Calls, self seconds and inclusive seconds of one layer key."""

    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


class Tracer:
    """Install the shims, collect per-key statistics, then remove them.

    Use as a context manager.  ``label`` splits a key by the caller's
    context: while it is set, time under ``sim.run`` is booked to
    ``sim.run.<label>`` (the DES workload labels its SMRP and SPF-rejoin
    simulations this way).
    """

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.counts: dict[str, int] = {}
        self.label: str | None = None
        self.restore_results: list = []
        self.route_caches: list = []
        # Each open timed call is one [child seconds] cell on this stack.
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def stat(self, key: str) -> Stat:
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat()
        return stat

    def _timed(self, key: str, fn):
        stack = self._stack
        perf = time.perf_counter
        tracer = self
        capture = key == "controller.restore"

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                booked = key
                if key == "sim.run" and tracer.label is not None:
                    booked = f"sim.run.{tracer.label}"
                stat = tracer.stat(booked)
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - cell[0]
            if capture:
                tracer.restore_results.append(result)
            return result

        return shim

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return shim

    # ------------------------------------------------------------------
    def _install(self, module_name: str, target: str, make) -> None:
        module = importlib.import_module(module_name)
        if "." in target:
            owner_name, attr = target.split(".")
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            self._rebind(owner, attr, make(original))
            return
        original = getattr(module, target)
        shim = make(original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._rebind(loaded, attr, shim)

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _track_route_caches(self) -> None:
        from repro.routing.route_cache import RouteCache

        original = RouteCache.__init__
        caches = self.route_caches

        @functools.wraps(original)
        def init(cache, *args, **kwargs):
            original(cache, *args, **kwargs)
            caches.append(cache)

        self._rebind(RouteCache, "__init__", init)

    def __enter__(self) -> "Tracer":
        for key, module_name, target in TARGETS:
            self._install(module_name, target, lambda fn, k=key: self._timed(k, fn))
        for key, module_name, target in COUNTED:
            self._install(module_name, target, lambda fn, k=key: self._counted(k, fn))
        self._track_route_caches()
        return self

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def self_s(self, *keys: str) -> float:
        return sum(self.stats[k].self_s for k in keys if k in self.stats)

    def calls(self, *keys: str) -> int:
        return sum(self.stats[k].calls for k in keys if k in self.stats)

    def total_s(self, *keys: str) -> float:
        return sum(self.stats[k].total_s for k in keys if k in self.stats)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, extra: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, as ``name -> (value, unit)``.

    ``extra`` carries the figures the workload measures itself: the
    traced wall of the checked prefix (``wall_s``), simulator event and
    delivery counts, and the workload's own ratios.  A ratio whose
    denominator never occurred in this workload reads 0.
    """
    t = tracer
    hits = sum(c.stats["hits"] for c in t.route_caches)
    lookups = hits + sum(c.stats["misses"] for c in t.route_caches)
    evaluated = t.calls("core.reshape_evaluate")
    checked = sum(d.groups_checked for d in t.restore_results)
    affected = sum(d.affected for d in t.restore_results)
    scheduled = t.counts.get("sim.scheduled", 0)
    metrics = {
        "graph.topology_s": (t.self_s("graph.topology"), "s"),
        "routing.spf_calls": (t.calls("routing.spf"), "count"),
        "routing.spf_s": (t.self_s("routing.spf"), "s"),
        "routing.batch_s": (t.self_s("routing.batch"), "s"),
        "routing.route_cache_hit_ratio": (_ratio(hits, lookups), "ratio"),
        "routing.convergence_s": (t.self_s("routing.convergence"), "s"),
        "routing.alternate_s": (t.self_s("routing.alternate"), "s"),
        "core.join_calls": (t.calls("core.join"), "count"),
        "core.join_s": (t.self_s("core.join"), "s"),
        "core.candidates_s": (t.self_s("core.candidates"), "s"),
        "core.shr_s": (t.self_s("core.shr"), "s"),
        "core.reshape_calls": (evaluated, "count"),
        "core.reshape_s": (
            t.self_s("core.reshape_evaluate", "core.reshape_apply"), "s"
        ),
        "core.reshape_applied_ratio": (
            _ratio(t.calls("core.reshape_apply"), evaluated), "ratio"
        ),
        "core.leave_s": (t.self_s("core.leave"), "s"),
        "core.recovery_s": (t.self_s("core.recovery"), "s"),
        "core.latency_estimate_s": (t.self_s("core.latency_estimate"), "s"),
        "multicast.backup_build_calls": (
            t.calls("multicast.backup_build"), "count"
        ),
        "multicast.backup_build_s": (t.self_s("multicast.backup_build"), "s"),
        "multicast.spf_join_s": (t.self_s("multicast.spf_join"), "s"),
        "controller.fail_s": (t.self_s("controller.fail"), "s"),
        "controller.restore_self_s": (t.self_s("controller.restore"), "s"),
        "controller.affected_ratio": (_ratio(affected, checked), "ratio"),
        "experiments.scenario_s": (t.self_s("experiments.scenario"), "s"),
        "experiments.exec_overhead_s": (
            max(0.0, extra.get("sweep_wall_s", 0.0)
                - t.total_s("experiments.scenario")),
            "s",
        ),
        "sim.run_smrp_s": (t.self_s("sim.run.smrp"), "s"),
        "sim.run_spf_rejoin_s": (t.self_s("sim.run.spf_rejoin"), "s"),
        "sim.transmit_s": (t.self_s("sim.transmit"), "s"),
        "sim.events_fired": (extra.get("events_fired", 0), "count"),
        "sim.events_cancelled_ratio": (
            _ratio(t.counts.get("sim.cancelled", 0), scheduled), "ratio"
        ),
        "sim.messages_delivered": (extra.get("messages_delivered", 0), "count"),
    }
    return metrics
