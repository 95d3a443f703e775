"""The benchmark's four workloads.

Each workload is a closed loop with one caller: the next operation
starts only when the previous one has returned, because the figure and
controller APIs are synchronous.  A workload is driven in two steps:

- ``setup()`` builds everything the timed loop needs (topology, hosted
  sessions, the operation stream) and returns it as a state object;
- ``run(state, seconds=..., ops=...)`` replays operations and returns an
  :class:`Outcome`.  With ``ops`` it runs exactly that many; with
  ``seconds`` it runs ``rate`` operations per second of it, a count fixed
  by the arguments alone (sized on the sizing host) and never below the
  *checked prefix* of ``prefix`` operations.  So a faster machine or
  build does the same work in less time, never a different mix.

Correctness is checked outside the timed sections.  Per-operation
invariants are checked on every operation; the digest covers only the
checked prefix, so it does not depend on machine speed or ``--seconds``.
Workload inputs are pure functions of the ``--seed`` argument.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.api import SerialExecutor, build_figure
from repro.controller.controller import MulticastController
from repro.controller.spec import ServiceSpec
from repro.controller.workload import build_workload, group_sources
from repro.core.protocol import SMRPConfig
from repro.core.recovery import worst_case_failure
from repro.errors import MulticastError
from repro.experiments.exec.cache import SubstrateCache
from repro.graph.topology import edge_key
from repro.graph.waxman import WaxmanConfig, waxman_topology
from repro.multicast.group import GroupAction
from repro.multicast.validation import check_tree_invariants
from repro.obs import Observability
from repro.routing.failure_view import FailureSet
from repro.sim.failures import FailureSchedule
from repro.sim.protocols import SmrpSimulation
from repro.sim.rejoin import SpfRejoinSimulation

from pace import NoPace

#: The clock every timed section reads: CPU time of this process.  The
#: program runs in one thread with no I/O or waiting, so on a machine of
#: its own an operation's CPU time is its wall time; on a shared host the
#: wall time also holds stretches in which another tenant had the core,
#: which no change to the program can move.
cpu_time = time.process_time

#: Engines the failover controller hosts, assigned round-robin.
ENGINES = ("smrp", "spf", "protection", "hybrid", "alternate")

#: Error messages kept per outcome (the count is always exact).
_MAX_ERRORS = 20


def sha256_json(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Outcome:
    """What one ``run`` did and whether its outputs were right.

    ``latencies_s`` holds the time of each timed operation; ``work``
    counts the workload's throughput unit over ``busy_s`` seconds of
    timed work (scenarios, dispatches, membership operations or
    simulator events).
    """

    attempted: int = 0
    failed: int = 0
    prefix_attempted: int = 0
    latencies_s: list = field(default_factory=list)
    work: float = 0.0
    busy_s: float = 0.0
    digest: str | None = None
    detail: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.errors) < _MAX_ERRORS:
            self.errors.append(message)


def _count(ops: int | None, seconds: float | None, rate: float,
           prefix: int, multiple: int = 1) -> int:
    """Operations one ``run`` performs: ``ops`` when given, else ``rate``
    operations per second of ``seconds`` (rounded to a whole
    ``multiple``), never fewer than ``prefix``."""
    if ops is not None:
        return ops
    return max(prefix, multiple * round(rate * seconds / multiple))


# ----------------------------------------------------------------------
# sweep: the paper's quick figure grid
# ----------------------------------------------------------------------
class _TimedSerialExecutor(SerialExecutor):
    """The serial executor, timing each scenario it runs.

    The benchmark is the caller of every scenario here, so it times
    them from outside: one unit per ``map_units`` call of the parent.
    """

    def __init__(self, pace) -> None:
        super().__init__()
        self.pace = pace
        self.latencies_s: list[float] = []
        self.results: list = []

    def map_units(self, units, obs=None):
        results = []
        for unit in units:
            self.pace.tick()
            start = cpu_time()
            results.extend(super().map_units([unit], obs=obs))
            self.latencies_s.append(cpu_time() - start)
        self.results.extend(results)
        return results


def _scenario_problems(result) -> list[str]:
    """Invariant violations of one ScenarioResult (empty when sound)."""
    problems = []
    config = result.config
    if len(result.members) != config.group_size:
        problems.append(f"{len(result.members)} members, want {config.group_size}")
    if len(result.measurements) != len(result.members):
        problems.append("one measurement per member expected")
    if not (result.cost_spf > 0 and result.cost_smrp > 0):
        problems.append("tree costs must be positive")
    for m in result.measurements:
        values = [m.delay_spf, m.delay_smrp] + [
            v for v in (m.rd_spf_global, m.rd_smrp_local,
                        m.rd_spf_local, m.rd_smrp_global) if v is not None
        ]
        if not all(np.isfinite(v) and v >= 0 for v in values):
            problems.append(f"member {m.member}: bad measurement {m!r}")
    return problems


class Sweep:
    """Figures 7-10 through ``repro.api.build_figure(..., quick=True)``.

    One pass is the four figures on one fresh serial executor, as
    ``repro figures --quick`` runs them.  The timed passes run the
    paper's grid (seed offset 0, the grid users run) and must equal the
    golden tables every time.  After the first of them, one untimed pass
    runs the grid of the run's seed, which must pass the per-scenario
    invariants and whose tables are the digest.  The seed so changes what
    is checked but not what is timed: the cost of the quick grid swings
    by a third between seeds, which would drown any code change.  The
    checked prefix is the first two passes; a traced run times both.
    """

    name = "sweep"
    figures = (7, 8, 9, 10)
    prefix = 2  # passes
    rate = 0.15  # passes per second of ``--seconds``

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.pace = NoPace()
        self.golden = root / "benchmarks" / "golden" / "figures_quick.txt"

    def setup(self):
        return None

    def run_pass(self, seed_offset: int, out: Outcome, timed: bool) -> str:
        executor = _TimedSerialExecutor(self.pace)
        sections = []
        busy = 0.0
        with executor:
            for figure in self.figures:
                start = cpu_time()
                result = build_figure(
                    figure, quick=True, executor=executor, seed_offset=seed_offset,
                )
                text = result.render()
                busy += cpu_time() - start
                sections.append(f"--- Figure {figure} ---\n{text}\n\n")
        if timed:
            out.latencies_s.extend(executor.latencies_s)
            out.work += len(executor.results)
            out.busy_s += busy
        out.attempted += len(executor.results)
        for result in executor.results:
            problems = _scenario_problems(result)
            if problems:
                out.fail(1, f"scenario {result.config.describe()}: {problems}")
        return "".join(sections)

    def golden_tables(self) -> str:
        """The golden tables of this workload's figures, as one pass
        prints them."""
        text = self.golden.read_text()
        sections = {}
        for section in text.split("--- Figure ")[1:]:
            number, _, _ = section.partition(" ---")
            sections[int(number)] = "--- Figure " + section
        return "".join(sections[figure] for figure in self.figures)

    def run(self, state, seconds=None, ops=None, extra=None) -> Outcome:
        out = Outcome()
        golden = self.golden_tables()
        passes = 0
        limit = _count(ops, seconds, self.rate, self.prefix)
        while passes < limit:
            before = out.attempted
            if passes == 1:
                text = self.run_pass(self.seed * 100_000, out, timed=ops is not None)
                out.digest = sha256_json(text)
                ok = self.seed != 0 or text == golden
            else:
                text = self.run_pass(0, out, timed=True)
                ok = text == golden
            passes += 1
            if not ok:
                out.fail(out.attempted - before,
                         f"pass {passes} differs from the golden quick figures")
            if passes == self.prefix:
                out.prefix_attempted = out.attempted
        out.detail["passes"] = passes
        if extra is not None:
            extra["sweep_wall_s"] = out.busy_s
        return out


# ----------------------------------------------------------------------
# failover: single-link failures on a 1000-session controller
# ----------------------------------------------------------------------
class Failover:
    """One controller hosting sessions of all five engines; each
    operation is one ``fail()`` + ``restore()`` dispatch.

    The topology is fixed; the seed draws the sessions (sources, members)
    and the failure sequence.  Failed links are drawn from the links the
    trees use at the moment of the dispatch, stratified by how many
    sessions share each link: every block of ``strata`` dispatches visits
    each of ``strata`` equal-sized strata of that ranking once, in a
    seeded order, and picks a link uniformly inside the stratum.  Every
    used link stays a candidate, but each block samples the range from
    rarely to heavily shared links the same way, so the latency tail does
    not hinge on a few lucky draws.
    """

    name = "failover"
    n = 300
    topology_seed = 0
    groups = 1000
    strata = 400
    prefix = 400  # dispatches: one block, about 18 s on the sizing host

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.pace = NoPace()
        self.spec = ServiceSpec(
            n=self.n, groups=self.groups, topology_seed=self.topology_seed,
            member_seed=seed, workload="static",
        )

    def setup(self):
        spec = self.spec
        cache = SubstrateCache()
        topology = cache.topology_for(spec)
        controller = MulticastController(
            topology,
            smrp_config=SMRPConfig(d_thresh=spec.d_thresh, self_check=False),
            protect_budget=spec.protect_budget,
            cache=cache,
        )
        sources = group_sources(spec, topology)
        for index in range(spec.groups):
            gid = controller.open_group(
                sources[index], index, protocol=ENGINES[index % len(ENGINES)]
            )
            controller.apply_workload(
                gid, build_workload(spec, topology, index, sources[index])
            )
        return {"controller": controller}

    def failures(self, controller, rows):
        """Yield the next failed link; ``rows`` is the list the caller
        fills with the last dispatch's restoration rows, whose groups'
        links are recounted before the next draw."""
        rng = np.random.default_rng([self.seed, 17])
        links_of: dict = {}
        usage: dict = {}

        def recount(gid) -> None:
            for link in links_of.get(gid, ()):
                usage[link] -= 1
            links_of[gid] = controller.tree(gid).tree_links()
            for link in links_of[gid]:
                usage[link] = usage.get(link, 0) + 1

        for gid in controller.group_ids():
            recount(gid)
        while True:
            for stratum in rng.permutation(self.strata):
                for row in rows:
                    recount((row.source, row.group))
                ranked = sorted(
                    (count, link) for link, count in usage.items() if count
                )
                bounds = np.linspace(0, len(ranked), self.strata + 1).astype(int)
                low, high = bounds[stratum], max(bounds[stratum + 1], bounds[stratum] + 1)
                yield ranked[int(rng.integers(low, high))][1]

    def run(self, state, seconds=None, ops=None, extra=None) -> Outcome:
        out = Outcome()
        controller = state["controller"]
        rows_digest = hashlib.sha256()
        affected_total = 0
        last_rows: list = []
        links = self.failures(controller, last_rows)
        # A timed run is exactly one block, whatever ``seconds`` says: a
        # second block meets a controller whose lazy backup and
        # alternate tables are already built, and would pull the
        # percentiles down by a tenth on fast machines only.
        limit = ops if ops is not None else self.prefix
        while out.attempted < limit:
            self.pace.tick()
            link = next(links)
            last_rows.clear()
            failures = FailureSet.links(link)
            out.attempted += 1
            try:
                start = cpu_time()
                affected = controller.fail(failures)
                dispatch = controller.restore()
                elapsed = cpu_time() - start
            except Exception as exc:  # counted, the loop keeps serving
                out.fail(1, f"dispatch {link}: {exc!r}")
                continue
            last_rows.extend(dispatch.rows)
            out.latencies_s.append(elapsed)
            out.busy_s += elapsed
            out.work += 1
            affected_total += len(affected)
            problem = self.check(controller, link, affected, dispatch)
            if problem:
                out.fail(1, f"dispatch {link}: {problem}")
            if out.attempted <= self.prefix:
                rows_digest.update(
                    json.dumps(
                        [dispatch.failure] + [r.to_dict() for r in dispatch.rows],
                        sort_keys=True,
                    ).encode("utf-8")
                )
        out.prefix_attempted = min(out.attempted, self.prefix)
        out.digest = rows_digest.hexdigest()
        out.detail["affected_groups_per_dispatch"] = round(
            affected_total / max(1, out.work), 3
        )
        return out

    @staticmethod
    def check(controller, link, affected, dispatch) -> str | None:
        failed = edge_key(*link)
        if [(r.source, r.group) for r in dispatch.rows] != list(affected):
            return "restoration rows do not match the affected groups"
        for row in dispatch.rows:
            tree = controller.tree((row.source, row.group))
            try:
                check_tree_invariants(tree)
            except MulticastError as exc:
                return f"group {row.source}:{row.group}: {exc}"
            if failed in tree.tree_links():
                return f"group {row.source}:{row.group} still uses the failed link"
            # A cut member can be reconnected by another member's detour,
            # so it is counted neither restored nor unrecoverable.
            if row.restored + row.unrecoverable > row.affected:
                return (
                    f"group {row.source}:{row.group}: {row.affected} cut but "
                    f"{row.restored} restored + {row.unrecoverable} unrecoverable"
                )
            if row.members != len(tree.members):
                return f"group {row.source}:{row.group}: member count drifted"
        return None


# ----------------------------------------------------------------------
# churn: Poisson joins and leaves on long-lived SMRP trees
# ----------------------------------------------------------------------
class Churn:
    """SMRP sessions replaying the merged Poisson membership workload.

    Every group's ``build_workload(workload="poisson")`` events are
    merged in timestamp order (ties by group index, then by the group's
    own canonical order) and replayed as one stream; each join or leave
    is one operation.  No failures.  The latency samples are the joins:
    a leave costs about a fifth of a join, so a median over both would
    jump between the two populations as the mix shifts.
    """

    name = "churn"
    n = 200
    topology_seed = 0
    groups = 300
    churn_duration = 600.0
    prefix = 8000  # membership operations
    rate = 1000.0  # membership operations per second of ``--seconds``

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.pace = NoPace()
        self.spec = ServiceSpec(
            n=self.n, groups=self.groups, topology_seed=self.topology_seed,
            member_seed=seed, workload="poisson",
            churn_duration=self.churn_duration,
        )

    def setup(self):
        spec = self.spec
        cache = SubstrateCache()
        topology = cache.topology_for(spec)
        controller = MulticastController(
            topology,
            smrp_config=SMRPConfig(d_thresh=spec.d_thresh, self_check=False),
            cache=cache,
        )
        sources = group_sources(spec, topology)
        stream = []
        for index in range(spec.groups):
            gid = controller.open_group(sources[index], index, protocol="smrp")
            workload = build_workload(spec, topology, index, sources[index])
            for order, event in enumerate(workload):
                stream.append((
                    event.time, index, order, gid, event.node,
                    event.action is GroupAction.JOIN,
                ))
        stream.sort(key=lambda item: item[:3])
        return {"controller": controller, "stream": stream}

    def digest(self, controller) -> str:
        trees = []
        for gid in controller.group_ids():
            tree = controller.tree(gid)
            trees.append([
                list(gid),
                sorted(tree.members),
                sorted(list(link) for link in tree.tree_links()),
            ])
        return sha256_json(trees)

    def run(self, state, seconds=None, ops=None, extra=None) -> Outcome:
        out = Outcome()
        controller = state["controller"]
        joins, leaves = [], []
        skipped = 0
        limit = _count(ops, seconds, self.rate, self.prefix)
        stream = iter(state["stream"])
        while out.attempted < limit:
            item = next(stream, None)
            if item is None:
                break
            _, _, _, gid, node, is_join = item
            tree = controller.tree(gid)
            if is_join and (node == gid[0] or tree.is_member(node)):
                skipped += 1
                continue
            if not is_join and not tree.is_member(node):
                skipped += 1
                continue
            out.attempted += 1
            self.pace.tick()
            try:
                start = cpu_time()
                if is_join:
                    controller.join(gid, node)
                else:
                    controller.leave(gid, node)
                elapsed = cpu_time() - start
            except Exception as exc:  # counted, the loop keeps serving
                out.fail(1, f"{'join' if is_join else 'leave'} {gid} {node}: {exc!r}")
                continue
            (joins if is_join else leaves).append(elapsed)
            out.busy_s += elapsed
            out.work += 1
            if controller.tree(gid).is_member(node) != is_join:
                out.fail(1, f"group {gid}: member {node} in the wrong state")
            if out.attempted == self.prefix:
                out.digest = self.digest(controller)
                for g in controller.group_ids():
                    try:
                        check_tree_invariants(controller.tree(g))
                    except MulticastError as exc:
                        out.fail(1, f"group {g}: {exc}")
        if out.attempted < limit:
            out.fail(1, f"stream ended after {out.attempted} operations")
            out.digest = self.digest(controller)
        out.prefix_attempted = min(out.attempted, self.prefix)
        out.latencies_s = joins
        out.detail.update(
            joins=len(joins), leaves=len(leaves), skipped=skipped,
            join_p50_ms=_ms(joins, 50), join_p99_ms=_ms(joins, 99),
            leave_p50_ms=_ms(leaves, 50),
        )
        return out


def _ms(samples, q) -> float | None:
    return round(float(np.percentile(samples, q)) * 1e3, 4) if samples else None


# ----------------------------------------------------------------------
# des: message-level restoration in simulated time
# ----------------------------------------------------------------------
class Des:
    """Message-level SMRP and SPF-rejoin simulations of one worst-case
    link failure, in the style of ``benchmarks/test_latency_des.py``.

    Scenario ``k`` runs on Waxman topology ``k`` (the same for every
    seed, so runs differ in members, not in which graphs they visit)
    with ``members`` joins drawn from the seed; each scenario runs as an
    SMRP simulation, then as an SPF-rejoin simulation (one operation
    each).  The caller advances the simulator in fifths of an advert
    period; a latency sample is the wall time of the calls that together
    fire ``events_per_step`` events, so it measures the engine's cost per
    event batch whatever the tree's size.
    SMRP simulations run with the program's ``Observability`` enabled
    (``SpfRejoinSimulation`` takes no ``obs``).
    """

    name = "des"
    n = 60
    members = 6
    horizon_spacings = 60.0
    events_per_step = 1000
    prefix = 4  # simulations
    rate = 0.5  # simulations per second of ``--seconds``, in whole pairs

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.pace = NoPace()
        self.obs_enabled = True
        self.tracer = None

    def scenario(self, k: int):
        topology = waxman_topology(
            WaxmanConfig(n=self.n, alpha=0.4, beta=0.3, seed=k)
        ).topology
        rng = np.random.default_rng([self.seed, k, 500])
        members = [
            int(m) for m in rng.choice(range(1, self.n), self.members, replace=False)
        ]
        return topology, members

    def setup(self):
        return {"scenarios": [self.scenario(k) for k in range(self.prefix // 2)]}

    def simulate(self, topology, members, kind: str, out: Outcome) -> dict:
        if kind == "smrp":
            obs = Observability() if self.obs_enabled else None
            sim = SmrpSimulation(topology, 0, d_thresh=0.3, obs=obs)
        else:
            sim = SpfRejoinSimulation(topology, 0)
        spacing = 50.0 * max(link.delay for link in topology.links())
        for i, member in enumerate(members):
            sim.schedule_join(spacing * (i + 1), member)
        settle = spacing * (len(members) + 2)
        end = settle + self.horizon_spacings * spacing
        step = sim.timers.advert_period / 5
        clock = 0.0
        failed_link = None
        elapsed = 0.0
        op_start = 0
        while clock < end:
            clock = min(clock + step, end)
            if failed_link is None and clock > settle:
                # The failure is chosen on the settled tree and armed at
                # the settle point, as one run(until=settle) + arm would;
                # choosing and arming it is not timed.
                start = cpu_time()
                sim.run(until=settle)
                elapsed += cpu_time() - start
                failure = worst_case_failure(sim.extract_tree(), members[0])
                (failed_link,) = failure.failed_links
                FailureSchedule().fail_link_at(settle + 1.0, *failed_link).arm(
                    sim.sim, sim.network
                )
            start = cpu_time()
            sim.run(until=clock)
            elapsed += cpu_time() - start
            if sim.sim.events_processed - op_start >= self.events_per_step:
                out.latencies_s.append(elapsed)
                out.busy_s += elapsed
                elapsed = 0.0
                op_start = sim.sim.events_processed
                self.pace.tick()
        out.busy_s += elapsed  # the last, partial step is timed but not sampled
        events = sim.sim.events_processed
        out.work += events
        records = [
            [r.detector, r.failed_at, r.detected_at, r.restored_at, list(r.detour)]
            for r in sim.recovery_records
        ]
        return {
            "kind": kind,
            "events": events,
            "delivered": sim.network.stats.delivered,
            "records": records,
            "tree": sorted(list(link) for link in sim.extract_tree().tree_links()),
            "problem": self.problem(records, failed_link),
        }

    @staticmethod
    def problem(records, failed_link) -> str | None:
        """What the simulation guarantees whatever the topology: the
        failure is detected, recovery is causal, and no detour crosses
        the failed link.  (A mid-run tree may still hold stale soft state
        or an unrecoverable member's dead link, so tree shape is covered
        by the digest, not by an invariant.)"""
        if not records:
            return "the worst-case failure was never detected"
        failed = edge_key(*failed_link)
        for detector, failed_at, detected_at, restored_at, detour in records:
            if detected_at is None or detected_at < failed_at:
                return f"node {detector}: detection before the failure"
            if restored_at is not None and restored_at < detected_at:
                return f"node {detector}: restored before detection"
            if any(edge_key(u, v) == failed for u, v in zip(detour, detour[1:])):
                return f"node {detector}: detour crosses the failed link"
        return None

    def run(self, state, seconds=None, ops=None, extra=None) -> Outcome:
        out = Outcome()
        extra = extra if extra is not None else {}
        scenarios = state["scenarios"]
        prefix_runs = []
        limit = _count(ops, seconds, self.rate, self.prefix, multiple=2)
        k = 0
        while out.attempted < limit:
            if k // 2 >= len(scenarios):
                scenarios.append(self.scenario(k // 2))
            index = k // 2
            topology, members = scenarios[index]
            kind = "smrp" if k % 2 == 0 else "spf_rejoin"
            k += 1
            out.attempted += 1
            if self.tracer is not None:
                self.tracer.label = kind
            try:
                summary = self.simulate(topology, members, kind, out)
            except Exception as exc:  # counted, the loop keeps going
                out.fail(1, f"{kind} scenario {index}: {exc!r}")
                continue
            finally:
                if self.tracer is not None:
                    self.tracer.label = None
            if summary["problem"]:
                out.fail(1, f"{kind} scenario {index}: {summary['problem']}")
            extra["events_fired"] = extra.get("events_fired", 0) + summary["events"]
            extra["messages_delivered"] = (
                extra.get("messages_delivered", 0) + summary["delivered"]
            )
            if out.attempted <= self.prefix:
                prefix_runs.append({
                    key: summary[key]
                    for key in ("kind", "events", "records", "tree")
                })
        out.prefix_attempted = len(prefix_runs)
        out.digest = sha256_json(prefix_runs)
        out.detail["simulations"] = out.attempted
        out.detail["prefix_events"] = [run["events"] for run in prefix_runs]
        return out


WORKLOADS = {cls.name: cls for cls in (Sweep, Failover, Churn, Des)}
