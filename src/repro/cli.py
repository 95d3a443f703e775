"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figures``
    Regenerate the paper's evaluation figures (7–10) as text tables.
``scenario``
    Run a single seeded scenario and print the per-member comparison of
    SMRP against the SPF baseline.
``simulate``
    Run the message-level simulator on a random topology, optionally
    injecting a worst-case failure, and print the event summary.
``controller`` (alias ``serve``)
    Host a whole multicast service: hundreds-to-thousands of groups on
    one topology (Zipf source popularity, heavy-tailed sizes, optional
    churn or flash-crowd workloads), inject a failure, restore every
    affected group in one pass, and print the per-group restoration
    table.  The run is declarative (``--spec service.json`` or
    individual flags) and shards over the standard executors —
    ``--jobs 4`` output is byte-identical to serial output.
``protection``
    Run the protection-family figure: restoration latency, recovery
    distance, and standing reserved state for local detour, global
    detour, precomputed per-link backup trees, hybrid, and
    alternate-path recovery across link failure rates.
``distribution``
    Restoration-latency *distribution* figure: host thousands of
    controller groups per engine, inject the same failure everywhere,
    and print p50/p90/p99/p99.9/max latency per engine from
    log-bucketed HDR histograms — the tail-behaviour companion to the
    mean-based figures.  Shards over the standard executors with
    byte-identical output.
``obs``
    Observability artifacts: ``report`` renders a captured run report,
    ``tail`` replays a telemetry flight record, ``export`` renders a run
    report as OpenMetrics text, ``diff`` compares two run reports
    (counters, span self-times, latency quantiles), ``flame`` emits a
    collapsed-stack self-time profile of a run report for flamegraph
    tooling.
``trace``
    Causal restoration traces: ``analyze`` prints per-phase latency
    breakdowns and critical paths, ``export`` converts an NDJSON trace
    to Chrome trace-event JSON (open it at https://ui.perfetto.dev),
    ``diff`` compares two analyses, ``figure`` renders the
    restoration-latency-by-phase figure family.
``info``
    Version and component inventory.

Run flags
---------
The run verbs — ``figures``, ``scenario``, ``simulate``,
``controller``/``serve``, ``protection``, ``distribution`` and
``trace figure`` — all take one shared set of run flags:

- ``--obs-out PATH`` captures a structured run report (metric counters,
  span timings, event accounting) as JSON; ``repro obs report PATH``
  renders it afterwards.
- ``--trace-out PATH`` records causal restoration episodes in simulated
  time (:mod:`repro.obs.tracing`) as an NDJSON trace.
- ``--profile`` wraps the run in a ``prof.run`` span and prints an
  exclusive-self-time profile (where the wall clock went) to stderr.
  Combined with ``--obs-out``, the report carries the span tree plus a
  ``profile_wall_s`` meta field, and ``repro obs flame REPORT`` turns it
  into collapsed stacks.
- ``--progress``, ``--telemetry-out PATH`` and ``--openmetrics-out
  PATH`` stream live telemetry: a stderr progress line (throughput,
  ETA, in-flight, fault counts), an NDJSON flight record of every
  lifecycle record and worker heartbeat (``repro obs tail`` replays
  it), and an OpenMetrics textfile kept fresh for scraping.
- ``--jobs N`` and ``--executor {serial,process,resilient}`` choose how
  work units run.  ``--jobs N`` with ``N > 1`` fans them out over a
  process pool (implying ``--executor process``); results merge
  deterministically in input order, so parallel output is
  byte-identical to serial output.  ``--jobs`` below 1 is rejected, as
  is ``--executor serial`` combined with ``--jobs`` above 1.
- ``--timeout S``, ``--retries N``, ``--checkpoint-dir DIR`` and
  ``--resume`` select the fault-tolerant executor (each implies
  ``--executor resilient``): every work-unit attempt runs in its own
  worker process, a crashed or timed-out attempt is retried with
  exponential backoff, and completed results persist to a
  content-keyed checkpoint store so an interrupted run resumes instead
  of restarting.  ``--inject-fault KIND:INDEX`` (testing/CI) arms a
  deliberate crash, hang, or transient error against one work unit.

Tracing, profiling, telemetry and the executor choice are observe-only:
stdout tables stay byte-identical with or without them, and their
confirmations go to stderr.  A ``simulate`` run is one discrete-event
work unit that emits no lifecycle events; it accepts the flags all the
same and says so.  A configuration the run rejects prints
``repro: error: ...`` and exits 2, like an invalid flag combination.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

import numpy as np


def _add_run_args(parser: argparse.ArgumentParser, run) -> None:
    """Declare the run flags every run verb shares; ``run`` is the verb's
    body (see :func:`_run`)."""
    parser.set_defaults(run=run)
    parser.add_argument("--obs-out", metavar="PATH",
                        help="write an observability run report (JSON)")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write causal restoration episodes (NDJSON)")
    parser.add_argument(
        "--profile", action="store_true",
        help="wrap the run in a prof.run span and print a self-time "
             "profile to stderr (where did the wall clock go?)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (N > 1 implies --executor process)",
    )
    parser.add_argument(
        "--executor", choices=["serial", "process", "resilient"],
        help="how work units run (default: serial; process when "
             "--jobs > 1; resilient when any resilience flag is given)",
    )
    parser.add_argument(
        "--timeout", type=float, metavar="S",
        help="per-unit wall-clock limit in seconds; a hung attempt "
             "is killed and retried (implies --executor resilient)",
    )
    parser.add_argument(
        "--retries", type=int, metavar="N",
        help="re-attempts per unit after a crash, timeout, or "
             "transient error (default 2; implies --executor resilient)",
    )
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="persist completed units to a content-keyed store in DIR "
             "(implies --executor resilient)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="serve units already in --checkpoint-dir from disk "
             "instead of recomputing them",
    )
    parser.add_argument(
        "--inject-fault", action="append", default=[], metavar="KIND:INDEX",
        help=argparse.SUPPRESS,  # testing/CI hook: crash|hang|error:INDEX
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="render a live progress line to stderr while the run goes",
    )
    parser.add_argument(
        "--telemetry-out", metavar="PATH",
        help="append live telemetry records (lifecycle events, worker "
             "heartbeats) to an NDJSON flight record at PATH",
    )
    parser.add_argument(
        "--openmetrics-out", metavar="PATH",
        help="keep an OpenMetrics textfile at PATH refreshed with live "
             "run metrics (atomic replace, scrape-safe)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SMRP (Wu & Shin, DSN 2005) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="regenerate evaluation figures")
    figures.add_argument("--quick", action="store_true",
                         help="reduced grid (4x2 scenarios per point)")
    figures.add_argument("--figure", type=int, choices=[7, 8, 9, 10],
                         help="only this figure")
    _add_run_args(figures, _cmd_figures)

    # Scenario flags default to None: ScenarioConfig holds the defaults.
    scenario = sub.add_parser("scenario", help="run one seeded scenario")
    scenario.add_argument("--n", type=int)
    scenario.add_argument("--group-size", type=int)
    scenario.add_argument("--alpha", type=float)
    scenario.add_argument("--d-thresh", type=float)
    scenario.add_argument("--topology-seed", type=int)
    scenario.add_argument("--member-seed", type=int)
    scenario.add_argument("--knowledge", choices=["full", "query"])
    scenario.add_argument("--no-reshape", action="store_true")
    _add_run_args(scenario, _cmd_scenario)

    simulate = sub.add_parser("simulate", help="message-level simulation")
    simulate.add_argument("--n", type=int, default=40)
    simulate.add_argument("--members", type=int, default=6)
    simulate.add_argument("--seed", type=int, default=1)
    simulate.add_argument("--d-thresh", type=float, default=0.3)
    simulate.add_argument("--fail-worst", action="store_true",
                          help="inject the first member's worst-case failure")
    _add_run_args(simulate, _cmd_simulate)

    # Service flags default to None: ServiceSpec holds the defaults, and
    # a flag given next to --spec is detectable.
    controller = sub.add_parser(
        "controller", aliases=["serve"],
        help="host a multi-group multicast service, fail it, restore it",
    )
    controller.add_argument(
        "--spec", metavar="PATH",
        help="load the full ServiceSpec from a JSON file (individual "
             "spec flags below are then rejected)",
    )
    controller.add_argument("--groups", type=int,
                            help="hosted (source, group) sessions")
    controller.add_argument("--sources", type=int,
                            help="source pool size (Zipf popularity)")
    controller.add_argument("--n", type=int)
    controller.add_argument("--alpha", type=float)
    controller.add_argument("--topology-seed", type=int)
    controller.add_argument("--member-seed", type=int)
    controller.add_argument(
        "--protocol",
        choices=["smrp", "spf", "protection", "hybrid", "alternate"],
    )
    controller.add_argument(
        "--protect-budget", type=int, metavar="F",
        help="protected-link budget for protection/hybrid groups "
             "(backup trees precomputed for the F most-loaded tree links)",
    )
    controller.add_argument("--d-thresh", type=float)
    controller.add_argument(
        "--workload", choices=["static", "poisson", "flash"],
    )
    controller.add_argument(
        "--failure", metavar="MODE",
        help="none, auto (busiest hot-source link), link:U-V, or node:X",
    )
    controller.add_argument(
        "--shard-size", type=int, metavar="N",
        help="groups per shard work unit (part of the spec: checkpoint "
             "identities do not depend on --jobs)",
    )
    _add_run_args(controller, _cmd_controller)

    # Figure flags default to None: the driver signature and the figure
    # registry (repro.api) hold the defaults and the quick grid.
    protection = sub.add_parser(
        "protection",
        help="protection-family figure: reactive vs precomputed recovery",
    )
    protection.add_argument("--quick", action="store_true",
                            help="reduced grid (2x1 scenarios, 2 trials)")
    protection.add_argument(
        "--budget", type=int, metavar="F",
        help="protected-link budget for the backup/hybrid modes",
    )
    protection.add_argument(
        "--rates", type=float, nargs="+", metavar="R",
        help="link failure rates to sweep (default 0.02 0.05 0.1; "
             "quick mode defaults to 0.02 0.1)",
    )
    _add_run_args(protection, _cmd_protection)

    distribution = sub.add_parser(
        "distribution",
        help="restoration-latency distribution: per-engine percentiles "
             "over thousands of controller groups",
    )
    distribution.add_argument(
        "--quick", action="store_true",
        help="reduced grid (engines smrp+spf, 1000 groups each)",
    )
    distribution.add_argument(
        "--engines", nargs="+", metavar="ENGINE",
        choices=["smrp", "spf", "protection", "hybrid", "alternate"],
        help="restoration engines to compare (default: all five; "
             "--quick default: smrp spf)",
    )
    distribution.add_argument(
        "--groups", type=int, metavar="N",
        help="hosted (source, group) sessions per engine "
             "(default 2000; --quick default 1000)",
    )
    distribution.add_argument(
        "--workload", choices=["static", "poisson", "flash"],
    )
    distribution.add_argument(
        "--failure", metavar="MODE",
        help="none, auto (busiest hot-source link), link:U-V, or node:X",
    )
    distribution.add_argument(
        "--shard-size", type=int, metavar="N",
        help="groups per shard work unit (part of the spec: checkpoint "
             "identities do not depend on --jobs)",
    )
    _add_run_args(distribution, _cmd_distribution)

    obs = sub.add_parser("obs", help="observability run artifacts")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report", help="render a run report captured with --obs-out"
    )
    obs_report.add_argument("path", help="run report JSON file")
    obs_tail = obs_sub.add_parser(
        "tail", help="replay a telemetry flight record (--telemetry-out)"
    )
    obs_tail.add_argument("path", help="NDJSON flight record file")
    obs_tail.add_argument(
        "--last", type=int, metavar="N",
        help="only the last N records (the full kind summary still prints)",
    )
    obs_export = obs_sub.add_parser(
        "export", help="render a run report in an exchange format"
    )
    obs_export.add_argument("path", help="run report JSON file")
    obs_export.add_argument(
        "--format", choices=["openmetrics"], default="openmetrics",
        help="output format (default: openmetrics)",
    )
    obs_export.add_argument(
        "--out", metavar="PATH",
        help="write to PATH instead of stdout",
    )
    obs_diff = obs_sub.add_parser(
        "diff", help="compare two run reports (counters, span-time and "
                     "latency-quantile ratios)"
    )
    obs_diff.add_argument("path_a", help="baseline run report JSON file")
    obs_diff.add_argument("path_b", help="candidate run report JSON file")
    obs_diff.add_argument(
        "--fail-over", type=float, metavar="RATIO",
        help="exit nonzero when any span-time or latency-quantile "
             "(p50/p99) ratio (b/a) exceeds RATIO",
    )
    obs_flame = obs_sub.add_parser(
        "flame", help="collapsed-stack self-time profile of a run report "
                      "(flamegraph.pl / speedscope input)"
    )
    obs_flame.add_argument("path", help="run report JSON file (--obs-out)")
    obs_flame.add_argument(
        "--out", metavar="PATH",
        help="write collapsed stacks to PATH instead of stdout",
    )

    trace = sub.add_parser("trace", help="causal restoration traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_analyze = trace_sub.add_parser(
        "analyze", help="per-phase latency breakdown of a trace"
    )
    trace_analyze.add_argument("path", help="NDJSON trace (--trace-out)")
    trace_analyze.add_argument(
        "--check", action="store_true",
        help="validate span nesting and critical-path sums; exit 1 on "
             "any violation",
    )
    trace_export = trace_sub.add_parser(
        "export", help="convert a trace to another format"
    )
    trace_export.add_argument("path", help="NDJSON trace (--trace-out)")
    trace_export.add_argument(
        "--format", choices=["chrome", "ndjson"], default="chrome",
        help="output format (default: chrome trace-event JSON, loadable "
             "at https://ui.perfetto.dev)",
    )
    trace_export.add_argument(
        "--out", metavar="PATH",
        help="write to PATH instead of stdout",
    )
    trace_diff = trace_sub.add_parser(
        "diff", help="compare the phase breakdowns of two traces"
    )
    trace_diff.add_argument("path_a", help="baseline NDJSON trace")
    trace_diff.add_argument("path_b", help="candidate NDJSON trace")
    trace_diff.add_argument(
        "--fail-over", type=float, metavar="RATIO",
        help="exit nonzero when any per-phase relative delta exceeds RATIO",
    )
    trace_figure = trace_sub.add_parser(
        "figure", help="restoration latency breakdown by phase"
    )
    trace_figure.add_argument("--quick", action="store_true",
                              help="reduced grid (4x2 scenarios)")
    _add_run_args(trace_figure, _cmd_trace_figure)

    sub.add_parser("info", help="version and component inventory")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "run", None) is not None:
        return _run(args)
    handlers = {
        "obs": _cmd_obs,
        "trace": _cmd_trace,
        "info": _cmd_info,
    }
    return handlers[args.command](args)


def _run(args: argparse.Namespace) -> int:
    """The one run path every run verb goes through.

    It owns the obs, telemetry and executor set-up, the ``--profile``
    scope, the mapping of :class:`~repro.errors.ConfigurationError` to
    ``repro: error: …`` with exit 2, and writing the run report and the
    trace.  The verb's body, ``args.run(args, obs, executor)``, does the
    work, prints its tables and returns the report's meta fields.
    """
    from repro.errors import ConfigurationError

    obs = _make_obs(args)
    telemetry = _make_telemetry(args)
    executor = _make_executor(args, telemetry=telemetry)
    scope = _ProfileScope(args, obs)
    try:
        with scope, executor:
            meta = args.run(args, obs, executor)
    except ConfigurationError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if telemetry is not None:
            telemetry.close()
    meta.update(executor=executor.kind, jobs=args.jobs)
    _write_obs_report(args, obs, scope.annotate(meta))
    _write_trace_out(args, obs)
    return 0


def _make_obs(args: argparse.Namespace):
    """The run's Observability, or None when no capture flag was given.

    ``--obs-out`` (or ``--profile``, which needs the span profiler)
    enables the metrics/spans/events instruments; ``--trace-out``
    attaches a restoration tracer.  A trace-only run keeps the other
    instruments disabled, so the tracer is the only live
    instrumentation.
    """
    if args.obs_out is None and args.trace_out is None and not args.profile:
        return None
    # Fail fast on an unwritable destination rather than after the run.
    if args.obs_out is not None:
        _check_out_dir("--obs-out", args.obs_out)
    if args.trace_out is not None:
        _check_out_dir("--trace-out", args.trace_out)
    from repro.obs import Observability, RestorationTracer

    return Observability(
        enabled=args.obs_out is not None or args.profile,
        tracer=RestorationTracer() if args.trace_out is not None else None,
    )


def _check_out_dir(flag: str, path: str) -> None:
    """Fail fast (exit 2) when an output path's directory is missing."""
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        print(
            f"repro: error: {flag} directory does not exist: {parent}",
            file=sys.stderr,
        )
        raise SystemExit(2)


def _wants_telemetry(args: argparse.Namespace) -> bool:
    return (
        args.progress
        or args.telemetry_out is not None
        or args.openmetrics_out is not None
    )


def _make_telemetry(args: argparse.Namespace):
    """A TelemetryHub wired to the sinks the flags asked for, else None.

    ``--progress`` adds a stderr progress renderer, ``--telemetry-out``
    an NDJSON flight recorder, ``--openmetrics-out`` an OpenMetrics
    textfile exporter.  No flags, no hub — the executors then skip all
    telemetry work.
    """
    if not _wants_telemetry(args):
        return None
    from repro.obs import (
        FlightRecorder,
        OpenMetricsSink,
        ProgressSink,
        TelemetryHub,
    )

    sinks = []
    if args.progress:
        sinks.append(ProgressSink())
    if args.telemetry_out is not None:
        _check_out_dir("--telemetry-out", args.telemetry_out)
        sinks.append(FlightRecorder(args.telemetry_out))
    if args.openmetrics_out is not None:
        _check_out_dir("--openmetrics-out", args.openmetrics_out)
        sinks.append(OpenMetricsSink(args.openmetrics_out))
    return TelemetryHub(sinks=sinks)


def _make_executor(args: argparse.Namespace, telemetry=None):
    """Build the executor requested by ``--jobs`` / ``--executor`` and the
    resilience flags.

    Any of ``--timeout`` / ``--retries`` / ``--checkpoint-dir`` /
    ``--resume`` / ``--inject-fault`` implies ``--executor resilient``;
    combining them with an explicit serial/process executor is a usage
    error.  Exits with status 2 (usage error) on invalid combinations:
    ``--jobs`` below 1, an explicit ``--executor serial`` with ``--jobs``
    above 1, ``--resume`` without ``--checkpoint-dir``, or a malformed
    ``--inject-fault``.
    """
    from repro.errors import ConfigurationError
    from repro.experiments.exec.executor import resolve_executor

    kind = args.executor
    resilience_flags = (
        args.timeout is not None
        or args.retries is not None
        or args.checkpoint_dir is not None
        or args.resume
        or bool(args.inject_fault)
    )
    if kind is not None and kind != "resilient" and resilience_flags:
        print(
            "repro: error: --timeout/--retries/--checkpoint-dir/--resume/"
            f"--inject-fault require --executor resilient, not {kind}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    try:
        policy = None
        if kind == "resilient" or resilience_flags:
            from repro.experiments.exec.resilience import ExecPolicy

            policy_kwargs = {}
            if args.timeout is not None:
                policy_kwargs["timeout"] = args.timeout
            if args.retries is not None:
                policy_kwargs["retries"] = args.retries
            if args.checkpoint_dir is not None:
                policy_kwargs["checkpoint_dir"] = args.checkpoint_dir
            policy_kwargs["resume"] = args.resume
            policy = ExecPolicy(**policy_kwargs)
        # The shared combination-rule authority — the facade rejects the
        # same bad combinations with the same message text.
        executor, _ = resolve_executor(
            kind=kind, jobs=args.jobs, policy=policy, telemetry=telemetry
        )
        for spec in args.inject_fault:
            fault, sep, index = spec.partition(":")
            if not sep or not index.lstrip("-").isdigit():
                raise ConfigurationError(
                    f"--inject-fault expects KIND:INDEX, got {spec!r}"
                )
            executor.inject_fault(int(index), fault)
        return executor
    except ConfigurationError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _write_obs_report(args: argparse.Namespace, obs, meta: dict) -> None:
    if obs is None or args.obs_out is None:
        return
    from repro.obs import write_run_report

    write_run_report(obs.run_report(meta=meta), args.obs_out)
    print(f"\nobservability report written to {args.obs_out}")


def _write_trace_out(args: argparse.Namespace, obs) -> None:
    """Write the tracer's episodes as NDJSON when ``--trace-out`` was on.

    The confirmation goes to stderr: tracing is observe-only and stdout
    must stay byte-identical to an untraced run.
    """
    if args.trace_out is None or obs is None or obs.tracer is None:
        return
    from repro.obs import write_trace_ndjson

    tracer = obs.tracer
    tracer.finalize()
    count = write_trace_ndjson(
        tracer.episodes,
        args.trace_out,
        dropped=tracer.dropped,
        trimmed=tracer.trimmed,
        abandoned=tracer.abandoned,
    )
    print(
        f"restoration trace ({count} episodes) written to {args.trace_out}",
        file=sys.stderr,
    )


class _ProfileScope:
    """Wall-clock + ``prof.run`` span wrapper for ``--profile`` runs.

    Entering starts the clock and (when profiling) opens a ``prof.run``
    span so every span the command emits nests under one root — which is
    what makes the exclusive self-time decomposition sum back to the
    measured wall clock on a serial run.  Exiting closes the span,
    records ``wall_s``, and prints the rendered profile to stderr
    (stdout must stay byte-identical to an unprofiled run).
    """

    def __init__(self, args: argparse.Namespace, obs) -> None:
        self.enabled = args.profile and obs is not None
        self._obs = obs
        self._span = None
        self._start: float | None = None
        self.wall_s: float | None = None

    def __enter__(self) -> "_ProfileScope":
        from time import perf_counter

        self._start = perf_counter()
        if self.enabled:
            self._span = self._obs.span("prof.run")
            self._span.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        from time import perf_counter

        if self._span is not None:
            self._span.__exit__(exc_type, exc, tb)
            self._span = None
        self.wall_s = perf_counter() - self._start
        if self.enabled and exc_type is None:
            from repro.obs import render_profile

            print(
                render_profile(self._obs.spans.report(), wall_s=self.wall_s),
                file=sys.stderr,
            )
        return False

    def annotate(self, meta: dict) -> dict:
        """Stamp the measured wall clock into an obs-report meta dict."""
        if self.enabled and self.wall_s is not None:
            meta["profile_wall_s"] = round(self.wall_s, 6)
        return meta


# ----------------------------------------------------------------------
# Run verbs: each body runs inside _run and returns its report meta.
# ----------------------------------------------------------------------
def _given(args: argparse.Namespace, names: Sequence[str]) -> dict:
    """The flags among ``names`` that were given (not left at None)."""
    return {
        name: getattr(args, name)
        for name in names
        if getattr(args, name) is not None
    }


def _show_figure(name: str, args, obs, executor, flags: Sequence[str] = ()):
    """Run a registered figure and print its header and table.  Of
    ``flags``, only those given override the registry and the driver."""
    from repro.api import _FIGURES, build_figure

    result = build_figure(
        name, quick=args.quick, executor=executor, obs=obs,
        **_given(args, flags),
    )
    header = _FIGURES[name].header
    if header is not None:
        print(header)
    print(result.render())
    return result


def _cmd_figures(args: argparse.Namespace, obs, executor) -> dict:
    figures_run = [args.figure] if args.figure else [7, 8, 9, 10]
    for figure in figures_run:
        _show_figure(f"fig{figure}", args, obs, executor)
        print()
    return {"command": "figures", "figures": figures_run, "quick": args.quick}


def _cmd_protection(args: argparse.Namespace, obs, executor) -> dict:
    result = _show_figure(
        "protection", args, obs, executor, ("budget", "rates")
    )
    return {"command": "protection", "quick": args.quick, "budget": result.budget}


def _cmd_distribution(args: argparse.Namespace, obs, executor) -> dict:
    result = _show_figure(
        "distribution", args, obs, executor,
        ("engines", "groups", "workload", "failure", "shard_size"),
    )
    return {
        "command": "distribution",
        "engines": [entry.engine for entry in result.engines],
        "groups": result.groups,
        "quick": args.quick,
    }


def _cmd_trace_figure(args: argparse.Namespace, obs, executor) -> dict:
    _show_figure("phases", args, obs, executor)
    return {"command": "trace figure", "quick": args.quick}


_SCENARIO_FLAGS = (
    "n", "group_size", "alpha", "d_thresh", "topology_seed", "member_seed",
    "knowledge",
)


def _cmd_scenario(args: argparse.Namespace, obs, executor) -> dict:
    from repro.experiments.scenario import ScenarioConfig
    from repro.experiments.tables import format_table
    from repro.metrics.stats import summarize

    config = ScenarioConfig(
        **_given(args, _SCENARIO_FLAGS), reshape_enabled=not args.no_reshape
    )
    result, = executor.map_scenarios([config], obs=obs)
    print(f"scenario: {config.describe()}")
    print(f"source {result.source}, avg degree "
          f"{result.average_degree:.2f}, reshapes {result.smrp_reshapes}, "
          f"fallback joins {result.smrp_fallback_joins}")
    rows = []
    for m in result.measurements:
        rows.append([
            str(m.member),
            f"{m.rd_spf_global:.1f}" if m.rd_spf_global is not None else "—",
            f"{m.rd_smrp_local:.1f}" if m.rd_smrp_local is not None else "—",
            f"{m.delay_spf:.1f}",
            f"{m.delay_smrp:.1f}",
        ])
    print(format_table(
        ["member", "RD SPF", "RD SMRP", "delay SPF", "delay SMRP"], rows
    ))
    if result.rd_relative:
        print(f"\nRD_relative   {summarize(result.rd_relative)}")
        print(f"D_relative    {summarize(result.delay_relative)}")
    print(f"Cost_relative {result.cost_relative:+.4f}")
    if result.unrecoverable_members:
        print(f"unrecoverable members: {result.unrecoverable_members}")
    return {"command": "scenario", "config": config.describe()}


def _cmd_simulate(args: argparse.Namespace, obs, executor) -> dict:
    from repro.graph.waxman import WaxmanConfig, waxman_topology
    from repro.core.recovery import worst_case_failure
    from repro.sim.failures import FailureSchedule
    from repro.sim.protocols import SmrpSimulation

    # One DES run is a single work unit: a pool would sit idle.
    if args.jobs > 1:
        print("note: simulate is a single work unit; --jobs has no effect")
    if _wants_telemetry(args):
        print("note: live telemetry covers scenario sweeps; a simulate "
              "run emits no lifecycle events")

    topology = waxman_topology(
        WaxmanConfig(n=args.n, alpha=0.4, beta=0.3, seed=args.seed)
    ).topology
    rng = np.random.default_rng(args.seed + 1)
    members = [
        int(m)
        for m in rng.choice(range(1, args.n), args.members, replace=False)
    ]
    sim = SmrpSimulation(topology, 0, d_thresh=args.d_thresh, obs=obs)
    spacing = 50.0 * max(l.delay for l in topology.links())
    for i, m in enumerate(members):
        sim.schedule_join(spacing * (i + 1), m)
    settle = spacing * (len(members) + 2)
    sim.run(until=settle)
    tree = sim.extract_tree()
    print(f"network: {topology}")
    print(f"tree after joins: {tree}")
    for m, record in sorted(sim.join_records.items()):
        latency = f"{record.latency:.1f}" if record.latency is not None else "pending"
        print(f"  member {m:3}: join latency {latency}")
    if args.fail_worst and members:
        failure = worst_case_failure(tree, members[0])
        (u, v), = failure.failed_links
        FailureSchedule().fail_link_at(settle + 1.0, u, v).arm(sim.sim, sim.network)
        sim.run(until=settle + 60 * spacing)
        print(f"\ninjected failure: {failure.describe()}")
        for record in sim.recovery_records:
            status = (
                f"restored at t={record.restored_at:.1f} "
                f"(latency {record.restoration_latency:.1f})"
                if record.restored_at is not None
                else "not restored"
            )
            print(f"  node {record.detector}: detected at "
                  f"t={record.detected_at:.1f}, {status}")
    print(f"\nmessages: {sim.network.stats.by_kind}")
    return {
        "command": "simulate",
        "n": args.n,
        "members": args.members,
        "seed": args.seed,
        "d_thresh": args.d_thresh,
        "fail_worst": args.fail_worst,
    }


#: ``controller`` flags that mirror ServiceSpec fields.
_CONTROLLER_SPEC_FLAGS = (
    "groups", "sources", "n", "alpha", "topology_seed", "member_seed",
    "protocol", "d_thresh", "workload", "failure", "shard_size",
    "protect_budget",
)


def _controller_spec(args: argparse.Namespace):
    """The run's ServiceSpec from ``--spec`` JSON or individual flags."""
    from repro.controller import ServiceSpec
    from repro.errors import ConfigurationError

    given = _given(args, _CONTROLLER_SPEC_FLAGS)
    if args.spec is None:
        return ServiceSpec(**given)
    if given:
        flags = sorted("--" + name.replace("_", "-") for name in given)
        raise ConfigurationError(
            f"--spec replaces the whole service spec; drop {', '.join(flags)}"
        )
    try:
        with open(args.spec, "r", encoding="utf-8") as handle:
            return ServiceSpec.from_json(handle.read())
    except FileNotFoundError:
        raise ConfigurationError(f"no such file: {args.spec}") from None


def _cmd_controller(args: argparse.Namespace, obs, executor) -> dict:
    from repro.api import run_service

    spec = _controller_spec(args)
    report = run_service(spec, executor=executor, obs=obs)
    print(report.render_table())
    return {
        "command": "controller",
        "spec": spec.describe(),
        "key": spec.content_key(),
    }


def _load_report_or_fail(path: str):
    import json

    from repro.errors import ConfigurationError
    from repro.obs import load_run_report

    try:
        return load_run_report(path)
    except FileNotFoundError:
        print(f"repro: error: no such file: {path}", file=sys.stderr)
        raise _ObsError
    except (ConfigurationError, json.JSONDecodeError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        raise _ObsError


class _ObsError(Exception):
    """Internal: an obs subcommand already printed its error; exit 1."""


def _cmd_obs(args: argparse.Namespace) -> int:
    handlers = {
        "report": _cmd_obs_report,
        "tail": _cmd_obs_tail,
        "export": _cmd_obs_export,
        "diff": _cmd_obs_diff,
        "flame": _cmd_obs_flame,
    }
    try:
        return handlers[args.obs_command](args)
    except _ObsError:
        return 1


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs import render_run_report

    print(render_run_report(_load_report_or_fail(args.path)))
    return 0


def _cmd_obs_tail(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.obs import load_flight_record, render_flight_record

    try:
        records = load_flight_record(args.path)
    except FileNotFoundError:
        print(f"repro: error: no such file: {args.path}", file=sys.stderr)
        return 1
    except ConfigurationError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1
    print(render_flight_record(records, last=args.last))
    return 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    from repro.obs import render_openmetrics

    report = _load_report_or_fail(args.path)
    text = render_openmetrics(report)
    if args.out is not None:
        _check_out_dir("--out", args.out)
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"openmetrics written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    from repro.obs import (
        diff_run_reports,
        max_regression_ratio,
        render_report_diff,
    )

    report_a = _load_report_or_fail(args.path_a)
    report_b = _load_report_or_fail(args.path_b)
    diff = diff_run_reports(report_a, report_b)
    print(render_report_diff(diff, threshold=args.fail_over))
    if (
        args.fail_over is not None
        and max_regression_ratio(diff) > args.fail_over
    ):
        print(
            f"repro: obs diff: span-time or latency-quantile ratio "
            f"exceeds --fail-over {args.fail_over:g}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_obs_flame(args: argparse.Namespace) -> int:
    """Collapsed-stack export: one line per span path, weight = exclusive
    self-time in microseconds.  Pipe into flamegraph.pl or load into
    speedscope; the summary (frames, covered self time, wall-clock
    coverage when the report was captured with ``--profile``) goes to
    stderr so stdout stays clean collapsed-stack data."""
    from repro.obs import collapse_stacks, self_time_total

    report = _load_report_or_fail(args.path)
    spans = report.get("spans", {})
    lines = collapse_stacks(spans)
    text = "".join(line + "\n" for line in lines)
    covered = self_time_total(spans)
    if args.out is not None:
        _check_out_dir("--out", args.out)
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"collapsed stacks ({len(lines)} frames) written to {args.out}")
    else:
        sys.stdout.write(text)
    print(
        f"{len(lines)} frames, {covered:.3f}s total self time",
        file=sys.stderr,
    )
    wall = report.get("meta", {}).get("profile_wall_s")
    if isinstance(wall, (int, float)) and wall > 0:
        print(
            f"wall-clock coverage: {covered / wall:.1%} of "
            f"{wall:.3f}s measured wall",
            file=sys.stderr,
        )
    return 0


def _load_trace_or_fail(path: str):
    from repro.errors import ConfigurationError
    from repro.obs import read_trace_ndjson

    try:
        return read_trace_ndjson(path)
    except FileNotFoundError:
        print(f"repro: error: no such file: {path}", file=sys.stderr)
        raise _ObsError
    except ConfigurationError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        raise _ObsError


def _cmd_trace(args: argparse.Namespace) -> int:
    handlers = {
        "analyze": _cmd_trace_analyze,
        "export": _cmd_trace_export,
        "diff": _cmd_trace_diff,
    }
    try:
        return handlers[args.trace_command](args)
    except _ObsError:
        return 1


def _cmd_trace_analyze(args: argparse.Namespace) -> int:
    from repro.obs import TraceAnalyzer

    trace_file = _load_trace_or_fail(args.path)
    analyzer = TraceAnalyzer(trace_file.episodes)
    print(analyzer.render())
    if args.check:
        problems = analyzer.check()
        if problems:
            for problem in problems:
                print(f"repro: trace check: {problem}", file=sys.stderr)
            return 1
        print(
            f"trace check passed: {len(trace_file.episodes)} episodes valid",
            file=sys.stderr,
        )
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    import json

    from repro.obs import chrome_trace_document
    from repro.obs.tracing import write_trace_ndjson

    trace_file = _load_trace_or_fail(args.path)
    if args.out is not None:
        _check_out_dir("--out", args.out)
    if args.format == "chrome":
        document = chrome_trace_document(trace_file.episodes)
        text = json.dumps(document, sort_keys=True, indent=1) + "\n"
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"chrome trace ({len(trace_file.episodes)} episodes) "
                  f"written to {args.out} — open it at https://ui.perfetto.dev")
        else:
            sys.stdout.write(text)
        return 0
    if args.out is None:
        print(
            "repro: error: --format ndjson requires --out "
            "(the NDJSON writer targets a file)",
            file=sys.stderr,
        )
        return 1
    count = write_trace_ndjson(
        trace_file.episodes,
        args.out,
        dropped=trace_file.dropped,
        trimmed=trace_file.trimmed,
        abandoned=trace_file.abandoned,
    )
    print(f"trace ({count} episodes) written to {args.out}")
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    from repro.obs.tracing import TraceAnalyzer, diff_analyses

    file_a = _load_trace_or_fail(args.path_a)
    file_b = _load_trace_or_fail(args.path_b)
    text, max_delta = diff_analyses(
        TraceAnalyzer(file_a.episodes), TraceAnalyzer(file_b.episodes)
    )
    print(text)
    if args.fail_over is not None and max_delta > args.fail_over:
        print(
            f"repro: trace diff: per-phase relative delta exceeds "
            f"--fail-over {args.fail_over:g}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    import repro

    print(f"repro {repro.__version__} — SMRP (Wu & Shin, DSN 2005) reproduction")
    components = [
        ("repro.graph", "Waxman / transit-stub / N-level topologies"),
        ("repro.routing", "SPF, routing tables, KSP, disjoint pairs, LSDB"),
        ("repro.multicast", "tree structure, SPF/TM baselines, protection"),
        ("repro.core", "SMRP: SHR, join/leave, reshaping, recovery, domains"),
        ("repro.sim", "discrete-event simulator + distributed protocol"),
        ("repro.metrics", "RD/delay/cost metrics and confidence intervals"),
        ("repro.experiments", "figure drivers and parameter sweeps"),
        ("repro.experiments.exec",
         "ExperimentSpec, executors, resilience, substrate cache"),
        ("repro.controller",
         "multi-group service: ServiceSpec, controller, sharded runs"),
        ("repro.obs",
         "metrics + hdr histograms, span/self-time profiling, run "
         "reports, live telemetry"),
        ("repro.api",
         "stable facade: sessions, run_scenario/run_sweep/"
         "build_figure/run_service"),
    ]
    for name, description in components:
        print(f"  {name:24} {description}")
    print("\nrun flags — one set, shared by every run verb (figures, "
          "scenario, simulate,\n"
          "  controller/serve, protection, distribution, trace figure):\n"
          "parallel execution: --jobs N and --executor "
          "{serial,process,resilient};\n"
          "  --jobs N > 1 fans work units over a process pool with "
          "deterministic merging.\n"
          "resilient execution: --timeout S, --retries N, "
          "--checkpoint-dir DIR, --resume;\n"
          "  crashed/hung units are retried with backoff and completed "
          "results persist for resume,\n"
          "  with output byte-identical to a clean serial run.\n"
          "live telemetry: --progress (stderr progress line), "
          "--telemetry-out PATH (NDJSON flight record),\n"
          "  --openmetrics-out PATH (scrapeable textfile); all "
          "observe-only.  repro obs tail/export/diff\n"
          "  replay a flight record, render OpenMetrics, and compare two "
          "run reports.\n"
          "run reports and tracing: --obs-out PATH writes a JSON run "
          "report; --trace-out PATH records\n"
          "  causal restoration episodes in simulated time; repro trace "
          "analyze/export/diff/figure render\n"
          "  per-phase latency breakdowns, Perfetto-loadable Chrome trace "
          "JSON, analysis diffs, and the\n"
          "  latency-by-phase figure.\n"
          "profiling: --profile prints a self-time profile to stderr; "
          "repro obs flame turns a captured\n"
          "  report into collapsed stacks for flamegraph tooling.\n"
          "latency distributions: repro distribution prints per-engine "
          "p50/p90/p99/p99.9\n"
          "  restoration-latency tables from hdr histograms.")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
