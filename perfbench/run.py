"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload failover --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the workload's checked prefix twice, untraced and
then with the per-layer shims of ``tracer.py`` installed, and reports
the per-layer metrics; its result is correct only if both passes give
the same digest.  See ``perfbench/README.md``.

The last line of standard output is the result object; the line before
it carries the machine fingerprint, digests and workload details.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from pace import BUFFER_BYTES, Pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"

#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "failover", "churn", "des"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fingerprint() -> dict:
    """Enough about the machine and the code to tell one change from the
    other: core count, CPU model, interpreter, numpy, networkx, git SHA."""
    import networkx
    import numpy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "git_sha": sha,
    }


def quantile_ms(samples, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile, in ms.

    It weights every order statistic by a beta density centred on rank
    ``q * (n + 1)`` instead of interpolating the two nearest ones, so a
    tail quantile rests on the dozen samples around it: on a shared host
    single operations jitter by +-15% from run to run, and a p95 read off
    two samples inherits most of that.
    """
    import numpy
    from scipy.stats import beta

    ordered = numpy.sort(numpy.asarray(samples, dtype=float))
    n = len(ordered)
    edges = beta.cdf(numpy.arange(n + 1) / n, q * (n + 1), (1 - q) * (n + 1))
    weights = numpy.diff(edges)
    return float(weights @ ordered) * 1e3


def peak_rss_mb() -> float:
    """Peak resident memory of the program: the process's peak less the
    speed reference's buffer, which is resident from before set-up to
    the end of the run."""
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (peak_kib - BUFFER_BYTES / 1024) / 1024


def load_expected() -> dict:
    """Recorded prefix digests: ``{workload: {seed: digest}}``."""
    return json.loads(EXPECTED.read_text())


def check_digest(workload, outcome, expected: dict) -> None:
    """Compare the prefix digest with the recorded one, when this seed has
    one; a mismatch fails every operation of the checked prefix."""
    recorded = expected.get(workload.name, {}).get(str(workload.seed))
    if recorded is not None and outcome.digest != recorded:
        outcome.fail(
            outcome.prefix_attempted,
            f"digest {outcome.digest} differs from the recorded {recorded}",
        )


def untraced(workload, seconds: float, import_s: float, expected: dict):
    pace = Pace()
    workload.pace = pace
    setups = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        pace.tick()
        start = time.process_time()
        state = workload.setup()
        setups.append(time.process_time() - start)
    outcome = workload.run(state, seconds=seconds)
    check_digest(workload, outcome, expected)
    raw = {
        "throughput_per_s": outcome.work / outcome.busy_s,
        "op_p50_ms": quantile_ms(outcome.latencies_s, 0.50),
        "op_p95_ms": quantile_ms(outcome.latencies_s, 0.95),
    }
    # Set-up is reported unscaled: over ten same-seed runs per workload,
    # scaling narrowed its spread on two workloads and widened it on the
    # other two (imports do not follow the reference burst's speed).
    scale = pace.factor()
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "throughput_per_s": (raw["throughput_per_s"] / scale, "1/s"),
        "op_p50_ms": (raw["op_p50_ms"] * scale, "ms"),
        "op_p95_ms": (raw["op_p95_ms"] * scale, "ms"),
    }
    outcome.detail.update(
        raw_metrics=raw,
        pace_factor=scale,
        pace_bursts=len(pace.bursts),
        setup_runs_s=[round(s, 4) for s in setups],
        timed_ops=len(outcome.latencies_s),
    )
    return outcome, metrics, {"digest": outcome.digest}


def scaled_prefix(workload, extra=None):
    """Run the checked prefix once; return the outcome and its timed
    seconds scaled by the speed reference (the passes of a traced run
    are compared with each other, so each gets its own factor)."""
    pace = Pace()
    workload.pace = pace
    outcome = workload.run(workload.setup(), ops=workload.prefix, extra=extra)
    return outcome, outcome.busy_s * pace.factor()


def traced(workload, import_s: float, expected: dict):
    from tracer import Tracer, layer_metrics

    base, base_s = scaled_prefix(workload)
    check_digest(workload, base, expected)
    obs_ratio = 0.0
    if workload.name == "des":
        workload.obs_enabled = False
        _, silent_s = scaled_prefix(workload)
        workload.obs_enabled = True
        obs_ratio = base_s / silent_s
    extra: dict = {}
    with Tracer() as tracer:
        workload.tracer = tracer
        try:
            outcome, traced_s = scaled_prefix(workload, extra)
        finally:
            workload.tracer = None
    if outcome.digest != base.digest:
        outcome.fail(
            outcome.attempted,
            f"traced digest {outcome.digest} differs from untraced {base.digest}",
        )
    outcome.attempted += base.attempted
    outcome.failed += base.failed
    outcome.errors.extend(base.errors)
    metrics = layer_metrics(tracer, extra)
    metrics["obs.overhead_ratio"] = (obs_ratio, "ratio")
    metrics["import_s"] = (import_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / base_s, "ratio")
    return outcome, metrics, {"digest": base.digest, "traced_digest": outcome.digest}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS  # imports the program: part of set-up

    # CPU time since the process started, like every timing here (see
    # ``workloads.cpu_time``): interpreter start-up plus the imports.
    import_s = time.process_time()

    workload = WORKLOADS[args.workload](args.seed, ROOT)
    if args.trace:
        outcome, metrics, digests = traced(workload, import_s, load_expected())
    else:
        outcome, metrics, digests = untraced(
            workload, args.seconds, import_s, load_expected()
        )
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(),
        **digests,
        "detail": outcome.detail,
        "errors": outcome.errors,
    }
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
