"""Tests of the benchmark itself, at tiny sizes.

    python -m pytest perfbench -q

They check that every metric named in ``BENCHMARK.json`` is emitted with
its unit, that a corrupted output is reported as failed operations, and
that the traced run's shims leave results byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: A seed with no recorded digest, so only the built-in checks apply.
SEED = 99


class TinySweep(workloads.Sweep):
    figures = (7,)


class TinyFailover(workloads.Failover):
    n = 40
    groups = 10
    strata = 3
    prefix = 6


class TinyChurn(workloads.Churn):
    n = 30
    groups = 6
    churn_duration = 60.0
    prefix = 40


class TinyDes(workloads.Des):
    n = 20
    members = 3
    horizon_spacings = 30.0
    prefix = 2


TINY = (TinySweep, TinyFailover, TinyChurn, TinyDes)


def units(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


@pytest.mark.parametrize("cls", TINY, ids=lambda cls: cls.name)
def test_end_to_end_metrics_are_emitted_with_units(cls):
    outcome, metrics, _ = bench.untraced(cls(SEED, ROOT), 0.0, 0.5, {})
    assert outcome.failed == 0, outcome.errors
    assert outcome.attempted > 0
    assert {name: unit for name, (_, unit) in metrics.items()} == units("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("cls", TINY, ids=lambda cls: cls.name)
def test_traced_run_is_byte_identical_and_emits_every_layer(cls):
    outcome, metrics, digests = bench.traced(cls(SEED, ROOT), 0.5, {})
    assert digests["digest"] == digests["traced_digest"]
    assert outcome.failed == 0, outcome.errors
    assert {name: unit for name, (_, unit) in metrics.items()} == units("per_layer")


def test_paper_grid_matches_golden_tables_on_default_seed():
    outcome = TinySweep(0, ROOT).run(None, ops=2)
    assert outcome.failed == 0, outcome.errors
    assert outcome.attempted == 10  # two passes of Figure 7's five scenarios


def test_corrupted_restoration_row_counts_as_failed(monkeypatch):
    clean = TinyFailover(SEED, ROOT)
    reference = clean.run(clean.setup(), ops=clean.prefix)
    assert reference.failed == 0
    expected = {"failover": {str(SEED): reference.digest}}

    original = workloads.MulticastController.restore
    corrupted = []

    def restore(controller, failures=None):
        dispatch = original(controller, failures)
        if dispatch.rows and not corrupted:
            row = dispatch.rows[0]
            bad = dataclasses.replace(row, restored=row.affected + 1)
            dispatch = dataclasses.replace(dispatch, rows=(bad,) + dispatch.rows[1:])
            corrupted.append(bad)
        return dispatch

    monkeypatch.setattr(workloads.MulticastController, "restore", restore)
    workload = TinyFailover(SEED, ROOT)
    outcome = workload.run(workload.setup(), ops=workload.prefix)
    assert corrupted, "no dispatch affected any group"
    assert outcome.failed >= 1  # the row's own invariant
    bench.check_digest(workload, outcome, expected)
    assert outcome.digest != reference.digest
    assert outcome.failed >= 1 + outcome.prefix_attempted


def test_tracer_restores_every_rebound_function():
    import repro.core.protocol
    import repro.routing.spf

    original = repro.routing.spf.dijkstra
    join = repro.core.protocol.SMRPProtocol.join
    with Tracer():
        assert repro.routing.spf.dijkstra is not original
        assert repro.core.protocol.dijkstra is repro.routing.spf.dijkstra
    assert repro.routing.spf.dijkstra is original
    assert repro.core.protocol.dijkstra is original
    assert repro.core.protocol.SMRPProtocol.join is join


def test_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "des", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
