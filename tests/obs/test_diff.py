"""Run-report diffing (``repro obs diff``)."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    Observability,
    build_run_report,
    diff_run_reports,
    max_span_ratio,
    render_report_diff,
    span_totals,
)
from repro.obs.diff import SPAN_NOISE_FLOOR_S


def report_with(counters=(), span_seconds=()):
    """A minimal run report with given counters and flat span totals."""
    return {
        "version": 1,
        "meta": {},
        "metrics": {"counters": dict(counters), "gauges": {}, "hdr_histograms": {}},
        "spans": {
            "name": "<root>",
            "calls": 0,
            "total_s": 0.0,
            "self_s": 0.0,
            "children": [
                {"name": name, "calls": 1, "total_s": seconds,
                 "self_s": seconds, "children": []}
                for name, seconds in span_seconds
            ],
        },
        "events": {"recorded": 0, "dropped": 0},
    }


class TestSpanTotals:
    def test_sums_name_across_depths(self):
        tree = {
            "name": "<root>",
            "children": [
                {"name": "a", "calls": 1, "total_s": 1.0, "children": [
                    {"name": "a", "calls": 2, "total_s": 0.5, "children": []},
                ]},
            ],
        }
        totals = span_totals(tree)
        assert totals["a"] == (3, 1.5)

    def test_empty_tree(self):
        assert span_totals({}) == {}


class TestDiffRunReports:
    def test_only_changed_counters_reported(self):
        a = report_with(counters={"same": 5, "grew": 1})
        b = report_with(counters={"same": 5, "grew": 3, "new": 2})
        diff = diff_run_reports(a, b)
        assert "same" not in diff["counters"]
        assert diff["counters"]["grew"] == {"a": 1, "b": 3, "delta": 2}
        assert diff["counters"]["new"] == {"a": 0, "b": 2, "delta": 2}

    def test_span_ratio_b_over_a(self):
        a = report_with(span_seconds=[("work", 1.0)])
        b = report_with(span_seconds=[("work", 2.5)])
        diff = diff_run_reports(a, b)
        assert diff["spans"]["work"]["ratio"] == pytest.approx(2.5)
        assert max_span_ratio(diff) == pytest.approx(2.5)

    def test_noise_floor_masks_tiny_spans(self):
        tiny = SPAN_NOISE_FLOOR_S / 10
        a = report_with(span_seconds=[("blip", tiny)])
        b = report_with(span_seconds=[("blip", tiny * 5)])
        diff = diff_run_reports(a, b)
        assert diff["spans"]["blip"]["ratio"] is None
        assert max_span_ratio(diff) == 0.0

    def test_appeared_and_vanished_spans(self):
        a = report_with(span_seconds=[("gone", 1.0)])
        b = report_with(span_seconds=[("born", 1.0)])
        diff = diff_run_reports(a, b)
        assert math.isinf(diff["spans"]["born"]["ratio"])
        assert diff["spans"]["gone"]["ratio"] == 0.0

    def test_rejects_non_reports(self):
        good = report_with()
        with pytest.raises(ConfigurationError, match="not a repro run report"):
            diff_run_reports(good, {"junk": 1})
        with pytest.raises(ConfigurationError, match="not a repro run report"):
            diff_run_reports([], good)

    def test_real_reports_self_diff_is_clean(self):
        obs = Observability()
        with obs.span("demo.work"):
            obs.counter("demo.widgets").inc(3)
        report = build_run_report(obs)
        diff = diff_run_reports(report, report)
        assert diff["counters"] == {}
        ratio = diff["spans"].get("demo.work", {}).get("ratio")
        assert ratio is None or ratio == pytest.approx(1.0)


class TestRenderReportDiff:
    def test_identical_reports(self):
        a = report_with(counters={"x": 1})
        text = render_report_diff(diff_run_reports(a, a))
        assert "counters: identical" in text

    def test_changed_counters_and_threshold_flag(self):
        a = report_with(counters={"x": 1}, span_seconds=[("slow", 1.0)])
        b = report_with(counters={"x": 4}, span_seconds=[("slow", 3.0)])
        diff = diff_run_reports(a, b)
        text = render_report_diff(diff, threshold=2.0)
        assert "x" in text and "1 -> 4 (+3)" in text
        assert "3.00x" in text
        assert "over --fail-over 2" in text
        relaxed = render_report_diff(diff, threshold=5.0)
        assert "over --fail-over" not in relaxed
