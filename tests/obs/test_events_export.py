"""EventLog bounding and run-report build/write/load/render."""

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    EventLog,
    Observability,
    build_run_report,
    load_run_report,
    render_run_report,
    write_run_report,
)


class TestEventLog:
    def test_emit_and_iterate(self):
        log = EventLog()
        log.emit("join", node=3, at=1.5)
        log.emit("leave", node=3)
        assert len(log) == 2
        assert list(log) == [
            {"kind": "join", "node": 3, "at": 1.5},
            {"kind": "leave", "node": 3},
        ]

    def test_bounded_drops_oldest(self):
        log = EventLog(max_records=3)
        for i in range(5):
            log.emit("e", i=i)
        assert len(log) == 3
        assert log.dropped == 2
        assert [r["i"] for r in log] == [2, 3, 4]

    def test_disabled_records_nothing(self):
        log = EventLog(enabled=False)
        log.emit("e", i=1)
        assert len(log) == 0
        assert log.dropped == 0

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ConfigurationError):
            EventLog(max_records=0)

    def test_unbounded_when_cap_is_none(self):
        log = EventLog(max_records=None)
        for i in range(10):
            log.emit("e", i=i)
        assert len(log) == 10
        assert log.dropped == 0


class TestRunReport:
    def _populated_obs(self):
        obs = Observability()
        obs.counter("smrp.joins").inc(4)
        obs.gauge("sim.engine.queue_depth").set(7)
        obs.hdr_histogram("recovery.local.hops").observe(3)
        with obs.span("smrp.build"):
            with obs.span("smrp.join"):
                pass
        obs.emit("scenario_result", config="demo")
        return obs

    def test_build_contains_all_sections(self):
        report = build_run_report(self._populated_obs(), meta={"title": "t"})
        assert report["version"] == 1
        assert report["meta"] == {"title": "t"}
        assert report["metrics"]["counters"]["smrp.joins"] == 4
        assert report["spans"]["children"][0]["name"] == "smrp.build"
        assert report["events"] == {"recorded": 1, "dropped": 0}

    def test_write_load_round_trip(self, tmp_path):
        obs = self._populated_obs()
        report = obs.run_report(meta={"title": "round-trip", "seed": 3})
        path = str(tmp_path / "run.json")
        write_run_report(report, path)
        assert load_run_report(path) == report

    def test_load_rejects_non_report_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ConfigurationError):
            load_run_report(str(path))

    def test_render_mentions_every_section(self):
        obs = self._populated_obs()
        text = render_run_report(obs.run_report(meta={"title": "demo run"}))
        assert "== demo run ==" in text
        assert "smrp.joins" in text and "4" in text
        assert "high-water 7" in text
        assert "recovery.local.hops: n=1" in text
        assert "min=3 max=3 p50=3 p95=3 p99=3" in text
        assert "smrp.build: 1 calls" in text
        assert "smrp.join" in text
        assert "events: 1 recorded, 0 dropped" in text

    def test_disabled_obs_produces_empty_report(self):
        obs = Observability(enabled=False)
        obs.counter("x").inc()
        with obs.span("y"):
            obs.emit("z")
        report = obs.run_report()
        assert report["metrics"]["counters"] == {}
        assert report["spans"]["children"] == []
        assert report["events"] == {"recorded": 0, "dropped": 0}
