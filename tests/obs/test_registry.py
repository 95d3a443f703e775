"""MetricsRegistry semantics: instruments, idempotence, disabled no-ops."""

import pytest

from repro.errors import ConfigurationError
from repro.obs import DEFAULT_HDR_GROWTH, HdrHistogram, MetricsRegistry
from repro.obs.registry import _NULL_COUNTER, _NULL_GAUGE, _NULL_HDR_HISTOGRAM


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = MetricsRegistry().counter("x")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_same_name_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")

    def test_counters_prefix_filter(self):
        reg = MetricsRegistry()
        reg.counter("sim.msg.sent.JoinReq").inc(3)
        reg.counter("sim.msg.sent.JoinAck").inc(2)
        reg.counter("smrp.joins").inc()
        assert reg.counters("sim.msg.sent.") == {
            "sim.msg.sent.JoinAck": 2,
            "sim.msg.sent.JoinReq": 3,
        }
        assert len(reg.counters()) == 3


class TestGauge:
    def test_set_tracks_high_water(self):
        g = MetricsRegistry().gauge("queue")
        g.set(3)
        g.set(10)
        g.set(4)
        assert g.value == 4
        assert g.high_water == 10


class TestHistogram:
    """The one histogram family: bucket bounds are powers of ``growth``."""

    def test_rejects_bad_bounds(self):
        # growth <= 1 would make the bucket bounds non-increasing.
        with pytest.raises(ConfigurationError):
            HdrHistogram("h", growth=1.0)
        with pytest.raises(ConfigurationError):
            HdrHistogram("h", growth=0.5)

    def test_reregistration_with_different_bounds_rejected(self):
        reg = MetricsRegistry()
        reg.hdr_histogram("h", growth=1.1)
        assert reg.hdr_histogram("h", growth=1.1) is reg.hdr_histogram("h", growth=1.1)
        with pytest.raises(ConfigurationError):
            reg.hdr_histogram("h", growth=1.2)

    def test_default_buckets(self):
        h = MetricsRegistry().hdr_histogram("h")
        assert h.growth == DEFAULT_HDR_GROWTH
        # Small integers such as hop counts each get a bucket of their own.
        indexes = [h.bucket_index(hops) for hops in range(1, 33)]
        assert len(set(indexes)) == len(indexes)


class TestNameCollisions:
    def test_cross_type_name_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigurationError):
            reg.gauge("x")
        with pytest.raises(ConfigurationError):
            reg.hdr_histogram("x")
        reg.gauge("y")
        with pytest.raises(ConfigurationError):
            reg.counter("y")


class TestDisabled:
    def test_disabled_registry_hands_out_shared_noops(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("a") is _NULL_COUNTER
        assert reg.gauge("b") is _NULL_GAUGE
        assert reg.hdr_histogram("d") is _NULL_HDR_HISTOGRAM

    def test_noop_instruments_record_nothing(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("a").inc(10)
        reg.gauge("b").set(5)
        reg.hdr_histogram("d").observe(2)
        snap = reg.snapshot()
        assert snap == {
            "counters": {},
            "gauges": {},
            "hdr_histograms": {},
        }


class TestSnapshot:
    def test_snapshot_is_json_shaped(self):
        import json

        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.hdr_histogram("h").observe(2)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"]["g"] == {"value": 1.5, "high_water": 1.5}
        assert snap["hdr_histograms"]["h"]["count"] == 1
        assert snap["hdr_histograms"]["h"]["min"] == 2
        json.dumps(snap)  # must be serializable as-is
