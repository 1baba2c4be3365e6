"""Metrics registry: instruments, wire-format merging, null registry."""

import pytest

from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
)


def test_counter_accumulates_by_label():
    reg = MetricsRegistry()
    runs = reg.counter("repro_runs_total")
    runs.inc(outcome="masked")
    runs.inc(outcome="masked")
    runs.inc(outcome="sdc")
    runs.inc(3.0, outcome="due")
    assert runs.value(outcome="masked") == 2.0
    assert runs.value(outcome="sdc") == 1.0
    assert runs.value(outcome="due") == 3.0
    assert runs.value(outcome="never-seen") == 0.0
    assert runs.total() == 6.0


def test_counter_rejects_negative_increment():
    with pytest.raises(ValueError):
        MetricsRegistry().counter("c").inc(-1.0)


def test_registry_get_or_create_is_idempotent_and_type_checked():
    reg = MetricsRegistry()
    assert reg.counter("x") is reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")


def test_gauge_last_write_wins():
    reg = MetricsRegistry()
    g = reg.gauge("repro_shard_runs_done")
    g.set(3, shard=0)
    g.set(5, shard=0)
    g.set(2, shard=1)
    assert g.value(shard=0) == 5.0
    assert g.value(shard=1) == 2.0


def test_histogram_buckets_sum_count():
    reg = MetricsRegistry()
    h = reg.histogram("d", buckets=(0.1, 1.0, 10.0))
    for v in (0.05, 0.5, 0.5, 5.0, 50.0):
        h.observe(v)
    assert h.count() == 5
    assert h.sum() == pytest.approx(56.05)
    wire = h.to_wire()
    ((_, slot),) = wire["values"]
    assert slot["buckets"] == [1, 2, 1, 1]  # last slot is +Inf


def test_histogram_rejects_bad_buckets():
    with pytest.raises(ValueError):
        Histogram("h", buckets=())
    with pytest.raises(ValueError):
        Histogram("h", buckets=(2.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("h", buckets=(1.0, 1.0))


def test_drain_delta_merges_exactly_once():
    worker, engine = MetricsRegistry(), MetricsRegistry()
    c = worker.counter("repro_runs_total", help="runs")
    c.inc(outcome="masked")
    first = worker.drain_delta()
    engine.merge(first)
    # Nothing new: the delta buffer was cleared, nothing to ship.
    assert worker.drain_delta() == {}
    c.inc(outcome="masked")
    engine.merge(worker.drain_delta())
    assert engine.counter("repro_runs_total").value(outcome="masked") == 2.0
    # Totals on the worker side are untouched by draining.
    assert c.value(outcome="masked") == 2.0


def test_merge_matches_serial_totals_across_workers():
    """N worker registries merged == one registry fed the same stream."""
    serial = MetricsRegistry()
    engine = MetricsRegistry()
    workers = [MetricsRegistry() for _ in range(3)]
    observations = [(i, 0.01 * (i + 1)) for i in range(12)]
    for i, duration in observations:
        serial.counter("runs").inc(outcome="masked" if i % 2 else "sdc")
        serial.histogram("dur").observe(duration)
        w = workers[i % 3]
        w.counter("runs").inc(outcome="masked" if i % 2 else "sdc")
        w.histogram("dur").observe(duration)
    for w in workers:
        engine.merge(w.drain_delta())
    assert engine.counter_values() == serial.counter_values()
    assert engine.histogram("dur").count() == serial.histogram("dur").count()
    assert engine.histogram("dur").sum() == pytest.approx(serial.histogram("dur").sum())


def test_merged_values_drain_onward_exactly_once():
    """A registry that merges a child's metrics forwards them on its own
    next drain (sandbox -> lease worker -> campaign), once."""
    sandbox, worker, campaign = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
    sandbox.counter("groups").inc(2.0, benchmark="nw")
    sandbox.histogram("occupancy", buckets=(1.0, 8.0)).observe(4.0)
    sandbox.gauge("width").set(16.0)
    worker.counter("groups").inc(benchmark="nw")
    worker.merge(sandbox.snapshot())
    campaign.merge(worker.drain_delta())
    assert worker.drain_delta() == {}
    assert campaign.counter("groups").value(benchmark="nw") == 3.0
    assert campaign.histogram("occupancy", buckets=(1.0, 8.0)).count() == 1
    assert campaign.gauge("width").value() == 16.0


def test_merge_gauge_keeps_latest_value():
    engine = MetricsRegistry()
    w = MetricsRegistry()
    w.gauge("done").set(3, shard=0)
    engine.merge(w.drain_delta())
    w.gauge("done").set(6, shard=0)
    engine.merge(w.drain_delta())
    assert engine.gauge("done").value(shard=0) == 6.0


def test_merge_histogram_bucket_mismatch_is_loud():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
    b.histogram("h", buckets=(1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        b.merge(a.snapshot())


def test_merge_rejects_unknown_kind():
    with pytest.raises(ValueError):
        MetricsRegistry().merge({"x": {"kind": "summary", "values": []}})


def test_snapshot_round_trips_through_json():
    import json

    reg = MetricsRegistry()
    reg.counter("c", help="a counter").inc(outcome="sdc")
    reg.gauge("g").set(7, shard=2)
    reg.histogram("h").observe(0.2)
    restored = MetricsRegistry()
    restored.merge(json.loads(json.dumps(reg.snapshot())))
    assert restored.counter_values() == reg.counter_values()
    assert restored.gauge("g").value(shard=2) == 7.0
    assert restored.histogram("h").count() == 1


def test_null_registry_is_inert():
    assert not NULL_REGISTRY.enabled
    c = NULL_REGISTRY.counter("anything")
    c.inc(outcome="sdc")
    assert c.value(outcome="sdc") == 0.0
    assert list(c.items()) == []
    NULL_REGISTRY.gauge("g").set(5)
    NULL_REGISTRY.histogram("h").observe(1.0)
    NULL_REGISTRY.merge({"x": {"kind": "counter", "values": []}})
    assert NULL_REGISTRY.counter_values() == {}


def test_default_buckets_cover_run_and_shard_scales():
    assert DEFAULT_BUCKETS[0] <= 0.001
    assert DEFAULT_BUCKETS[-1] >= 600.0
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


def test_counter_values_shape():
    reg = MetricsRegistry()
    reg.counter("plain").inc()
    reg.counter("labelled").inc(kind="crash", shard="0")
    assert reg.counter_values() == {
        "plain": {"": 1.0},
        "labelled": {"kind=crash,shard=0": 1.0},
    }
    assert isinstance(reg.counter("plain"), Counter)


def test_histogram_quantile_interpolates_within_bucket():
    reg = MetricsRegistry()
    h = reg.histogram("h", buckets=(1.0, 2.0, 4.0))
    for v in (0.5, 1.5, 1.5, 3.0):  # buckets: [1, 2, 1, +Inf 0]
        h.observe(v)
    # Median rank 2.0 is halfway through the (1, 2] bucket.
    assert h.quantile(0.5) == pytest.approx(1.5)
    assert h.quantile(0.75) == pytest.approx(2.0)
    assert h.quantile(1.0) == pytest.approx(4.0)
    assert h.quantile(0.0) == pytest.approx(0.0)


def test_histogram_quantile_labels_and_fleet_aggregate():
    reg = MetricsRegistry()
    h = reg.histogram("h", buckets=(1.0, 10.0))
    for _ in range(10):
        h.observe(0.5, worker="fast")
    for _ in range(10):
        h.observe(5.0, worker="slow")
    assert h.quantile(0.5, worker="fast") <= 1.0
    assert h.quantile(0.5, worker="slow") > 1.0
    # Without labels the fleet view aggregates every series.
    fleet = h.quantile(0.95)
    assert 1.0 < fleet <= 10.0
    assert h.quantile(0.5, worker="nobody") is None


def test_histogram_quantile_overflow_clamps_and_empty_is_none():
    reg = MetricsRegistry()
    h = reg.histogram("h", buckets=(0.5, 2.0))
    assert h.quantile(0.9) is None
    h.observe(100.0)  # +Inf overflow bucket
    assert h.quantile(0.9) == pytest.approx(2.0)  # clamps to largest bound
    with pytest.raises(ValueError):
        h.quantile(1.5)
    assert NULL_REGISTRY.histogram("h").quantile(0.9) is None
