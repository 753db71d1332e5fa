"""Metrics primitives: buckets, quantiles, merge semantics, exposition."""

from __future__ import annotations

import json
import math
import re

import pytest

from repro.obs import metrics


# -- counters and gauges -------------------------------------------------------


def test_counter_accumulates_and_rejects_decrease():
    with metrics.instrumented():
        c = metrics.counter("t.counter")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)


def test_disabled_mutations_are_noops():
    c = metrics.counter("t.off.counter")
    g = metrics.gauge("t.off.gauge")
    h = metrics.histogram("t.off.hist")
    c.inc()
    g.set(5)
    h.observe(1.0)
    assert c.value == 0.0
    assert g.value == 0.0
    assert h.count == 0


def test_gauge_modes_merge():
    with metrics.instrumented():
        last = metrics.gauge("t.g.last")
        peak = metrics.gauge("t.g.max", mode="max")
        total = metrics.gauge("t.g.sum", mode="sum")
        for g in (last, peak, total):
            g.set(10)
        snap = metrics.drain()  # zeroes in place, returns the delta
        assert last.value == 0.0
        for g in (last, peak, total):
            g.set(4)
        metrics.merge_snapshot(snap)
        assert last.value == 10.0  # merged value overwrites
        assert peak.value == 10.0  # max survives
        assert total.value == 14.0  # sums


def test_labels_key_distinct_metrics():
    with metrics.instrumented():
        a = metrics.counter("t.labeled", labels={"backend": "numpy"})
        b = metrics.counter("t.labeled", labels={"backend": "fast"})
        assert a is not b
        a.inc(2)
        b.inc(3)
        assert metrics.REGISTRY.get("t.labeled", {"backend": "numpy"}).value == 2
        assert metrics.REGISTRY.get("t.labeled", {"backend": "fast"}).value == 3
        # Same labels in any insertion order resolve to the same metric.
        assert metrics.counter("t.labeled", labels={"backend": "numpy"}) is a


# -- histograms ----------------------------------------------------------------


def test_histogram_bucket_boundaries_inclusive():
    with metrics.instrumented():
        h = metrics.histogram("t.h.bounds", buckets=(1.0, 2.0, 5.0))
        h.observe(1.0)  # exactly on a bound -> that bucket (le semantics)
        h.observe(1.5)
        h.observe(2.0)
        h.observe(7.0)  # overflow -> +inf bucket
        assert h.counts == [1, 2, 0, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(11.5)
        assert h.mean == pytest.approx(11.5 / 4)


def test_histogram_quantiles():
    with metrics.instrumented():
        h = metrics.histogram("t.h.q", buckets=tuple(float(i) for i in range(1, 11)))
        for value in range(1, 11):  # one observation per bucket bound
            h.observe(float(value))
        # Bound-aligned observations make quantiles exact at bucket edges.
        assert h.quantile(0.5) == pytest.approx(5.0, abs=0.51)
        assert h.quantile(1.0) == pytest.approx(10.0)
        assert h.quantile(0.0) <= 1.0
        with pytest.raises(ValueError):
            h.quantile(1.5)


def test_empty_histogram_quantile_is_nan():
    h = metrics.histogram("t.h.empty")
    assert math.isnan(h.quantile(0.5))
    assert math.isnan(h.mean)


def test_histogram_merge_requires_matching_buckets():
    with metrics.instrumented():
        h = metrics.histogram("t.h.merge", buckets=(1.0, 2.0))
        h.observe(0.5)
        snap = metrics.drain()
        h.observe(1.5)
        metrics.merge_snapshot(snap)
        assert h.counts == [1, 1, 0]
        bad = json.loads(json.dumps(snap))  # deep copy
        for entry in bad["metrics"]:
            if entry["name"] == "t.h.merge":
                entry["state"]["bounds"] = [3.0, 4.0]
        with pytest.raises(ValueError, match="mismatched buckets"):
            metrics.merge_snapshot(bad)


def test_observe_with_count_matches_repeats():
    with metrics.instrumented():
        a = metrics.histogram("t.h.bulk", buckets=(1.0, 2.0))
        b = metrics.histogram("t.h.loop", buckets=(1.0, 2.0))
        a.observe(1.5, count=4)
        for _ in range(4):
            b.observe(1.5)
        assert a.counts == b.counts and a.sum == b.sum and a.count == b.count


# -- snapshot / drain / merge --------------------------------------------------


def test_drain_is_delta_merge_is_sum():
    with metrics.instrumented():
        c = metrics.counter("t.drain")
        c.inc(5)
        first = metrics.drain()
        assert c.value == 0.0  # drained
        c.inc(2)
        second = metrics.drain()
        metrics.merge_snapshot(first)
        metrics.merge_snapshot(second)
        assert c.value == 7.0  # deltas never double count


def test_merge_snapshot_creates_missing_metrics():
    with metrics.instrumented():
        metrics.counter("t.fresh").inc(3)
        snap = metrics.snapshot()
        metrics.REGISTRY.reset()
        other = metrics.Registry()
        other.merge_snapshot(snap)
        assert other.get("t.fresh").value == 3.0


# -- exposition ----------------------------------------------------------------

_PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})? [^ ]+$"
)


def _parse_prometheus(text: str) -> dict:
    """Minimal exposition-format parser: returns {sample_name: [lines]}."""
    samples: dict = {}
    typed: dict = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            typed[name] = kind
            continue
        if line.startswith("# HELP "):
            continue
        assert _PROM_SAMPLE.match(line), f"malformed sample line: {line!r}"
        name = line.split("{")[0].split(" ")[0]
        value = float(line.rsplit(" ", 1)[1])
        samples.setdefault(name, []).append((line, value))
    return {"samples": samples, "typed": typed}


def test_prometheus_exposition_parses():
    with metrics.instrumented():
        metrics.counter("t.prom.counter", "a counter").inc(2)
        metrics.gauge("t.prom.gauge", "a gauge").set(1.5)
        h = metrics.histogram("t.prom.hist", "a histogram", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(5.0)
        metrics.counter("t.prom.labeled", labels={"kind": "x"}).inc()
        parsed = _parse_prometheus(metrics.to_prometheus())
    assert parsed["typed"]["repro_t_prom_counter"] == "counter"
    assert parsed["typed"]["repro_t_prom_hist"] == "histogram"
    samples = parsed["samples"]
    assert samples["repro_t_prom_counter"][0][1] == 2.0
    assert samples["repro_t_prom_gauge"][0][1] == 1.5
    # Cumulative buckets ending at +Inf == count.
    buckets = samples["repro_t_prom_hist_bucket"]
    values = [value for _, value in buckets]
    assert values == sorted(values)
    assert '+Inf"' in buckets[-1][0]
    assert buckets[-1][1] == samples["repro_t_prom_hist_count"][0][1] == 2.0
    assert samples["repro_t_prom_hist_sum"][0][1] == pytest.approx(5.5)
    labeled = samples["repro_t_prom_labeled"][0][0]
    assert 'kind="x"' in labeled


def test_json_export_round_trips():
    with metrics.instrumented():
        metrics.counter("t.json.counter").inc(4)
        metrics.histogram("t.json.hist").observe(2.0)
        payload = json.loads(metrics.to_json())
    assert payload["t.json.counter"]["value"] == 4.0
    hist = payload["t.json.hist"]
    assert hist["count"] == 1 and hist["p50"] is not None


# -- fold instrumentation --------------------------------------------------------


def test_fold_metrics_count_both_sides_of_the_crossover():
    """Small batches skip the NumPy fold but still count as folds."""
    import numpy as np

    from repro.backends.bulk import _SMALL_BATCH
    from repro.core.exaloglog import ExaLogLog

    rng = np.random.Generator(np.random.PCG64(3))
    sizes = (1, _SMALL_BATCH - 1, _SMALL_BATCH, 4 * _SMALL_BATCH)
    with metrics.instrumented():
        sketch = ExaLogLog(2, 20, 10)
        for size in sizes:
            sketch.add_hashes(rng.integers(0, 1 << 64, size=size, dtype=np.uint64))
        sketch.add_hashes([])  # an empty batch is not a fold
        assert metrics.REGISTRY.get("backend.hashes_folded").value == sum(sizes)
        assert metrics.REGISTRY.get("backend.folds").value == len(sizes)
        batch_sizes = metrics.REGISTRY.get("backend.fold_batch_size")
        assert batch_sizes.count == len(sizes)
        assert batch_sizes.sum == sum(sizes)
        assert metrics.REGISTRY.get("backend.fold_seconds").value > 0
