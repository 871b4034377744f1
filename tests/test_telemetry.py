"""Tests for the telemetry subsystem and its layer instrumentation.

Covers the metric primitives (counter monotonicity, Prometheus ``le``
bucket semantics), the timing helpers, registry injection via ``use``,
both exporters (including the exact Prometheus exposition text), and —
lightly — that each instrumented layer actually publishes under an
injected registry.
"""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.core.adaptation import distribution_shift
from repro.core.stream import StreamScorer
from repro.logs.message import SyslogMessage
from repro.logs.templates import TemplateStore
from repro.telemetry import Histogram, MetricsRegistry, NullRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_increments(self, registry):
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative(self, registry):
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_same_name_same_object(self, registry):
        assert registry.counter("c") is registry.counter("c")

    def test_cross_kind_collision_raises(self, registry):
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")


class TestGauge:
    def test_set_overwrites(self, registry):
        gauge = registry.gauge("g")
        gauge.set(2.5)
        gauge.set(3)
        assert gauge.value == 3.0
        assert isinstance(gauge.value, float)


class TestHistogram:
    def test_le_bucket_semantics(self):
        # Prometheus `le`: an observation equal to an edge falls into
        # that edge's bucket; beyond the last edge goes to +Inf.
        histogram = Histogram("h", edges=(1.0, 2.0))
        for value in (0.5, 1.0, 1.5, 2.0, 3.0):
            histogram.observe(value)
        assert histogram.counts == [2, 2, 1]
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(8.0)

    def test_observe_array_matches_scalar_path(self):
        values = np.array([0.1, 1.0, 1.1, 2.0, 9.9])
        one_by_one = Histogram("a", edges=(1.0, 2.0))
        for value in values:
            one_by_one.observe(value)
        vectorized = Histogram("b", edges=(1.0, 2.0))
        vectorized.observe_array(values)
        assert vectorized.counts == one_by_one.counts
        assert vectorized.sum == pytest.approx(one_by_one.sum)
        assert vectorized.count == one_by_one.count

    def test_rejects_unsorted_edges(self):
        with pytest.raises(ValueError):
            Histogram("h", edges=(2.0, 1.0))


class TestTimed:
    def test_context_manager_records(self, registry):
        with registry.timed("t"):
            pass
        histogram = registry.histogram("t")
        assert histogram.count == 1
        assert histogram.sum >= 0.0

    def test_resolves_registry_lazily(self):
        # Build the timer first, swap the registry afterwards: the
        # duration must land in the registry active when the block ends.
        timer = telemetry.timed("lazy")
        swapped = MetricsRegistry()
        with telemetry.use(swapped):
            with timer:
                pass
        assert swapped.histogram("lazy").count == 1

    def test_records_on_exception(self, registry):
        with pytest.raises(RuntimeError):
            with registry.timed("boom"):
                raise RuntimeError("no")
        assert registry.histogram("boom").count == 1


class TestDefaultRegistry:
    def test_use_swaps_and_restores(self, registry):
        before = telemetry.default_registry()
        with telemetry.use(registry) as active:
            assert active is registry
            assert telemetry.default_registry() is registry
            telemetry.counter("inside").inc()
        assert telemetry.default_registry() is before
        assert registry.counter("inside").value == 1

    def test_use_restores_on_exception(self, registry):
        before = telemetry.default_registry()
        with pytest.raises(RuntimeError):
            with telemetry.use(registry):
                raise RuntimeError("no")
        assert telemetry.default_registry() is before


class TestNullRegistry:
    def test_discards_everything(self):
        null = NullRegistry()
        null.counter("c").inc(5)
        null.gauge("g").set(1.0)
        null.histogram("h").observe(3.0)
        with null.timed("t"):
            pass
        assert null.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestExporters:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("stream.ticks").inc(3)
        registry.gauge("match.memo_hit_rate").set(0.75)
        histogram = registry.histogram("scores", edges=(1.0, 2.0))
        for value in (0.5, 1.5, 99.0):
            histogram.observe(value)
        return registry

    def test_snapshot_is_json_ready(self):
        snapshot = self._populated().snapshot()
        parsed = json.loads(json.dumps(snapshot))
        assert parsed["counters"]["stream.ticks"] == 3
        assert parsed["gauges"]["match.memo_hit_rate"] == 0.75
        assert parsed["histograms"]["scores"]["counts"] == [1, 1, 1]

    def test_to_json_round_trips(self):
        registry = self._populated()
        assert json.loads(registry.to_json()) == registry.snapshot()

    def test_prometheus_contains_typed_samples(self):
        text = self._populated().to_prometheus()
        assert "# TYPE repro_stream_ticks counter" in text
        assert "repro_stream_ticks 3" in text
        assert "# TYPE repro_match_memo_hit_rate gauge" in text
        assert '_bucket{le="+Inf"} 3' in text
        assert "repro_scores_count 3" in text

    def test_prometheus_buckets_are_cumulative(self):
        text = self._populated().to_prometheus()
        assert 'repro_scores_bucket{le="1"} 1' in text
        assert 'repro_scores_bucket{le="2"} 2' in text

    def test_prometheus_exposition_is_exact(self):
        assert self._populated().to_prometheus() == (
            "# HELP repro_stream_ticks stream.ticks\n"
            "# TYPE repro_stream_ticks counter\n"
            "repro_stream_ticks 3\n"
            "# HELP repro_match_memo_hit_rate match.memo_hit_rate\n"
            "# TYPE repro_match_memo_hit_rate gauge\n"
            "repro_match_memo_hit_rate 0.75\n"
            "# HELP repro_scores scores\n"
            "# TYPE repro_scores histogram\n"
            'repro_scores_bucket{le="1"} 1\n'
            'repro_scores_bucket{le="2"} 2\n'
            'repro_scores_bucket{le="+Inf"} 3\n'
            "repro_scores_sum 101\n"
            "repro_scores_count 3\n"
        )

    def test_prometheus_keeps_float_values_exact(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(0.6191854667555345)
        histogram = registry.histogram("h", edges=(0.25,))
        histogram.observe(0.1)
        histogram.observe(7.125)
        text = registry.to_prometheus()
        assert "repro_g 0.6191854667555345\n" in text
        assert 'repro_h_bucket{le="0.25"} 1\n' in text
        assert f"repro_h_sum {0.1 + 7.125!r}\n" in text


def _fleet(n: int, start: float = 0.0):
    return [
        SyslogMessage(
            timestamp=start + i * 60.0,
            host=f"vpe{i % 2}",
            process="rpd",
            text=f"adjacency {'up' if i % 3 else 'down'} on peer",
        )
        for i in range(n)
    ]


class TestLayerInstrumentation:
    """Each instrumented layer publishes into an injected registry."""

    def test_mining_and_matching_publish(self, registry):
        messages = _fleet(60)
        with telemetry.use(registry):
            store = TemplateStore().fit(messages)
            store.match_ids(messages)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["mine.messages_inserted"] == 60
        assert snapshot["counters"]["mine.templates_created"] >= 1
        assert snapshot["gauges"]["mine.vocabulary_size"] == (
            store.vocabulary_size
        )
        hits = snapshot["counters"]["match.memo_hits"]
        misses = snapshot["counters"]["match.memo_misses"]
        assert hits + misses == 60
        assert snapshot["gauges"]["match.memo_hit_rate"] == (
            pytest.approx(hits / 60)
        )

    def test_training_publishes_epochs(self, registry):
        from repro.core.detector import LSTMAnomalyDetector

        messages = _fleet(120)
        store = TemplateStore().fit(messages)
        with telemetry.use(registry):
            LSTMAnomalyDetector(
                store,
                vocabulary_capacity=16,
                window=4,
                hidden=(6, 6),
                epochs=2,
                oversample_rounds=0,
                seed=0,
            ).fit(messages)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["train.epochs"] >= 2
        assert snapshot["gauges"]["train.epoch_loss"] > 0
        assert snapshot["histograms"]["train.epoch_seconds"]["count"] >= 2

    def test_streaming_publishes_per_tick(self, registry):
        from repro.core.detector import LSTMAnomalyDetector

        messages = _fleet(120)
        store = TemplateStore().fit(messages)
        detector = LSTMAnomalyDetector(
            store,
            vocabulary_capacity=16,
            window=4,
            hidden=(6, 6),
            epochs=1,
            oversample_rounds=0,
            seed=0,
        ).fit(messages)
        with telemetry.use(registry):
            scorer = StreamScorer(detector)
            batches = [
                scorer.observe_batch(messages[:50]),
                scorer.observe_batch(messages[50:]),
            ]
        snapshot = registry.snapshot()
        assert snapshot["counters"]["stream.ticks"] == 2
        assert snapshot["counters"]["stream.messages_ingested"] == 120
        assert snapshot["counters"]["stream.messages_scored"] == sum(
            int(np.count_nonzero(~np.isnan(batch.scores)))
            for batch in batches
        )
        assert snapshot["counters"]["stream.n_reordered"] == 0
        assert snapshot["histograms"]["stream.scores"]["count"] > 0

    def test_drift_check_publishes_similarity(self, registry):
        messages = _fleet(80)
        store = TemplateStore().fit(messages)
        annotated = store.transform(messages)
        with telemetry.use(registry):
            similarity = distribution_shift(
                annotated[:40], annotated[40:], store.vocabulary_size
            )
        snapshot = registry.snapshot()
        assert snapshot["counters"]["adapt.drift_checks"] == 1
        assert snapshot["gauges"]["adapt.cosine_similarity"] == (
            pytest.approx(similarity)
        )


class TestMerge:
    def _shard_snapshot(self, ticks, backlog, observations):
        shard = MetricsRegistry()
        shard.counter("runtime.ticks").inc(ticks)
        shard.gauge("runtime.backlog").set(backlog)
        histogram = shard.histogram(
            "stream.scores", edges=(1.0, 2.0)
        )
        for value in observations:
            histogram.observe(value)
        return shard.snapshot()

    def test_counters_sum(self, registry):
        registry.merge(
            [
                self._shard_snapshot(3, 1.0, []),
                self._shard_snapshot(4, 2.0, []),
            ]
        )
        assert registry.snapshot()["counters"]["runtime.ticks"] == 7

    def test_gauges_last_write_wins(self, registry):
        registry.merge(
            [
                self._shard_snapshot(0, 5.0, []),
                self._shard_snapshot(0, 9.0, []),
            ]
        )
        assert (
            registry.snapshot()["gauges"]["runtime.backlog"] == 9.0
        )

    def test_histograms_merge_bucket_wise(self, registry):
        registry.merge(
            [
                self._shard_snapshot(0, 0.0, [0.5, 1.5]),
                self._shard_snapshot(0, 0.0, [1.5, 3.0]),
            ]
        )
        merged = registry.snapshot()["histograms"]["stream.scores"]
        assert merged["counts"] == [1, 2, 1]
        assert merged["count"] == 4
        assert merged["sum"] == pytest.approx(6.5)

    def test_merge_into_populated_registry_accumulates(self, registry):
        registry.counter("runtime.ticks").inc(10)
        registry.merge([self._shard_snapshot(5, 0.0, [])])
        assert registry.snapshot()["counters"]["runtime.ticks"] == 15

    def test_mismatched_histogram_edges_refused(self, registry):
        other = MetricsRegistry()
        other.histogram("stream.scores", edges=(10.0,)).observe(1.0)
        with pytest.raises(ValueError, match="bucket edges differ"):
            registry.merge(
                [
                    self._shard_snapshot(0, 0.0, [0.5]),
                    other.snapshot(),
                ]
            )

    def test_merge_returns_self_for_chaining(self, registry):
        result = registry.merge([]).merge(
            [self._shard_snapshot(1, 0.0, [])]
        )
        assert result is registry
        assert registry.snapshot()["counters"]["runtime.ticks"] == 1

    def test_merged_snapshot_roundtrips_through_json(self, registry):
        registry.merge(
            [self._shard_snapshot(2, 1.0, [0.5, 1.5, 9.0])]
        )
        encoded = json.loads(json.dumps(registry.snapshot()))
        fresh = MetricsRegistry().merge([encoded])
        assert fresh.snapshot() == registry.snapshot()
