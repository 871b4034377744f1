"""Tests for repro.core.pipeline (rolling monthly train/detect loop).

The pipeline is the most expensive component; these tests run it once
per grouping variant on the tiny session dataset and assert on the
structural properties every variant must satisfy.
"""

import numpy as np
import pytest

from repro.core.detector import LSTMAnomalyDetector
from repro.core.pipeline import PipelineConfig, RollingPipeline
from repro.timeutil import MONTH


def tiny_factory(store, seed):
    return LSTMAnomalyDetector(
        store,
        vocabulary_capacity=160,
        window=6,
        hidden=(12, 12),
        id_dim=8,
        epochs=1,
        oversample_rounds=0,
        max_train_samples=1500,
        seed=seed,
    )


@pytest.fixture(scope="module")
def pipeline_result(small_dataset):
    config = PipelineConfig(
        grouping="kmeans", k=2, adaptation=True, seed=0
    )
    return RollingPipeline(
        small_dataset, config, detector_factory=tiny_factory
    ).run(), small_dataset


class TestPipelineConfig:
    def test_invalid_grouping(self):
        with pytest.raises(ValueError):
            PipelineConfig(grouping="magic")

    def test_invalid_adaptation_days(self):
        with pytest.raises(ValueError):
            PipelineConfig(adaptation_days=0)


class TestRun:
    def test_one_result_per_test_month(self, pipeline_result):
        result, dataset = pipeline_result
        n_months = int(round((dataset.end - dataset.start) / MONTH))
        assert [m.month_index for m in result.months] == list(
            range(1, n_months)
        )

    def test_streams_cover_fleet(self, pipeline_result):
        result, dataset = pipeline_result
        for month in result.months:
            assert set(month.streams) == set(dataset.vpe_names)

    def test_stream_times_inside_month(self, pipeline_result):
        result, _ = pipeline_result
        for month in result.months:
            for stream in month.streams.values():
                if len(stream):
                    assert stream.times[0] >= month.start
                    assert stream.times[-1] < month.end

    def test_tickets_scoped_to_month(self, pipeline_result):
        result, _ = pipeline_result
        for month in result.months:
            for ticket in month.tickets:
                assert month.start <= ticket.report_time < month.end

    def test_update_month_triggers_adaptation(self, pipeline_result):
        result, dataset = pipeline_result
        update_month = int(
            round((dataset.updates[0].time - dataset.start) / MONTH)
        )
        adapted = {
            m.month_index: m.adapted_groups for m in result.months
        }
        assert adapted[update_month], (
            "the software-update month must adapt at least one group"
        )

    def test_grouping_partitions_fleet(self, pipeline_result):
        result, dataset = pipeline_result
        members = [
            vpe
            for group in result.grouping.groups.values()
            for vpe in group
        ]
        assert sorted(members) == sorted(dataset.vpe_names)


class TestEvaluationHelpers:
    def test_prc_is_nonempty_and_bounded(self, pipeline_result):
        result, _ = pipeline_result
        curve = result.prc(n_thresholds=10)
        assert curve
        for point in curve:
            assert 0.0 <= point.precision <= 1.0
            assert 0.0 <= point.recall <= 1.0

    def test_recall_monotone_in_threshold(self, pipeline_result):
        result, _ = pipeline_result
        curve = result.prc(n_thresholds=10)
        thresholds = [p.threshold for p in curve]
        recalls = [p.recall for p in curve]
        order = np.argsort(thresholds)
        sorted_recalls = np.array(recalls)[order]
        assert np.all(np.diff(sorted_recalls) <= 1e-12)

    def test_monthly_counts_and_false_alarms(self, pipeline_result):
        result, _ = pipeline_result
        threshold = result.choose_threshold()
        counts = result.monthly_counts(threshold)
        assert len(counts) == len(result.months)
        rates = result.monthly_false_alarms_per_day(threshold)
        assert all(rate >= 0 for rate in rates)

    def test_pooled_streams_concatenate(self, pipeline_result):
        result, dataset = pipeline_result
        pooled = result.pooled_streams()
        for vpe in dataset.vpe_names:
            total = sum(
                len(m.streams[vpe]) for m in result.months
            )
            assert len(pooled[vpe]) == total

    def test_month_subset_selection(self, pipeline_result):
        result, _ = pipeline_result
        subset = result.pooled_tickets(month_indices=[1])
        assert all(
            result.months[0].start
            <= t.report_time
            < result.months[0].end
            for t in subset
        )

