"""Tests for repro.core.adaptation (transfer learning, drift trigger)."""

import numpy as np
import pytest

from repro.core.adaptation import (
    distribution_shift,
    transfer_adapt,
    update_detected,
)
from repro.core.detector import LSTMAnomalyDetector
from repro.logs.templates import TemplateStore
from repro.timeutil import TRACE_START
from tests.conftest import make_message

OLD_TEXTS = [
    "ALPHA: phase one complete",
    "BRAVO: phase two complete",
    "CHARLIE: phase three complete",
]
NEW_TEXTS = [
    "XRAY: new subsystem heartbeat nominal",
    "YANKEE: new subsystem telemetry streamed",
    "CHARLIE: phase three complete",
]


def stream(texts, n=500, start=TRACE_START):
    return [
        make_message(timestamp=start + i * 10.0,
                     text=texts[i % len(texts)])
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def teacher():
    train = stream(OLD_TEXTS)
    store = TemplateStore().fit(train)
    detector = LSTMAnomalyDetector(
        store, vocabulary_capacity=24, window=4, hidden=(12, 12),
        id_dim=8, epochs=6, oversample_rounds=0, seed=0,
    )
    return detector.fit(train)


class TestTransferAdapt:
    def test_student_learns_new_distribution(self, teacher):
        new = stream(NEW_TEXTS, start=TRACE_START + 1e7)
        teacher_mean = float(np.mean(teacher.score(new).scores))
        student = transfer_adapt(teacher, new, epochs=6)
        student_mean = float(np.mean(student.score(new).scores))
        assert student_mean < teacher_mean - 0.3

    def test_teacher_untouched(self, teacher):
        old = stream(OLD_TEXTS, n=200)
        before = teacher.score(old).scores.copy()
        transfer_adapt(
            teacher, stream(NEW_TEXTS, start=TRACE_START + 2e7),
            epochs=2,
        )
        after = teacher.score(old).scores
        assert np.allclose(before, after)

    def test_frozen_layer_weights_preserved(self, teacher):
        student = transfer_adapt(
            teacher, stream(NEW_TEXTS, start=TRACE_START + 3e7),
            epochs=2,
        )
        teacher_weights = teacher.model.get_weights()
        student_weights = student.model.get_weights()
        assert np.allclose(
            teacher_weights["lstm1.W"], student_weights["lstm1.W"]
        )
        assert not np.allclose(
            teacher_weights["output.W"], student_weights["output.W"]
        )

    def test_student_layers_unfrozen_after(self, teacher):
        student = transfer_adapt(
            teacher, stream(NEW_TEXTS, start=TRACE_START + 4e7),
            epochs=1,
        )
        assert all(layer.trainable for layer in student.model.layers)

    def test_new_templates_mined_into_store(self, teacher):
        before = teacher.store.vocabulary_size
        # texts unseen by any other test in this module, so the shared
        # module-scoped store must grow
        fresh = ["QUEBEC: unique adaptation event",
                 "ROMEO: another unique adaptation event"]
        transfer_adapt(
            teacher, stream(fresh, start=TRACE_START + 5e7), epochs=1
        )
        assert teacher.store.vocabulary_size > before


class TestDriftTrigger:
    def _annotated(self, teacher, texts, start):
        return teacher.store.transform(stream(texts, n=200,
                                              start=start))

    def test_no_drift_high_similarity(self, teacher):
        a = self._annotated(teacher, OLD_TEXTS, TRACE_START)
        b = self._annotated(teacher, OLD_TEXTS, TRACE_START + 1e6)
        similarity = distribution_shift(
            a, b, teacher.store.vocabulary_size
        )
        assert similarity > 0.95
        assert not update_detected(
            a, b, teacher.store.vocabulary_size
        )

    def test_update_low_similarity(self, teacher):
        a = self._annotated(teacher, OLD_TEXTS, TRACE_START)
        b = self._annotated(teacher, NEW_TEXTS, TRACE_START + 1e6)
        similarity = distribution_shift(
            a, b, teacher.store.vocabulary_size
        )
        assert similarity < 0.5
        assert update_detected(a, b, teacher.store.vocabulary_size)

    def test_empty_months_no_trigger(self, teacher):
        assert not update_detected(
            [], [], teacher.store.vocabulary_size
        )
