"""Tests for repro.core.detector (the LSTM anomaly detector).

These tests train tiny models on a synthetic-but-structured stream: a
cyclic template pattern the LSTM can learn quickly, with injected rare
templates serving as anomalies.
"""

import numpy as np
import pytest

from repro.core.detector import (
    LAYER_NAMES,
    LSTMAnomalyDetector,
    LOWER_LAYERS,
    TOP_LAYERS,
)
from repro.logs.templates import TemplateStore
from repro.timeutil import TRACE_START
from tests.conftest import make_message


TEXTS = [
    "ALPHA: phase one complete",
    "BRAVO: phase two complete",
    "CHARLIE: phase three complete",
    "DELTA: phase four complete",
]
ANOMALY_TEXT = "ZULU: catastrophic meltdown imminent now"


def cyclic_stream(n=600, start=TRACE_START, period=10.0):
    """A perfectly periodic template cycle — trivially learnable."""
    return [
        make_message(
            timestamp=start + i * period, text=TEXTS[i % len(TEXTS)]
        )
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def trained_detector():
    train = cyclic_stream()
    store = TemplateStore().fit(train)
    detector = LSTMAnomalyDetector(
        store,
        vocabulary_capacity=16,
        window=4,
        hidden=(12, 12),
        id_dim=8,
        epochs=30,
        learning_rate=0.01,
        batch_size=32,
        oversample_rounds=1,
        max_train_samples=2000,
        seed=0,
    )
    detector.fit(train)
    return detector


class TestConstruction:
    def test_capacity_must_cover_store(self):
        store = TemplateStore().fit(cyclic_stream(50))
        with pytest.raises(ValueError):
            LSTMAnomalyDetector(store, vocabulary_capacity=2)

    def test_layer_names_partition(self):
        assert set(LOWER_LAYERS) | set(TOP_LAYERS) == set(LAYER_NAMES)
        assert not set(LOWER_LAYERS) & set(TOP_LAYERS)

    def test_score_before_fit(self):
        store = TemplateStore().fit(cyclic_stream(50))
        detector = LSTMAnomalyDetector(store, vocabulary_capacity=16)
        with pytest.raises(RuntimeError):
            detector.score(cyclic_stream(50))

    def test_gru_cell_variant(self):
        train = cyclic_stream(400)
        store = TemplateStore().fit(train)
        detector = LSTMAnomalyDetector(
            store, vocabulary_capacity=16, window=4, hidden=(12, 12),
            id_dim=8, epochs=10, learning_rate=0.01,
            oversample_rounds=0, cell="gru", seed=0,
        ).fit(train)
        scores = detector.score(cyclic_stream(100)).scores
        assert np.median(scores) < 1.0  # learned the cycle

    def test_unknown_cell_rejected(self):
        store = TemplateStore().fit(cyclic_stream(50))
        with pytest.raises(ValueError):
            LSTMAnomalyDetector(
                store, vocabulary_capacity=16, cell="rnn"
            )

    def test_fit_on_too_few_messages(self):
        store = TemplateStore().fit(cyclic_stream(50))
        detector = LSTMAnomalyDetector(
            store, vocabulary_capacity=16, window=10
        )
        with pytest.raises(ValueError):
            detector.fit(cyclic_stream(5))


class TestDetection:
    def test_scores_align_with_stream(self, trained_detector):
        stream = cyclic_stream(100)
        scored = trained_detector.score(stream)
        # first `window` messages lack context
        assert len(scored) == 100 - 4
        assert list(scored.times) == [
            m.timestamp for m in stream[4:]
        ]

    def test_anomalous_template_scores_higher(self, trained_detector):
        normal = cyclic_stream(100)
        corrupted = list(normal)
        corrupted[50] = make_message(
            timestamp=normal[50].timestamp, text=ANOMALY_TEXT
        )
        normal_scores = trained_detector.score(normal)
        corrupted_scores = trained_detector.score(corrupted)
        anomaly_index = 50 - 4
        anomaly_score = corrupted_scores.scores[anomaly_index]
        typical = np.median(normal_scores.scores)
        assert anomaly_score > typical + 2.0

    def test_normal_stream_mostly_low_scores(self, trained_detector):
        scored = trained_detector.score(cyclic_stream(200))
        threshold = np.median(scored.scores) + 2.0
        assert (scored.scores > threshold).mean() < 0.05

    def test_detect_uses_threshold(self, trained_detector):
        normal = cyclic_stream(100)
        corrupted = list(normal)
        corrupted[60] = make_message(
            timestamp=normal[60].timestamp, text=ANOMALY_TEXT
        )
        threshold = float(
            np.quantile(
                trained_detector.score(normal).scores, 0.999
            )
        ) + 0.5
        hits = trained_detector.detect(corrupted, threshold)
        assert normal[60].timestamp in hits

    def test_empty_stream(self, trained_detector):
        scored = trained_detector.score([])
        assert len(scored) == 0


class TestUpdateAndClone:
    def test_update_improves_on_new_pattern(self):
        train = cyclic_stream(400)
        store = TemplateStore().fit(train)
        detector = LSTMAnomalyDetector(
            store, vocabulary_capacity=16, window=4, hidden=(12, 12),
            id_dim=8, epochs=4, oversample_rounds=0, seed=1,
        )
        detector.fit(train)
        # a new, different cycle (reversed order)
        new = [
            make_message(
                timestamp=TRACE_START + 1e6 + i * 10.0,
                text=TEXTS[::-1][i % 4],
            )
            for i in range(400)
        ]
        before = float(np.mean(detector.score(new).scores))
        detector.update_epochs = 4
        for _ in range(3):
            detector.update(new)
        after = float(np.mean(detector.score(new).scores))
        assert after < before

    def test_update_before_fit_fits(self):
        train = cyclic_stream(300)
        store = TemplateStore().fit(train)
        detector = LSTMAnomalyDetector(
            store, vocabulary_capacity=16, window=4, hidden=(8, 8),
            id_dim=6, epochs=2, oversample_rounds=0,
        )
        detector.update(train)
        assert detector.score(train) is not None

    def test_clone_preserves_scores_and_isolates(self,
                                                 trained_detector):
        stream = cyclic_stream(80)
        twin = trained_detector.clone()
        assert np.allclose(
            twin.score(stream).scores,
            trained_detector.score(stream).scores,
        )
        twin.update_epochs = 3
        twin.update(cyclic_stream(300))
        # teacher unchanged by student training
        assert not np.allclose(
            twin.score(stream).scores,
            trained_detector.score(stream).scores,
        )


class TestFitStreams:
    def _two_device_streams(self):
        """Two devices running the SAME cycle but phase-shifted, so a
        time-merged union interleaves them destructively."""
        a = cyclic_stream(300)
        b = [
            make_message(
                timestamp=TRACE_START + 3.0 + i * 10.0,
                host="vpe01",
                text=TEXTS[(i + 2) % len(TEXTS)],
            )
            for i in range(300)
        ]
        return a, b

    def _build(self, seed=0):
        a, b = self._two_device_streams()
        store = TemplateStore().fit(a + b)
        detector = LSTMAnomalyDetector(
            store, vocabulary_capacity=16, window=4,
            hidden=(12, 12), id_dim=8, epochs=20,
            learning_rate=0.01, batch_size=32,
            oversample_rounds=0, seed=seed,
        )
        return detector, a, b

    def test_per_stream_training_preserves_sequences(self):
        """Pooling windows per device must model each device's cycle
        far better than windowing the interleaved union."""
        detector, a, b = self._build()
        detector.fit_streams([a, b])
        per_stream_nll = float(
            np.mean(detector.score(cyclic_stream(100)).scores)
        )

        interleaved, _, _ = self._build(seed=0)[0], None, None
        merged = sorted(a + b, key=lambda m: m.timestamp)
        interleaved.fit(merged)
        interleaved_nll = float(
            np.mean(interleaved.score(cyclic_stream(100)).scores)
        )
        assert per_stream_nll < interleaved_nll - 0.3

    def test_empty_streams_rejected(self):
        detector, a, b = self._build()
        with pytest.raises(ValueError):
            detector.fit_streams([[], []])

    def test_update_streams_runs(self):
        detector, a, b = self._build()
        detector.fit_streams([a, b])
        detector.update_streams([a[:100], b[:100]])
        assert len(detector.score(a[:50])) > 0


class TestInferenceState:
    """Scoring builds derived inference state (the first-step table and
    gate-major weights); training in place must never leave it stale."""

    @staticmethod
    def fresh_twin(detector, tmp_path):
        path = str(tmp_path / "trained.npz")
        detector.model.save(path)
        twin = LSTMAnomalyDetector(
            detector.store, vocabulary_capacity=16, window=4,
            hidden=(12, 12), id_dim=8, seed=5,
        )
        twin.restore_weights(path)
        return twin

    def test_fit_streams_in_place(self, tmp_path):
        detector, a, b = TestFitStreams()._build()
        detector.epochs = 2
        detector.fit_streams([a, b])
        stream = a[:120]
        first = detector.score(stream).scores
        detector.fit_streams([a, b])
        again = detector.score(stream).scores
        assert not np.array_equal(again, first)
        expected = self.fresh_twin(detector, tmp_path).score(stream)
        assert np.array_equal(again, expected.scores)

    def test_adapt_student_and_teacher(self, trained_detector, tmp_path):
        stream = cyclic_stream(120)
        teacher_scores = trained_detector.score(stream).scores
        reversed_cycle = [
            make_message(
                timestamp=TRACE_START + 1e6 + i * 10.0,
                text=TEXTS[::-1][i % 4],
            )
            for i in range(300)
        ]
        student = trained_detector.adapt(reversed_cycle, epochs=2)
        expected = self.fresh_twin(student, tmp_path).score(stream)
        assert np.array_equal(student.score(stream).scores, expected.scores)
        assert np.array_equal(
            trained_detector.score(stream).scores, teacher_scores
        )


class TestPersistence:
    def test_save_restore_roundtrip(self, trained_detector, tmp_path):
        path = str(tmp_path / "weights.npz")
        trained_detector.model.save(path)
        stream = cyclic_stream(80)
        fresh = LSTMAnomalyDetector(
            trained_detector.store,
            vocabulary_capacity=16,
            window=4,
            hidden=(12, 12),
            id_dim=8,
            seed=99,
        )
        with pytest.raises(RuntimeError):
            fresh.score(stream)
        fresh.restore_weights(path)
        assert np.allclose(
            fresh.score(stream).scores,
            trained_detector.score(stream).scores,
        )


class TestTopKScoring:
    def test_rank_scores_shape_and_range(self, trained_detector):
        stream = cyclic_stream(100)
        ranks = trained_detector.score_topk(stream)
        assert len(ranks) == 100 - 4
        assert np.all(ranks.scores >= 0)
        assert np.all(
            ranks.scores < trained_detector.vocabulary_capacity
        )

    def test_predictable_stream_rank_zero(self, trained_detector):
        """On a learned deterministic cycle, the observed template is
        the model's top prediction almost always."""
        ranks = trained_detector.score_topk(cyclic_stream(200))
        assert np.median(ranks.scores) == 0.0
        assert (ranks.scores == 0).mean() > 0.8

    def test_anomaly_gets_high_rank(self, trained_detector):
        stream = cyclic_stream(100)
        corrupted = list(stream)
        corrupted[50] = make_message(
            timestamp=stream[50].timestamp, text=ANOMALY_TEXT
        )
        ranks = trained_detector.score_topk(corrupted)
        assert ranks.scores[50 - 4] >= 3

    def test_topk_rule_consistent_with_thresholding(
        self, trained_detector
    ):
        """Thresholding ranks at k-0.5 realizes 'not in top k'."""
        stream = cyclic_stream(100)
        ranks = trained_detector.score_topk(stream)
        k = 3
        flagged = ranks.anomalies(k - 0.5)
        assert set(flagged) == set(
            ranks.times[ranks.scores >= k]
        )

    def test_score_topk_before_fit(self):
        store = TemplateStore().fit(cyclic_stream(50))
        detector = LSTMAnomalyDetector(store, vocabulary_capacity=16)
        with pytest.raises(RuntimeError):
            detector.score_topk(cyclic_stream(50))


class TestOversampling:
    def test_oversampling_reduces_training_fp_tail(self):
        """The over-sampling loop should not hurt, and typically
        tightens, the lower tail of training log-likelihoods."""
        rng = np.random.default_rng(5)
        # cycle with a rare-but-normal minority pattern
        stream = []
        for i in range(800):
            text = TEXTS[i % 4]
            if rng.random() < 0.03:
                text = "ECHO: rare but perfectly normal event"
            stream.append(
                make_message(timestamp=TRACE_START + i * 10.0,
                             text=text)
            )
        store = TemplateStore().fit(stream)

        def build(rounds):
            return LSTMAnomalyDetector(
                store, vocabulary_capacity=16, window=4,
                hidden=(12, 12), id_dim=8, epochs=4,
                oversample_rounds=rounds, seed=3,
            ).fit(stream)

        plain = build(0)
        boosted = build(3)
        q = 0.02
        plain_tail = np.quantile(plain.score(stream).scores, 1 - q)
        boosted_tail = np.quantile(boosted.score(stream).scores, 1 - q)
        assert boosted_tail <= plain_tail * 1.25
