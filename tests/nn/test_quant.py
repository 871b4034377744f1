"""Tests for repro.nn.quant (opt-in int8 inference).

:class:`QuantizedModel` must track the float64 reference closely
enough that thresholded anomaly decisions agree, and the float64
default path must never be touched by it.
"""

import numpy as np
import pytest

from repro.core.detector import LSTMAnomalyDetector
from repro.core.stream import StreamScorer
from repro.logs.templates import TemplateStore
from repro.nn.quant import QuantizedModel
from tests.core.test_online import cyclic_stream


def build_detector(cell="lstm"):
    train = cyclic_stream()
    store = TemplateStore().fit(train)
    return LSTMAnomalyDetector(
        store,
        vocabulary_capacity=16,
        window=4,
        hidden=(12, 12),
        id_dim=8,
        epochs=2,
        oversample_rounds=0,
        cell=cell,
        seed=0,
    ).fit(train)


@pytest.fixture(scope="module")
def detector():
    return build_detector()


def contexts(model, n=256, seed=0):
    rng = np.random.default_rng(seed)
    embedding = model.layers[0]
    return np.stack(
        [
            rng.integers(
                0, embedding.id_embedding.vocabulary, (n, 4)
            ),
            rng.integers(
                0, embedding.gap_embedding.vocabulary, (n, 4)
            ),
        ],
        axis=-1,
    )


class TestArchiveRoundtrip:
    def test_float_archive_still_loads_without_cast(
        self, detector, tmp_path
    ):
        path = str(tmp_path / "f64.npz")
        detector.model.save(path)
        fresh = detector.model.clone()
        fresh.load(path)
        x = contexts(detector.model)
        assert np.array_equal(
            detector.model.predict(x), fresh.predict(x)
        )


class TestQuantizedModel:
    def test_tracks_float64_reference(self, detector):
        quantized = QuantizedModel.from_model(detector.model)
        x = contexts(detector.model)
        reference = detector.model.predict(x)
        logits = quantized.infer(x)
        assert logits.dtype == np.float32
        assert logits.shape == reference.shape
        assert float(np.max(np.abs(reference - logits))) < 0.05
        assert np.corrcoef(
            reference.ravel(), logits.ravel()
        )[0, 1] > 0.999

    def test_repeated_infer_is_deterministic(self, detector):
        quantized = QuantizedModel.from_model(detector.model)
        x = contexts(detector.model)
        first = quantized.infer(x).copy()
        assert np.array_equal(quantized.infer(x), first)

    def test_batch_size_does_not_change_results(self, detector):
        quantized = QuantizedModel.from_model(detector.model)
        x = contexts(detector.model, n=64)
        full = quantized.infer(x).copy()
        halves = np.concatenate(
            [quantized.infer(x[:32]).copy(), quantized.infer(x[32:])]
        )
        assert np.allclose(full, halves, atol=1e-5)

    def test_rejects_bad_context_shape(self, detector):
        quantized = QuantizedModel.from_model(detector.model)
        with pytest.raises(ValueError, match="contexts"):
            quantized.infer(np.zeros((4, 4), dtype=np.int64))

    def test_rejects_unsupported_stacks(self):
        class NotAModel:
            layers = []

        with pytest.raises(ValueError, match="detector stack"):
            QuantizedModel.from_model(NotAModel())
        gru = build_detector(cell="gru")
        with pytest.raises(ValueError, match="detector stack"):
            QuantizedModel.from_model(gru.model)

    def test_scales_exposed_per_tensor(self, detector):
        quantized = QuantizedModel.from_model(detector.model)
        assert all(
            scale > 0 for scale in quantized.scales.values()
        )
        assert any(".U" in key for key in quantized.scales)


class TestScorerIntegration:
    def test_quantized_scorer_rebuilds_on_weight_change(self, detector):
        scorer = StreamScorer(detector, quantized=True)
        first = scorer._quantized_model()
        assert scorer._quantized_model() is first  # cached
        detector.model.set_weights(detector.model.get_weights())
        assert scorer._quantized_model() is not first  # version bumped

    def test_quantized_scorer_decisions_track_float64(self, detector):
        stream = cyclic_stream(400)
        exact = StreamScorer(detector).observe_batch(stream).scores
        scorer = StreamScorer(detector, quantized=True)
        approx = scorer.observe_batch(stream).scores
        decided = np.isfinite(exact) & np.isfinite(approx)
        assert decided.sum() > 300
        # Threshold between the score levels, away from any atom.
        levels = np.unique(exact[decided])
        threshold = float(levels[-2:].mean())
        agreement = np.mean(
            (exact[decided] > threshold)
            == (approx[decided] > threshold)
        )
        assert agreement >= 0.99
