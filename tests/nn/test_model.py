"""Tests for repro.nn.model (Sequential container)."""

import pickle

import numpy as np
import pytest

from repro.nn import (
    LSTM,
    Adam,
    Dense,
    MeanSquaredError,
    Sequential,
    SGD,
    SoftmaxCrossEntropy,
    TupleEmbedding,
)
from repro.nn.model import batches


def small_classifier(seed=0):
    model = Sequential(
        [
            Dense(16, activation="tanh", name="hidden"),
            Dense(3, name="out"),
        ],
        rng=np.random.default_rng(seed),
    )
    return model.build((4,))


def detector_stack(seed=0, hidden=6):
    """TupleEmbedding → LSTM → LSTM → Dense, which ``predict`` runs on
    the stacked path with its first-step table."""
    return Sequential(
        [
            TupleEmbedding(6, 3, id_dim=4, gap_dim=2, name="embedding"),
            LSTM(hidden, return_sequences=True, name="lstm1"),
            LSTM(hidden, name="lstm2"),
            Dense(6, name="out"),
        ],
        rng=np.random.default_rng(seed),
    ).build((4, 2))


def stack_windows(n=40, seed=0):
    rng = np.random.default_rng(seed)
    return np.stack(
        [rng.integers(0, 6, (n, 4)), rng.integers(0, 3, (n, 4))], axis=-1
    )


def toy_data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 4))
    y = (x[:, 0] + x[:, 1] > 0).astype(np.int64) + (
        x[:, 2] > 1.0
    ).astype(np.int64)
    return x, y


class TestBatches:
    def test_covers_everything_once(self):
        seen = np.concatenate(list(batches(10, 3)))
        assert sorted(seen) == list(range(10))

    def test_shuffled_with_rng(self):
        a = np.concatenate(list(batches(100, 7, np.random.default_rng(0))))
        assert sorted(a) == list(range(100))
        assert not np.array_equal(a, np.arange(100))

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(batches(10, 0))


class TestConstruction:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Sequential([Dense(2, name="a"), Dense(2, name="a")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_forward_before_build_raises(self):
        model = Sequential([Dense(2)])
        with pytest.raises(RuntimeError):
            model.forward(np.zeros((1, 3)))

    def test_n_parameters(self):
        model = small_classifier()
        # 4*16+16 + 16*3+3
        assert model.n_parameters == 80 + 51


class TestTraining:
    def test_fit_reduces_loss(self):
        model = small_classifier()
        x, y = toy_data()
        history = model.fit(
            x, y, SoftmaxCrossEntropy(), Adam(0.01), epochs=15,
            batch_size=32,
        )
        assert history[-1] < history[0] * 0.7

    def test_fit_shape_mismatch(self):
        model = small_classifier()
        with pytest.raises(ValueError):
            model.fit(
                np.zeros((5, 4)), np.zeros(4), SoftmaxCrossEntropy(),
                SGD(0.1),
            )

    def test_sample_weights_zero_freeze_learning(self):
        model = small_classifier()
        x, y = toy_data(50)
        before = model.get_weights()
        model.fit(
            x, y, SoftmaxCrossEntropy(), SGD(0.5), epochs=2,
            sample_weight=np.zeros(50),
        )
        after = model.get_weights()
        for key in before:
            assert np.allclose(before[key], after[key])

    def test_predict_batches_consistent(self):
        model = small_classifier()
        x, _ = toy_data(100)
        full = model.predict(x, batch_size=100)
        chunked = model.predict(x, batch_size=7)
        assert np.allclose(full, chunked)

    def test_deterministic_given_seed(self):
        x, y = toy_data(100)
        outs = []
        for _ in range(2):
            model = small_classifier(seed=5)
            model.fit(
                x, y, SoftmaxCrossEntropy(), Adam(0.01), epochs=3
            )
            outs.append(model.predict(x[:5]))
        assert np.allclose(outs[0], outs[1])


class TestFreezing:
    def test_frozen_layer_not_updated(self):
        model = small_classifier()
        x, y = toy_data(50)
        model.freeze(["hidden"])
        before = model.get_weights()
        model.fit(x, y, SoftmaxCrossEntropy(), SGD(0.5), epochs=2)
        after = model.get_weights()
        assert np.allclose(before["hidden.W"], after["hidden.W"])
        assert not np.allclose(before["out.W"], after["out.W"])

    def test_unfreeze_restores_training(self):
        model = small_classifier()
        x, y = toy_data(50)
        model.freeze(["hidden"])
        model.unfreeze(["hidden"])
        before = model.get_weights()["hidden.W"].copy()
        model.fit(x, y, SoftmaxCrossEntropy(), SGD(0.5), epochs=2)
        assert not np.allclose(before, model.get_weights()["hidden.W"])

    def test_unknown_layer_name(self):
        model = small_classifier()
        with pytest.raises(KeyError):
            model.freeze(["nope"])


class TestCloneAndPersistence:
    def test_clone_is_independent(self):
        model = small_classifier()
        x, y = toy_data(50)
        twin = model.clone()
        model.fit(x, y, SoftmaxCrossEntropy(), SGD(0.5), epochs=2)
        # twin unchanged by teacher training
        assert not np.allclose(
            model.get_weights()["out.W"], twin.get_weights()["out.W"]
        )

    def test_clone_same_predictions(self):
        model = small_classifier()
        x, _ = toy_data(10)
        twin = model.clone()
        assert np.allclose(model.predict(x), twin.predict(x))

    def test_save_load_roundtrip(self, tmp_path):
        model = small_classifier()
        x, y = toy_data(50)
        model.fit(x, y, SoftmaxCrossEntropy(), Adam(0.01), epochs=2)
        path = str(tmp_path / "weights.npz")
        model.save(path)
        fresh = small_classifier(seed=99)
        assert not np.allclose(fresh.predict(x), model.predict(x))
        fresh.load(path)
        assert np.allclose(fresh.predict(x), model.predict(x))

    def test_set_weights_missing_key(self):
        model = small_classifier()
        with pytest.raises(KeyError):
            model.set_weights({})

    def test_set_weights_shape_mismatch(self):
        model = small_classifier()
        weights = model.get_weights()
        weights["out.W"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            model.set_weights(weights)

    def test_set_weights_rebuilds_first_step_table(self):
        """A hot swap or checkpoint restore loads weights through
        set_weights: the next predict must not read step-0 states of
        the old weights."""
        model, other = detector_stack(seed=0), detector_stack(seed=1)
        x = stack_windows()
        before = model.predict(x)
        model.set_weights(other.get_weights())
        after = model.predict(x)
        assert np.array_equal(after, other.predict(x))
        assert not np.array_equal(after, before)

    def test_inference_state_is_never_pickled(self):
        """A pickle, with or without clear_caches(), must not carry
        the first-step table, the gate-major weights or the scratch a
        predict built."""
        model = detector_stack(hidden=24)
        cold = len(pickle.dumps(model))
        model.predict(stack_windows(300))
        restored = pickle.loads(pickle.dumps(model))
        assert restored._stack is None
        assert np.array_equal(
            restored.predict(stack_windows()), model.predict(stack_windows())
        )
        model.clear_caches()
        assert len(pickle.dumps(model)) <= cold

    def test_fused_table_is_never_pickled_or_cloned(self):
        """``adapt`` clones the live model: the clone must not copy
        the fused embedding table a predict built, nor a pickle carry
        it."""
        model = detector_stack(hidden=24)
        cold = len(pickle.dumps(model))
        logits = model.predict(stack_windows(300))
        assert model.layers[0]._fused is not None
        assert len(pickle.dumps(model)) == cold
        clone = model.clone()
        assert clone.layers[0]._fused is None
        assert np.array_equal(clone.predict(stack_windows(300)), logits)

    def test_tuple_embedding_save_load_keeps_sharing(self, tmp_path):
        model = Sequential(
            [
                TupleEmbedding(6, 3, id_dim=4, gap_dim=2,
                               name="embedding"),
                LSTM(5, name="lstm"),
                Dense(6, name="out"),
            ],
            rng=np.random.default_rng(0),
        ).build((4, 2))
        path = str(tmp_path / "w.npz")
        model.save(path)
        model.load(path)
        layer = model.layers[0]
        assert layer.params["ids.E"] is layer.id_embedding.params["E"]


class TestWeightFormat:
    def test_archive_carries_tags(self, tmp_path):
        from repro.nn.model import (
            _DTYPE_KEY,
            _FORMAT_KEY,
            WEIGHTS_FORMAT_VERSION,
        )

        model = small_classifier()
        path = str(tmp_path / "w.npz")
        model.save(path)
        with np.load(path) as archive:
            assert int(archive[_FORMAT_KEY]) == WEIGHTS_FORMAT_VERSION
            assert str(archive[_DTYPE_KEY]) == "float64"

    def test_untagged_archive_rejected(self, tmp_path):
        model = small_classifier()
        path = str(tmp_path / "untagged.npz")
        np.savez(path, **model.get_weights())
        with pytest.raises(ValueError, match="not a tagged"):
            small_classifier().load(path)

    def test_unknown_format_version_rejected(self, tmp_path):
        from repro.nn.model import _FORMAT_KEY

        model = small_classifier()
        path = str(tmp_path / "future.npz")
        payload = model.get_weights()
        payload[_FORMAT_KEY] = np.array(999, dtype=np.int64)
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="format version 999"):
            small_classifier().load(path)

    def test_dtype_mismatch_rejected(self, tmp_path):
        from repro.nn.model import _DTYPE_KEY, _FORMAT_KEY
        from repro.nn.model import WEIGHTS_FORMAT_VERSION

        model = small_classifier()
        path = str(tmp_path / "f32.npz")
        payload = model.get_weights()
        payload[_FORMAT_KEY] = np.array(
            WEIGHTS_FORMAT_VERSION, dtype=np.int64
        )
        payload[_DTYPE_KEY] = np.array("float32")
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="float32"):
            small_classifier().load(path)
