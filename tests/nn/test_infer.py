"""Tests for the inference-only forward path (``infer``).

The contract: ``layer.infer(x)`` returns exactly the values of
``layer.forward(x, training=False)`` (bitwise at float64), writes no
backward caches, and — at the :class:`Sequential` level — produces
row-wise results independent of how samples are batched (the batch-of-
one pad), which is what the streaming scorer's bitwise online/offline
parity rests on.
"""

import numpy as np
import pytest

from repro.logs.sequences import N_GAP_BUCKETS
from repro.nn import GRU, LSTM, Dense, Sequential, TupleEmbedding
from repro.nn.layers import Dropout, Embedding


def make_model(dtype=np.float64, vocabulary=32, window=6):
    return Sequential(
        [
            TupleEmbedding(
                vocabulary,
                N_GAP_BUCKETS,
                id_dim=10,
                gap_dim=3,
                name="embedding",
                dtype=dtype,
            ),
            LSTM(14, return_sequences=True, name="lstm1", dtype=dtype),
            GRU(12, name="lstm2", dtype=dtype),
            Dense(vocabulary, name="output", dtype=dtype),
        ],
        rng=np.random.default_rng(7),
    ).build((window, 2))


def make_inputs(n, vocabulary=32, window=6, seed=0):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, vocabulary, (n, window))
    gaps = rng.integers(0, N_GAP_BUCKETS, (n, window))
    return np.stack([ids, gaps], axis=-1).astype(np.int64)


class TestLayerInfer:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_recurrent_infer_matches_forward(self, dtype):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((9, 7, 5)).astype(dtype)
        for cls in (LSTM, GRU):
            for return_sequences in (False, True):
                layer = cls(
                    8, return_sequences=return_sequences, dtype=dtype
                )
                layer.build((7, 5), np.random.default_rng(1))
                fwd = layer.forward(x, training=False)
                layer.clear_cache()
                inf = layer.infer(x)
                assert np.array_equal(fwd, inf)
                assert inf.dtype == np.dtype(dtype)
                # infer writes no BPTT cache
                assert layer._cache is None

    def test_dense_infer_matches_forward(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 6))
        layer = Dense(4, activation="tanh")
        layer.build((6,), np.random.default_rng(2))
        fwd = layer.forward(x)
        layer.clear_cache()
        assert np.array_equal(layer.infer(x), fwd)
        assert layer._cache_x is None and layer._cache_out is None

    def test_embedding_infer_matches_forward_and_validates(self):
        layer = Embedding(10, 3)
        layer.build((4,), np.random.default_rng(0))
        ids = np.array([[1, 2, 3, 9]])
        fwd = layer.forward(ids)
        layer.clear_cache()
        assert np.array_equal(layer.infer(ids), fwd)
        assert layer._cache_ids is None
        with pytest.raises(ValueError):
            layer.infer(np.array([[10]]))

    def test_dropout_infer_is_identity(self):
        layer = Dropout(0.5)
        layer.build((3,), np.random.default_rng(0))
        x = np.ones((4, 3))
        assert layer.infer(x) is x


class TestSequentialInfer:
    def test_infer_matches_forward_bitwise(self):
        model = make_model()
        x = make_inputs(23)
        fwd = model.forward(x, training=False)
        model.clear_caches()
        inf = model.infer(x)
        assert np.array_equal(fwd, inf)
        # no layer retained a cache
        for layer in model.layers:
            layer.clear_cache()  # must be a no-op, not an error
        assert model.layers[1]._cache is None
        assert model.layers[3]._cache_x is None

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_batch_composition_independence(self, dtype):
        """Row results do not depend on how samples are batched.

        This includes the batch-of-one case, which the pad protects
        from BLAS's single-row gemv kernel (different accumulation
        order than the batched gemm kernels).
        """
        model = make_model(dtype=dtype)
        x = make_inputs(17)
        full = model.infer(x)
        for i in (0, 5, 16):
            single = model.infer(x[i:i + 1])
            assert np.array_equal(single[0], full[i])
        split = np.concatenate(
            [model.infer(x[:4]), model.infer(x[4:])]
        )
        assert np.array_equal(split, full)

    def test_predict_uses_inference_path(self):
        model = make_model()
        x = make_inputs(11)
        predicted = model.predict(x, batch_size=4)
        assert np.array_equal(predicted, model.infer(x))
        # a tail chunk of one row goes through the padded path too
        predicted_tail = model.predict(x, batch_size=10)
        assert np.array_equal(predicted_tail, predicted)
        assert model.layers[1]._cache is None

    @pytest.mark.parametrize("n", [1, 2, 11])
    def test_predict_one_chunk_is_infer(self, n):
        """One chunk comes back as ``infer`` made it: equal bits, shape
        and dtype, and nothing the next call overwrites."""
        model = make_model()
        x = make_inputs(n)
        first = model.predict(x)
        again = model.predict(x)
        assert np.array_equal(first, model.infer(x))
        assert first.shape == (n, 32)
        assert first.dtype == np.float64
        assert not np.shares_memory(first, again)

    def test_empty_batch(self):
        model = make_model()
        out = model.infer(make_inputs(0))
        assert out.shape == (0, 32)
