"""Tests for the inference-only forward path (``infer``).

The contract: ``layer.infer(x)`` returns exactly the values of
``layer.forward(x, training=False)`` (bitwise at float64), writes no
backward caches, and — at the :class:`Sequential` level — produces
row-wise results independent of how samples are batched (the batch-of-
one pad), which is what the streaming scorer's bitwise online/offline
parity rests on.
"""

import tracemalloc

import numpy as np
import pytest

from repro.logs.sequences import N_GAP_BUCKETS
from repro.nn import GRU, LSTM, Dense, Sequential, TupleEmbedding
from repro.nn.layers import Dropout, Embedding
from tests.nn.test_fused_regression import _seed_lstm


def make_model(dtype=np.float64, vocabulary=32, window=6, upper=GRU,
               hidden=14):
    """An embedding, an LSTM and ``upper`` under a Dense head; with
    ``upper=LSTM`` it is the detector stack, which ``infer`` runs on
    its stacked path at float64."""
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
            LSTM(hidden, return_sequences=True, name="lstm1", dtype=dtype),
            upper(12 if upper is GRU else hidden, name="lstm2", dtype=dtype),
            Dense(vocabulary, name="output", dtype=dtype),
        ],
        rng=np.random.default_rng(7),
    ).build((window, 2))


def make_inputs(n, vocabulary=32, window=6, seed=0):
    """Random tuples whose first tuples walk every ``(id, gap)`` code in
    turn, so a batch of ``vocabulary * N_GAP_BUCKETS`` covers them all."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, vocabulary, (n, window))
    gaps = rng.integers(0, N_GAP_BUCKETS, (n, window))
    ids[:, 0], gaps[:, 0] = np.divmod(
        np.arange(n) % (vocabulary * N_GAP_BUCKETS), N_GAP_BUCKETS
    )
    return np.stack([ids, gaps], axis=-1).astype(np.int64)


def seed_logits(model, x):
    """The detector stack through the seed's per-step LSTM loop."""
    embedding, lower, upper, output = model.layers
    embedded = np.concatenate(
        [
            embedding.id_embedding.params["E"][x[..., 0]],
            embedding.gap_embedding.params["E"][x[..., 1]],
        ],
        axis=-1,
    )
    no_grad = np.zeros((x.shape[0], upper.hidden))
    sequence, _, _ = _seed_lstm(lower.params, embedded, no_grad)
    top, _, _ = _seed_lstm(upper.params, sequence, no_grad)
    return top[:, -1] @ output.params["W"] + output.params["b"]


#: The LSTM-GRU model, then the detector stack at every hidden size,
#: window and batch size the stacked path must match bit for bit.
STACKS = [pytest.param(GRU, 14, 6, 23, id="lstm-gru")] + [
    pytest.param(
        LSTM, hidden, window, batch,
        id=f"lstm-lstm-h{hidden}-w{window}-b{batch}",
    )
    for hidden in (1, 5, 24)
    for window in (1, 2, 8)
    for batch in (1, 2, 3, 255, 256, 257)
]


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
    @pytest.mark.parametrize("upper, hidden, window, batch", STACKS)
    def test_infer_matches_forward_bitwise(self, upper, hidden, window,
                                           batch):
        model = make_model(window=window, upper=upper, hidden=hidden)
        x = make_inputs(batch, window=window)
        # forward has no batch-of-one pad: score the row in a pair.
        pair = x if batch > 1 else np.concatenate([x, x])
        fwd = model.forward(pair, training=False)[:batch]
        model.clear_caches()
        inf = model.infer(x)
        assert np.array_equal(fwd, inf)
        assert np.array_equal(model.predict(x), fwd)
        if upper is LSTM:
            assert np.array_equal(seed_logits(model, pair)[:batch], fwd)
        # no layer retained a cache
        for layer in model.layers:
            layer.clear_cache()  # must be a no-op, not an error
        assert model.layers[1]._cache is None
        assert model.layers[3]._cache_x is None

    @pytest.mark.parametrize("upper", [GRU, LSTM])
    @pytest.mark.parametrize("field, value", [(0, 32), (0, -1),
                                              (1, N_GAP_BUCKETS)])
    def test_out_of_range_ids_raise(self, upper, field, value):
        model = make_model(upper=upper)
        x = make_inputs(4)
        x[2, 3, field] = value
        with pytest.raises(ValueError, match="out of range"):
            model.predict(x)

    def test_second_predict_allocates_no_scratch(self):
        """Steady-state ticks reuse the stacked path's scratch: a second
        predict of the same shape keeps nothing but its result."""
        model = make_model(upper=LSTM, hidden=24, window=8)
        x = make_inputs(256, window=8)
        model.predict(x)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = model.predict(x)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # The step scratch alone is 11 * 256 * 24 doubles (540 KB).
        assert kept < result.nbytes + 16 * 1024

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
