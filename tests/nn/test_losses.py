"""Tests for repro.nn.losses."""

import numpy as np
import pytest

from repro.nn.activations import log_softmax
from repro.nn.losses import MeanSquaredError, SoftmaxCrossEntropy


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        loss, _ = SoftmaxCrossEntropy().value_and_grad(
            logits, np.array([0, 1])
        )
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_uniform_prediction_log_k(self):
        logits = np.zeros((1, 8))
        loss, _ = SoftmaxCrossEntropy().value_and_grad(
            logits, np.array([3])
        )
        assert loss == pytest.approx(np.log(8))

    def test_gradient_is_softmax_minus_onehot(self):
        logits = np.array([[1.0, 2.0, 0.5]])
        _, grad = SoftmaxCrossEntropy().value_and_grad(
            logits, np.array([1])
        )
        exp = np.exp(logits - logits.max())
        probs = exp / exp.sum()
        expected = probs.copy()
        expected[0, 1] -= 1.0
        assert np.allclose(grad, expected)

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((4, 6))
        targets = rng.integers(0, 6, size=4)
        loss_fn = SoftmaxCrossEntropy()
        _, grad = loss_fn.value_and_grad(logits, targets)
        eps = 1e-6
        for index in range(logits.size):
            flat = logits.reshape(-1)
            orig = flat[index]
            flat[index] = orig + eps
            up, _ = loss_fn.value_and_grad(logits, targets)
            flat[index] = orig - eps
            down, _ = loss_fn.value_and_grad(logits, targets)
            flat[index] = orig
            assert grad.reshape(-1)[index] == pytest.approx(
                (up - down) / (2 * eps), abs=1e-6
            )

    def test_shape_validation(self):
        loss_fn = SoftmaxCrossEntropy()
        with pytest.raises(ValueError):
            loss_fn.value_and_grad(np.zeros((2, 3, 4)), np.zeros(2))
        with pytest.raises(ValueError):
            loss_fn.value_and_grad(np.zeros((2, 3)), np.zeros(3))

    def test_log_likelihoods_selects_targets(self):
        logits = np.log(np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8]]))
        ll = SoftmaxCrossEntropy.log_likelihoods(
            logits, np.array([0, 2])
        )
        assert ll[0] == pytest.approx(np.log(0.7))
        assert ll[1] == pytest.approx(np.log(0.8))

    @pytest.mark.parametrize("classes", [1, 7, 160, 384])
    @pytest.mark.parametrize("batch", [1, 2, 255, 256])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_log_likelihoods_bitwise_log_softmax(self, batch, classes, dtype):
        """The target column alone equals the whole log-softmax matrix
        indexed at the targets, bit for bit."""
        rng = np.random.default_rng(batch * 1000 + classes)
        logits = (rng.standard_normal((batch, classes)) * 8).astype(dtype)
        targets = rng.integers(0, classes, batch)
        expected = log_softmax(logits, axis=-1)[np.arange(batch), targets]
        got = SoftmaxCrossEntropy.log_likelihoods(logits, targets)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    def test_extreme_logits_finite(self):
        logits = np.array([[1e5, -1e5]])
        loss, grad = SoftmaxCrossEntropy().value_and_grad(
            logits, np.array([1])
        )
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))


class TestMeanSquaredError:
    def test_zero_on_equal(self):
        x = np.ones((3, 4))
        loss, grad = MeanSquaredError().value_and_grad(x, x.copy())
        assert loss == 0.0
        assert not grad.any()

    def test_known_value(self):
        out = np.array([[1.0, 2.0]])
        target = np.array([[0.0, 0.0]])
        loss, _ = MeanSquaredError().value_and_grad(out, target)
        assert loss == pytest.approx((1 + 4) / 2)

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(1)
        out = rng.standard_normal((3, 5))
        target = rng.standard_normal((3, 5))
        loss_fn = MeanSquaredError()
        _, grad = loss_fn.value_and_grad(out, target)
        eps = 1e-6
        flat = out.reshape(-1)
        for index in range(flat.size):
            orig = flat[index]
            flat[index] = orig + eps
            up, _ = loss_fn.value_and_grad(out, target)
            flat[index] = orig - eps
            down, _ = loss_fn.value_and_grad(out, target)
            flat[index] = orig
            assert grad.reshape(-1)[index] == pytest.approx(
                (up - down) / (2 * eps), abs=1e-6
            )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            MeanSquaredError().value_and_grad(
                np.zeros((2, 3)), np.zeros((3, 2))
            )
