"""Loss functions.

Losses pair a scalar value with the gradient of the *mean* loss with
respect to the model output, so optimizer step sizes are independent of
batch size.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.activations import log_softmax, softmax


class Loss:
    """Base class: ``value_and_grad(outputs, targets) -> (loss, grad)``."""

    def value_and_grad(
        self, outputs: np.ndarray, targets: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Loss value and gradient w.r.t. the predictions."""
        raise NotImplementedError


class SoftmaxCrossEntropy(Loss):
    """Categorical cross-entropy over integer class targets.

    The model's final layer outputs raw logits; softmax is fused into
    the loss, which makes the combined gradient the numerically clean
    ``softmax(logits) - onehot(target)``.  This is the paper's training
    objective ("minimize the categorical cross entropy", section 5.1).
    """

    def value_and_grad(
        self, outputs: np.ndarray, targets: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Loss value and gradient w.r.t. the predictions."""
        if outputs.ndim != 2:
            raise ValueError(
                f"expected (batch, classes) logits, got {outputs.shape}"
            )
        targets = np.asarray(targets, dtype=np.int64)
        if targets.shape != (outputs.shape[0],):
            raise ValueError(
                f"targets shape {targets.shape} does not match batch "
                f"{outputs.shape[0]}"
            )
        batch = outputs.shape[0]
        log_probs = log_softmax(outputs, axis=-1)
        loss = -float(
            log_probs[np.arange(batch), targets].mean()
        )
        grad = softmax(outputs, axis=-1)
        grad[np.arange(batch), targets] -= 1.0
        return loss, grad / batch

    @staticmethod
    def log_likelihoods(
        outputs: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """Per-sample log-likelihood of the target class.

        This is the anomaly score of section 4.2: a *low* value means
        the observed next template was improbable under the model.
        """
        targets = np.asarray(targets, dtype=np.int64)
        # log_softmax(outputs)[rows, targets] without the whole matrix:
        # the target column of the shifted logits minus the row's
        # log-sum-exp, the same two roundings per value.
        top = np.max(outputs, axis=-1, keepdims=True)
        lse = np.log(np.sum(np.exp(outputs - top), axis=-1))
        rows = np.arange(outputs.shape[0])
        return (outputs[rows, targets] - top[:, 0]) - lse


class MeanSquaredError(Loss):
    """Mean squared error, used by the autoencoder baseline."""

    def value_and_grad(
        self, outputs: np.ndarray, targets: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Loss value and gradient w.r.t. the logits."""
        if outputs.shape != targets.shape:
            raise ValueError(
                f"outputs {outputs.shape} and targets {targets.shape} "
                "must have identical shapes"
            )
        diff = outputs - targets
        loss = float(np.mean(diff * diff))
        grad = 2.0 * diff / diff.size
        return loss, grad
