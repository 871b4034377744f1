"""Activation functions and their derivatives.

Derivatives are expressed in terms of the activation *output*, which is
what the backward passes cache.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

#: An activation or gradient: one ndarray in, one ndarray out.
Activation = Callable[[np.ndarray], np.ndarray]


def sigmoid(
    x: np.ndarray, out: "np.ndarray | None" = None
) -> np.ndarray:
    """Numerically stable logistic sigmoid (dtype-preserving).

    ``exp(-|x|)`` never overflows; with ``t = exp(-|x|)`` both halves
    of the classic masked formulation share the denominator ``1 + t``
    (numerator ``1`` where ``x >= 0``, else ``t``), so one divide
    covers both branches.  The numerator select runs as an exact 0/1
    arithmetic blend — ``m + (1 - m) t`` with ``m`` the comparison
    cast to 1.0/0.0 — because ``np.where``/masked assignment costs
    ~10x the surrounding ufuncs; multiplying by exact 0.0/1.0 and
    adding leaves every element bitwise ``1.0`` or bitwise ``t``, so
    results are unchanged down to the ulp (NaN propagates through the
    ``(1 - m) t`` term).  ``out`` (optional) receives the result in
    place; passing ``out=x`` is safe because ``x`` is fully consumed
    before the numerator is written.  The ufuncs run in
    :func:`sigmoid_into`.
    """
    x = np.asarray(x)
    if x.dtype not in (np.float32, np.float64):
        x = x.astype(np.float64)
    if out is None:
        out = np.empty_like(x)
    return sigmoid_into(x, out, np.empty_like(x), np.empty_like(x))


def sigmoid_into(
    x: np.ndarray,
    out: np.ndarray,
    exp_neg: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """:func:`sigmoid` of a float array into ``out``, allocating nothing.

    ``exp_neg`` and ``mask`` are scratch shaped like ``x``; ``out`` or
    ``mask`` (not both) may be ``x``, which is read before either is
    written.
    """
    np.abs(x, out=exp_neg)
    np.negative(exp_neg, out=exp_neg)
    np.exp(exp_neg, out=exp_neg)
    np.greater_equal(x, 0, out=mask)
    np.subtract(1.0, mask, out=out)
    out *= exp_neg
    out += mask
    exp_neg += 1.0
    return np.divide(out, exp_neg, out=out)


def sigmoid_grad(output: np.ndarray) -> np.ndarray:
    """d sigmoid / dx expressed via the sigmoid output."""
    return output * (1.0 - output)


def tanh(x: np.ndarray) -> np.ndarray:
    """Hyperbolic tangent activation."""
    return np.tanh(x)


def tanh_grad(output: np.ndarray) -> np.ndarray:
    """d tanh / dx expressed via the tanh output."""
    return 1.0 - output * output


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear activation."""
    return np.maximum(x, 0.0)


def relu_grad(output: np.ndarray) -> np.ndarray:
    """d relu / dx expressed via the relu output."""
    return (output > 0).astype(output.dtype)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(
        np.sum(np.exp(shifted), axis=axis, keepdims=True)
    )


def linear(x: np.ndarray) -> np.ndarray:
    """Identity activation."""
    return x


def linear_grad(output: np.ndarray) -> np.ndarray:
    """Gradient of the identity activation (ones)."""
    return np.ones_like(output)


# Named functions only (no lambdas): layers cache these pairs, and
# trained models must stay picklable for parallel per-group training.
_ACTIVATIONS = {
    "sigmoid": (sigmoid, sigmoid_grad),
    "tanh": (tanh, tanh_grad),
    "relu": (relu, relu_grad),
    "linear": (linear, linear_grad),
}


def get_activation(name: str) -> Tuple[Activation, Activation]:
    """Look up ``(function, gradient)`` by name."""
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; "
            f"choose from {sorted(_ACTIVATIONS)}"
        ) from None
