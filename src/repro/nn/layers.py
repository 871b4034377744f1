"""Feed-forward layers: Dense, Embedding, TupleEmbedding, Dropout.

Every layer implements the same protocol:

* ``build(input_shape, rng)`` — allocate parameters (idempotent);
* ``forward(x, training)`` — compute outputs, caching what backward
  needs;
* ``infer(x)`` — inference-only forward: numerically identical to
  ``forward(x, training=False)`` but skips every backward cache, so
  streaming/scoring hot paths neither allocate nor retain
  ``(batch, steps, ·)`` activation buffers;
* ``backward(grad)`` — given d(loss)/d(output), accumulate parameter
  gradients and return d(loss)/d(input);
* ``params`` / ``grads`` — dictionaries keyed by parameter name;
* ``trainable`` — when False the optimizer skips the layer, which is
  how the paper's transfer learning freezes the bottom of a teacher
  model while fine-tuning the top;
* ``clear_cache()`` — drop forward-pass caches (before pickling a
  trained model, so the payload holds weights, not activations).

Parameter-bearing layers accept a ``dtype`` (default float64);
``np.float32`` opts into the faster low-precision path end to end.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn.activations import get_activation
from repro.nn.initializers import (
    DEFAULT_DTYPE,
    glorot_uniform,
    uniform_scaled,
    zeros,
)


class Layer:
    """Base class for all layers."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.trainable = True
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}
        self.built = False

    def build(
        self, input_shape: Tuple[int, ...], rng: np.random.Generator
    ) -> Tuple[int, ...]:
        """Allocate parameters; return the output shape (sans batch)."""
        raise NotImplementedError

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Forward pass; ``training=True`` caches for :meth:`backward`."""
        raise NotImplementedError

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Cache-free inference forward (same values as ``forward``)."""
        return self.forward(x, training=False)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad``; returns the gradient w.r.t. the input."""
        raise NotImplementedError

    def zero_grads(self) -> None:
        """Reset accumulated gradients to zero."""
        for key, value in self.params.items():
            self.grads[key] = np.zeros_like(value)

    def clear_cache(self) -> None:
        """Drop forward-pass caches; no-op for cacheless layers."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class Dense(Layer):
    """Fully connected layer: ``y = activation(x @ W + b)``.

    Accepts inputs of shape ``(batch, features)`` or
    ``(batch, time, features)``; the time axis is treated as extra
    batch dimensions.
    """

    def __init__(
        self,
        units: int,
        activation: str = "linear",
        name: str = "dense",
        dtype: np.dtype = DEFAULT_DTYPE,
    ) -> None:
        super().__init__(name)
        if units < 1:
            raise ValueError(f"units must be >= 1, got {units}")
        self.units = units
        self.activation_name = activation
        self.dtype = np.dtype(dtype)
        self._activation, self._activation_grad = get_activation(activation)
        self._cache_x: Optional[np.ndarray] = None
        self._cache_out: Optional[np.ndarray] = None

    def build(
        self, input_shape: Tuple[int, ...], rng: np.random.Generator
    ) -> Tuple[int, ...]:
        """Initialize weights and bias; returns the output shape."""
        features = input_shape[-1]
        if not self.built:
            self.params = {
                "W": glorot_uniform(
                    (features, self.units), rng, dtype=self.dtype
                ),
                "b": zeros((self.units,), dtype=self.dtype),
            }
            self.zero_grads()
            self.built = True
        return (*input_shape[:-1], self.units)

    def clear_cache(self) -> None:
        """Drop activations cached for backpropagation."""
        self._cache_x = None
        self._cache_out = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Affine map plus activation; caches for :meth:`backward`."""
        out = self._activation(x @ self.params["W"] + self.params["b"])
        self._cache_x = x
        self._cache_out = out
        return out

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Cache-free forward pass for inference."""
        return self._activation(x @ self.params["W"] + self.params["b"])

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad``; returns the gradient w.r.t. the input."""
        x, out = self._cache_x, self._cache_out
        if x is None or out is None:
            raise RuntimeError("backward called before forward")
        grad = grad * self._activation_grad(out)
        flat_x = x.reshape(-1, x.shape[-1])
        flat_grad = grad.reshape(-1, grad.shape[-1])
        self.grads["W"] += flat_x.T @ flat_grad
        self.grads["b"] += flat_grad.sum(axis=0)
        return grad @ self.params["W"].T


class Embedding(Layer):
    """Integer-id lookup table: ``(batch, time) -> (batch, time, dim)``."""

    def __init__(
        self,
        vocabulary: int,
        dim: int,
        name: str = "embedding",
        dtype: np.dtype = DEFAULT_DTYPE,
    ) -> None:
        super().__init__(name)
        if vocabulary < 1 or dim < 1:
            raise ValueError("vocabulary and dim must be >= 1")
        self.vocabulary = vocabulary
        self.dim = dim
        self.dtype = np.dtype(dtype)
        self._cache_ids: Optional[np.ndarray] = None

    def build(
        self, input_shape: Tuple[int, ...], rng: np.random.Generator
    ) -> Tuple[int, ...]:
        """Initialize the embedding table; returns the output shape."""
        if not self.built:
            self.params = {
                "E": uniform_scaled(
                    (self.vocabulary, self.dim), rng, dtype=self.dtype
                )
            }
            self.zero_grads()
            self.built = True
        return (*input_shape, self.dim)

    def clear_cache(self) -> None:
        """Drop activations cached for backpropagation."""
        self._cache_ids = None

    def _lookup(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        ids = np.asarray(x, dtype=np.int64)
        if ids.min(initial=0) < 0 or ids.max(initial=0) >= self.vocabulary:
            raise ValueError(
                f"embedding ids out of range [0, {self.vocabulary})"
            )
        return ids, self.params["E"][ids]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Embedding lookup; caches indices for :meth:`backward`."""
        ids, out = self._lookup(x)
        self._cache_ids = ids
        return out

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Cache-free embedding lookup for inference."""
        return self._lookup(x)[1]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Scatter ``grad`` into the embedding rows that were read."""
        ids = self._cache_ids
        if ids is None:
            raise RuntimeError("backward called before forward")
        flat_ids = ids.reshape(-1)
        flat_grad = np.ascontiguousarray(grad.reshape(-1, self.dim))
        # Scatter-add via a single bincount over the composite
        # (id, column) index — much faster than np.add.at's generic
        # buffered scatter.
        composite = (
            flat_ids[:, None] * self.dim + np.arange(self.dim)
        ).reshape(-1)
        self.grads["E"] += np.bincount(
            composite,
            weights=flat_grad.reshape(-1),
            minlength=self.vocabulary * self.dim,
        ).reshape(self.vocabulary, self.dim)
        # Integer inputs have no gradient; return zeros of input shape
        # so a Sequential chain stays well-typed.
        return np.zeros(ids.shape, dtype=grad.dtype)


class TupleEmbedding(Layer):
    """Embed ``(template_id, gap_bucket)`` pairs and concatenate.

    Input shape ``(batch, time, 2)`` of integer ids; output
    ``(batch, time, id_dim + gap_dim)``.  This realizes the paper's
    per-log tuple ``(m_i, t_i - t_{i-1})`` as a single dense vector.
    """

    def __init__(
        self,
        id_vocabulary: int,
        gap_vocabulary: int,
        id_dim: int = 32,
        gap_dim: int = 4,
        name: str = "tuple_embedding",
        dtype: np.dtype = DEFAULT_DTYPE,
    ) -> None:
        super().__init__(name)
        self.dtype = np.dtype(dtype)
        self.id_embedding = Embedding(
            id_vocabulary, id_dim, name="ids", dtype=dtype
        )
        self.gap_embedding = Embedding(
            gap_vocabulary, gap_dim, name="gaps", dtype=dtype
        )
        # Fused lookup table for the inference hot path: row (i, g)
        # holds concat(E_ids[i], E_gaps[g]) verbatim, so the per-tick
        # lookup is one contiguous gather instead of two gathers plus a
        # concatenate.  Built lazily; dropped whenever the tables can
        # change (``zero_grads`` runs on every weight load and before
        # every training step).
        self._fused: Optional[np.ndarray] = None

    def __getstate__(self) -> dict:
        # Derived from the weights: pickles and clones rebuild it.
        state = self.__dict__.copy()
        state["_fused"] = None
        return state

    @property
    def output_dim(self) -> int:
        """Concatenated width of the per-field embeddings."""
        return self.id_embedding.dim + self.gap_embedding.dim

    def build(
        self, input_shape: Tuple[int, ...], rng: np.random.Generator
    ) -> Tuple[int, ...]:
        """Build one embedding table per tuple field; returns the shape."""
        if input_shape[-1] != 2:
            raise ValueError(
                f"TupleEmbedding expects trailing dim 2, got {input_shape}"
            )
        inner = input_shape[:-1]
        self.id_embedding.build(inner, rng)
        self.gap_embedding.build(inner, rng)
        if not self.built:
            self.params = {
                "ids.E": self.id_embedding.params["E"],
                "gaps.E": self.gap_embedding.params["E"],
            }
            self.zero_grads()
            # Share gradient buffers with the children so their
            # backward passes accumulate into what the optimizer sees.
            self.id_embedding.grads["E"] = self.grads["ids.E"]
            self.gap_embedding.grads["E"] = self.grads["gaps.E"]
            self.built = True
        return (*inner, self.output_dim)

    def zero_grads(self) -> None:
        """Zero the accumulated gradients of every field table.

        Also invalidates the fused inference table: ``zero_grads``
        runs at the start of every training step and at the end of
        every ``Sequential.set_weights`` (hot swap, checkpoint
        restore), which are exactly the points where the embedding
        tables may change under the cache.
        """
        super().zero_grads()
        self._fused = None
        if self.built:
            self.id_embedding.grads["E"] = self.grads["ids.E"]
            self.gap_embedding.grads["E"] = self.grads["gaps.E"]

    def clear_cache(self) -> None:
        """Drop activations cached for backpropagation."""
        self.id_embedding.clear_cache()
        self.gap_embedding.clear_cache()
        self._fused = None

    def _fused_table(self) -> np.ndarray:
        """The ``(id_vocab, gap_vocab, id_dim + gap_dim)`` gather table.

        Each row is a bit-exact copy of the concatenation the unfused
        path produces, so gathering from it is bitwise identical to
        two per-field lookups plus ``np.concatenate``.
        """
        if self._fused is None:
            ids_table = self.id_embedding.params["E"]
            gaps_table = self.gap_embedding.params["E"]
            split = self.id_embedding.dim
            fused = np.empty(
                (
                    self.id_embedding.vocabulary,
                    self.gap_embedding.vocabulary,
                    self.output_dim,
                ),
                dtype=ids_table.dtype,
            )
            fused[:, :, :split] = ids_table[:, None, :]
            fused[:, :, split:] = gaps_table[None, :, :]
            self._fused = fused
        return self._fused

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Per-field lookups concatenated; caches for :meth:`backward`."""
        ids = self.id_embedding.forward(x[..., 0], training)
        gaps = self.gap_embedding.forward(x[..., 1], training)
        return np.concatenate([ids, gaps], axis=-1)

    def codes(self, x: np.ndarray) -> np.ndarray:
        """``id * gap_vocabulary + gap`` for each tuple of ``x``.

        Indexes the rows of the flattened fused table; raises
        ``ValueError`` for an id or gap outside its vocabulary.
        """
        ids = np.asarray(x, dtype=np.int64)
        tids = ids[..., 0]
        gaps = ids[..., 1]
        if (
            tids.min(initial=0) < 0
            or tids.max(initial=0) >= self.id_embedding.vocabulary
        ):
            raise ValueError(
                "embedding ids out of range "
                f"[0, {self.id_embedding.vocabulary})"
            )
        if (
            gaps.min(initial=0) < 0
            or gaps.max(initial=0) >= self.gap_embedding.vocabulary
        ):
            raise ValueError(
                "embedding ids out of range "
                f"[0, {self.gap_embedding.vocabulary})"
            )
        return tids * self.gap_embedding.vocabulary + gaps

    def fused_rows(self) -> np.ndarray:
        """The fused table as ``(id_vocab * gap_vocab, dim)`` rows."""
        return self._fused_table().reshape(-1, self.output_dim)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Cache-free lookup via the fused table (one gather)."""
        return self.fused_rows()[self.codes(x)]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Split ``grad`` by field and scatter into each table."""
        split = self.id_embedding.dim
        self.id_embedding.backward(grad[..., :split])
        self.gap_embedding.backward(grad[..., split:])
        shape = grad.shape[:-1] + (2,)
        return np.zeros(shape, dtype=grad.dtype)


class Dropout(Layer):
    """Inverted dropout; identity at inference time."""

    def __init__(
        self,
        rate: float,
        rng: Optional[np.random.Generator] = None,
        name: str = "dropout",
    ) -> None:
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng or np.random.default_rng(0)
        self._mask: Optional[np.ndarray] = None

    def build(
        self, input_shape: Tuple[int, ...], rng: np.random.Generator
    ) -> Tuple[int, ...]:
        """Validate the input shape; dropout has no parameters."""
        self.built = True
        return input_shape

    def clear_cache(self) -> None:
        """Drop the cached dropout mask."""
        self._mask = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Apply an inverted-dropout mask when training."""
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (
            self._rng.random(x.shape) < keep
        ).astype(x.dtype) / keep
        return x * self._mask

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Identity at inference (dropout is training-only)."""
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backpropagate through the cached dropout mask."""
        if self._mask is None:
            return grad
        return grad * self._mask
