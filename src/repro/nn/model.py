"""Sequential model container: training loop, freezing, save/load.

:class:`Sequential` chains layers, drives mini-batch training against a
loss/optimizer pair, and provides the two capabilities the paper's
adaptation mechanism needs:

* :meth:`clone` — copy a teacher model's architecture and weights into
  a fresh student;
* :meth:`freeze` / :meth:`unfreeze` — stop gradient updates for the
  bottom of the network while the top fine-tunes on new data.
"""

from __future__ import annotations

import copy
import time
from typing import BinaryIO, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import telemetry
from repro.nn.layers import Layer
from repro.nn.losses import Loss
from repro.nn.lstm import StackInference
from repro.nn.optimizers import Optimizer, ParamTriple

#: Version of the ``.npz`` weight archive layout written by
#: :meth:`Sequential.save`: the weights plus the ``__repro_format__``
#: and ``__repro_dtype__`` metadata entries.
WEIGHTS_FORMAT_VERSION = 1

#: Metadata keys embedded in the archive alongside the weights.
_FORMAT_KEY = "__repro_format__"
_DTYPE_KEY = "__repro_dtype__"


def batches(
    n: int,
    batch_size: int,
    rng: Optional[np.random.Generator] = None,
) -> Iterator[np.ndarray]:
    """Yield index arrays covering ``range(n)`` in batches.

    When ``rng`` is given the order is shuffled; the final short batch
    is always yielded.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = np.arange(n)
    if rng is not None:
        rng.shuffle(order)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


class Sequential:
    """A linear stack of layers.

    Args:
        layers: the layer stack, bottom first.
        rng: generator used for weight initialization (and dropout).
    """

    def __init__(
        self,
        layers: Sequence[Layer],
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not layers:
            raise ValueError("Sequential needs at least one layer")
        names = [layer.name for layer in layers]
        if len(set(names)) != len(names):
            raise ValueError(f"layer names must be unique, got {names}")
        self.layers: List[Layer] = list(layers)
        self.rng = rng or np.random.default_rng(0)
        self._built = False
        #: Monotonic counter bumped by every :meth:`set_weights` call
        #: (hot swap, checkpoint restore, archive load).  Derived
        #: inference state — e.g. a quantized twin of this model — is
        #: keyed on it and rebuilt when it moves.  Raw in-place
        #: optimizer steps do not bump it; quantize from models that
        #: are not mid-training.
        self.weights_version = 0
        #: The detector stack's exact inference path with its
        #: first-step table; built on first use, dropped wherever the
        #: weights may change, never pickled.
        self._stack: Optional[StackInference] = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_stack"] = None
        return state

    def build(self, input_shape: Tuple[int, ...]) -> "Sequential":
        """Build every layer given the per-sample input shape."""
        shape = tuple(input_shape)
        for layer in self.layers:
            shape = layer.build(shape, self.rng)
        self._built = True
        return self

    def _require_built(self) -> None:
        if not self._built:
            raise RuntimeError(
                "model not built; call build(input_shape) first"
            )

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Forward through every layer; ``training=True`` caches for backward."""
        self._require_built()
        out = x
        for layer in self.layers:
            out = layer.forward(out, training)
        return out

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Inference-only forward: no backward caches are written.

        A batch of one is padded to two rows (and the pad row
        discarded) before hitting the layer stack: BLAS dispatches
        single-row matmuls to a gemv kernel whose accumulation order
        differs from the gemm kernels used for every larger batch, so
        without the pad a batch-of-1 score would drift from the same
        sample scored inside a bigger batch by a few ulps.  With it,
        ``infer`` results are row-wise independent of how samples are
        batched — the invariant the streaming scorer's bitwise
        online/offline parity rests on.

        The float64 detector stack runs :class:`StackInference`, which
        gives the same bits as the per-layer chain.
        """
        self._require_built()
        out = x
        padded = out.shape[0] == 1
        if padded:
            out = np.concatenate([out, out], axis=0)
        if self._stack is None:
            self._stack = StackInference.of(self.layers)
        if self._stack is not None and out.size:
            out = self._stack.infer(out)
        else:
            for layer in self.layers:
                out = layer.infer(out)
        return out[:1] if padded else out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backpropagate through the layers in reverse order."""
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def zero_grads(self) -> None:
        """Zero every layer's accumulated gradients and drop the
        stacked path, whose table the next optimizer step would make
        stale."""
        for layer in self.layers:
            layer.zero_grads()
        self._stack = None

    def clear_caches(self) -> None:
        """Drop every layer's forward-pass cache and inference state.

        Call before pickling a trained model so the payload holds
        weights, not stale activations.
        """
        for layer in self.layers:
            layer.clear_cache()
        self._stack = None

    def parameter_triples(
        self, trainable_only: bool = True
    ) -> List[ParamTriple]:
        """``(key, param, grad)`` triples for the optimizer."""
        triples: List[ParamTriple] = []
        for layer in self.layers:
            if trainable_only and not layer.trainable:
                continue
            for key, param in layer.params.items():
                triples.append(
                    (f"{layer.name}.{key}", param, layer.grads[key])
                )
        return triples

    @property
    def n_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(
            param.size
            for layer in self.layers
            for param in layer.params.values()
        )

    def train_batch(
        self,
        x: np.ndarray,
        y: np.ndarray,
        loss: Loss,
        optimizer: Optimizer,
        sample_weight: Optional[np.ndarray] = None,
    ) -> float:
        """One forward/backward/update step; returns the batch loss."""
        self.zero_grads()
        outputs = self.forward(x, training=True)
        value, grad = loss.value_and_grad(outputs, y)
        if sample_weight is not None:
            weights = np.asarray(sample_weight, dtype=np.float64)
            if weights.shape[0] != grad.shape[0]:
                raise ValueError("sample_weight length must match batch")
            grad = grad * weights.reshape(
                (-1,) + (1,) * (grad.ndim - 1)
            )
        self.backward(grad)
        optimizer.step(self.parameter_triples())
        return value

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        loss: Loss,
        optimizer: Optimizer,
        epochs: int = 1,
        batch_size: int = 64,
        sample_weight: Optional[np.ndarray] = None,
        shuffle: bool = True,
    ) -> List[float]:
        """Mini-batch training; returns the mean loss per epoch."""
        self._require_built()
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y must agree on the batch dimension")
        history: List[float] = []
        registry = telemetry.default_registry()
        for _ in range(epochs):
            epoch_start = time.perf_counter()
            epoch_losses: List[float] = []
            order_rng = self.rng if shuffle else None
            for index in batches(x.shape[0], batch_size, order_rng):
                weight = (
                    sample_weight[index]
                    if sample_weight is not None
                    else None
                )
                epoch_losses.append(
                    self.train_batch(
                        x[index], y[index], loss, optimizer, weight
                    )
                )
            history.append(float(np.mean(epoch_losses)))
            # Epoch loop: one publish per epoch is the batch boundary.
            registry.counter("train.epochs").inc()  # repro: noqa[RPR301]
            registry.gauge("train.epoch_loss").set(history[-1])  # repro: noqa[RPR301]
            registry.histogram("train.epoch_seconds").observe(  # repro: noqa[RPR301]
                time.perf_counter() - epoch_start
            )
        return history

    def predict(
        self, x: np.ndarray, batch_size: int = 256
    ) -> np.ndarray:
        """Inference forward pass, batched to bound memory.

        Runs the cache-free :meth:`infer` path per chunk, so scoring
        large streams does not allocate or retain BPTT buffers.
        """
        self._require_built()
        outputs = [
            self.infer(x[index])
            for index in batches(x.shape[0], batch_size)
        ]
        if len(outputs) == 1:
            return outputs[0]
        return np.concatenate(outputs, axis=0)

    # -- transfer learning support ------------------------------------

    def freeze(self, layer_names: Sequence[str]) -> None:
        """Mark the named layers as non-trainable."""
        self._set_trainable(layer_names, False)

    def unfreeze(self, layer_names: Sequence[str]) -> None:
        """Mark the named layers as trainable again."""
        self._set_trainable(layer_names, True)

    def _set_trainable(
        self, layer_names: Sequence[str], value: bool
    ) -> None:
        known = {layer.name: layer for layer in self.layers}
        for name in layer_names:
            if name not in known:
                raise KeyError(
                    f"no layer named {name!r}; have {sorted(known)}"
                )
            known[name].trainable = value

    def clone(self) -> "Sequential":
        """Deep-copy the model (architecture, weights, trainability).

        The clone gets an independent RNG state so teacher and student
        training do not interleave random streams.
        """
        self._require_built()
        cloned = copy.deepcopy(self)
        cloned.rng = np.random.default_rng(self.rng.integers(2**63))
        return cloned

    # -- persistence ----------------------------------------------------

    def get_weights(self) -> Dict[str, np.ndarray]:
        """Copy out all weights keyed by ``layer.param``."""
        return {
            f"{layer.name}.{key}": param.copy()
            for layer in self.layers
            for key, param in layer.params.items()
        }

    def set_weights(self, weights: Dict[str, np.ndarray]) -> None:
        """Load weights produced by :meth:`get_weights`."""
        self._require_built()
        for layer in self.layers:
            for key, param in layer.params.items():
                full_key = f"{layer.name}.{key}"
                if full_key not in weights:
                    raise KeyError(f"missing weight {full_key!r}")
                value = np.asarray(weights[full_key])
                if value.shape != param.shape:
                    raise ValueError(
                        f"shape mismatch for {full_key!r}: "
                        f"{value.shape} vs {param.shape}"
                    )
                # Cast into the model's precision so a float32 model
                # loads float64 archives (and vice versa) cleanly.
                param[...] = value.astype(param.dtype, copy=False)
        # TupleEmbedding shares buffers with child layers; re-link.
        # zero_grads also drops the derived inference state (the fused
        # embedding table, the stacked path) that the new weights
        # invalidate.
        self.zero_grads()
        self.weights_version += 1

    @property
    def dtype(self) -> np.dtype:
        """The floating-point precision of the model's parameters."""
        for layer in self.layers:
            for param in layer.params.values():
                if np.issubdtype(param.dtype, np.floating):
                    return param.dtype
        return np.dtype(np.float64)

    def save(self, path: str) -> None:
        """Persist weights to a versioned ``.npz`` archive.

        Besides the weights the archive carries a format-version tag
        and the model's dtype, so :meth:`load` can reject archives
        written by an incompatible layout or precision instead of
        silently mis-loading them (the artifact store relies on this).
        """
        self._require_built()
        payload = self.get_weights()
        payload[_FORMAT_KEY] = np.array(
            WEIGHTS_FORMAT_VERSION, dtype=np.int64
        )
        payload[_DTYPE_KEY] = np.array(str(self.dtype))
        np.savez(path, **payload)

    def load(self, source: Union[str, BinaryIO]) -> None:
        """Load weights from an ``.npz`` archive written by :meth:`save`
        (a path or a binary file object).

        An archive without a format tag, of another format version, or
        whose dtype tag is not the model's precision is refused with
        ``ValueError``.
        """
        with np.load(source) as archive:
            weights = {key: archive[key] for key in archive.files}
        version_tag = weights.pop(_FORMAT_KEY, None)
        dtype_tag = weights.pop(_DTYPE_KEY, None)
        if version_tag is None:
            raise ValueError(
                "not a tagged weight archive; re-save the model with "
                "this version of repro"
            )
        version = int(version_tag)
        if version != WEIGHTS_FORMAT_VERSION:
            raise ValueError(
                f"weight archive format version {version} is not "
                "supported by this build (supports "
                f"{WEIGHTS_FORMAT_VERSION}); re-save the model with a "
                "matching version of repro"
            )
        if str(dtype_tag) != str(self.dtype):
            raise ValueError(
                f"archive holds {dtype_tag} weights but the model is "
                f"{self.dtype}; rebuild the model with dtype={dtype_tag}"
            )
        self.set_weights(weights)
