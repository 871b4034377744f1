"""Opt-in int8 quantized inference for the detector stack.

The bitwise-float64 default path is untouched: quantization is a
separate, explicitly-requested engine, mirroring how ``dtype=float32``
opts into the low-precision training path.

:class:`QuantizedModel` is an inference-only twin of a trained detector
``Sequential`` (TupleEmbedding → LSTM → LSTM → Dense).  Weights are
quantized to symmetric per-tensor int8 (``scale = max|W| / 127``) and
the float32 dequantized operands cached, so matmuls stay on the fast
BLAS path while the model's numeric identity is exactly "int8
weights".  The embedding and the first LSTM's input projection are
fused into one precomputed ``(id, gap) -> x_proj`` table, activations
run step-major in persistent scratch buffers (zero steady-state large
allocations), and the gate sigmoids use the
``sigmoid(x) = 0.5 tanh(0.5 x) + 0.5`` identity with the inner ``0.5``
folded into the cached weights: gate columns are permuted to
``i, f, o | g`` and the sigmoid columns pre-scaled by one half, so
each recurrent step's activation is a single contiguous ``np.tanh``
over the whole gate block and the ``0.5 t + 0.5`` affine is absorbed
into the (much smaller) state updates.

Accuracy is gated in ``benchmarks/perf/quant.py``: anomaly decisions
(score vs. threshold) must agree with the float64 reference on at
least 99% of scored messages.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.nn.layers import Dense, TupleEmbedding
from repro.nn.lstm import LSTM

#: Symmetric int8 range: scales map ``max|W|`` onto 127.
_QMAX = 127


def _dequantized(value: np.ndarray) -> "tuple[np.ndarray, float]":
    """Round-trip one tensor through int8; return (float32, scale)."""
    scale = float(np.max(np.abs(value))) / _QMAX
    if scale == 0.0:
        scale = 1.0
    quantized = np.clip(
        np.round(value / scale), -_QMAX, _QMAX
    ).astype(np.int8)
    return quantized.astype(np.float32) * np.float32(scale), scale


# The gate sigmoids use sigmoid(x) = 0.5 tanh(0.5 x) + 0.5.  The inner
# halving is pre-folded into the cached sigmoid-gate weight columns
# (see from_model), so the step kernels see t = tanh(0.5 z) directly
# from one contiguous np.tanh and apply sigmoid = 0.5 (t + 1) inside
# the per-gate state updates.


class QuantizedModel:
    """Int8 inference twin of a trained detector ``Sequential``.

    Build one with :meth:`from_model`; :meth:`infer` accepts the same
    ``(batch, window, 2)`` integer contexts as ``Sequential.infer``
    and returns float32 logits.  Ids must already be clamped into the
    embedding vocabularies (the streaming scorer guarantees this).
    """

    def __init__(
        self,
        xproj_table: np.ndarray,
        cells: "List[Dict[str, object]]",
        dense_weight: np.ndarray,
        dense_bias: np.ndarray,
        scales: Dict[str, float],
    ) -> None:
        self._xproj_table = xproj_table
        self._xproj_flat = xproj_table.reshape(
            -1, xproj_table.shape[-1]
        )
        self._gap_vocab = xproj_table.shape[1]
        self._cells = cells
        self._dense_weight = dense_weight
        self._dense_bias = dense_bias
        #: Per-tensor quantization scales, keyed like ``get_weights()``
        #: (introspection/tests; inference uses the cached operands).
        self.scales = scales
        self._scratch: Dict[str, np.ndarray] = {}

    def _buf(self, name: str, shape: "tuple") -> np.ndarray:
        """A persistent float32 scratch buffer, re-shaped on demand.

        Tick batches repeat the same shape at steady state, so this
        amortizes every large intermediate to one allocation per
        (shape change, buffer) pair instead of one per inference call.
        """
        buffer = self._scratch.get(name)
        if buffer is None or buffer.shape != shape:
            buffer = np.empty(shape, dtype=np.float32)
            self._scratch[name] = buffer
        return buffer

    @classmethod
    def from_model(cls, model: "object") -> "QuantizedModel":
        """Quantize a ``Sequential`` of the detector architecture.

        The supported stack is TupleEmbedding → LSTM (sequences) →
        LSTM → Dense, i.e. exactly what
        :class:`repro.core.detector.LSTMAnomalyDetector` builds with
        its default cell.
        """
        layers = getattr(model, "layers", None)
        if (
            not layers
            or len(layers) != 4
            or not isinstance(layers[0], TupleEmbedding)
            or not isinstance(layers[1], LSTM)
            or not isinstance(layers[2], LSTM)
            or not isinstance(layers[3], Dense)
        ):
            raise ValueError(
                "QuantizedModel supports the detector stack "
                "TupleEmbedding -> LSTM -> LSTM -> Dense; got "
                f"{[type(layer).__name__ for layer in layers or []]}"
            )
        embedding, lstm1, lstm2, dense = layers
        if dense.activation_name != "linear":
            raise ValueError(
                "QuantizedModel expects a linear output layer, got "
                f"{dense.activation_name!r}"
            )
        scales: Dict[str, float] = {}

        ids_table, scales[f"{embedding.name}.ids.E"] = _dequantized(
            embedding.id_embedding.params["E"]
        )
        gaps_table, scales[f"{embedding.name}.gaps.E"] = _dequantized(
            embedding.gap_embedding.params["E"]
        )
        w1, scales[f"{lstm1.name}.W"] = _dequantized(lstm1.params["W"])
        # Fuse embedding lookup + first input projection + first bias
        # into one (id_vocab, gap_vocab, gates) gather table: the
        # per-tick x_proj becomes a single fancy index.
        id_vocab = embedding.id_embedding.vocabulary
        gap_vocab = embedding.gap_embedding.vocabulary
        split = embedding.id_embedding.dim
        concat = np.empty(
            (id_vocab, gap_vocab, embedding.output_dim),
            dtype=np.float32,
        )
        concat[:, :, :split] = ids_table[:, None, :]
        concat[:, :, split:] = gaps_table[None, :, :]
        xproj_table = (
            concat.reshape(-1, embedding.output_dim) @ w1
        ).reshape(id_vocab, gap_vocab, w1.shape[1])
        xproj_table += lstm1.params["b"].astype(np.float32)

        # LSTM gate columns are stored i, f, g, o; permute the cached
        # operands to i, f, o | g and pre-scale the three sigmoid
        # blocks by 0.5, so each step's activation is one contiguous
        # np.tanh yielding t = tanh(0.5 z) for i/f/o and tanh(z) for g.
        def gate_order(hidden: int) -> np.ndarray:
            return np.concatenate(
                (
                    np.arange(0, 2 * hidden),
                    np.arange(3 * hidden, 4 * hidden),
                    np.arange(2 * hidden, 3 * hidden),
                )
            )

        cells: List[Dict[str, object]] = []
        for layer in (lstm1, lstm2):
            recurrent, scale = _dequantized(layer.params["U"])
            scales[f"{layer.name}.U"] = scale
            recurrent = np.ascontiguousarray(
                recurrent[:, gate_order(layer.hidden)]
            )
            recurrent[:, :3 * layer.hidden] *= np.float32(0.5)
            cells.append(
                {
                    "hidden": layer.hidden,
                    "U": recurrent,
                    "return_sequences": layer.return_sequences,
                }
            )
        xproj_table = np.ascontiguousarray(
            xproj_table[..., gate_order(lstm1.hidden)]
        )
        xproj_table[..., :3 * lstm1.hidden] *= np.float32(0.5)
        # Layer 2's input projection runs per tick (its input is layer
        # 1's output); keep its weight/bias as cached operands.
        w2, scales[f"{lstm2.name}.W"] = _dequantized(lstm2.params["W"])
        order2 = gate_order(lstm2.hidden)
        w2 = np.ascontiguousarray(w2[:, order2])
        b2 = lstm2.params["b"].astype(np.float32)[order2]
        w2[:, :3 * lstm2.hidden] *= np.float32(0.5)
        b2[:3 * lstm2.hidden] *= np.float32(0.5)
        cells[1]["W"] = w2
        cells[1]["b"] = b2

        dense_weight, scales[f"{dense.name}.W"] = _dequantized(
            dense.params["W"]
        )
        dense_bias = dense.params["b"].astype(np.float32)
        return cls(xproj_table, cells, dense_weight, dense_bias, scales)

    # -- recurrences ----------------------------------------------------

    def _lstm_pass(
        self, index: int, x_proj: np.ndarray
    ) -> np.ndarray:
        """One LSTM layer over step-major ``x_proj (steps, batch, 4h)``.

        Gate columns are pre-permuted to ``i, f, o | g`` with the
        sigmoid columns pre-scaled by 0.5, so one contiguous
        ``np.tanh`` over the whole gate block yields
        ``t = tanh(0.5 z)`` for i/f/o and ``tanh(z)`` for g; the
        sigmoid's ``0.5 (t + 1)`` affine folds into the (h-wide) state
        updates instead of running over the full 4h block.
        """
        cell = self._cells[index]
        recurrent = cell["U"]
        hidden = cell["hidden"]
        steps, batch, _ = x_proj.shape
        h_prev = self._buf(f"h0_{index}", (batch, hidden))
        h_prev.fill(0.0)
        state = self._buf(f"c_{index}", (batch, hidden))
        state.fill(0.0)
        z = self._buf(f"z_{index}", (batch, 4 * hidden))
        tmp = self._buf(f"tmp_{index}", (batch, hidden))
        sequence = (
            self._buf(f"seq_{index}", (steps, batch, hidden))
            if cell["return_sequences"]
            else None
        )
        for step in range(steps):
            np.matmul(h_prev, recurrent, out=z)
            z += x_proj[step]
            np.tanh(z, out=z)
            t_i = z[:, :hidden]
            t_f = z[:, hidden:2 * hidden]
            t_o = z[:, 2 * hidden:3 * hidden]
            g = z[:, 3 * hidden:]
            # state = 0.5 ((t_f + 1) state + (t_i + 1) g)
            np.add(t_f, 1.0, out=tmp)
            state *= tmp
            np.add(t_i, 1.0, out=tmp)
            tmp *= g
            state += tmp
            state *= 0.5
            # h = 0.5 (t_o + 1) tanh(state)
            np.tanh(state, out=tmp)
            target = h_prev if sequence is None else sequence[step]
            np.add(t_o, 1.0, out=target)
            target *= tmp
            target *= 0.5
            h_prev = target
        return sequence if sequence is not None else h_prev

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Float32 logits for integer contexts ``(batch, window, 2)``.

        No batch-of-1 padding: the quantized path makes no bitwise
        batching guarantee (its accuracy contract is the decision
        agreement gate, not ulp identity).
        """
        ids = np.asarray(x, dtype=np.int64)
        if ids.ndim != 3 or ids.shape[-1] != 2:
            raise ValueError(
                f"expected (batch, window, 2) contexts, got {ids.shape}"
            )
        batch, steps, _ = ids.shape
        # Step-major flat indices into the fused table: one fancy
        # gather yields ``x_proj (steps, batch, gates)`` with every
        # per-step slice contiguous.  (Fancy indexing beats np.take
        # with ``out=`` here by ~3x — the out= path routes through a
        # slower copy loop.)
        flat = ids[..., 0].T * self._gap_vocab + ids[..., 1].T
        x_proj = self._xproj_flat[flat]
        sequence = self._lstm_pass(0, x_proj)
        cell2 = self._cells[1]
        hidden1 = sequence.shape[-1]
        gates2 = cell2["W"].shape[1]
        x_proj2 = self._buf("xproj2", (steps, batch, gates2))
        np.matmul(
            sequence.reshape(-1, hidden1),
            cell2["W"],
            out=x_proj2.reshape(-1, gates2),
        )
        x_proj2 += cell2["b"]
        final = self._lstm_pass(1, x_proj2)
        logits = final @ self._dense_weight
        logits += self._dense_bias
        return logits


__all__ = ["QuantizedModel"]
