"""LSTM layer with full backpropagation through time.

The cell follows Hochreiter & Schmidhuber (1997) in the modern gated
formulation used by Keras:

.. math::

    i_t &= \\sigma(x_t W_i + h_{t-1} U_i + b_i) \\\\
    f_t &= \\sigma(x_t W_f + h_{t-1} U_f + b_f) \\\\
    g_t &= \\tanh(x_t W_g + h_{t-1} U_g + b_g) \\\\
    o_t &= \\sigma(x_t W_o + h_{t-1} U_o + b_o) \\\\
    c_t &= f_t \\odot c_{t-1} + i_t \\odot g_t \\\\
    h_t &= o_t \\odot \\tanh(c_t)

The four gate blocks are stored fused (``W`` has shape
``(input_dim, 4 * hidden)`` in i, f, g, o order).  The forget-gate bias
initializes to 1.0, the standard trick that eases gradient flow early
in training.

Hot-path layout: the input projection ``x @ W`` for *all* timesteps is
computed in one matmul before the recurrence, so the per-step loop does
a single ``(batch, hidden) @ (hidden, 4*hidden)`` matmul.  Gate
activations, cell states, hidden states and ``tanh(c_t)`` live in
preallocated ``(batch, steps, ·)`` buffers (no Python-list appends, no
``np.stack``), and backward writes the four ``dz`` blocks into one
preallocated ``(batch, steps, 4*hidden)`` buffer whose parameter
gradients are then accumulated with three large matmuls instead of
three small ones per step.  In float64 the fused forward is bitwise
identical to the original per-step loop (addition order is preserved);
``dtype=np.float32`` opts into the faster low-precision path.

Inference (:meth:`LSTM.infer` and :class:`StackInference`) runs one
step function, :func:`lstm_step`, on weights whose gate blocks are
reordered to i, f, o | g.  Each step's two matmuls keep the fused
``(batch, 4 * hidden)`` shape of :meth:`LSTM.forward` (BLAS gives a
row the same bits in any batch, but not a gate block computed on its
own), and one strided copy then lays the pre-activations out
gate-major, ``(4, batch, hidden)``, so one contiguous ``sigmoid``
covers the three sigmoid gates and one ``tanh`` covers g.  Every
element goes through the same ufuncs in the same order as in
:meth:`LSTM.forward`, so the values are bitwise identical at float64.
:class:`StackInference` cuts every temporary from grow-only scratch
that it reuses across calls.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.activations import sigmoid, sigmoid_into
from repro.nn.initializers import DEFAULT_DTYPE, glorot_uniform, orthogonal
from repro.nn.layers import Dense, Layer, TupleEmbedding

#: ``(W, U, b)`` with the gate blocks reordered to i, f, o | g.
GateWeights = Tuple[np.ndarray, np.ndarray, np.ndarray]


class Scratch:
    """Grow-only buffer of one dtype that per-step temporaries are cut
    from.

    A steady stream of batches of one size allocates nothing after the
    first; the buffer grows only when a larger batch arrives.  Views
    cut earlier stay valid after a regrowth: they keep the old buffer
    alive.
    """

    def __init__(self, dtype: np.dtype = np.dtype(np.float64)) -> None:
        self._flat = np.empty(0, dtype=dtype)

    def cut(self, *shapes: Tuple[int, ...]) -> List[np.ndarray]:
        """Contiguous, non-overlapping views of the given shapes."""
        sizes = [math.prod(shape) for shape in shapes]
        total = sum(sizes)
        if self._flat.size < total:
            self._flat = np.empty(total, dtype=self._flat.dtype)
        views = []
        start = 0
        for shape, size in zip(shapes, sizes):
            views.append(self._flat[start:start + size].reshape(shape))
            start += size
        return views


def step_views(
    scratch: Scratch, batch: int, hidden: int
) -> List[np.ndarray]:
    """The temporaries of one :func:`lstm_step`, cut from ``scratch``."""
    return scratch.cut(
        (batch, 4 * hidden), (batch, 4 * hidden), (3, batch, hidden)
    )


def lstm_step(
    weights: GateWeights,
    views: Sequence[np.ndarray],
    x: np.ndarray,
    h: np.ndarray,
    c: np.ndarray,
) -> None:
    """Advance ``(h, c)`` in place by one timestep of input ``x``.

    Bitwise equal to one step of :meth:`LSTM.forward` at float64: the
    same matmul shapes and the same ufuncs in the same order, only
    with the gate columns permuted.  At step 0 the caller passes a
    zero ``h``, and its ``h @ U`` product is computed like any other.
    """
    weight, recurrent, bias = weights
    batch, hidden = h.shape
    z, projection, exp_neg = views
    np.matmul(h, recurrent, out=z)
    np.matmul(x, weight, out=projection)
    z += projection
    z += bias
    # The projection is consumed: its buffer takes the gate-major
    # pre-activations, and z's buffer the activations.
    pre = projection.reshape(4, batch, hidden)
    np.copyto(pre, z.reshape(batch, 4, hidden).transpose(1, 0, 2))
    gate = z.reshape(4, batch, hidden)
    # The sigmoid gates' pre-activations become their mask.
    sigmoid_into(pre[:3], gate[:3], exp_neg, pre[:3])
    np.tanh(pre[3], out=gate[3])
    # The sigmoid's scratch is free again.
    tmp = exp_neg[0]
    c *= gate[1]
    np.multiply(gate[0], gate[3], out=tmp)
    c += tmp
    np.tanh(c, out=tmp)
    np.multiply(gate[2], tmp, out=h)


class LSTM(Layer):
    """A single LSTM layer.

    Args:
        hidden: number of hidden units.
        return_sequences: when True the layer outputs the hidden state
            at every timestep ``(batch, time, hidden)``; when False
            only the final state ``(batch, hidden)``.
        name: layer name used for parameter keys.
        dtype: parameter/activation precision (float64 default;
            float32 is the opt-in fast path).
    """

    def __init__(
        self,
        hidden: int,
        return_sequences: bool = False,
        name: str = "lstm",
        dtype: np.dtype = DEFAULT_DTYPE,
    ) -> None:
        super().__init__(name)
        if hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {hidden}")
        self.hidden = hidden
        self.return_sequences = return_sequences
        self.dtype = np.dtype(dtype)
        self._cache: Optional[dict] = None

    def build(
        self, input_shape: Tuple[int, ...], rng: np.random.Generator
    ) -> Tuple[int, ...]:
        """Initialize the fused gate parameters; returns the output shape."""
        if len(input_shape) != 2:
            raise ValueError(
                "LSTM expects (time, features) input shape, got "
                f"{input_shape}"
            )
        _, features = input_shape
        if not self.built:
            bias = np.zeros(4 * self.hidden, dtype=self.dtype)
            # Forget gate bias = 1.0 (block order: i, f, g, o).
            bias[self.hidden:2 * self.hidden] = 1.0
            self.params = {
                "W": glorot_uniform(
                    (features, 4 * self.hidden), rng, dtype=self.dtype
                ),
                "U": np.concatenate(
                    [
                        orthogonal(
                            (self.hidden, self.hidden),
                            rng,
                            dtype=self.dtype,
                        )
                        for _ in range(4)
                    ],
                    axis=1,
                ),
                "b": bias,
            }
            self.zero_grads()
            self.built = True
        if self.return_sequences:
            return (input_shape[0], self.hidden)
        return (self.hidden,)

    def clear_cache(self) -> None:
        """Drop activations cached for backpropagation."""
        self._cache = None

    def gate_weights(self) -> GateWeights:
        """Copies of ``(W, U, b)`` with the gate blocks reordered to
        i, f, o | g."""
        hidden = self.hidden
        order = np.r_[0:2 * hidden, 3 * hidden:4 * hidden,
                      2 * hidden:3 * hidden]
        return (
            np.ascontiguousarray(self.params["W"][:, order]),
            np.ascontiguousarray(self.params["U"][:, order]),
            self.params["b"][order],
        )

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Fused forward over all timesteps; caches for :meth:`backward`."""
        if x.ndim != 3:
            raise ValueError(
                f"LSTM expects (batch, time, features), got {x.shape}"
            )
        batch, steps, features = x.shape
        hidden = self.hidden
        weight, recurrent, bias = (
            self.params["W"],
            self.params["U"],
            self.params["b"],
        )
        dtype = np.result_type(x.dtype, self.dtype)
        # One big input projection for every timestep at once.
        x_proj = (x.reshape(-1, features) @ weight).reshape(
            batch, steps, 4 * hidden
        )
        gates = np.empty((batch, steps, 4 * hidden), dtype=dtype)
        # Index t holds the *previous* state of step t; index t+1 the
        # new one — backward reads both without extra copies.
        hiddens = np.zeros((batch, steps + 1, hidden), dtype=dtype)
        cells = np.zeros((batch, steps + 1, hidden), dtype=dtype)
        tanh_cells = np.empty((batch, steps, hidden), dtype=dtype)
        h_prev = hiddens[:, 0]
        for step in range(steps):
            z = h_prev @ recurrent
            z += x_proj[:, step]
            z += bias
            gate = gates[:, step]
            # One sigmoid over all four blocks (sigmoid is elementwise,
            # so per-block slicing gives bitwise-identical values), then
            # the g block is overwritten with its tanh.
            # sigmoid's stable exp/mask temporaries are intrinsic to
            # its formulation; the result lands in the gates buffer.
            gate[:] = sigmoid(z)  # repro: noqa[RPR201]
            np.tanh(
                z[:, 2 * hidden:3 * hidden],
                out=gate[:, 2 * hidden:3 * hidden],
            )
            gate_i = gate[:, :hidden]
            gate_f = gate[:, hidden:2 * hidden]
            gate_g = gate[:, 2 * hidden:3 * hidden]
            gate_o = gate[:, 3 * hidden:]
            cell = cells[:, step + 1]
            np.multiply(gate_f, cells[:, step], out=cell)
            cell += gate_i * gate_g
            np.tanh(cell, out=tanh_cells[:, step])
            np.multiply(
                gate_o, tanh_cells[:, step], out=hiddens[:, step + 1]
            )
            h_prev = hiddens[:, step + 1]
        self._cache = {
            "x": x,
            "gates": gates,
            "h": hiddens,
            "c": cells,
            "tanh_c": tanh_cells,
        }
        if self.return_sequences:
            return hiddens[:, 1:]
        return hiddens[:, -1]

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Inference-only forward: no backward caches, O(batch·hidden)
        state instead of O(batch·steps·hidden) activation buffers.

        Runs :func:`lstm_step` once per timestep, so the values are
        bitwise identical to :meth:`forward` at float64.
        """
        if x.ndim != 3:
            raise ValueError(
                f"LSTM expects (batch, time, features), got {x.shape}"
            )
        batch, steps, _ = x.shape
        dtype = np.result_type(x.dtype, self.dtype)
        weights = self.gate_weights()
        views = step_views(Scratch(dtype), batch, self.hidden)
        h = np.zeros((batch, self.hidden), dtype=dtype)
        c = np.zeros((batch, self.hidden), dtype=dtype)
        sequence = (
            np.empty((batch, steps, self.hidden), dtype=dtype)
            if self.return_sequences
            else None
        )
        for step in range(steps):
            lstm_step(weights, views, x[:, step], h, c)
            if sequence is not None:
                sequence[:, step] = h
        if sequence is not None:
            return sequence
        return h

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """BPTT over the cached forward pass; returns the input gradient."""
        cache = self._cache
        if cache is None:
            raise RuntimeError("backward called before forward")
        x = cache["x"]
        batch, steps, features = x.shape
        hidden = self.hidden
        weight, recurrent = self.params["W"], self.params["U"]
        gates = cache["gates"]
        hiddens, cells = cache["h"], cache["c"]
        tanh_cells = cache["tanh_c"]
        dtype = gates.dtype

        if self.return_sequences:
            if grad.shape != (batch, steps, hidden):
                raise ValueError(
                    f"gradient shape {grad.shape} does not match output"
                )
            step_grads = grad
        else:
            if grad.shape != (batch, hidden):
                raise ValueError(
                    f"gradient shape {grad.shape} does not match output"
                )
            step_grads = np.zeros((batch, steps, hidden), dtype=dtype)
            step_grads[:, -1, :] = grad

        # Step-invariant derivative factors, computed once over all
        # timesteps instead of inside the recurrence:
        # d(activation)/dz per gate block, and o_t * (1 - tanh(c_t)^2)
        # (the dh -> dc factor).
        d_gates = gates * (1.0 - gates)
        gate_gs = gates[:, :, 2 * hidden:3 * hidden]
        d_gates[:, :, 2 * hidden:3 * hidden] = 1.0 - gate_gs * gate_gs
        dh_to_dc = gates[:, :, 3 * hidden:] * (
            1.0 - tanh_cells * tanh_cells
        )

        dzs = np.empty((batch, steps, 4 * hidden), dtype=dtype)
        dh_next = np.zeros((batch, hidden), dtype=dtype)
        dc_next = np.zeros((batch, hidden), dtype=dtype)
        recurrent_t = recurrent.T
        for step in range(steps - 1, -1, -1):
            gate = gates[:, step]
            dh = step_grads[:, step, :] + dh_next
            dc = dh * dh_to_dc[:, step]
            dc += dc_next
            dz = dzs[:, step]
            np.multiply(dc, gate[:, 2 * hidden:3 * hidden],
                        out=dz[:, :hidden])
            np.multiply(dc, cells[:, step],
                        out=dz[:, hidden:2 * hidden])
            np.multiply(dc, gate[:, :hidden],
                        out=dz[:, 2 * hidden:3 * hidden])
            np.multiply(dh, tanh_cells[:, step],
                        out=dz[:, 3 * hidden:])
            dz *= d_gates[:, step]
            dh_next = dz @ recurrent_t
            dc_next = dc * gate[:, hidden:2 * hidden]
        # Parameter gradients in three large matmuls over all steps.
        flat_dz = dzs.reshape(-1, 4 * hidden)
        self.grads["W"] += x.reshape(-1, features).T @ flat_dz
        self.grads["U"] += (
            hiddens[:, :steps].reshape(-1, hidden).T @ flat_dz
        )
        self.grads["b"] += flat_dz.sum(axis=0)
        return (flat_dz @ weight.T).reshape(batch, steps, features)


class StackInference:
    """Exact inference for the float64 detector stack.

    The stack is ``TupleEmbedding → LSTM (sequences) → LSTM → Dense``.
    Step 0 of both LSTM layers starts from zero states and depends
    only on a window's first ``(template id, gap bucket)`` tuple, so
    the four states after it are read from a table keyed by that
    tuple's code.  A code's row is computed with :func:`lstm_step`
    (zero-state ``h @ U`` products included, and on at least two rows,
    as :meth:`repro.nn.model.Sequential.infer` pads a batch of one)
    the first time the code appears, so the table holds at most
    ``id_vocabulary × gap_vocabulary`` rows.  The remaining steps run
    both layers in turn on grow-only scratch, the upper layer reading
    the lower layer's new state directly.  Logits are bitwise equal
    to the per-layer ``infer`` chain.

    The owner drops the whole object wherever the weights may change.
    Calls share its scratch, so one model serves one thread at a time.
    """

    def __init__(
        self,
        embedding: TupleEmbedding,
        lower: LSTM,
        upper: LSTM,
        output: Dense,
    ) -> None:
        self.layers = (embedding, lower, upper, output)
        self._weights = (lower.gate_weights(), upper.gate_weights())
        codes = (
            embedding.id_embedding.vocabulary
            * embedding.gap_embedding.vocabulary
        )
        self._slots = np.full(codes, -1, dtype=np.intp)
        self._rows = 0
        #: Per layer, ``(2, rows, hidden)``: h and c after step 0, one
        #: row per code seen.
        self._tables = [
            np.empty((2, 0, layer.hidden)) for layer in (lower, upper)
        ]
        #: Per-call states and step input.
        self._scratch = Scratch()
        #: Step temporaries, shared by both layers.
        self._work = Scratch()

    @classmethod
    def of(cls, layers: Sequence[Layer]) -> "Optional[StackInference]":
        """The stacked path for ``layers``, or None when they are not
        the float64 detector stack."""
        if len(layers) != 4:
            return None
        embedding, lower, upper, output = layers
        if not (
            isinstance(embedding, TupleEmbedding)
            and isinstance(lower, LSTM)
            and isinstance(upper, LSTM)
            and isinstance(output, Dense)
            and lower.return_sequences
            and not upper.return_sequences
        ):
            return None
        if any(layer.dtype != np.float64 for layer in layers):
            return None
        return cls(embedding, lower, upper, output)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Logits for ``(batch, window, 2)`` tuples, ``batch`` >= 2."""
        embedding, lower, upper, output = self.layers
        codes = embedding.codes(x)
        batch, steps = codes.shape
        slots = self._first_slots(codes[:, 0])
        lower_state, upper_state, inputs = self._scratch.cut(
            (2, batch, lower.hidden),
            (2, batch, upper.hidden),
            (batch, embedding.output_dim),
        )
        # mode="clip" skips take's buffered copy; slots are in range.
        np.take(self._tables[0], slots, axis=1, out=lower_state,
                mode="clip")
        np.take(self._tables[1], slots, axis=1, out=upper_state,
                mode="clip")
        rows = embedding.fused_rows()
        lower_weights, upper_weights = self._weights
        lower_views = step_views(self._work, batch, lower.hidden)
        upper_views = step_views(self._work, batch, upper.hidden)
        for step in range(1, steps):
            np.take(rows, codes[:, step], axis=0, out=inputs, mode="clip")
            lstm_step(lower_weights, lower_views, inputs, *lower_state)
            lstm_step(upper_weights, upper_views, lower_state[0],
                      *upper_state)
        return output.infer(upper_state[0])

    def _first_slots(self, first: np.ndarray) -> np.ndarray:
        """Table rows for the first-tuple codes, filling new codes."""
        slots = self._slots[first]
        missing = slots < 0
        if missing.any():
            self._fill(np.unique(first[missing]))
            slots = self._slots[first]
        return slots

    def _fill(self, codes: np.ndarray) -> None:
        """Run step 0 of both layers for new codes; append their rows."""
        embedding, lower, upper, _ = self.layers
        # One row would take BLAS's gemv kernel: pad it to two.
        rows = codes if codes.size > 1 else np.repeat(codes, 2)
        count = rows.size
        lower_state = np.zeros((2, count, lower.hidden))
        upper_state = np.zeros((2, count, upper.hidden))
        lstm_step(
            self._weights[0],
            step_views(self._work, count, lower.hidden),
            embedding.fused_rows()[rows],
            *lower_state,
        )
        lstm_step(
            self._weights[1],
            step_views(self._work, count, upper.hidden),
            lower_state[0],
            *upper_state,
        )
        start = self._rows
        end = start + codes.size
        if end > self._tables[0].shape[1]:
            size = min(max(2 * self._tables[0].shape[1], end, 64),
                       self._slots.size)
            self._tables = [_grown(self._tables[0], start, size),
                            _grown(self._tables[1], start, size)]
        self._tables[0][:, start:end] = lower_state[:, :codes.size]
        self._tables[1][:, start:end] = upper_state[:, :codes.size]
        self._slots[codes] = np.arange(start, end)
        self._rows = end


def _grown(table: np.ndarray, rows: int, size: int) -> np.ndarray:
    """``table`` with room for ``size`` rows; its first ``rows`` kept."""
    wider = np.empty((2, size, table.shape[2]))
    wider[:, :rows] = table[:, :rows]
    return wider
