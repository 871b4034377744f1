"""Frozen pre-optimization reference implementations ("before").

These are verbatim-semantics copies of the hot-path code as it stood
before the fused/preallocated rewrite: Python-list BPTT caches with a
``np.concatenate`` per backward step, ``np.add.at`` embedding scatter,
per-offset window construction, and the seed's template matching
(:class:`LegacyTemplateStore`: a regex sweep per token, twice, over the
live store's tree).  The microbenchmarks in :mod:`hotpath` time these
against the live implementations so every ``BENCH_hotpath.json`` run
carries its own before/after pair, and the regression tests assert the
fused float64 forward is bitwise-identical to these loops.

Do not "optimize" this module — its whole value is staying slow.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.detector import LSTMAnomalyDetector
from repro.logs.message import SyslogMessage
from repro.logs.sequences import (
    N_GAP_BUCKETS,
    SequenceWindower,
    TemplateEvent,
    gap_bucket,
)
from repro.nn.losses import SoftmaxCrossEntropy
from repro.logs.signature_tree import (
    _VARIABLE_PATTERNS,
    WILDCARD,
    _matches,
)
from repro.logs.templates import TemplateStore
from repro.nn import Dense, Sequential
from repro.nn.activations import tanh
from repro.nn.initializers import glorot_uniform, orthogonal, uniform_scaled
from repro.nn.layers import Layer


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The seed's masked stable sigmoid (slow fancy-index branches)."""
    x = np.asarray(x)
    dtype = x.dtype if x.dtype in (np.float32, np.float64) else np.float64
    out = np.empty_like(x, dtype=dtype)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


class LegacyLSTM(Layer):
    """The seed LSTM: per-step list appends, no fused buffers."""

    def __init__(
        self,
        hidden: int,
        return_sequences: bool = False,
        name: str = "lstm",
    ) -> None:
        super().__init__(name)
        self.hidden = hidden
        self.return_sequences = return_sequences
        self._cache: Optional[dict] = None

    def build(
        self, input_shape: Tuple[int, ...], rng: np.random.Generator
    ) -> Tuple[int, ...]:
        _, features = input_shape
        if not self.built:
            bias = np.zeros(4 * self.hidden)
            bias[self.hidden:2 * self.hidden] = 1.0
            self.params = {
                "W": glorot_uniform((features, 4 * self.hidden), rng),
                "U": np.concatenate(
                    [
                        orthogonal((self.hidden, self.hidden), rng)
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

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        batch, steps, _ = x.shape
        hidden = self.hidden
        weight, recurrent, bias = (
            self.params["W"],
            self.params["U"],
            self.params["b"],
        )
        h_prev = np.zeros((batch, hidden))
        c_prev = np.zeros((batch, hidden))
        gates_i: List[np.ndarray] = []
        gates_f: List[np.ndarray] = []
        gates_g: List[np.ndarray] = []
        gates_o: List[np.ndarray] = []
        cells: List[np.ndarray] = []
        hiddens: List[np.ndarray] = []
        prev_hiddens: List[np.ndarray] = []
        prev_cells: List[np.ndarray] = []
        for step in range(steps):
            z = x[:, step, :] @ weight + h_prev @ recurrent + bias
            gate_i = sigmoid(z[:, :hidden])
            gate_f = sigmoid(z[:, hidden:2 * hidden])
            gate_g = tanh(z[:, 2 * hidden:3 * hidden])
            gate_o = sigmoid(z[:, 3 * hidden:])
            prev_hiddens.append(h_prev)
            prev_cells.append(c_prev)
            c_prev = gate_f * c_prev + gate_i * gate_g
            h_prev = gate_o * tanh(c_prev)
            gates_i.append(gate_i)
            gates_f.append(gate_f)
            gates_g.append(gate_g)
            gates_o.append(gate_o)
            cells.append(c_prev)
            hiddens.append(h_prev)
        self._cache = {
            "x": x,
            "i": gates_i,
            "f": gates_f,
            "g": gates_g,
            "o": gates_o,
            "c": cells,
            "h": hiddens,
            "h_prev": prev_hiddens,
            "c_prev": prev_cells,
        }
        if self.return_sequences:
            return np.stack(hiddens, axis=1)
        return hiddens[-1]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        cache = self._cache
        if cache is None:
            raise RuntimeError("backward called before forward")
        x = cache["x"]
        batch, steps, _ = x.shape
        hidden = self.hidden
        weight, recurrent = self.params["W"], self.params["U"]

        if self.return_sequences:
            step_grads = grad
        else:
            step_grads = np.zeros((batch, steps, hidden))
            step_grads[:, -1, :] = grad

        dx = np.zeros_like(x, dtype=np.float64)
        dh_next = np.zeros((batch, hidden))
        dc_next = np.zeros((batch, hidden))
        for step in range(steps - 1, -1, -1):
            gate_i = cache["i"][step]
            gate_f = cache["f"][step]
            gate_g = cache["g"][step]
            gate_o = cache["o"][step]
            cell = cache["c"][step]
            cell_prev = cache["c_prev"][step]
            hidden_prev = cache["h_prev"][step]

            dh = step_grads[:, step, :] + dh_next
            tanh_cell = np.tanh(cell)
            d_o = dh * tanh_cell
            dc = dh * gate_o * (1.0 - tanh_cell * tanh_cell) + dc_next
            d_f = dc * cell_prev
            d_i = dc * gate_g
            d_g = dc * gate_i

            dz = np.concatenate(
                [
                    d_i * gate_i * (1.0 - gate_i),
                    d_f * gate_f * (1.0 - gate_f),
                    d_g * (1.0 - gate_g * gate_g),
                    d_o * gate_o * (1.0 - gate_o),
                ],
                axis=1,
            )
            self.grads["W"] += x[:, step, :].T @ dz
            self.grads["U"] += hidden_prev.T @ dz
            self.grads["b"] += dz.sum(axis=0)
            dx[:, step, :] = dz @ weight.T
            dh_next = dz @ recurrent.T
            dc_next = dc * gate_f
        return dx


class LegacyEmbedding(Layer):
    """The seed embedding: ``np.add.at`` gradient scatter."""

    def __init__(
        self, vocabulary: int, dim: int, name: str = "embedding"
    ) -> None:
        super().__init__(name)
        self.vocabulary = vocabulary
        self.dim = dim
        self._cache_ids: Optional[np.ndarray] = None

    def build(
        self, input_shape: Tuple[int, ...], rng: np.random.Generator
    ) -> Tuple[int, ...]:
        if not self.built:
            self.params = {
                "E": uniform_scaled((self.vocabulary, self.dim), rng)
            }
            self.zero_grads()
            self.built = True
        return (*input_shape, self.dim)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        ids = np.asarray(x, dtype=np.int64)
        self._cache_ids = ids
        return self.params["E"][ids]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        ids = self._cache_ids
        np.add.at(
            self.grads["E"],
            ids.reshape(-1),
            grad.reshape(-1, self.dim),
        )
        return np.zeros(ids.shape, dtype=np.float64)


class LegacyTupleEmbedding(Layer):
    """The seed tuple embedding, backed by :class:`LegacyEmbedding`."""

    def __init__(
        self,
        id_vocabulary: int,
        gap_vocabulary: int,
        id_dim: int = 32,
        gap_dim: int = 4,
        name: str = "tuple_embedding",
    ) -> None:
        super().__init__(name)
        self.id_embedding = LegacyEmbedding(id_vocabulary, id_dim, name="ids")
        self.gap_embedding = LegacyEmbedding(
            gap_vocabulary, gap_dim, name="gaps"
        )

    def build(
        self, input_shape: Tuple[int, ...], rng: np.random.Generator
    ) -> Tuple[int, ...]:
        inner = input_shape[:-1]
        self.id_embedding.build(inner, rng)
        self.gap_embedding.build(inner, rng)
        if not self.built:
            self.params = {
                "ids.E": self.id_embedding.params["E"],
                "gaps.E": self.gap_embedding.params["E"],
            }
            self.zero_grads()
            self.id_embedding.grads["E"] = self.grads["ids.E"]
            self.gap_embedding.grads["E"] = self.grads["gaps.E"]
            self.built = True
        return (*inner, self.id_embedding.dim + self.gap_embedding.dim)

    def zero_grads(self) -> None:
        super().zero_grads()
        if self.built:
            self.id_embedding.grads["E"] = self.grads["ids.E"]
            self.gap_embedding.grads["E"] = self.grads["gaps.E"]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        ids = self.id_embedding.forward(x[..., 0], training)
        gaps = self.gap_embedding.forward(x[..., 1], training)
        return np.concatenate([ids, gaps], axis=-1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        split = self.id_embedding.dim
        self.id_embedding.backward(grad[..., :split])
        self.gap_embedding.backward(grad[..., split:])
        shape = grad.shape[:-1] + (2,)
        return np.zeros(shape, dtype=np.float64)


class LegacyWindower(SequenceWindower):
    """The seed windower: one strided copy per window offset."""

    def windows(
        self, events: Sequence[TemplateEvent]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = len(events) - self.window
        if n <= 0:
            empty_ctx = np.empty((0, self.window, 2), dtype=np.int64)
            return (
                empty_ctx,
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
            )
        contexts = np.empty((n, self.window, 2), dtype=np.int64)
        targets = np.empty(n, dtype=np.int64)
        target_times = np.empty(n, dtype=np.float64)
        ids = np.fromiter(
            (event.template_id for event in events),
            dtype=np.int64,
            count=len(events),
        )
        gaps = np.fromiter(
            (event.gap_bucket for event in events),
            dtype=np.int64,
            count=len(events),
        )
        times = np.fromiter(
            (event.timestamp for event in events),
            dtype=np.float64,
            count=len(events),
        )
        for offset in range(self.window):
            contexts[:, offset, 0] = ids[offset:offset + n]
            contexts[:, offset, 1] = gaps[offset:offset + n]
        targets[:] = ids[self.window:]
        target_times[:] = times[self.window:]
        return contexts, targets, target_times


_LEGACY_TOKEN_RE = re.compile(r"\S+")


def _legacy_tokenize(text: str) -> List[str]:
    """Seed tokenizer: regex scan instead of ``str.split``."""
    return _LEGACY_TOKEN_RE.findall(text)


def _legacy_is_variable(token: str) -> bool:
    """Seed token classifier: regex sweep per call, no memo."""
    return any(pattern.match(token) for pattern in _VARIABLE_PATTERNS)


def _legacy_presignature(tokens: Sequence[str]) -> Tuple[Optional[str], ...]:
    return tuple(
        WILDCARD if _legacy_is_variable(token) else token
        for token in tokens
    )


class LegacyTemplateStore(TemplateStore):
    """The seed's ``match``: no memo, per-call double token sweep.

    The seed classified every token twice per lookup — once for the
    level-2 key, once for the presignature — with an unmemoized regex
    sweep each time.
    """

    def match(self, message: SyslogMessage) -> int:
        if not self.fitted:
            raise RuntimeError("TemplateStore.match called before fit")
        tokens = _legacy_tokenize(message.text)
        signature = None
        level1 = self._tree._tree.get(len(tokens))
        if level1 is not None:
            first = next(
                (tok for tok in tokens if not _legacy_is_variable(tok)),
                "",
            )
            leaf = level1.get((message.process, first))
            if leaf is not None:
                presig = _legacy_presignature(tokens)
                for candidate in leaf.signatures:
                    if _matches(candidate, presig):
                        signature = candidate
                        break
        if signature is None:
            return 0
        return self._index.get((message.process, signature), 0)

    def transform(
        self, messages: Sequence[SyslogMessage]
    ) -> List[SyslogMessage]:
        """The seed's ``transform``: one :meth:`match` per message."""
        return [
            message.with_template(self.match(message))
            for message in messages
        ]


def uncached_store(store: TemplateStore) -> TemplateStore:
    """A view of ``store``'s mined templates with matching uncached.

    Copies the fitted tree/index into a :class:`LegacyTemplateStore`,
    i.e. the pre-optimization ``transform`` path.
    """
    clone = LegacyTemplateStore(
        merge_threshold=store._tree.merge_threshold
    )
    clone._tree = store._tree
    clone._templates = list(store._templates)
    clone._index = dict(store._index)
    clone._fitted = store.fitted
    clone._rebuild_dispatch()  # for the live methods it inherits
    return clone


class LegacyDetector(LSTMAnomalyDetector):
    """Seed data path: annotated message copies + event objects.

    The seed's ``_windows`` transformed the stream into annotated
    message copies, built one ``TemplateEvent`` object per message,
    and clamped ids on a full copy of the context tensor.
    """

    def _windows(self, messages):
        annotated = self.store.transform(messages)
        contexts, targets, times = self.windower.windows_from_messages(
            annotated
        )
        contexts = contexts.copy()
        context_ids = contexts[..., 0]
        context_ids[context_ids >= self.vocabulary_capacity] = 0
        targets = targets.copy()
        targets[targets >= self.vocabulary_capacity] = 0
        return contexts, targets, times


def legacy_detector(store: TemplateStore, **kwargs) -> LSTMAnomalyDetector:
    """An :class:`LSTMAnomalyDetector` running the pre-refactor stack.

    Builds the standard detector, then swaps in the legacy model
    (list-append LSTM, ``np.add.at`` embeddings), the legacy windower,
    the seed windowing data path and an uncached template store.
    Weight initialization mirrors the live detector draw-for-draw, so
    at a fixed seed the two start from identical parameters.
    """
    detector = LegacyDetector(store, **kwargs)
    layers = detector.model.layers
    embedding, lstm1, lstm2, output = layers
    window = detector.windower.window
    model = Sequential(
        [
            LegacyTupleEmbedding(
                embedding.id_embedding.vocabulary,
                N_GAP_BUCKETS,
                id_dim=embedding.id_embedding.dim,
                gap_dim=embedding.gap_embedding.dim,
                name="embedding",
            ),
            LegacyLSTM(
                lstm1.hidden, return_sequences=True, name="lstm1"
            ),
            LegacyLSTM(lstm2.hidden, name="lstm2"),
            Dense(output.units, name="output"),
        ],
        rng=np.random.default_rng(detector.seed + 1),
    ).build((window, 2))
    detector.model = model
    detector.windower = LegacyWindower(window)
    detector.store = uncached_store(store)
    return detector


class LegacyOnlineScorer:
    """The seed's streaming scorer: one batch-of-1 forward per message.

    Verbatim semantics of the pre-streaming-engine
    ``OnlineMonitor._score``: a per-device ``deque`` of Python tuples,
    a full cache-building ``model.forward(training=False)`` on a
    ``(1, window, 2)`` array for every arrival, and the clamp/gap
    logic inline.  The streaming benchmarks time this against
    :class:`repro.core.stream.StreamScorer` on identical streams.
    """

    def __init__(self, detector: LSTMAnomalyDetector) -> None:
        self.detector = detector
        self._contexts: Dict[str, Deque[Tuple[int, int]]] = {}
        self._last_time: Dict[str, float] = {}

    def observe(self, message: SyslogMessage) -> Optional[float]:
        detector = self.detector
        template_id = detector.store.match(message)
        if template_id >= detector.vocabulary_capacity:
            template_id = 0
        last = self._last_time.get(message.host)
        gap = (
            N_GAP_BUCKETS - 1
            if last is None
            else gap_bucket(message.timestamp - last)
        )
        window = detector.windower.window
        context = self._contexts.setdefault(message.host, deque())
        score: Optional[float] = None
        if len(context) == window:
            array = np.array([context], dtype=np.int64)
            logits = detector.model.forward(array, training=False)
            likelihood = SoftmaxCrossEntropy.log_likelihoods(
                logits, np.array([template_id])
            )
            score = float(-likelihood[0])
        context.append((template_id, gap))
        if len(context) > window:
            context.popleft()
        self._last_time[message.host] = message.timestamp
        return score
