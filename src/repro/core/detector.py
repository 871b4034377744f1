"""The LSTM anomaly detector (section 4.2).

The detector treats syslogs as a language over the mined template set:
given the previous ``k`` ``(template_id, gap_bucket)`` tuples, a
2-LSTM-layer + 1-dense network (the paper's final architecture)
predicts a distribution over the next template.  At detection time the
negative log-likelihood of the template that actually arrived is the
anomaly score; thresholding it yields anomalies.

Training uses only "normal" (ticket-scrubbed) messages, with the
paper's multi-round *minority over-sampling*: after each round, normal
training patterns the model still mis-scores are over-sampled and the
model is refined, until the training false-positive rate stops
improving.
"""

from __future__ import annotations

from typing import BinaryIO, List, Sequence, Tuple, Union

import numpy as np

from repro import telemetry
from repro.core.base import (
    AnomalyDetector,
    ScoredStream,
    clamp_template_ids,
)
from repro.logs.message import MessageBatch, SyslogMessage
from repro.logs.sequences import N_GAP_BUCKETS, SequenceWindower
from repro.logs.templates import TemplateStore
from repro.nn import (
    GRU,
    LSTM,
    Adam,
    Dense,
    Sequential,
    SoftmaxCrossEntropy,
    TupleEmbedding,
)

#: Names of the model's layers, bottom to top.  The transfer-learning
#: adaptation (section 4.3) freezes the lower recurrent layer and
#: fine-tunes the rest.  The embedding stays trainable because software
#: updates introduce *new* template ids whose embeddings start
#: untrained — freezing them would make the new vocabulary unlearnable.
LAYER_NAMES: Tuple[str, ...] = ("embedding", "lstm1", "lstm2", "output")
LOWER_LAYERS: Tuple[str, ...] = ("lstm1",)
TOP_LAYERS: Tuple[str, ...] = ("embedding", "lstm2", "output")


class LSTMAnomalyDetector(AnomalyDetector):
    """LSTM template-language-model detector.

    Args:
        store: the (shared) template store mapping messages to ids.
            The store may keep growing via ``extend``; the model
            allocates ``vocabulary_capacity`` output classes up front
            so it survives vocabulary growth.
        vocabulary_capacity: maximum template ids the model supports.
        window: context length ``k``.
        hidden: hidden sizes of the two LSTM layers.
        id_dim / gap_dim: embedding dimensions.
        epochs: initial-training epochs per over-sampling round.
        update_epochs: epochs for monthly incremental updates.
        batch_size / learning_rate: optimizer schedule.
        max_train_samples: cap on training windows per fit/update call
            (windows are subsampled uniformly beyond it) to bound the
            numpy training cost.
        oversample_rounds: maximum over-sampling refinement rounds.
        oversample_quantile: training samples below this likelihood
            quantile count as "misclassified normal patterns".
        cell: recurrent cell type, ``"lstm"`` (the paper) or ``"gru"``
            (the lighter alternative, for the cell ablation).
        dtype: model precision — ``np.float64`` (default, bitwise
            reproducible against the reference implementation) or
            ``np.float32`` (the opt-in fast path).
        seed: reproducibility seed.
    """

    def __init__(
        self,
        store: TemplateStore,
        vocabulary_capacity: int = 256,
        window: int = 10,
        hidden: Tuple[int, int] = (32, 32),
        id_dim: int = 24,
        gap_dim: int = 4,
        epochs: int = 3,
        update_epochs: int = 1,
        batch_size: int = 64,
        learning_rate: float = 0.003,
        max_train_samples: int = 12000,
        oversample_rounds: int = 2,
        oversample_quantile: float = 0.02,
        cell: str = "lstm",
        dtype: "np.dtype" = np.float64,
        seed: int = 0,
    ) -> None:
        if cell not in ("lstm", "gru"):
            raise ValueError(
                f"cell must be 'lstm' or 'gru', got {cell!r}"
            )
        if vocabulary_capacity < store.vocabulary_size:
            raise ValueError(
                "vocabulary_capacity smaller than the store's current "
                f"vocabulary ({store.vocabulary_size})"
            )
        self.store = store
        self.vocabulary_capacity = vocabulary_capacity
        self.windower = SequenceWindower(window)
        self.epochs = epochs
        self.update_epochs = update_epochs
        self.batch_size = batch_size
        self.max_train_samples = max_train_samples
        self.oversample_rounds = oversample_rounds
        self.oversample_quantile = oversample_quantile
        self.cell = cell
        self.dtype = np.dtype(dtype)
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.loss = SoftmaxCrossEntropy()
        self.optimizer = Adam(learning_rate)
        recurrent = LSTM if cell == "lstm" else GRU
        # Layer names stay "lstm1"/"lstm2" for both cells so the
        # freeze policy and saved weights are cell-agnostic.
        self.model = Sequential(
            [
                TupleEmbedding(
                    vocabulary_capacity,
                    N_GAP_BUCKETS,
                    id_dim=id_dim,
                    gap_dim=gap_dim,
                    name="embedding",
                    dtype=self.dtype,
                ),
                recurrent(
                    hidden[0],
                    return_sequences=True,
                    name="lstm1",
                    dtype=self.dtype,
                ),
                recurrent(hidden[1], name="lstm2", dtype=self.dtype),
                Dense(
                    vocabulary_capacity, name="output", dtype=self.dtype
                ),
            ],
            rng=np.random.default_rng(seed + 1),
        ).build((window, 2))
        self._fitted = False

    # -- data preparation ------------------------------------------------

    def _windows(
        self, messages: Sequence[SyslogMessage]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Annotate, window and clip a message stream.

        Uses the array-first path: the stream's template ids and
        timestamp column go straight into the windower without
        building annotated message copies or per-message event objects.
        """
        batch = MessageBatch.of(messages)
        contexts, targets, times = self.windower.windows_from_arrays(
            self.store.match_ids(batch), batch.times
        )
        # Ids beyond capacity fold onto the unknown id (0).  The
        # windower returns freshly built arrays, so clamp in place
        # instead of copying the whole context tensor.
        clamp_template_ids(contexts[..., 0], self.vocabulary_capacity)
        clamp_template_ids(targets, self.vocabulary_capacity)
        return contexts, targets, times

    def _subsample(
        self, contexts: np.ndarray, targets: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        n = contexts.shape[0]
        if n <= self.max_train_samples:
            return contexts, targets
        index = self.rng.choice(
            n, size=self.max_train_samples, replace=False
        )
        index.sort()
        return contexts[index], targets[index]

    def _windows_multi(
        self, streams: Sequence[Sequence[SyslogMessage]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Window each stream separately and pool the samples.

        Grouped models train on several devices' logs; windowing the
        time-merged union would interleave devices and destroy the
        per-device sequential structure the LSTM is meant to learn.
        """
        context_parts: List[np.ndarray] = []
        target_parts: List[np.ndarray] = []
        for stream in streams:
            contexts, targets, _ = self._windows(stream)
            if contexts.shape[0]:
                context_parts.append(contexts)
                target_parts.append(targets)
        if not context_parts:
            window = self.windower.window
            return (
                np.empty((0, window, 2), dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        return (
            np.concatenate(context_parts),
            np.concatenate(target_parts),
        )

    # -- training ----------------------------------------------------------

    def fit(
        self, messages: Sequence[SyslogMessage]
    ) -> "LSTMAnomalyDetector":
        """Initial training on normal messages with over-sampling."""
        return self.fit_streams([messages])

    def fit_streams(
        self, streams: Sequence[Sequence[SyslogMessage]]
    ) -> "LSTMAnomalyDetector":
        """Initial training on several per-device normal streams."""
        contexts, targets = self._windows_multi(streams)
        contexts, targets = self._subsample(contexts, targets)
        if contexts.shape[0] == 0:
            raise ValueError(
                "not enough messages to form a single training window"
            )
        self.model.fit(
            contexts,
            targets,
            self.loss,
            self.optimizer,
            epochs=self.epochs,
            batch_size=self.batch_size,
        )
        self._fitted = True
        self._oversample_minority(contexts, targets)
        return self

    def _oversample_minority(
        self, contexts: np.ndarray, targets: np.ndarray
    ) -> None:
        """Multi-round over-sampling of mis-scored normal patterns.

        Section 4.2: test the model on its own training data, find
        normal patterns misclassified as anomalies (lowest
        log-likelihoods), over-sample them plus a random sample of the
        rest, and refine; exit when the false-positive rate stops
        improving.
        """
        if self.oversample_rounds == 0 or contexts.shape[0] < 10:
            return
        previous_rate = np.inf
        for _ in range(self.oversample_rounds):
            likelihoods = self._log_likelihoods(contexts, targets)
            cutoff = np.quantile(likelihoods, self.oversample_quantile)
            # Only *known* rare templates are minority patterns worth
            # boosting.  Windows whose target is the unknown id are
            # one-off novelty: duplicating them would teach the model
            # that unknown templates are normal — exactly the signal
            # fault symptoms produce.
            misclassified = (likelihoods <= cutoff) & (targets != 0)
            rate = float(misclassified.mean())
            if rate >= previous_rate or not misclassified.any():
                break
            previous_rate = rate
            minority_index = np.flatnonzero(misclassified)
            majority_index = np.flatnonzero(~misclassified)
            sample_size = min(
                majority_index.size, 4 * minority_index.size
            )
            sampled_majority = self.rng.choice(
                majority_index, size=sample_size, replace=False
            )
            boosted = np.concatenate(
                [np.repeat(minority_index, 4), sampled_majority]
            )
            self.rng.shuffle(boosted)
            self.model.fit(
                contexts[boosted],
                targets[boosted],
                self.loss,
                self.optimizer,
                epochs=1,
                batch_size=self.batch_size,
            )

    def update(
        self, messages: Sequence[SyslogMessage]
    ) -> "LSTMAnomalyDetector":
        """Monthly incremental (online) training on fresh normal data."""
        return self.update_streams([messages])

    def update_streams(
        self, streams: Sequence[Sequence[SyslogMessage]]
    ) -> "LSTMAnomalyDetector":
        """Incremental training on several per-device streams."""
        if not self._fitted:
            return self.fit_streams(streams)
        contexts, targets = self._windows_multi(streams)
        contexts, targets = self._subsample(contexts, targets)
        if contexts.shape[0] == 0:
            return self
        self.model.fit(
            contexts,
            targets,
            self.loss,
            self.optimizer,
            epochs=self.update_epochs,
            batch_size=self.batch_size,
        )
        return self

    # -- scoring -------------------------------------------------------------

    def _log_likelihoods(
        self, contexts: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        logits = self.model.predict(contexts)
        return SoftmaxCrossEntropy.log_likelihoods(logits, targets)

    def score(self, messages: Sequence[SyslogMessage]) -> ScoredStream:
        """Negative log-likelihood per message (higher = more anomalous).

        The first ``window`` messages of the stream have no full
        context and are not scored, mirroring the paper's setup where
        a model is always warm by detection time.
        """
        if not self._fitted:
            raise RuntimeError("detector not fitted")
        contexts, targets, times = self._windows(messages)
        if contexts.shape[0] == 0:
            return ScoredStream(np.empty(0), np.empty(0))
        likelihoods = self._log_likelihoods(contexts, targets)
        return ScoredStream(times, -likelihoods)

    def score_topk(
        self, messages: Sequence[SyslogMessage]
    ) -> ScoredStream:
        """Prediction-rank score (the DeepLog detection rule).

        Instead of thresholding the log-likelihood, DeepLog (Du et
        al., CCS 2017) flags a log when it is not among the model's
        top-k next-template predictions.  The returned score is the
        observed template's rank in the predicted distribution
        (0 = most probable); thresholding at ``k - 0.5`` realizes the
        "not in top k" rule, and sweeping the threshold traces the
        rank-based PRC for comparison against the paper's
        likelihood rule.
        """
        if not self._fitted:
            raise RuntimeError("detector not fitted")
        contexts, targets, times = self._windows(messages)
        if contexts.shape[0] == 0:
            return ScoredStream(np.empty(0), np.empty(0))
        logits = self.model.predict(contexts)
        # rank of the target: number of classes scored strictly higher
        target_logits = logits[
            np.arange(logits.shape[0]), targets
        ]
        ranks = (
            logits > target_logits[:, None]
        ).sum(axis=1).astype(np.float64)
        return ScoredStream(times, ranks)

    # -- adaptation --------------------------------------------------------

    def adapt(
        self,
        messages: Sequence[SyslogMessage],
        freeze: Tuple[str, ...] = LOWER_LAYERS,
        epochs: int = 3,
    ) -> "LSTMAnomalyDetector":
        """Transfer-learning adaptation (section 4.3).

        Mines the new messages into the shared template store, clones
        this (teacher) detector into a student, freezes the ``freeze``
        layers and fine-tunes the remaining layers on the new data —
        one week of which suffices in the paper.  The teacher is left
        untouched; the adapted student is returned.
        """
        return self.adapt_streams(
            [messages], freeze=freeze, epochs=epochs
        )

    def adapt_streams(
        self,
        streams: Sequence[Sequence[SyslogMessage]],
        freeze: Tuple[str, ...] = LOWER_LAYERS,
        epochs: int = 3,
    ) -> "LSTMAnomalyDetector":
        """Per-device-stream counterpart of :meth:`adapt`."""
        telemetry.counter("adapt.fine_tune_events").inc()
        for stream in streams:
            self.store.extend(list(stream))
        student = self.clone()
        student.model.freeze(list(freeze))
        saved_epochs = student.epochs
        saved_rounds = student.oversample_rounds
        student.epochs = epochs
        # Over-sampling needs a stable model; skip it while fine-tuning.
        student.oversample_rounds = 0
        try:
            with telemetry.timed("adapt.fine_tune_seconds"):
                student.fit_streams(streams)
        finally:
            student.epochs = saved_epochs
            student.oversample_rounds = saved_rounds
            student.model.unfreeze(list(freeze))
        return student

    # -- persistence ---------------------------------------------------------

    def restore_weights(self, source: Union[str, BinaryIO]) -> None:
        """Load weights saved by ``model.save`` (a path or a binary
        file object) and mark the detector ready for scoring."""
        self.model.load(source)
        self._fitted = True

    # -- cloning (used by transfer adaptation) ---------------------------

    def clone(self) -> "LSTMAnomalyDetector":
        """Copy the detector (model weights included, optimizer fresh)."""
        twin = LSTMAnomalyDetector.__new__(LSTMAnomalyDetector)
        twin.__dict__.update(self.__dict__)
        twin.model = self.model.clone()
        twin.optimizer = Adam(self.optimizer.learning_rate)
        twin.rng = np.random.default_rng(self.rng.integers(2**63))
        return twin
