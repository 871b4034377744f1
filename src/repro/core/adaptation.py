"""Model adaptation: incremental learning and transfer learning.

Section 4.3's two mechanisms against temporal drift:

* **incremental (online) learning** — every month the model weights
  are updated with the newly arrived syslog (that is
  :meth:`LSTMAnomalyDetector.update`);
* **transfer-learning adaptation** — after a software update the
  distribution shifts abruptly; rather than retrain from scratch
  (3 months of data), copy the pre-update *teacher* model into a
  *student* and fine-tune only the top layers on about one week of
  post-update data.

This module also provides the drift trigger: a month-over-month cosine
similarity drop in the template distribution, the signal section 3.3
uses to diagnose software updates.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import telemetry
from repro.core.detector import LOWER_LAYERS, LSTMAnomalyDetector
from repro.features.counts import template_distribution
from repro.logs.message import SyslogMessage
from repro.ml.similarity import cosine_similarity


def transfer_adapt(
    teacher: LSTMAnomalyDetector,
    new_messages: Sequence[SyslogMessage],
    freeze: Sequence[str] = LOWER_LAYERS,
    epochs: int = 3,
) -> LSTMAnomalyDetector:
    """Adapt a teacher detector to post-update syslog behaviour.

    The student copies the teacher's weights, freezes the ``freeze``
    layers (the lower LSTM by default) and fine-tunes the rest on the
    new data — one week of which suffices in the paper.

    Returns the adapted student; the teacher is left untouched.  This
    is a thin functional wrapper around
    :meth:`LSTMAnomalyDetector.adapt`.
    """
    return teacher.adapt(
        new_messages, freeze=tuple(freeze), epochs=epochs
    )


def distribution_shift(
    previous_month: Sequence[SyslogMessage],
    current_month: Sequence[SyslogMessage],
    vocabulary_size: int,
) -> float:
    """Month-over-month cosine similarity of template distributions.

    Values above ~0.8 are normal; the paper observes drops below 0.4
    at software updates.  Messages must be template-annotated.
    """
    previous = template_distribution(previous_month, vocabulary_size)
    current = template_distribution(current_month, vocabulary_size)
    similarity = cosine_similarity(previous, current)
    registry = telemetry.default_registry()
    registry.counter("adapt.drift_checks").inc()
    registry.gauge("adapt.cosine_similarity").set(similarity)
    return similarity


def count_distribution_shift(
    previous_counts: np.ndarray, current_counts: np.ndarray
) -> float:
    """Cosine similarity between two template count vectors.

    The serving-runtime counterpart of :func:`distribution_shift` for
    callers that already hold per-template count vectors (the
    adaptation controller bincounts matched template ids per tick
    instead of re-annotating messages).  Publishes the same
    ``adapt.drift_checks`` / ``adapt.cosine_similarity`` series.
    """
    similarity = cosine_similarity(
        np.asarray(previous_counts, dtype=np.float64),
        np.asarray(current_counts, dtype=np.float64),
    )
    registry = telemetry.default_registry()
    registry.counter("adapt.drift_checks").inc()
    registry.gauge("adapt.cosine_similarity").set(similarity)
    return similarity


def update_detected(
    previous_month: Sequence[SyslogMessage],
    current_month: Sequence[SyslogMessage],
    vocabulary_size: int,
    threshold: float = 0.5,
) -> bool:
    """Drift trigger: did the distribution change enough to adapt?"""
    if not previous_month or not current_month:
        return False
    detected = (
        distribution_shift(
            previous_month, current_month, vocabulary_size
        )
        < threshold
    )
    if detected:
        telemetry.counter("adapt.drift_detected").inc()
    return detected
