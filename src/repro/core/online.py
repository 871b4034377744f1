"""Streaming detection runtime.

The paper envisions "a runtime predictive analysis system running in
parallel with existing reactive monitoring systems to provide network
operators timely warnings" (abstract).  :class:`OnlineMonitor` is that
runtime: it consumes syslog messages in cross-device micro-batches
(:meth:`~OnlineMonitor.observe_batch`), scores each arrival under the
trained LSTM, and emits a :class:`WarningSignature` when a cluster of
anomalies forms, with a cooldown so one incident raises one warning.

Scoring is delegated to :class:`repro.core.stream.StreamScorer`, the
vectorized streaming engine: per-device contexts live in preallocated
numpy ring buffers and all devices' ready windows are scored in fused
forward passes, so ingest cost is amortized over the fleet.  At
float64 the scores (and therefore warnings and cooldowns) are bitwise
identical whether a stream is replayed message-at-a-time, in
micro-batches, or through the offline ``detector.score`` path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro import telemetry
from repro.core.detector import LSTMAnomalyDetector
from repro.core.stream import StreamBatch, StreamScorer
from repro.logs.message import MessageBatch, SyslogMessage
from repro.timeutil import MINUTE

#: Version of the dict layout produced by
#: :meth:`OnlineMonitor.state_dict`; bumped on incompatible changes.
MONITOR_STATE_VERSION = 2


@dataclass(frozen=True)
class WarningSignature:
    """One operator-facing warning emitted by the monitor.

    Attributes:
        vpe: device the warning is for.
        time: when the warning fired (timestamp of the anomaly that
            completed the cluster).
        first_anomaly: timestamp of the cluster's first anomaly.
        n_anomalies: anomalies inside the cluster at emission time.
        peak_score: highest anomaly score in the cluster.
    """

    vpe: str
    time: float
    first_anomaly: float
    n_anomalies: int
    peak_score: float


@dataclass
class _DeviceState:
    """One device's forming warning cluster (contexts live in the scorer).

    Created at the device's first anomaly.

    Attributes:
        times: the cluster's anomaly times, oldest first.
        peak: the cluster's highest score (0.0 while empty).
        cooldown_until: no warning fires before this time.
    """

    times: List[float] = field(default_factory=list)
    peak: float = 0.0
    cooldown_until: float = 0.0


class OnlineMonitor:
    """Score messages as they arrive; emit clustered warnings.

    Args:
        detector: a fitted :class:`LSTMAnomalyDetector`.
        threshold: anomaly-score threshold (e.g. the operating point
            from a threshold sweep on recent history).
        cluster_min_size: anomalies needed before a warning fires
            (2 = the paper's warning-signature rule).
        cluster_max_gap: anomalies further apart than this do not
            cluster.
        cooldown: after a warning fires on a device, further warnings
            are suppressed for this long (one incident, one page).
        quantized: score through the int8-quantized inference path
            (:mod:`repro.nn.quant`) instead of the bitwise-exact f64
            model; lossy but faster, opt-in.
    """

    def __init__(
        self,
        detector: LSTMAnomalyDetector,
        threshold: float,
        cluster_min_size: int = 2,
        cluster_max_gap: float = 5 * MINUTE,
        cooldown: float = 30 * MINUTE,
        quantized: bool = False,
    ) -> None:
        if cluster_min_size < 1:
            raise ValueError("cluster_min_size must be >= 1")
        if cluster_max_gap <= 0 or cooldown < 0:
            raise ValueError("invalid gap/cooldown")
        self.detector = detector
        self.threshold = threshold
        self.cluster_min_size = cluster_min_size
        self.cluster_max_gap = cluster_max_gap
        self.cooldown = cooldown
        self.scorer = StreamScorer(detector, quantized=quantized)
        self._devices: Dict[str, _DeviceState] = {}
        self.n_observed = 0
        self.n_anomalies = 0
        #: Per-message scores/kept mask of the most recent
        #: :meth:`observe_batch` call (the runtime service reads this
        #: to journal tick outcomes without re-deriving them).
        self.last_batch: Optional[StreamBatch] = None

    @property
    def n_reordered(self) -> int:
        """Out-of-order arrivals dropped (a message older than its
        device's newest accepted timestamp)."""
        return self.scorer.n_reordered

    # -- checkpointable state -------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Every mutable field needed to reconstruct the monitor.

        Covers the per-device warning clusters (anomaly times, peak,
        cooldown), the observation counters, and — nested under
        ``"scorer"`` — the streaming engine's ring-buffer snapshot.
        Everything except the scorer's numpy arrays is plain
        JSON-serializable data.
        """
        return {
            "version": MONITOR_STATE_VERSION,
            "n_observed": int(self.n_observed),
            "n_anomalies": int(self.n_anomalies),
            "devices": {
                host: [list(state.times), state.peak, state.cooldown_until]
                for host, state in self._devices.items()
            },
            "scorer": self.scorer.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore a snapshot taken by :meth:`state_dict`.

        The monitor must have been constructed with the same detector
        configuration (window, thresholds are constructor arguments,
        not state); warnings emitted after a restore are identical to
        never having snapshotted.
        """
        version = state.get("version")
        if version != MONITOR_STATE_VERSION:
            raise ValueError(
                f"monitor state version {version!r} is not supported "
                f"(expected {MONITOR_STATE_VERSION})"
            )
        self.scorer.load_state_dict(state["scorer"])
        self.n_observed = int(state["n_observed"])
        self.n_anomalies = int(state["n_anomalies"])
        self._devices = {
            host: _DeviceState(
                [float(t) for t in times], float(peak), float(cooldown)
            )
            for host, (times, peak, cooldown) in state["devices"].items()
        }

    def observe_batch(
        self, messages: Sequence[SyslogMessage]
    ) -> List[Optional[WarningSignature]]:
        """Ingest a tick of messages across any number of devices.

        ``messages`` is read as a :class:`MessageBatch` (converted once
        if it is not one).  Scoring runs micro-batched (one fused
        forward per round of the tick); warning clustering then visits
        the tick's anomalies in arrival order, so emitted warnings are
        identical to observing each message individually.  An
        out-of-order arrival is dropped and counted in
        :attr:`n_reordered`.
        """
        messages = MessageBatch.of(messages)
        batch = self.scorer.observe_batch(messages)
        self.last_batch = batch
        results: List[Optional[WarningSignature]] = [None] * len(messages)
        self.n_observed += int(np.count_nonzero(batch.kept))
        # NaN (warm-up) scores never exceed the threshold.
        anomalous = np.flatnonzero(batch.kept & (batch.scores > self.threshold))
        n_warnings = 0
        hosts = messages.hosts
        for index, host_id, now, score in zip(
            anomalous.tolist(),
            messages.host_ids[anomalous].tolist(),
            messages.times[anomalous].tolist(),
            batch.scores[anomalous].tolist(),
        ):
            host = hosts[host_id]
            state = self._devices.get(host)
            if state is None:
                state = self._devices[host] = _DeviceState()
            warning = self._register_anomaly(state, host, now, score)
            if warning is not None:
                n_warnings += 1
                results[index] = warning
        self.n_anomalies += int(anomalous.size)
        if len(messages):
            registry = telemetry.default_registry()
            registry.counter("stream.anomalies").inc(int(anomalous.size))
            registry.counter("stream.warnings_emitted").inc(n_warnings)
        return results

    def _register_anomaly(
        self, state: _DeviceState, host: str, now: float, score: float
    ) -> Optional[WarningSignature]:
        # Drop anomalies that no longer chain into the cluster (a
        # fully expired cluster takes its stale peak with it).
        times = [t for t in state.times if now - t <= self.cluster_max_gap]
        if not times:
            state.peak = 0.0
        times.append(now)
        state.times = times
        if score > state.peak:
            state.peak = score
        if now < state.cooldown_until:
            return None
        if len(times) < self.cluster_min_size:
            return None
        state.cooldown_until = now + self.cooldown
        warning = WarningSignature(
            vpe=host,
            time=now,
            first_anomaly=times[0],
            n_anomalies=len(times),
            peak_score=state.peak,
        )
        state.times = []
        state.peak = 0.0
        return warning

    def run(
        self,
        messages: Iterable[SyslogMessage],
        tick_size: int = 1024,
    ) -> List[WarningSignature]:
        """Drain a whole (sorted) stream in fixed micro-batched ticks;
        larger ticks amortize the fused forward over more devices per
        round."""
        messages = MessageBatch.of(messages)
        warnings: List[WarningSignature] = []
        if tick_size < 1:
            raise ValueError("tick_size must be >= 1")
        for start in range(0, len(messages), tick_size):
            for warning in self.observe_batch(
                messages[start:start + tick_size]
            ):
                if warning is not None:
                    warnings.append(warning)
        return warnings
