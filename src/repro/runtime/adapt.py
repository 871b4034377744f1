"""Closed-loop drift adaptation inside the serving runtime.

The paper's answer to concept drift — monthly incremental training
plus a transfer-learning fine-tune after software updates (the 14x
false-alarm spike of section 4.3) — runs offline everywhere else in
this repo; :class:`~repro.runtime.service.MonitorService` can only hot
swap a model somebody trained elsewhere.  This module closes the loop
at serve time:

* an :class:`AdaptationController` rides along the service tick loop,
  folding every scored tick's template-id counts (read from the
  scorer, so no message is matched twice) into a frozen *reference*
  distribution and a rolling *recent* window;
* when the cosine similarity between the two stays below a threshold
  for K consecutive checks (the section 3.3 software-update signal),
  the controller fine-tunes the live model over a bounded replay
  window of recent ticks — inline, or in a background worker process
  so ingest never stalls.  The window holds each tick's journal record
  as the WAL stored it, decoded only when a fine-tune starts;
* the student is published to the artifact store as a new release and
  hot-swapped at a tick boundary through the existing journaled swap,
  so crash replay stays bitwise identical;
* the swap opens a *probation* window: if the post-swap anomaly rate
  regresses beyond ``rollback_ratio`` times the pre-drift baseline,
  the controller rolls the store back
  (:meth:`~repro.runtime.service.MonitorService.rollback`) at the next
  boundary — a poisoned fine-tune cannot take the service down.

Replay parity is the design constraint: every phase transition that
depends on the tick stream happens at *observation* time
(:meth:`AdaptationController.after_tick`, also fed by WAL replay), and
only journal-side-effect actions — launching the fine-tune, executing
the rollback — run at live tick boundaries
(:meth:`AdaptationController.before_tick`).  Replaying a journal
therefore reconstructs the controller deterministically: swaps and
rollbacks re-apply from their journal records, never from re-running
the training.
"""

from __future__ import annotations

import base64
import multiprocessing
import os
from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro import telemetry
from repro.core.adaptation import (
    count_distribution_shift,
    transfer_adapt,
)
from repro.runtime.codec import decode_tick
from repro.runtime.store import ArtifactStore, StoreError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.detector import LSTMAnomalyDetector
    from repro.runtime.service import MonitorService, TickResult

#: Controller phases (JSON-safe strings; they ride in checkpoints).
PHASE_WATCHING = "watching"
PHASE_TRIGGERED = "triggered"
PHASE_TUNING = "tuning"
PHASE_PROBATION = "probation"
PHASE_ROLLBACK = "rollback"
PHASE_COOLDOWN = "cooldown"

#: ``metadata["origin"]`` stamped on releases the controller publishes.
AUTO_ADAPT_ORIGIN = "auto-adapt"

#: Version of the controller's checkpointed state layout.
ADAPT_STATE_VERSION = 2

#: Lower bound on the baseline anomaly rate inside the probation
#: ratio test, so a silent pre-drift period cannot make the rollback
#: guard hair-triggered.
BASELINE_FLOOR = 0.02

#: CPU niceness the background fine-tune worker drops to.  Serving
#: latency beats retraining latency: on a busy (or single-core) host
#: the scheduler gives the worker only leftover cycles, so ingest
#: throughput barely dips while training merely takes longer.
WORKER_NICENESS = 10


@dataclass(frozen=True)
class AdaptConfig:
    """Knobs of the in-service adaptation control loop.

    Attributes:
        drift_threshold: cosine similarity below this counts as a
            drift breach (the paper observes < 0.4 at software
            updates; > 0.8 is normal).
        drift_checks: consecutive breaches required to trigger a
            fine-tune — debounces transient bursts.
        check_every_ticks: drift-check cadence in ticks.
        reference_ticks: ticks folded into the frozen reference
            distribution after each (re)baseline.
        recent_ticks: rolling window compared against the reference.
        replay_ticks: bounded replay window of recent ticks the
            fine-tune trains on (the paper's "about one week").
        probation_ticks: post-swap guard window length.
        rollback_ratio: roll back when the probation anomaly rate
            exceeds this multiple of the pre-drift baseline rate
            (floored at :data:`BASELINE_FLOOR`).
        epochs: fine-tune epochs (transfer adaptation freezes the
            lower LSTM either way).
        cooldown_ticks: ticks after a swap/rollback before drift
            checks resume (the reference rebuilds during this time).
        inline: fine-tune synchronously at the tick boundary instead
            of in a worker process — fully deterministic, used by the
            crash-replay CI drill.
        poison: deliberately corrupt every fine-tuned student before
            publishing (:func:`poison_detector`) — the rollback drill.
    """

    drift_threshold: float = 0.5
    drift_checks: int = 3
    check_every_ticks: int = 4
    reference_ticks: int = 16
    recent_ticks: int = 16
    replay_ticks: int = 48
    probation_ticks: int = 24
    rollback_ratio: float = 3.0
    epochs: int = 2
    cooldown_ticks: int = 32
    inline: bool = False
    poison: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.drift_threshold < 1.0:
            raise ValueError("drift_threshold must be in (0, 1)")
        for name in (
            "drift_checks",
            "check_every_ticks",
            "reference_ticks",
            "recent_ticks",
            "replay_ticks",
            "probation_ticks",
            "epochs",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.rollback_ratio <= 0:
            raise ValueError("rollback_ratio must be positive")
        if self.cooldown_ticks < 0:
            raise ValueError("cooldown_ticks must be >= 0")

    @property
    def min_probation_ticks(self) -> int:
        """Earliest tick at which a probation failure may fire."""
        return max(2, self.probation_ticks // 4)


def poison_detector(detector: "LSTMAnomalyDetector") -> None:
    """Deterministically corrupt a detector's output layer (drill).

    Negating the output projection (weights and bias) reverses the
    logit ordering, so the rank-based anomaly score of every
    well-predicted message jumps to near the vocabulary size — the
    post-swap anomaly rate saturates and the probation guard must
    fire.  Used by ``serve --adapt-poison`` and the rollback tests.
    """
    weights = detector.model.get_weights()
    for key in list(weights):
        if key.startswith("output."):
            weights[key] = -weights[key]
    detector.model.set_weights(weights)
    telemetry.counter("adapt.poisoned_releases").inc()


def fine_tune(
    store: ArtifactStore,
    teacher: "LSTMAnomalyDetector",
    records: Sequence[bytes],
    threshold: float,
    epochs: int,
    poison: bool,
    metadata: Dict[str, object],
) -> int:
    """Fine-tune ``teacher`` on journal tick records and publish it.

    The one body of the inline and the background fine-tune: decode the
    replay window's records into the messages transfer adaptation
    trains on, run it, poison the student under the rollback drill,
    publish it with ``threshold``.  Returns the new release id.
    """
    from repro.runtime.service import stage_release

    messages = [
        message for record in records for message in decode_tick(record)
    ]
    student = transfer_adapt(teacher, messages, epochs=epochs)
    if poison:
        poison_detector(student)
    release = stage_release(store, student, threshold, metadata=metadata)
    return release.release_id


def _fine_tune_worker(
    conn: "multiprocessing.connection.Connection",
    store_dir: str,
    keep_releases: int,
    teacher_release: int,
    threshold: float,
    records: List[bytes],
    epochs: int,
    poison: bool,
) -> None:
    """Background fine-tune entry point (child process).

    Loads the teacher from the artifact store (its weights are
    identical to the live model's — weights only ever change through
    journaled swaps), runs :func:`fine_tune` and reports the release id
    (plus the child's telemetry snapshot, for merging) over ``conn``.
    The child touches only the store — never the WAL, checkpoint or
    lock.
    """
    from repro.runtime.service import detector_from_release

    try:
        os.nice(WORKER_NICENESS)
    except (AttributeError, OSError):  # pragma: no cover - platform
        pass
    try:
        registry = telemetry.MetricsRegistry()
        with telemetry.use(registry):
            store = ArtifactStore(
                store_dir, keep_releases=keep_releases
            )
            teacher, _ = detector_from_release(store, teacher_release)
            release = fine_tune(
                store,
                teacher,
                records,
                threshold,
                epochs,
                poison,
                {"origin": AUTO_ADAPT_ORIGIN, "teacher": teacher_release},
            )
        conn.send(
            {
                "ok": True,
                "release": release,
                "telemetry": registry.snapshot(),
            }
        )
    except Exception as error:  # pragma: no cover - defensive
        conn.send(
            {
                "ok": False,
                "error": f"{type(error).__name__}: {error}",
            }
        )
    finally:
        conn.close()


class AdaptationController:
    """The in-service drift→fine-tune→swap→probation state machine.

    Attach one to a :class:`~repro.runtime.service.MonitorService`
    (``service.controller = controller``) before recovery; the service
    then calls :meth:`before_tick` at every live tick boundary,
    :meth:`after_tick` after every scored tick (live and replayed
    alike) and :meth:`on_swap_applied` whenever a journaled swap is
    applied.  All tick-stream-dependent transitions happen in
    :meth:`after_tick`/:meth:`on_swap_applied`, so WAL replay
    reconstructs the controller exactly; :meth:`before_tick` only
    performs journal-side-effect actions and is never called during
    replay.

    Attributes:
        config: the :class:`AdaptConfig` driving the loop.
        phase: current phase (one of the ``PHASE_*`` constants).
        swaps: adaptation swaps applied over this controller's life.
        rollbacks: probation rollbacks applied.
        abandoned: background fine-tunes stopped by :meth:`close`.
    """

    def __init__(self, config: AdaptConfig) -> None:
        self.config = config
        self.phase = PHASE_WATCHING
        self.swaps = 0
        self.rollbacks = 0
        self.abandoned = 0
        self._ticks_seen = 0
        self._last_check_tick = 0
        self._breaches = 0
        self._reference: Optional[np.ndarray] = None
        self._reference_accum: Optional[np.ndarray] = None
        self._reference_seen = 0
        self._recent: Deque[np.ndarray] = deque(maxlen=config.recent_ticks)
        #: Journal records of the last ``replay_ticks`` ticks.
        self._replay: Deque[bytes] = deque(maxlen=config.replay_ticks)
        self._rate_window: Deque[Tuple[int, int]] = deque(
            maxlen=config.probation_ticks
        )
        self._normal_rate: Optional[float] = None
        self._baseline_rate = 0.0
        self._probation_release: Optional[int] = None
        self._rollback_to: Optional[int] = None
        # The post-swap guard: anomalies and kept messages since the
        # swap, and the ticks elapsed.
        self._probation_anomalies = 0
        self._probation_kept = 0
        self._probation_elapsed = 0
        self._cooldown_left = 0
        self._worker: Optional[
            Tuple[
                "multiprocessing.process.BaseProcess",
                "multiprocessing.connection.Connection",
            ]
        ] = None

    # -- observation (identical live and during WAL replay) -------------

    def after_tick(
        self,
        service: "MonitorService",
        record: bytes,
        result: "TickResult",
    ) -> None:
        """Fold one scored tick into the controller's state.

        Called by the service after every tick — live ticks and
        replayed journal ticks alike, with the tick's journal
        ``record`` — so the drift windows, replay buffer and probation
        accounting evolve identically under recovery.  May arm the
        ``triggered``/``rollback`` phases; never performs journal side
        effects itself.
        """
        self._ticks_seen += 1
        capacity = int(service.monitor.detector.vocabulary_capacity)
        self._observe_counts(np.bincount(result.ids, minlength=capacity))
        anomalies, kept = self._tick_rate(service, result)
        self._rate_window.append((anomalies, kept))
        self._replay.append(bytes(record))
        if self.phase == PHASE_COOLDOWN:
            self._cooldown_left -= 1
            if self._cooldown_left <= 0:
                self.phase = PHASE_WATCHING
        elif self.phase == PHASE_WATCHING:
            self._check_drift()
        elif self.phase == PHASE_PROBATION:
            self._observe_probation(anomalies, kept)

    def on_swap_applied(
        self,
        service: "MonitorService",
        release_id: int,
        previous_release: int,
    ) -> None:
        """React to a journaled swap (live apply or WAL replay).

        An adaptation swap (phase ``triggered``/``tuning``) opens the
        probation window; an armed rollback completes into cooldown;
        any other swap is an operator action — the distributions are
        no longer comparable, so the watcher rebaselines.
        """
        registry = telemetry.default_registry()
        if self.phase in (PHASE_TRIGGERED, PHASE_TUNING):
            self.phase = PHASE_PROBATION
            self._probation_release = int(release_id)
            self._rollback_to = int(previous_release)
            self._reset_probation()
            self._baseline_rate = (
                self._normal_rate
                if self._normal_rate is not None
                else self._window_rate()
            )
            self.swaps += 1
            registry.counter("adapt.swap.applied").inc()
            registry.gauge("adapt.swap.release").set(release_id)
        elif self.phase == PHASE_ROLLBACK:
            self.rollbacks += 1
            registry.counter("adapt.rollback.applied").inc()
            registry.gauge("adapt.rollback.release").set(release_id)
            self._enter_cooldown()
        elif self.phase == PHASE_PROBATION:
            # Operator swapped mid-probation; abandon the guard.
            self._enter_cooldown()
        else:
            self._rebaseline()

    # -- decisions (live tick boundaries only) ---------------------------

    def before_tick(self, service: "MonitorService") -> None:
        """Execute armed journal-side-effect actions at a boundary.

        Called by :meth:`MonitorService.process_tick` before the tick
        is journaled (and before any pending swap applies), never
        during replay — replayed journals already carry the swap and
        rollback records these actions produce.
        """
        if self.phase == PHASE_TRIGGERED:
            self._launch(service)
        elif self.phase == PHASE_TUNING:
            self._poll_worker(service)
        elif self.phase == PHASE_ROLLBACK:
            self._execute_rollback(service)

    # -- persistence -----------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot for the service checkpoint.

        A live worker cannot be checkpointed: ``tuning`` persists as
        ``triggered``, so recovery relaunches the fine-tune.
        """
        phase = self.phase
        if phase == PHASE_TUNING:
            phase = PHASE_TRIGGERED
        return {
            "version": ADAPT_STATE_VERSION,
            "phase": phase,
            "swaps": self.swaps,
            "rollbacks": self.rollbacks,
            "ticks_seen": self._ticks_seen,
            "last_check_tick": self._last_check_tick,
            "breaches": self._breaches,
            "reference": (
                None
                if self._reference is None
                else [int(v) for v in self._reference]
            ),
            "reference_accum": (
                None
                if self._reference_accum is None
                else [int(v) for v in self._reference_accum]
            ),
            "reference_seen": self._reference_seen,
            "recent": [
                [int(v) for v in counts] for counts in self._recent
            ],
            "replay": [
                base64.b64encode(record).decode("ascii")
                for record in self._replay
            ],
            "rate_window": [
                [int(a), int(k)] for a, k in self._rate_window
            ],
            "normal_rate": self._normal_rate,
            "baseline_rate": self._baseline_rate,
            "probation_release": self._probation_release,
            "rollback_to": self._rollback_to,
            "probation_anomalies": self._probation_anomalies,
            "probation_kept": self._probation_kept,
            "probation_elapsed": self._probation_elapsed,
            "cooldown_left": self._cooldown_left,
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot (checkpoint load)."""
        version = state.get("version")
        if version != ADAPT_STATE_VERSION:
            raise ValueError(
                f"adapt state version {version!r} is not supported "
                f"(expected {ADAPT_STATE_VERSION})"
            )
        self.phase = str(state["phase"])
        self.swaps = int(state["swaps"])
        self.rollbacks = int(state["rollbacks"])
        self._ticks_seen = int(state["ticks_seen"])
        self._last_check_tick = int(state["last_check_tick"])
        self._breaches = int(state["breaches"])
        reference = state["reference"]
        self._reference = (
            None
            if reference is None
            else np.asarray(reference, dtype=np.int64)
        )
        accum = state["reference_accum"]
        self._reference_accum = (
            None if accum is None else np.asarray(accum, dtype=np.int64)
        )
        self._reference_seen = int(state["reference_seen"])
        self._recent = deque(
            (np.asarray(counts, dtype=np.int64) for counts in state["recent"]),
            maxlen=self.config.recent_ticks,
        )
        self._replay = deque(
            (base64.b64decode(record) for record in state["replay"]),
            maxlen=self.config.replay_ticks,
        )
        self._rate_window = deque(
            ((int(a), int(k)) for a, k in state["rate_window"]),
            maxlen=self.config.probation_ticks,
        )
        normal = state["normal_rate"]
        self._normal_rate = None if normal is None else float(normal)
        self._baseline_rate = float(state["baseline_rate"])
        probation = state["probation_release"]
        self._probation_release = (
            None if probation is None else int(probation)
        )
        rollback_to = state["rollback_to"]
        self._rollback_to = (
            None if rollback_to is None else int(rollback_to)
        )
        self._probation_anomalies = int(state["probation_anomalies"])
        self._probation_kept = int(state["probation_kept"])
        self._probation_elapsed = int(state["probation_elapsed"])
        self._cooldown_left = int(state["cooldown_left"])

    def close(self) -> None:
        """Stop a background fine-tune still running at shutdown.

        It is counted in :attr:`abandoned` and
        ``adapt.fine_tune.abandoned``; the checkpoint records the phase
        as ``triggered``, so a ``--replay`` run relaunches it.
        """
        if self._worker is None:
            return
        process, conn = self._worker
        self._worker = None
        self.abandoned += 1
        telemetry.counter("adapt.fine_tune.abandoned").inc()
        conn.close()
        if process.is_alive():
            process.terminate()
        process.join()

    # -- internals -------------------------------------------------------

    def _tick_rate(
        self, service: "MonitorService", result: "TickResult"
    ) -> Tuple[int, int]:
        """(anomalies, kept) of one tick under the live threshold."""
        kept = np.asarray(result.kept, dtype=bool)
        scores = np.asarray(result.scores, dtype=np.float64)
        valid = kept & np.isfinite(scores)
        anomalies = int(
            (scores[valid] > service.monitor.threshold).sum()
        )
        return anomalies, int(valid.sum())

    def _window_rate(self) -> float:
        """Mean anomaly rate over the trailing rate window."""
        anomalies = sum(a for a, _ in self._rate_window)
        kept = sum(k for _, k in self._rate_window)
        return anomalies / kept if kept else 0.0

    def _observe_counts(self, counts: np.ndarray) -> None:
        """Fold one tick's counts into reference/recent windows."""
        if self._reference is None:
            if self._reference_accum is None:
                self._reference_accum = np.zeros(
                    len(counts), dtype=np.int64
                )
            if len(self._reference_accum) != len(counts):
                # A swap changed the vocabulary capacity mid-build
                # (not reachable through request_swap validation, but
                # cheap to survive): restart the accumulation.
                self._reference_accum = np.zeros(
                    len(counts), dtype=np.int64
                )
                self._reference_seen = 0
            self._reference_accum += counts
            self._reference_seen += 1
            if self._reference_seen >= self.config.reference_ticks:
                self._reference = self._reference_accum
                self._reference_accum = None
                # The trailing rate over the reference period is the
                # "normal" false-alarm baseline the probation guard
                # compares against.
                self._normal_rate = self._window_rate()
            return
        self._recent.append(counts)

    def _check_drift(self) -> None:
        """Run the cadenced drift check; arm the trigger on K breaches."""
        if self._reference is None:
            return
        if len(self._recent) < self.config.recent_ticks:
            return
        since = self._ticks_seen - self._last_check_tick
        if since < self.config.check_every_ticks:
            return
        self._last_check_tick = self._ticks_seen
        recent_sum = np.sum(np.stack(self._recent), axis=0)
        similarity = count_distribution_shift(
            self._reference, recent_sum
        )
        if similarity < self.config.drift_threshold:
            self._breaches += 1
        else:
            self._breaches = 0
        registry = telemetry.default_registry()
        registry.gauge("adapt.trigger.consecutive_breaches").set(
            self._breaches
        )
        if self._breaches >= self.config.drift_checks:
            registry.counter("adapt.trigger.fired").inc()
            self.phase = PHASE_TRIGGERED
            self._breaches = 0

    def _reset_probation(self) -> None:
        self._probation_anomalies = 0
        self._probation_kept = 0
        self._probation_elapsed = 0

    def _observe_probation(self, anomalies: int, kept: int) -> None:
        """Accumulate one probation tick; arm rollback or pass."""
        self._probation_anomalies += anomalies
        self._probation_kept += kept
        self._probation_elapsed += 1
        rate = self._probation_anomalies / max(1, self._probation_kept)
        limit = self.config.rollback_ratio * max(
            self._baseline_rate, BASELINE_FLOOR
        )
        registry = telemetry.default_registry()
        registry.gauge("adapt.probation.anomaly_rate").set(rate)
        registry.gauge("adapt.probation.baseline_rate").set(
            self._baseline_rate
        )
        if (
            self._probation_elapsed >= self.config.min_probation_ticks
            and rate > limit
        ):
            registry.gauge("adapt.rollback.rate_ratio").set(
                rate / max(limit, 1e-12) * self.config.rollback_ratio
            )
            self.phase = PHASE_ROLLBACK
        elif self._probation_elapsed >= self.config.probation_ticks:
            registry.counter("adapt.probation.passed").inc()
            self._enter_cooldown()

    def _launch(self, service: "MonitorService") -> None:
        """Start the fine-tune for an armed trigger (live only)."""
        telemetry.counter("adapt.fine_tune.launched").inc()
        if self.config.inline:
            release = fine_tune(
                service.store,
                service.monitor.detector,
                self._replay,
                service.monitor.threshold,
                self.config.epochs,
                self.config.poison,
                {
                    "origin": AUTO_ADAPT_ORIGIN,
                    "teacher": service.active_release,
                    "trigger_tick": self._ticks_seen,
                },
            )
            self._stage(service, release)
            return
        context = multiprocessing.get_context()
        receiver, sender = context.Pipe(duplex=False)
        process = context.Process(
            target=_fine_tune_worker,
            args=(
                sender,
                str(service.store.directory),
                service.config.keep_releases,
                service.active_release,
                float(service.monitor.threshold),
                list(self._replay),
                self.config.epochs,
                self.config.poison,
            ),
            daemon=True,
        )
        process.start()
        sender.close()
        self._worker = (process, receiver)
        self.phase = PHASE_TUNING

    def _poll_worker(self, service: "MonitorService") -> None:
        """Non-blocking check on the background fine-tune (live only)."""
        assert self._worker is not None
        process, conn = self._worker
        registry = telemetry.default_registry()
        payload: Optional[Dict[str, object]] = None
        if conn.poll():
            payload = conn.recv()
        elif process.is_alive():
            return
        self._worker = None
        conn.close()
        process.join()
        if payload is None or not payload.get("ok"):
            registry.counter("adapt.fine_tune.failed").inc()
            self._enter_cooldown()
            return
        snapshot = payload.get("telemetry")
        if snapshot is not None:
            registry.merge([snapshot])
        self._stage(service, int(payload["release"]))

    def _stage(self, service: "MonitorService", release_id: int) -> None:
        """Stage a finished fine-tune's release for swap.

        The phase is ``triggered`` so :meth:`on_swap_applied` opens
        probation when the swap lands at this same boundary.
        """
        registry = telemetry.default_registry()
        registry.counter("adapt.fine_tune.completed").inc()
        service.request_swap(release_id)
        registry.counter("adapt.swap.staged").inc()
        self.phase = PHASE_TRIGGERED

    def _execute_rollback(self, service: "MonitorService") -> None:
        """Apply an armed probation rollback (live only)."""
        try:
            service.rollback()
        except StoreError:
            # The predecessor was garbage-collected out of retention;
            # nothing to roll back to — stand down instead of looping.
            telemetry.counter("adapt.rollback.failed").inc()
            self._enter_cooldown()

    def _rebaseline(self) -> None:
        """Restart drift watching against the post-event distribution."""
        self._reference = None
        self._reference_accum = None
        self._reference_seen = 0
        self._recent.clear()
        self._breaches = 0
        self._normal_rate = None

    def _enter_cooldown(self) -> None:
        """Rebaseline and pause drift checks for ``cooldown_ticks``."""
        self._rebaseline()
        self._probation_release = None
        self._rollback_to = None
        self._reset_probation()
        if self.config.cooldown_ticks > 0:
            self.phase = PHASE_COOLDOWN
            self._cooldown_left = self.config.cooldown_ticks
        else:
            self.phase = PHASE_WATCHING


__all__ = [
    "ADAPT_STATE_VERSION",
    "AUTO_ADAPT_ORIGIN",
    "AdaptConfig",
    "BASELINE_FLOOR",
    "AdaptationController",
    "PHASE_COOLDOWN",
    "PHASE_PROBATION",
    "PHASE_ROLLBACK",
    "PHASE_TRIGGERED",
    "PHASE_TUNING",
    "PHASE_WATCHING",
    "WORKER_NICENESS",
    "fine_tune",
    "poison_detector",
]
