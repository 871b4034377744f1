"""The durable monitoring service supervisor.

:class:`MonitorService` turns the in-memory streaming pieces — the
:class:`~repro.core.stream.StreamScorer` ring buffers inside an
:class:`~repro.core.online.OnlineMonitor` — into a long-running,
fault-tolerant service:

* every ingested tick is journaled to the
  :class:`~repro.runtime.wal.WriteAheadLog` *before* scoring, so a
  crash mid-tick loses nothing;
* every ``checkpoint_every`` ticks the full engine state is
  snapshotted atomically (:mod:`repro.runtime.checkpoint`) and the
  WAL pruned behind it;
* model rollover is a *hot swap*: a fine-tuned detector (from
  :func:`repro.core.adaptation.transfer_adapt`) is published to the
  :class:`~repro.runtime.store.ArtifactStore` as a new release, the
  swap is journaled as a WAL control record, and the live weights,
  template store and threshold are replaced at the tick boundary —
  no message is dropped or scored twice, and replaying the journal
  reproduces the swap at exactly the same boundary;
* :meth:`MonitorService.recover` restores the newest checkpoint and
  replays unacknowledged journal records, yielding bitwise-identical
  float64 scores and identical warnings to an uninterrupted run.

The supervisor is single-threaded by design: ticks, checkpoints and
swaps are serialized at tick boundaries, which is what makes the
journal a total order and recovery exact.
"""

from __future__ import annotations

import io
import json
import pathlib
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Union,
)

import numpy as np

from repro import telemetry
from repro.core.detector import LSTMAnomalyDetector
from repro.core.online import OnlineMonitor, WarningSignature
from repro.logs.message import MessageBatch, SyslogMessage
from repro.logs.persistence import store_from_json, store_to_json
from repro.runtime.checkpoint import (
    CheckpointError,
    read_checkpoint,
    write_checkpoint,
)
from repro.runtime.codec import TICK_MAGIC, TickEncoder, decode_tick
from repro.runtime.lock import LOCK_FILENAME, OwnerLock
from repro.runtime.store import ArtifactStore, Release
from repro.runtime.wal import DEFAULT_SEGMENT_BYTES, WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rca import RcaEngine
    from repro.runtime.adapt import AdaptationController

#: Kind of the journal's JSON control record: one model swap (ticks
#: are binary records, see :mod:`repro.runtime.codec`).
_KIND_SWAP = "swap"

#: Fault-injection points passed to :attr:`MonitorService.fault_hook`.
FAULT_AFTER_WAL_APPEND = "after-wal-append"
FAULT_BEFORE_CHECKPOINT = "before-checkpoint"

#: Leading byte of a binary tick record (see :mod:`repro.runtime.codec`).
_TICK_MAGIC_BYTE = bytes([TICK_MAGIC])


class ServiceError(RuntimeError):
    """Raised for invalid service operations (not for injected faults)."""


@dataclass(frozen=True)
class ServiceConfig:
    """Durability knobs for one service instance.

    Attributes:
        data_dir: service state root; holds ``wal/``, ``store/`` and
            ``checkpoint.npz``.
        checkpoint_every: snapshot cadence in ticks (checkpoints are
            also taken on graceful :meth:`MonitorService.close`).
        keep_releases: artifact-store retention depth.
        segment_bytes: WAL segment-rotation threshold.
        fsync: fsync every WAL append (power-loss durability).
        quantized: score through the int8-quantized inference path
            (:mod:`repro.nn.quant`) — faster, lossy, opt-in; replay
            under a quantized service reproduces the quantized run.
    """

    data_dir: Union[str, pathlib.Path]
    checkpoint_every: int = 16
    keep_releases: int = 3
    segment_bytes: int = DEFAULT_SEGMENT_BYTES
    fsync: bool = False
    quantized: bool = False

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")

    @property
    def wal_dir(self) -> pathlib.Path:
        """Where the write-ahead log's segments live."""
        return pathlib.Path(self.data_dir) / "wal"

    @property
    def store_dir(self) -> pathlib.Path:
        """Where the artifact store's releases live."""
        return pathlib.Path(self.data_dir) / "store"

    @property
    def checkpoint_path(self) -> pathlib.Path:
        """The (single, atomically replaced) checkpoint file."""
        return pathlib.Path(self.data_dir) / "checkpoint.npz"

    @property
    def lock_path(self) -> pathlib.Path:
        """The pid-stamped owner lockfile guarding this directory."""
        return pathlib.Path(self.data_dir) / LOCK_FILENAME


@dataclass(frozen=True)
class TickResult:
    """Outcome of one processed tick.

    ``scores``, ``kept`` and ``ids`` are the scorer's per-message
    :class:`~repro.core.stream.StreamBatch` columns.
    """

    tick: int
    scores: np.ndarray
    kept: np.ndarray
    ids: np.ndarray
    warnings: List[WarningSignature]
    swapped_release: Optional[int] = None


@dataclass(frozen=True)
class ReplayReport:
    """What :meth:`MonitorService.recover` re-applied from the journal."""

    checkpoint_cursor: int
    records_replayed: int
    ticks_replayed: int
    messages_replayed: int
    swaps_replayed: int
    results: List[TickResult] = field(default_factory=list)


# -- release packaging ----------------------------------------------------


def release_config(
    detector: LSTMAnomalyDetector, threshold: float
) -> Dict[str, object]:
    """The JSON config artifact describing a detector release."""
    embedding = detector.model.layers[0]
    return {
        "capacity": int(detector.vocabulary_capacity),
        "window": int(detector.windower.window),
        "hidden": [
            int(detector.model.layers[1].hidden),
            int(detector.model.layers[2].hidden),
        ],
        "id_dim": int(embedding.id_embedding.dim),
        "gap_dim": int(embedding.gap_embedding.dim),
        "cell": detector.cell,
        "dtype": str(detector.dtype),
        "seed": int(detector.seed),
        "threshold": float(threshold),
    }


def stage_release(
    store: ArtifactStore,
    detector: LSTMAnomalyDetector,
    threshold: float,
    groups: Optional[Dict[str, int]] = None,
    metadata: Optional[Dict[str, object]] = None,
) -> Release:
    """Publish a detector (weights + templates + threshold) atomically.

    The release is everything needed to reconstruct the detector on a
    cold start: the versioned weight archive, the serialized template
    store, the model/threshold config, and (optionally) the device
    group assignments.
    """
    buffer = io.BytesIO()
    detector.model.save(buffer)
    artifacts = {
        "weights.npz": buffer.getvalue(),
        "templates.json": store_to_json(detector.store).encode(),
        "config.json": json.dumps(
            release_config(detector, threshold), indent=2
        ).encode(),
    }
    if groups is not None:
        artifacts["groups.json"] = json.dumps(
            groups, sort_keys=True
        ).encode()
    return store.publish(artifacts, metadata)


def detector_from_release(
    store: ArtifactStore, release_id: int
) -> "tuple[LSTMAnomalyDetector, float]":
    """Reconstruct the detector and threshold of one release."""
    release = store.manifest(release_id)
    config = json.loads(store.read(release_id, "config.json"))
    template_store = store_from_json(
        store.read(release_id, "templates.json")
    )
    detector = LSTMAnomalyDetector(
        template_store,
        vocabulary_capacity=config["capacity"],
        window=config["window"],
        hidden=(config["hidden"][0], config["hidden"][1]),
        id_dim=config["id_dim"],
        gap_dim=config["gap_dim"],
        cell=config.get("cell", "lstm"),
        dtype=np.dtype(config.get("dtype", "float64")),
        seed=config.get("seed", 0),
    )
    weights_path = store.object_path(
        release.artifacts["weights.npz"]
    )
    detector.restore_weights(str(weights_path))
    return detector, float(config["threshold"])


# -- the supervisor -------------------------------------------------------


class MonitorService:
    """WAL-backed, checkpointed supervisor around an online monitor.

    Build one with :meth:`open` (from the artifact store's current
    release) and drive it by calling :meth:`process_tick` per batch of
    arrivals.  Attributes of note:

    Attributes:
        cursor: journal sequence of the last applied record.
        n_ticks: tick records applied over the service's lifetime
            (across restarts); paces the checkpoints.
        n_messages: messages applied over the service's lifetime —
            the feed position :meth:`drain` resumes from, whatever
            tick size earlier runs used.
        active_release: release id whose weights are currently live.
        fault_hook: optional test hook called at named supervisor
            points (see ``FAULT_*`` constants); raising from it
            simulates a crash at that point.
    """

    def __init__(
        self,
        config: ServiceConfig,
        monitor: OnlineMonitor,
        store: ArtifactStore,
        active_release: int,
    ) -> None:
        self.config = config
        self.monitor = monitor
        self.store = store
        self.active_release = int(active_release)
        # The lock comes first: two processes must never both open the
        # WAL below.  Stale locks (dead owner pid) are cleaned inside
        # acquire(), so crash recovery needs no manual unlink.
        self.lock = OwnerLock(config.lock_path)
        self.lock.acquire()
        self.wal = WriteAheadLog(
            config.wal_dir,
            segment_bytes=config.segment_bytes,
            fsync=config.fsync,
        )
        self.cursor = 0
        self.n_ticks = 0
        self.n_messages = 0
        self.pending_release: Optional[int] = None
        #: Optional closed-loop drift adaptation controller
        #: (:class:`repro.runtime.adapt.AdaptationController`); attach
        #: before :meth:`recover` so replay rebuilds its windows.
        self.controller: Optional["AdaptationController"] = None
        #: Optional streaming root-cause engine
        #: (:class:`repro.rca.RcaEngine`); attach before
        #: :meth:`recover` so checkpointed incidents restore and
        #: replayed ticks rebuild the identical incident stream.
        self.rca: Optional["RcaEngine"] = None
        self.fault_hook: Optional[Callable[[str, int], None]] = None
        self._encoder = TickEncoder()
        self._closed = False

    # -- construction ---------------------------------------------------

    @classmethod
    def open(cls, config: ServiceConfig) -> "MonitorService":
        """Open a service on the store's current release.

        The store must hold at least one release (see
        :func:`stage_release`); recovery of checkpoint/WAL state is a
        separate, explicit :meth:`recover` call.
        """
        store = ArtifactStore(
            config.store_dir, keep_releases=config.keep_releases
        )
        current = store.current_id()
        if current is None:
            raise ServiceError(
                f"{store.directory} holds no release; publish one "
                "with stage_release() before opening the service"
            )
        detector, threshold = detector_from_release(store, current)
        # Drop-and-count out-of-order arrivals: one late message must
        # not wedge the tick loop.
        monitor = OnlineMonitor(
            detector,
            threshold=threshold,
            strict_order=False,
            quantized=config.quantized,
        )
        return cls(config, monitor, store, current)

    # -- durability -----------------------------------------------------

    def _fault(self, point: str, sequence: int) -> None:
        if self.fault_hook is not None:
            self.fault_hook(point, sequence)

    def checkpoint_now(self) -> int:
        """Snapshot the engine state at the current cursor; prune WAL.

        Returns the checkpoint size in bytes.
        """
        self._fault(FAULT_BEFORE_CHECKPOINT, self.cursor)
        extra: Dict[str, object] = {
            "n_ticks": self.n_ticks,
            "n_messages": self.n_messages,
            "active_release": self.active_release,
        }
        if self.pending_release is not None:
            # A swap staged but not yet applied at a boundary must
            # survive a crash — it re-stages on recovery.
            extra["pending_release"] = self.pending_release
        if self.controller is not None:
            extra["adapt"] = self.controller.state_dict()
        if self.rca is not None:
            extra["rca"] = self.rca.state_dict()
        with telemetry.timed("runtime.checkpoint.seconds"):
            size = write_checkpoint(
                self.config.checkpoint_path,
                self.monitor,
                self.cursor,
                extra=extra,
            )
        self.wal.prune(self.cursor)
        return size

    def recover(self) -> ReplayReport:
        """Restore the checkpoint, then replay unacknowledged records.

        Replayed ticks are re-scored through the exact restored state,
        so their float64 scores and emitted warnings are bitwise
        identical to the crashed run's (and to an uninterrupted run).
        Journaled swaps are re-applied at the same boundaries.
        """
        checkpoint_cursor = 0
        path = self.config.checkpoint_path
        if path.exists():
            checkpoint = read_checkpoint(path)
            extra = checkpoint.extra
            try:
                checkpoint.restore(self.monitor)
                adapt_state = extra.get("adapt")
                if adapt_state is not None and self.controller is not None:
                    self.controller.load_state_dict(adapt_state)
                rca_state = extra.get("rca")
                if rca_state is not None and self.rca is not None:
                    self.rca.load_state_dict(rca_state)
                self.n_ticks = int(extra["n_ticks"])
                self.n_messages = int(extra["n_messages"])
                restored_release = int(extra["active_release"])
            except KeyError as error:
                raise CheckpointError(
                    f"{path}: checkpoint has no entry {error}"
                ) from None
            except (TypeError, ValueError) as error:
                raise CheckpointError(f"{path}: {error}") from None
            self.cursor = checkpoint_cursor = checkpoint.cursor
            if restored_release != self.active_release:
                self._load_release(restored_release)
            pending = extra.get("pending_release")
            if pending is not None:
                self.pending_release = int(pending)
        results: List[TickResult] = []
        records = ticks = messages = swaps = 0
        for record in self.wal.replay(after=self.cursor):
            records += 1
            raw_payload = record.payload
            # Tick records lead with TICK_MAGIC; swap control records
            # are JSON and lead with '{'.
            if raw_payload[:1] == _TICK_MAGIC_BYTE:
                batch = decode_tick(raw_payload)
                result = self._score_tick(record.sequence, batch)
                results.append(result)
                if self.controller is not None:
                    self.controller.after_tick(self, raw_payload, result)
                ticks += 1
                messages += len(batch)
            elif raw_payload[:1] == b"{":
                payload = json.loads(raw_payload.decode())
                if payload["kind"] != _KIND_SWAP:
                    raise ServiceError(
                        "unknown journal record kind "
                        f"{payload['kind']!r} at sequence "
                        f"{record.sequence}"
                    )
                previous = self.active_release
                self._load_release(int(payload["release"]))
                if self.controller is not None:
                    self.controller.on_swap_applied(
                        self, self.active_release, previous
                    )
                if self.pending_release == self.active_release:
                    # The checkpointed staged swap landed in the
                    # journal before the crash; don't re-stage it.
                    self.pending_release = None
                swaps += 1
            else:
                raise ServiceError(
                    f"unrecognized journal record at sequence "
                    f"{record.sequence}: leading byte "
                    f"0x{raw_payload[0]:02X}"
                )
            self.cursor = record.sequence
        registry = telemetry.default_registry()
        registry.counter("runtime.wal.records_replayed").inc(records)
        registry.counter("runtime.recoveries").inc()
        return ReplayReport(
            checkpoint_cursor=checkpoint_cursor,
            records_replayed=records,
            ticks_replayed=ticks,
            messages_replayed=messages,
            swaps_replayed=swaps,
            results=results,
        )

    # -- the tick loop --------------------------------------------------

    def _score_tick(self, sequence: int, tick: MessageBatch) -> TickResult:
        outcomes = self.monitor.observe_batch(tick)
        warnings = [w for w in outcomes if w is not None]
        batch = self.monitor.last_batch
        self.n_ticks += 1
        self.n_messages += len(tick)
        if self.rca is not None:
            # One hook covers both the live tick loop and WAL replay:
            # the engine sees the identical decision stream either
            # way, which is what makes its incident output replayable.
            self.rca.observe_tick(
                tick, batch.scores, batch.kept, self.monitor.threshold
            )
        return TickResult(
            tick=sequence,
            scores=batch.scores,
            kept=batch.kept,
            ids=batch.ids,
            warnings=warnings,
        )

    def process_tick(
        self, messages: Sequence[SyslogMessage]
    ) -> TickResult:
        """Journal, score and (at cadence) checkpoint one tick.

        ``messages`` is read as a :class:`MessageBatch` (converted once
        if it is not one): the WAL journals its columns and the monitor
        scores them.  Order of operations is the durability contract:
        the tick is appended to the WAL first, so a crash anywhere
        after the append replays it on recovery; a crash before the
        append means the feeder never saw it acknowledged.  A staged
        model swap is applied at the boundary *before* the tick, so
        every message is scored exactly once, under exactly one model.
        """
        if self._closed:
            raise ServiceError("service is closed")
        self._ensure_activation_record()
        swapped = None
        if self.controller is not None:
            # Boundary decisions (fine-tune launch/poll, armed
            # rollback) run before the tick is journaled, so their
            # swap records land at this exact boundary and replay
            # reproduces them without re-running any training.
            before = self.active_release
            self.controller.before_tick(self)
            if self.active_release != before:
                swapped = self.active_release
        if self.pending_release is not None:
            swapped = self._journal_and_apply_swap()
        tick = MessageBatch.of(messages)
        sequence = self.cursor + 1
        record = self._encoder.encode(tick)
        self.wal.append(sequence, record)
        self._fault(FAULT_AFTER_WAL_APPEND, sequence)
        result = self._score_tick(sequence, tick)
        self.cursor = sequence
        if self.controller is not None:
            # Observation must precede the checkpoint so the snapshot
            # carries the controller's post-tick state; the record is
            # still the encoder's, as no tick was encoded since.
            self.controller.after_tick(self, record, result)
        telemetry.counter("runtime.ticks").inc()
        if self.n_ticks % self.config.checkpoint_every == 0:
            self.checkpoint_now()
        if swapped is not None:
            result = replace(result, swapped_release=swapped)
        return result

    def drain(
        self,
        feed: Sequence[SyslogMessage],
        tick_size: int = 256,
        max_ticks: Optional[int] = None,
    ) -> "Iterator[TickResult]":
        """Process a feed tick by tick, resuming past applied work.

        Each tick is a slice of ``tick_size`` messages of the feed
        read as a :class:`MessageBatch`.  The feed resumes at the
        persisted :attr:`n_messages` cursor, which stays exact across
        restarts whatever sizes earlier ticks had.  Yields one
        :class:`TickResult` per processed tick, stopping after
        ``max_ticks`` of them when given.
        """
        if tick_size < 1:
            raise ValueError("tick_size must be >= 1")
        feed = MessageBatch.of(feed)
        offset = self.n_messages
        yielded = 0
        while offset < len(feed):
            if max_ticks is not None and yielded >= max_ticks:
                return
            batch = feed[offset:offset + tick_size]
            yield self.process_tick(batch)
            yielded += 1
            offset += len(batch)

    def _ensure_activation_record(self) -> None:
        """Journal which release a brand-new journal starts under.

        Without this, a crash after a release is *published* (flipping
        the store's ``CURRENT``) but before its swap record lands
        would make a checkpoint-less recovery replay early ticks under
        the wrong model.  The first journal record therefore pins the
        opening release; replaying it is an idempotent re-load.
        """
        if (
            self.cursor == 0
            and self.wal.last_sequence == 0
            and not self.config.checkpoint_path.exists()
        ):
            payload = json.dumps(
                {"kind": _KIND_SWAP, "release": self.active_release},
                separators=(",", ":"),
            ).encode()
            self.wal.append(1, payload)
            self.cursor = 1

    # -- hot model swap -------------------------------------------------

    def _validate_swap(self, release_id: int) -> None:
        config = json.loads(self.store.read(release_id, "config.json"))
        detector = self.monitor.detector
        if config["window"] != detector.windower.window:
            raise ServiceError(
                f"release {release_id} window {config['window']} does "
                f"not match the live window "
                f"{detector.windower.window}; a hot swap cannot "
                "resize ring buffers — restart the service instead"
            )
        if config["capacity"] != detector.vocabulary_capacity:
            raise ServiceError(
                f"release {release_id} capacity "
                f"{config['capacity']} does not match the live "
                f"capacity {detector.vocabulary_capacity}"
            )

    def request_swap(self, release_id: int) -> None:
        """Stage a release for hot swap at the next tick boundary.

        The release must exist and be ring-buffer compatible (same
        context window and vocabulary capacity) — validation happens
        now so an incompatible release fails fast, not mid-stream.
        """
        self._validate_swap(release_id)
        self.pending_release = int(release_id)
        registry = telemetry.default_registry()
        registry.counter("runtime.swap.staged").inc()
        registry.gauge("runtime.swap.pending_release").set(release_id)

    def _load_release(self, release_id: int) -> None:
        """Point the live engine at a release's model (in place).

        The detector object (shared by monitor and scorer) keeps its
        identity; its template store, weights and threshold are
        replaced, and the ring buffers are untouched — contexts carry
        template *ids*, which releases preserve.
        """
        detector, threshold = detector_from_release(
            self.store, release_id
        )
        live = self.monitor.detector
        live.store = detector.store
        live.model.set_weights(detector.model.get_weights())
        self.monitor.threshold = threshold
        self.active_release = int(release_id)

    def _journal_and_apply_swap(self) -> int:
        release_id = self.pending_release
        assert release_id is not None
        previous = self.active_release
        sequence = self.cursor + 1
        payload = json.dumps(
            {"kind": _KIND_SWAP, "release": release_id},
            separators=(",", ":"),
        ).encode()
        self.wal.append(sequence, payload)
        self._fault(FAULT_AFTER_WAL_APPEND, sequence)
        self._load_release(release_id)
        self.cursor = sequence
        self.pending_release = None
        registry = telemetry.default_registry()
        registry.counter("runtime.swap.applied").inc()
        registry.gauge("runtime.swap.active_release").set(release_id)
        if self.controller is not None:
            self.controller.on_swap_applied(self, release_id, previous)
        return release_id

    def rollback(self) -> int:
        """Roll the live model back to the previous retained release.

        The single rollback path shared by ``serve --rollback`` and
        the adaptation controller's probation guard: the store pointer
        flips (:meth:`ArtifactStore.rollback`), the swap is journaled
        and applied at the current tick boundary, and replaying the
        journal reproduces it — no message is dropped or scored twice.
        Returns the release id now live.  Raises
        :class:`~repro.runtime.store.StoreError` when no retained
        predecessor exists.
        """
        release = self.store.rollback()
        self._ensure_activation_record()
        self.request_swap(release.release_id)
        applied = self._journal_and_apply_swap()
        telemetry.counter("runtime.rollbacks").inc()
        return applied

    # -- shutdown -------------------------------------------------------

    def close(self) -> None:
        """Graceful shutdown: final checkpoint, prune, release files.

        The WAL handle and the owner lock are released even when the
        final checkpoint raises — a wedged lock would block every
        subsequent open of the same data directory.
        """
        if self._closed:
            return
        self._closed = True
        try:
            if self.controller is not None:
                self.controller.close()
            if self.rca is not None:
                # Open incidents close (and attribute) at shutdown so
                # the final checkpoint carries no dangling state.
                self.rca.flush()
            self.checkpoint_now()
        finally:
            try:
                self.wal.close()
            finally:
                self.lock.release()

    def __enter__(self) -> "MonitorService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = [
    "FAULT_AFTER_WAL_APPEND",
    "FAULT_BEFORE_CHECKPOINT",
    "MonitorService",
    "ReplayReport",
    "ServiceConfig",
    "ServiceError",
    "TickResult",
    "detector_from_release",
    "release_config",
    "stage_release",
]
