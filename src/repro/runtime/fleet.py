"""Sharded fleet runtime: consistent-hash workers, parallel ingest.

One :class:`~repro.runtime.service.MonitorService` tick loop tops out
near 10\\ :sup:`5` msgs/s; the ROADMAP's million-user target needs the
fleet, not the instance, as the unit of operation.  This module adds a
**shared-nothing** layer over the existing runtime:

* a :class:`FleetCoordinator` routes every device to one shard via a
  deterministic consistent-hash ring (:mod:`repro.runtime.ring`) — the
  routing is replayable, so crash recovery composes per shard;
* each shard is a worker **process** running one
  :class:`~repro.runtime.session.ServeSession` over a private
  :class:`~repro.runtime.service.MonitorService` (its own WAL segment
  directory, checkpoint and artifact-store view under
  ``data_dir/shard-NN/``), guarded by the service's owner lockfile;
* batched ticks travel over :mod:`multiprocessing` pipes in the same
  arena-encoded binary record the WAL journals
  (:mod:`repro.runtime.codec`), with first-byte dispatch between tick
  payloads and JSON control frames; a bounded in-flight window per
  shard provides backpressure, which feeds the per-shard
  :class:`~repro.runtime.session.AdaptiveTicker` under adaptive sizing;
* ring membership changes (:meth:`FleetCoordinator.add_shard` /
  :meth:`FleetCoordinator.remove_shard`) are journaled to
  ``ring.jsonl`` (fsynced per event) so reopening the fleet rebuilds
  the identical assignment;
* worker telemetry registries are merged
  (:meth:`repro.telemetry.MetricsRegistry.merge`) into one fleet
  snapshot on close, alongside live ``fleet.*`` gauges (shard count,
  per-shard backlog, aggregate msgs/s).

A dead worker never stalls the survivors: its devices simply stop
being routed until :meth:`FleetCoordinator.restart_shard` brings the
shard back, at which point the worker's own WAL replay re-scores the
journaled tail bitwise-identically and the feed resumes from its
acknowledged message cursor — no message is dropped or scored twice.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import sys
import time
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import telemetry
from repro.core.detector import LSTMAnomalyDetector
from repro.logs.message import SyslogMessage
from repro.rca import DEFAULT_CLUSTER_GAP
from repro.runtime.codec import TICK_MAGIC, TickEncoder, decode_tick
from repro.runtime.lock import LOCK_FILENAME, OwnerLock
from repro.runtime.ring import DEFAULT_REPLICAS, HashRing
from repro.runtime.service import ServiceConfig, stage_release
from repro.runtime.session import (
    SESSION_ERRORS,
    AdaptiveTicker,
    ServeSession,
    SessionSpec,
    SimulatedCrash,
    adaptive_ticker,
)
from repro.runtime.store import ArtifactStore, Release
from repro.runtime.wal import DEFAULT_SEGMENT_BYTES
from repro.topology import FleetTopology

#: Leading byte of a binary tick frame on the pipe (same dispatch as
#: the WAL: everything else is a JSON control/ack frame leading '{').
_TICK_MAGIC_BYTE = bytes([TICK_MAGIC])

#: Ring journal event names.
_RING_INIT = "init"
_RING_JOIN = "join"
_RING_LEAVE = "leave"


class FleetError(RuntimeError):
    """Raised for invalid fleet operations or a wedged worker."""


@dataclass(frozen=True)
class FleetConfig:
    """Topology and durability knobs for one fleet.

    Attributes:
        data_dir: fleet state root; holds ``ring.jsonl``, the
            coordinator lockfile and one ``shard-NN/`` service
            directory per shard.
        shards: initial shard count (ignored when ``ring.jsonl``
            already records a membership).
        replicas: virtual nodes per shard on the hash ring.
        checkpoint_every: per-shard checkpoint cadence in ticks.
        keep_releases: per-shard artifact-store retention depth.
        segment_bytes: per-shard WAL segment-rotation threshold.
        fsync: fsync every WAL append in every worker.
        strict_order: per-shard out-of-order policy.
        quantized: score through int8 inference in every worker.
        max_inflight: unacknowledged ticks allowed per shard — the
            backpressure window; 1 degenerates to lock-step.
        poll_timeout: seconds to wait on worker replies before the
            fleet is declared wedged.
        scores_out: base path for per-shard score CSVs (worker ``k``
            appends to ``<scores_out>.shardKK``); ``None`` disables.
        warnings_out: base path for per-shard warning CSVs.
        kill_shard: shard id to crash for the kill drill.
        kill_after_ticks: crash ``kill_shard`` after this many
            journaled ticks (both must be set together).
        rca: attach a streaming root-cause engine to every worker's
            service; per-shard incidents close over the shard's own
            devices, and the ``rca.*`` registries fold into the
            coordinator's fleet snapshot on close.
        topology_path: fleet topology JSON the coordinator reads once
            for every worker's incident clustering/attribution
            (``None``: per-device).
        rca_gap: quiet stream seconds that close an incident.
        incidents_out: base path for per-shard closed-incident CSVs.
    """

    data_dir: Union[str, pathlib.Path]
    shards: int = 2
    replicas: int = DEFAULT_REPLICAS
    checkpoint_every: int = 16
    keep_releases: int = 3
    segment_bytes: int = DEFAULT_SEGMENT_BYTES
    fsync: bool = False
    strict_order: bool = False
    quantized: bool = False
    max_inflight: int = 4
    poll_timeout: float = 60.0
    scores_out: Optional[str] = None
    warnings_out: Optional[str] = None
    kill_shard: Optional[int] = None
    kill_after_ticks: Optional[int] = None
    rca: bool = False
    topology_path: Optional[str] = None
    rca_gap: float = DEFAULT_CLUSTER_GAP
    incidents_out: Optional[str] = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if (self.kill_shard is None) != (self.kill_after_ticks is None):
            raise ValueError(
                "kill_shard and kill_after_ticks go together"
            )

    @property
    def ring_path(self) -> pathlib.Path:
        """The JSONL journal of ring membership events."""
        return pathlib.Path(self.data_dir) / "ring.jsonl"

    @property
    def lock_path(self) -> pathlib.Path:
        """The coordinator's own owner lockfile."""
        return pathlib.Path(self.data_dir) / LOCK_FILENAME

    def shard_dir(self, shard: int) -> pathlib.Path:
        """Shard ``shard``'s private service data directory."""
        return pathlib.Path(self.data_dir) / f"shard-{shard:02d}"

    def shard_config(self, shard: int) -> ServiceConfig:
        """The :class:`ServiceConfig` for shard ``shard``'s worker."""
        return ServiceConfig(
            data_dir=self.shard_dir(shard),
            checkpoint_every=self.checkpoint_every,
            keep_releases=self.keep_releases,
            segment_bytes=self.segment_bytes,
            fsync=self.fsync,
            strict_order=self.strict_order,
            quantized=self.quantized,
        )

    def shard_spec(
        self,
        shard: int,
        topology: Optional[FleetTopology] = None,
        kill_after_ticks: Optional[int] = None,
    ) -> SessionSpec:
        """The session shard ``shard``'s worker serves.

        Its CSVs append to ``<base>.shardKK`` for each configured
        output base; RCA attributes over ``topology``.
        """

        def output(base: Optional[str]) -> Optional[str]:
            return None if base is None else f"{base}.shard{shard:02d}"

        return SessionSpec(
            service=self.shard_config(shard),
            shard=shard,
            scores_path=output(self.scores_out),
            warnings_path=output(self.warnings_out),
            incidents_path=output(self.incidents_out),
            kill_after_ticks=kill_after_ticks,
            rca=self.rca,
            topology=topology,
            rca_gap=self.rca_gap,
        )


@dataclass(frozen=True)
class ShardDrain:
    """One shard's share of a :meth:`FleetCoordinator.drain`."""

    shard: int
    sent_ticks: int
    acked_ticks: int
    messages: int
    warnings: int
    backlog: int
    dead: bool
    incidents: int = 0


@dataclass(frozen=True)
class FleetDrainReport:
    """Aggregate outcome of one :meth:`FleetCoordinator.drain`.

    Attributes:
        ticks: acknowledged ticks across all shards.
        messages: acknowledged messages across all shards.
        warnings: warnings emitted across all shards.
        seconds: wall time of the drain.
        msgs_per_s: aggregate acknowledged throughput.
        dead_shards: shards that were (or became) dead this drain.
        per_shard: each shard's :class:`ShardDrain`.
        incidents: RCA incidents closed across all shards (0 unless
            the fleet runs with ``rca=True``).
    """

    ticks: int
    messages: int
    warnings: int
    seconds: float
    msgs_per_s: float
    dead_shards: Tuple[int, ...]
    per_shard: Dict[int, ShardDrain] = field(default_factory=dict)
    incidents: int = 0


# -- ring journal ---------------------------------------------------------


def _replay_ring_journal(path: pathlib.Path) -> HashRing:
    """Rebuild the ring from its membership-event journal.

    Any line that is not a well-formed event (a torn tail included)
    refuses the journal with a :class:`FleetError` naming the line.
    """
    ring: Optional[HashRing] = None
    for line_no, line in enumerate(
        path.read_text().splitlines(), start=1
    ):
        if not line.strip():
            continue
        where = f"{path}:{line_no}"
        try:
            event = json.loads(line)
            kind = event.get("event")
            if kind == _RING_INIT:
                if ring is not None:
                    raise FleetError(f"{where}: duplicate ring init event")
                ring = HashRing(
                    event["shards"], replicas=int(event["replicas"])
                )
            elif kind in (_RING_JOIN, _RING_LEAVE):
                if ring is None:
                    raise FleetError(f"{where}: {kind} before init")
                apply = ring.add if kind == _RING_JOIN else ring.remove
                apply(int(event["shard"]))
            else:
                raise FleetError(f"{where}: unknown ring event {kind!r}")
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise FleetError(
                f"{where}: malformed ring event ({error!r})"
            ) from None
    if ring is None:
        raise FleetError(f"{path} holds no ring init event")
    return ring


def _append_ring_event(path: pathlib.Path, event: Dict) -> None:
    """Durably append one membership event to the ring journal."""
    with open(path, "a") as handle:
        handle.write(json.dumps(event, separators=(",", ":")) + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def load_ring(config: FleetConfig) -> HashRing:
    """The fleet's ring: replayed from the journal, or created.

    First call on a fresh ``data_dir`` journals the ``init`` event for
    shards ``0..config.shards-1``; later calls replay the journal, so
    the assignment is identical across restarts regardless of the
    ``shards`` value passed then.
    """
    path = config.ring_path
    if path.exists():
        return _replay_ring_journal(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    shards = list(range(config.shards))
    _append_ring_event(
        path,
        {
            "event": _RING_INIT,
            "shards": shards,
            "replicas": config.replicas,
        },
    )
    return HashRing(shards, replicas=config.replicas)


def fleet_has_state(config: FleetConfig) -> bool:
    """Whether any shard directory carries prior service state."""
    if not config.ring_path.exists():
        return False
    ring = _replay_ring_journal(config.ring_path)
    for shard in ring.shards:
        shard_config = config.shard_config(shard)
        if shard_config.checkpoint_path.exists():
            return True
        if shard_config.wal_dir.exists() and any(
            shard_config.wal_dir.iterdir()
        ):
            return True
    return False


def bootstrap_fleet(
    config: FleetConfig,
    detector: LSTMAnomalyDetector,
    threshold: float,
) -> List[Release]:
    """Stage one release into every shard's private artifact store.

    Every worker opens its service from its own store view, so a cold
    fleet needs the detector published per shard before
    :meth:`FleetCoordinator.open` spawns anything.
    """
    ring = load_ring(config)
    releases = []
    for shard in ring.shards:
        store = ArtifactStore(
            config.shard_config(shard).store_dir,
            keep_releases=config.keep_releases,
        )
        releases.append(stage_release(store, detector, threshold))
    return releases


# -- the worker process ---------------------------------------------------


def _send(conn: "connection.Connection", frame: Dict) -> None:
    """Send one JSON control/ack frame."""
    conn.send_bytes(json.dumps(frame, separators=(",", ":")).encode())


def _worker_loop(
    spec: SessionSpec,
    conn: "connection.Connection",
    registry: "telemetry.MetricsRegistry",
) -> int:
    """One worker's serve loop over its session; returns its exit code.

    A typed error (a held lock, an unreadable journal) goes to the
    coordinator as an ``error`` frame and exits 2; the coordinator
    reports it, so no worker traceback reaches the operator.
    """
    session: Optional[ServeSession] = None
    try:
        session = ServeSession(spec)
        # Recovery is unconditional: a no-op on a fresh directory, a
        # bitwise-identical re-score of the journaled tail after a
        # crash.
        report = session.recover()
        service = session.service
        _send(conn, {
            "kind": "hello",
            "n_messages": service.n_messages,
            "ticks_replayed": report.ticks_replayed,
        })
        while True:
            raw = conn.recv_bytes()
            if raw[:1] == _TICK_MAGIC_BYTE:
                incidents = session.n_incidents
                result = session.tick(decode_tick(raw))
                _send(conn, {
                    "kind": "ack",
                    "n_messages": service.n_messages,
                    "n_warnings": len(result.warnings),
                    "n_incidents": session.n_incidents - incidents,
                })
                continue
            control = json.loads(raw.decode())
            if control.get("kind") == "close":
                session.close()
                _send(conn, {
                    "kind": "closed",
                    "shard": spec.shard,
                    "n_ticks": service.n_ticks,
                    "n_messages": service.n_messages,
                    "telemetry": registry.snapshot(),
                })
                return 0
            raise FleetError(
                f"shard {spec.shard}: unknown control frame "
                f"{control.get('kind')!r}"
            )
    except SimulatedCrash:
        session.crash()
        return 3
    except EOFError:
        # Coordinator vanished mid-stream; die crash-like so the
        # journal tail replays on the next open.
        session.crash()
        return 1
    except SESSION_ERRORS as error:
        if session is not None:
            session.abandon()
        _send(conn, {"kind": "error", "error": str(error)})
        return 2


def _worker_main(
    spec: SessionSpec, conn: "connection.Connection"
) -> None:
    """Worker process entry point (top-level for spawn/fork)."""
    registry = telemetry.MetricsRegistry()
    with telemetry.use(registry):
        exit_code = _worker_loop(spec, conn, registry)
    conn.close()
    sys.exit(exit_code)


# -- the coordinator ------------------------------------------------------


@dataclass(eq=False)
class _ShardHandle:
    """Coordinator-side state for one worker process."""

    shard: int
    process: "multiprocessing.process.BaseProcess"
    conn: "connection.Connection"
    n_messages: int = 0
    ticks_replayed: int = 0
    inflight: int = 0
    dead: bool = False


class FleetCoordinator:
    """Routes ingest to shard workers and aggregates their telemetry.

    Build one with :meth:`open` (workers spawn and report their
    recovered cursors) and drive it with :meth:`drain`; :meth:`close`
    shuts workers down gracefully and folds their telemetry registries
    into the current default registry.

    Attributes:
        config: the fleet topology/durability knobs.
        ring: the live consistent-hash ring.
        topology: the fleet graph every worker's RCA engine
            attributes over (``None`` without ``rca``/``topology_path``).
    """

    def __init__(
        self,
        config: FleetConfig,
        ring: HashRing,
        topology: Optional[FleetTopology] = None,
    ) -> None:
        self.config = config
        self.ring = ring
        self.topology = topology
        self._shards: Dict[int, _ShardHandle] = {}
        self._assign: Dict[str, int] = {}
        self._encoder = TickEncoder()
        self._lock = OwnerLock(config.lock_path)
        self._closed = False

    # -- lifecycle ------------------------------------------------------

    @classmethod
    def open(cls, config: FleetConfig) -> "FleetCoordinator":
        """Spawn one worker per ring member and await their hellos.

        Every shard's artifact store must already hold a release (see
        :func:`bootstrap_fleet`).  When a ring journal exists, its
        membership wins over ``config.shards`` — a mismatch is an
        operator error and raises :class:`FleetError`.  The RCA
        topology is read here, once, before any worker spawns.
        """
        pathlib.Path(config.data_dir).mkdir(
            parents=True, exist_ok=True
        )
        ring = load_ring(config)
        if len(ring) != config.shards:
            raise FleetError(
                f"{config.ring_path} records {len(ring)} shards "
                f"{list(ring.shards)} but the fleet was opened with "
                f"shards={config.shards}; pass the journaled count"
            )
        topology = None
        if config.rca and config.topology_path:
            topology = FleetTopology.load(config.topology_path)
        coordinator = cls(config, ring, topology)
        coordinator._lock.acquire()
        try:
            for shard in ring.shards:
                coordinator._spawn(shard)
            for shard in ring.shards:
                coordinator._await_hello(coordinator._shards[shard])
        except Exception:
            coordinator._abort()
            raise
        telemetry.gauge("fleet.shards").set(len(ring))
        return coordinator

    def _spawn(
        self, shard: int, allow_kill: bool = True
    ) -> _ShardHandle:
        """Start shard ``shard``'s worker process."""
        kill_after = None
        if allow_kill and shard == self.config.kill_shard:
            kill_after = self.config.kill_after_ticks
        spec = self.config.shard_spec(shard, self.topology, kill_after)
        context = multiprocessing.get_context()
        parent_conn, child_conn = context.Pipe(duplex=True)
        process = context.Process(
            target=_worker_main,
            args=(spec, child_conn),
            name=f"repro-shard-{shard:02d}",
            daemon=True,
        )
        process.start()
        # Drop the parent's copy of the child end so a dead worker
        # surfaces as EOF instead of a silent hang.
        child_conn.close()
        handle = _ShardHandle(shard, process, parent_conn)
        self._shards[shard] = handle
        return handle

    def _await_hello(self, handle: _ShardHandle) -> None:
        """Block until ``handle``'s worker reports its cursor."""
        message = self._recv(handle) or {}
        if message.get("kind") != "hello":
            # A typed startup error arrives as an error frame; anything
            # else only leaves the worker's exit code.
            reason = message.get("error") or (
                f"exit {handle.process.exitcode}"
            )
            raise FleetError(
                f"shard {handle.shard} failed to start: {reason}"
            )
        handle.n_messages = int(message["n_messages"])
        handle.ticks_replayed = int(message["ticks_replayed"])

    def _recv(self, handle: _ShardHandle) -> Optional[Dict]:
        """One JSON frame from a worker (``None`` once it died)."""
        deadline = time.perf_counter() + self.config.poll_timeout
        while not handle.conn.poll(0.05):
            if handle.process.exitcode is not None:
                self._mark_dead(handle)
                return None
            if time.perf_counter() > deadline:
                raise FleetError(
                    f"shard {handle.shard} sent nothing for "
                    f"{self.config.poll_timeout}s; fleet is wedged"
                )
        try:
            raw = handle.conn.recv_bytes()
        except (EOFError, OSError):
            self._mark_dead(handle)
            return None
        return json.loads(raw.decode())

    def _mark_dead(self, handle: _ShardHandle) -> None:
        """Record a worker death; survivors keep draining."""
        if handle.dead:
            return
        handle.dead = True
        handle.inflight = 0
        handle.process.join(timeout=self.config.poll_timeout)
        handle.conn.close()
        telemetry.counter("fleet.shard_deaths").inc()
        self._publish_live_shards()

    def _publish_live_shards(self) -> None:
        telemetry.gauge("fleet.shards").set(
            sum(1 for h in self._shards.values() if not h.dead)
        )

    def _abort(self) -> None:
        """Tear everything down after a failed open."""
        try:
            for handle in self._shards.values():
                if handle.process.is_alive():
                    handle.process.terminate()
                handle.process.join(timeout=5)
                handle.conn.close()
        finally:
            self._lock.release()
            self._closed = True

    @property
    def replayed_ticks(self) -> int:
        """Ticks re-scored by worker recovery at the last (re)spawn."""
        return sum(
            h.ticks_replayed for h in self._shards.values()
        )

    @property
    def dead_shards(self) -> Tuple[int, ...]:
        """Shards whose worker has died, sorted."""
        return tuple(
            sorted(
                k for k, h in self._shards.items() if h.dead
            )
        )

    # -- routing --------------------------------------------------------

    def assign(self, device: str) -> int:
        """The shard owning ``device`` (memoized ring lookup)."""
        shard = self._assign.get(device)
        if shard is None:
            shard = self._assign[device] = self.ring.assign(device)
        return shard

    def partition(
        self, feed: Sequence[SyslogMessage]
    ) -> Dict[int, List[SyslogMessage]]:
        """Split a feed into per-shard sub-feeds, order preserved."""
        parts: Dict[int, List[SyslogMessage]] = {
            shard: [] for shard in self.ring.shards
        }
        for message in feed:
            parts[self.assign(message.host)].append(message)
        return parts

    # -- membership -----------------------------------------------------

    def add_shard(self, shard: int) -> None:
        """Journal a join, extend the ring, spawn the new worker.

        The shard's store must be bootstrapped first (see
        :func:`bootstrap_fleet` for the cold-start equivalent).
        Devices remapped onto the new shard re-warm their score
        context there — shared-nothing shards do not migrate ring
        buffers.
        """
        if shard in self.ring:
            raise FleetError(f"shard {shard} is already in the fleet")
        _append_ring_event(
            self.config.ring_path,
            {"event": _RING_JOIN, "shard": shard},
        )
        self.ring.add(shard)
        self._assign.clear()
        handle = self._spawn(shard)
        self._await_hello(handle)
        self._publish_live_shards()

    def remove_shard(self, shard: int) -> None:
        """Journal a leave, close that worker, shrink the ring."""
        if shard not in self.ring:
            raise FleetError(f"shard {shard} is not in the fleet")
        handle = self._shards[shard]
        if not handle.dead:
            self._close_worker(handle)
        _append_ring_event(
            self.config.ring_path,
            {"event": _RING_LEAVE, "shard": shard},
        )
        self.ring.remove(shard)
        self._assign.clear()
        del self._shards[shard]
        self._publish_live_shards()

    def restart_shard(self, shard: int) -> int:
        """Respawn a dead shard's worker; returns its replayed ticks.

        The fresh worker recovers from the shard's checkpoint + WAL
        (bitwise-identical re-scores land in its CSV) and reports its
        restored message cursor, so the next :meth:`drain` resumes its
        sub-feed exactly where the acknowledged history ends.
        """
        handle = self._shards.get(shard)
        if handle is None:
            raise FleetError(f"shard {shard} is not in the fleet")
        if not handle.dead:
            raise FleetError(
                f"shard {shard} is alive; only dead shards restart"
            )
        handle.process.join(timeout=self.config.poll_timeout)
        # The drill hook never re-arms on restart: a restarted shard
        # recovers and serves, it does not crash again.
        fresh = self._spawn(shard, allow_kill=False)
        self._await_hello(fresh)
        self._publish_live_shards()
        return fresh.ticks_replayed

    # -- ingest ---------------------------------------------------------

    def _send_tick(
        self, handle: _ShardHandle, batch: Sequence[SyslogMessage]
    ) -> bool:
        """Route one tick to a worker; ``False`` if it died mid-send."""
        try:
            handle.conn.send_bytes(self._encoder.encode(batch))
        except (BrokenPipeError, OSError):
            self._mark_dead(handle)
            return False
        handle.inflight += 1
        return True

    def drain(
        self,
        feed: Sequence[SyslogMessage],
        tick_size: int = 256,
        adaptive: bool = False,
        max_ticks: Optional[int] = None,
    ) -> FleetDrainReport:
        """Route a feed through the fleet until every shard is done.

        The feed is partitioned by the ring and each shard's sub-feed
        resumes at that shard's acknowledged message cursor, so a
        reopened fleet never re-sends applied work.  Up to
        ``config.max_inflight`` ticks ride each pipe unacknowledged;
        under ``adaptive`` sizing a per-shard
        :class:`~repro.runtime.session.AdaptiveTicker` is fed the shard's
        remaining backlog after every ack.  A worker death never
        stalls the survivors: the dead shard keeps its backlog (see
        :meth:`restart_shard`) and is reported in the result.
        ``max_ticks`` caps the ticks *sent* fleet-wide (drill runs).
        """
        if tick_size < 1:
            raise ValueError("tick_size must be >= 1")
        if self._closed:
            raise FleetError("fleet is closed")
        parts = self.partition(feed)
        offsets: Dict[int, int] = {}
        tickers: Dict[int, Optional[AdaptiveTicker]] = {}
        start_messages: Dict[int, int] = {}
        sent: Dict[int, int] = {}
        acked: Dict[int, int] = {}
        warnings: Dict[int, int] = {}
        incidents: Dict[int, int] = {}
        for shard in self.ring.shards:
            handle = self._shards[shard]
            offsets[shard] = min(
                handle.n_messages, len(parts[shard])
            )
            start_messages[shard] = handle.n_messages
            sent[shard] = acked[shard] = warnings[shard] = 0
            incidents[shard] = 0
            tickers[shard] = (
                adaptive_ticker(tick_size) if adaptive else None
            )
        total_sent = 0
        started = time.perf_counter()

        def _more(shard: int) -> bool:
            return (
                offsets[shard] < len(parts[shard])
                and (max_ticks is None or total_sent < max_ticks)
            )

        while True:
            for shard in self.ring.shards:
                handle = self._shards[shard]
                while (
                    not handle.dead
                    and handle.inflight < self.config.max_inflight
                    and _more(shard)
                ):
                    ticker = tickers[shard]
                    size = (
                        ticker.size if ticker is not None else tick_size
                    )
                    offset = offsets[shard]
                    batch = parts[shard][offset:offset + size]
                    if not self._send_tick(handle, batch):
                        break
                    offsets[shard] = offset + len(batch)
                    sent[shard] += 1
                    total_sent += 1
            waiting = [
                h
                for h in self._shards.values()
                if not h.dead and h.inflight > 0
            ]
            if not waiting:
                if not any(
                    not self._shards[s].dead and _more(s)
                    for s in self.ring.shards
                ):
                    break
                continue
            ready = connection.wait(
                [h.conn for h in waiting],
                timeout=self.config.poll_timeout,
            )
            if not ready:
                died = False
                for handle in waiting:
                    if handle.process.exitcode is not None:
                        self._mark_dead(handle)
                        died = True
                if not died:
                    raise FleetError(
                        "no shard acknowledged within "
                        f"{self.config.poll_timeout}s; fleet is wedged"
                    )
                continue
            by_conn = {h.conn: h for h in waiting}
            for conn in ready:
                handle = by_conn[conn]
                try:
                    raw = handle.conn.recv_bytes()
                except (EOFError, OSError):
                    self._mark_dead(handle)
                    continue
                ack = json.loads(raw.decode())
                if ack.get("kind") != "ack":
                    raise FleetError(
                        f"shard {handle.shard} sent unexpected "
                        f"{ack.get('kind')!r} frame mid-drain"
                    )
                handle.inflight -= 1
                handle.n_messages = int(ack["n_messages"])
                shard = handle.shard
                acked[shard] += 1
                warnings[shard] += int(ack["n_warnings"])
                incidents[shard] += int(ack.get("n_incidents", 0))
                backlog = len(parts[shard]) - offsets[shard]
                ticker = tickers[shard]
                if ticker is not None:
                    ticker.update(backlog)
                telemetry.gauge(  # repro: noqa[RPR301]
                    f"fleet.shard{shard:02d}.backlog"
                ).set(backlog)
        seconds = time.perf_counter() - started
        per_shard = {
            shard: ShardDrain(
                shard=shard,
                sent_ticks=sent[shard],
                acked_ticks=acked[shard],
                messages=self._shards[shard].n_messages
                - start_messages[shard],
                warnings=warnings[shard],
                backlog=len(parts[shard]) - offsets[shard],
                dead=self._shards[shard].dead,
                incidents=incidents[shard],
            )
            for shard in self.ring.shards
        }
        total_messages = sum(s.messages for s in per_shard.values())
        total_ticks = sum(acked.values())
        rate = total_messages / seconds if seconds > 0 else 0.0
        registry = telemetry.default_registry()
        registry.counter("fleet.ticks_routed").inc(total_ticks)
        registry.counter("fleet.messages_routed").inc(total_messages)
        registry.gauge("fleet.aggregate_msgs_per_s").set(rate)
        return FleetDrainReport(
            ticks=total_ticks,
            messages=total_messages,
            warnings=sum(warnings.values()),
            seconds=seconds,
            msgs_per_s=rate,
            dead_shards=self.dead_shards,
            per_shard=per_shard,
            incidents=sum(incidents.values()),
        )

    # -- shutdown -------------------------------------------------------

    def _close_worker(self, handle: _ShardHandle) -> Optional[Dict]:
        """Gracefully stop one worker; returns its closed frame."""
        try:
            _send(handle.conn, {"kind": "close"})
        except (BrokenPipeError, OSError):
            self._mark_dead(handle)
            return None
        while True:
            message = self._recv(handle)
            if message is None:
                return None
            if message.get("kind") == "closed":
                break
            # Late acks for in-flight ticks drain ahead of the close.
            if message.get("kind") == "ack":
                handle.inflight -= 1
                handle.n_messages = int(message["n_messages"])
                continue
            raise FleetError(
                f"shard {handle.shard} sent unexpected "
                f"{message.get('kind')!r} frame during close"
            )
        handle.process.join(timeout=self.config.poll_timeout)
        handle.conn.close()
        return message

    def close(self) -> Dict[int, Dict]:
        """Graceful shutdown: close workers, merge their telemetry.

        Live workers checkpoint and report a final telemetry snapshot;
        the snapshots are folded into the *current default registry*
        (counters sum across shards, so ``runtime.ticks`` et al.
        become fleet totals).  Dead workers are only joined — their
        journals stay replayable.  Returns each closed shard's final
        frame (``n_ticks``, ``n_messages``, ``telemetry``).
        """
        if self._closed:
            return {}
        self._closed = True
        summaries: Dict[int, Dict] = {}
        snapshots: List[Dict] = []
        try:
            for shard in self.ring.shards:
                handle = self._shards[shard]
                if handle.dead:
                    continue
                message = self._close_worker(handle)
                if message is not None:
                    summaries[shard] = message
                    snapshots.append(message["telemetry"])
            for handle in self._shards.values():
                if handle.process.is_alive():
                    handle.process.join(timeout=self.config.poll_timeout)
            telemetry.default_registry().merge(snapshots)
        finally:
            self._lock.release()
        return summaries

    def __enter__(self) -> "FleetCoordinator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if not self._closed:
            self.close()


__all__ = [
    "FleetConfig",
    "FleetCoordinator",
    "FleetDrainReport",
    "FleetError",
    "ShardDrain",
    "bootstrap_fleet",
    "fleet_has_state",
    "load_ring",
]
