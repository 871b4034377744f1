"""One shard's serve lifecycle, shared by ``serve`` and fleet workers.

The paper's runtime is one loop: syslog in, per-device scores and
clustered warnings out.  :class:`ServeSession` is that loop around one
:class:`~repro.runtime.service.MonitorService`, with its RCA engine,
crash drill and CSV sinks, and :func:`serve_shard` is one whole run of
it: open, recover, read the shard's own vPE files, drain, close.
Single-shard ``serve`` calls it in-process; every fleet worker calls it
in its own process (:mod:`repro.runtime.fleet`).
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, TextIO

from repro import telemetry
from repro.logs.message import MessageBatch, SyslogMessage
from repro.logs.trace import TraceError, read_feed
from repro.rca import DEFAULT_CLUSTER_GAP, IncidentReport, RcaEngine, incident_row
from repro.runtime.adapt import AdaptationController, AdaptConfig
from repro.runtime.blas import SERVE_BLAS_THREADS, limited_blas_threads
from repro.runtime.checkpoint import CheckpointError
from repro.runtime.lock import LockHeldError
from repro.runtime.ring import shard_of
from repro.runtime.service import (
    FAULT_AFTER_WAL_APPEND,
    MonitorService,
    ReplayReport,
    ServiceConfig,
    ServiceError,
    TickResult,
)
from repro.runtime.store import StoreError
from repro.runtime.wal import WalCorruptionError
from repro.topology import FleetTopology, TopologyError

#: Operator-facing errors a session can raise on bad state or input:
#: ``serve`` reports them in one line and exits 2, and a fleet worker
#: forwards them to its coordinator as an ``error`` frame.
SESSION_ERRORS = (
    ServiceError, StoreError, WalCorruptionError, LockHeldError,
    TopologyError, TraceError, CheckpointError,
)


class SimulatedCrash(Exception):
    """Raised by the ``kill_after_ticks`` drill hook (exit code 3)."""


@dataclass(frozen=True)
class SessionSpec:
    """Everything one :class:`ServeSession` needs; no live handles, so
    a fleet coordinator hands one to each worker as its spawn argument.

    Attributes:
        service: the shard's durability knobs.
        shard: the shard id.  When set, every CSV row leads with
            ``<shard>,``: tick sequences restart per shard, so that
            column is what makes rows unique fleet-wide.
        scores_path: score CSV to append to (``None`` disables); so
            are ``warnings_path`` and, with ``rca``, ``incidents_path``.
        kill_after_ticks: crash drill: raise :class:`SimulatedCrash`
            after this many journaled ticks.
        rca: attach a streaming root-cause engine over ``topology``
            (``None``: per-device incidents), closing incidents after
            ``rca_gap`` quiet stream seconds.
    """

    service: ServiceConfig
    shard: Optional[int] = None
    scores_path: Optional[str] = None
    warnings_path: Optional[str] = None
    incidents_path: Optional[str] = None
    kill_after_ticks: Optional[int] = None
    rca: bool = False
    topology: Optional[FleetTopology] = None
    rca_gap: float = DEFAULT_CLUSTER_GAP


#: A score row's tail by its ``kept`` flag.
_KEPT_FLAGS = (",0\n", ",1\n")


class _TickSink:
    """Append-mode CSV sinks for one session, flushed per tick.

    Floats are written as ``repr(float)`` so the rows round-trip the
    float64 bit patterns: ``sort -u`` over a crashed-then-replayed
    run's output collapses replayed duplicates iff they are bitwise
    identical to the pre-crash rows, which is how the crash drills
    prove replay parity.
    """

    def __init__(self, spec: SessionSpec) -> None:
        self._prefix = "" if spec.shard is None else f"{spec.shard},"
        self._files = contextlib.ExitStack()
        self._scores = self._open(spec.scores_path)
        self._warnings = self._open(spec.warnings_path)
        self._incidents = self._open(
            spec.incidents_path if spec.rca else None
        )

    def _open(self, path: Optional[str]) -> Optional[TextIO]:
        if path is None:
            return None
        return self._files.enter_context(open(path, "a", newline=""))

    def write(self, results: Sequence[TickResult]) -> None:
        """Append one row per score (one write per tick) and per
        warning; flush."""
        prefix = self._prefix
        if self._scores is not None:
            for result in results:
                head = f"{prefix}{result.tick},"
                self._scores.write("".join([
                    f"{head}{i},{score!r}{_KEPT_FLAGS[kept]}"
                    for i, (score, kept) in enumerate(
                        zip(result.scores.tolist(), result.kept.tolist())
                    )
                ]))
            self._scores.flush()
        if self._warnings is not None:
            for result in results:
                for w in result.warnings:
                    self._warnings.write(
                        f"{prefix}{result.tick},{w.vpe},"
                        f"{w.time!r},{w.first_anomaly!r},"
                        f"{w.n_anomalies},{w.peak_score!r}\n"
                    )
            self._warnings.flush()

    def write_incidents(self, reports: Sequence[IncidentReport]) -> None:
        """Append one row per closed incident; flush."""
        if self._incidents is None or not reports:
            return
        for report in reports:
            self._incidents.write(f"{self._prefix}{incident_row(report)}")
        self._incidents.flush()

    def close(self) -> None:
        """Release every open file (idempotent)."""
        self._files.close()


def _kill_after(ticks: int) -> Callable[[str, int], None]:
    """A fault hook that crashes on the ``ticks``-th journaled tick."""
    journaled = itertools.count(1)

    def hook(point: str, sequence: int) -> None:
        if point == FAULT_AFTER_WAL_APPEND and next(journaled) >= ticks:
            raise SimulatedCrash(sequence)

    return hook


class ServeSession:
    """One shard's serve lifecycle over an open :class:`MonitorService`.

    Construction limits the process's BLAS threads, opens the service
    (taking its owner lock) and attaches the RCA engine, the optional
    drift-adaptation controller and the drill hook.  :meth:`recover`,
    :meth:`tick` and :meth:`drain` append every outcome to the sinks
    and drain newly closed incidents.  End with exactly one of
    :meth:`close` (checkpoint), :meth:`crash` (sinks only: the WAL tail
    stays for replay) or :meth:`abandon` (files released, no
    checkpoint); each restores the BLAS thread count.

    Attributes:
        spec: what this session serves and where it writes.
        service: the open service.
        n_warnings: warnings written this run, replayed ones included.
        n_incidents: incidents written this run, replayed ones
            included.
    """

    def __init__(
        self,
        spec: SessionSpec,
        controller: Optional[AdaptationController] = None,
    ) -> None:
        self.spec = spec
        rca = None
        if spec.rca:
            rca = RcaEngine(topology=spec.topology, cluster_gap=spec.rca_gap)
        # What every end path releases: the sinks and the BLAS limit.
        self._scope = contextlib.ExitStack()
        try:
            threads = self._scope.enter_context(
                limited_blas_threads(SERVE_BLAS_THREADS)
            )
            self._sink = self._scope.enter_context(
                contextlib.closing(_TickSink(spec))
            )
            # Never closed on the crash path: a dead process writes no
            # final checkpoint, so the next open replays the WAL tail.
            self.service = MonitorService.open(spec.service)
        except BaseException:
            self._scope.close()
            raise
        if threads is not None:
            telemetry.gauge("blas.threads").set(threads)
        # Attached before recover(): WAL replay rebuilds the
        # controller's drift windows and probation state, and
        # checkpointed incidents restore before replayed ticks rebuild
        # the identical incident stream.
        self.service.controller = controller
        self.service.rca = rca
        if spec.kill_after_ticks is not None:
            self.service.fault_hook = _kill_after(spec.kill_after_ticks)
        self.n_warnings = 0
        self.n_incidents = 0

    @property
    def has_state(self) -> bool:
        """Whether the data dir holds a checkpoint or journal to replay."""
        return (
            self.spec.service.checkpoint_path.exists()
            or self.service.wal.last_sequence > 0
        )

    def recover(self) -> ReplayReport:
        """Restore the checkpoint and replay the WAL tail; replayed rows
        re-land in the sinks, where ``sort -u`` collapses them."""
        report = self.service.recover()
        self._emit(report.results)
        return report

    def tick(self, messages: Sequence[SyslogMessage]) -> TickResult:
        """Journal, score and write one tick."""
        result = self.service.process_tick(messages)
        self._emit([result])
        return result

    def drain(
        self,
        feed: Sequence[SyslogMessage],
        tick_size: int,
        max_ticks: Optional[int] = None,
    ) -> int:
        """Serve a feed from the service's message cursor (see
        :meth:`MonitorService.drain`); returns the live ticks served."""
        ticks = 0
        for result in self.service.drain(
            feed, tick_size=tick_size, max_ticks=max_ticks
        ):
            self._emit([result])
            ticks += 1
        return ticks

    def rollback(self) -> int:
        """Roll the live model back one release; returns its id.

        Recovers first, so the journaled swap lands after every applied
        record; :meth:`close` then checkpoints it.
        """
        if self.has_state:
            self.recover()
        return self.service.rollback()

    def close(self) -> None:
        """Graceful shutdown: final checkpoint, then the last incidents."""
        try:
            self.service.close()
            # close() flushed the incidents still open at shutdown.
            self._drain_incidents()
        finally:
            self._scope.close()

    def crash(self) -> None:
        """End like a crashed process: close the sinks, not the service."""
        self._scope.close()

    def abandon(self) -> None:
        """Release the WAL handle and owner lock without the checkpoint
        :meth:`close` would write over state this run refused or failed
        to apply."""
        try:
            try:
                self.service.wal.close()
            finally:
                self.service.lock.release()
        finally:
            self._scope.close()

    def _emit(self, results: Sequence[TickResult]) -> None:
        self._sink.write(results)
        self.n_warnings += sum(len(r.warnings) for r in results)
        self._drain_incidents()

    def _drain_incidents(self) -> None:
        if self.service.rca is None:
            return
        reports = self.service.rca.drain_closed()
        self._sink.write_incidents(reports)
        self.n_incidents += len(reports)


@dataclass(frozen=True)
class ServeJob:
    """What :func:`serve_shard` does with an open session.

    Attributes:
        trace: trace directory whose vPE files are the feed (``None``:
            recover and checkpoint only).
        read: how the shard reads its feed from ``trace``: called with
            the directory and a filter accepting the shard's vPEs.
        tick_size: messages per tick.
        max_ticks: stop after this many live ticks.
        replay: recover prior state first; without it, prior state is
            refused rather than ingested over.
        adapt: run a drift-adaptation controller with this config.
    """

    trace: Optional[str] = None
    read: Callable[[str, Optional[Callable[[str], bool]]], MessageBatch] = read_feed
    tick_size: int = 256
    max_ticks: Optional[int] = None
    replay: bool = False
    adapt: Optional[AdaptConfig] = None


@dataclass(frozen=True)
class ShardOutcome:
    """How one :func:`serve_shard` run ended.  Plain numbers, so a
    fleet worker sends it to its coordinator as a JSON frame.

    Attributes:
        exit_code: 0 when the shard served its feed, 3 when it crashed.
        crashed_at: journal sequence of the simulated crash, if any.
        recovered: the replay's ``checkpoint_cursor``, ``ticks``,
            ``messages`` and ``swaps``, when the run recovered.
        live_ticks: ticks served from the feed this run.
        warnings, incidents: written this run, replayed ones included.
        swaps, rollbacks: the adaptation controller's, if one ran.
        abandoned: background fine-tunes still running at shutdown and
            stopped; the checkpoint has them relaunched on ``--replay``.
    """

    exit_code: int = 0
    crashed_at: Optional[int] = None
    recovered: Optional[Dict[str, int]] = None
    live_ticks: int = 0
    warnings: int = 0
    incidents: int = 0
    swaps: int = 0
    rollbacks: int = 0
    abandoned: int = 0


def serve_shard(
    spec: SessionSpec,
    job: ServeJob,
    shards: int = 1,
    ready: Callable[[], None] = lambda: None,
    publish: Optional[Callable[[], None]] = None,
) -> ShardOutcome:
    """One shard's whole serve: open, recover, read, drain, close.

    A session whose ``spec.shard`` is set reads only the vPE files
    :func:`~repro.runtime.ring.shard_of` gives it among ``shards``.
    ``publish`` is a first run's bootstrap of the empty store: the
    feed is read before it runs and before the session opens, so a
    feed that cannot be read leaves no release and no data dir behind
    (a fleet worker's ``publish`` waits there until every shard has
    read its feed).  ``ready`` runs once the session is open and
    recovered and the feed is read, just before the first live tick;
    a fleet worker reports there and waits for every other shard.  A
    simulated crash ends the session like a dead process (exit code
    3); any other exception abandons it, so no checkpoint covers state
    this run did not apply.
    """

    def read() -> MessageBatch:
        if job.trace is None:
            return MessageBatch.of(())
        return job.read(job.trace, None if spec.shard is None else (
            lambda vpe: shard_of(vpe, shards) == spec.shard
        ))

    feed = None
    if publish is not None:
        feed = read()
        publish()
    controller = None if job.adapt is None else AdaptationController(job.adapt)
    session = ServeSession(spec, controller)
    recovered = None
    try:
        if session.has_state and not job.replay:
            raise ServiceError(
                f"{spec.service.data_dir} has prior service state; rerun "
                "with --replay to recover it (refusing to ingest blind)"
            )
        if job.replay:
            report = session.recover()
            recovered = {
                "checkpoint_cursor": report.checkpoint_cursor,
                "ticks": report.ticks_replayed,
                "messages": report.messages_replayed,
                "swaps": report.swaps_replayed,
            }
        if feed is None:
            feed = read()
        ready()
        live_ticks = session.drain(feed, job.tick_size, job.max_ticks)
        session.close()
    except SimulatedCrash as crash:
        # No close(), no final checkpoint: the next run must recover
        # from the WAL exactly like after a real crash.
        session.crash()
        return ShardOutcome(
            exit_code=3, crashed_at=crash.args[0], recovered=recovered
        )
    except BaseException:
        session.abandon()
        raise
    return ShardOutcome(
        recovered=recovered,
        live_ticks=live_ticks,
        warnings=session.n_warnings,
        incidents=session.n_incidents,
        swaps=0 if controller is None else controller.swaps,
        rollbacks=0 if controller is None else controller.rollbacks,
        abandoned=0 if controller is None else controller.abandoned,
    )


__all__ = [
    "SESSION_ERRORS",
    "ServeJob",
    "ServeSession",
    "SessionSpec",
    "ShardOutcome",
    "SimulatedCrash",
    "serve_shard",
]
