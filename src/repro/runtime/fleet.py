"""Sharded fleet runtime: N single-shard serves over a fixed host split.

The paper scores each vPE's own template sequence — per-device windows,
warnings clustered per device — so a shard that owns a vPE's whole
trace file needs no other shard's messages.  A fleet of N shards is
therefore N copies of single-shard ``serve``:

* shard ``k`` owns the vPEs :func:`~repro.runtime.ring.shard_of` gives
  it among N.  The count is written once, atomically, to
  ``data_dir/SHARDS`` at first open, and a fleet directory keeps it;
* each shard is a worker **process** running
  :func:`~repro.runtime.session.serve_shard`, the function single-shard
  ``serve`` runs in-process, over a private service directory under
  ``data_dir/shard-NN/`` (WAL, checkpoint, artifact store, owner
  lockfile).  It reads its own vPEs' files and appends to
  ``<output>.shardNN`` CSVs;
* the coordinator stays off the data path.  It spawns the workers and
  waits until every one has opened, recovered and read its feed, so a
  startup error in any shard aborts them all before one ingests.  Then
  it lets them drain, merges their telemetry registries into its own
  and joins them.  On a first run every worker reads its feed before
  the coordinator takes the fleet lock and publishes the releases, so
  a feed that any shard cannot read leaves no data dir behind.

A shard that crashes does not stop the others.  ``serve --replay``
restarts the fleet: each shard's WAL replay re-scores its journaled
tail bitwise-identically, so no message is dropped or scored twice.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import pathlib
import sys
from multiprocessing import connection
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro import telemetry
from repro.runtime.lock import LOCK_FILENAME, OwnerLock
from repro.runtime.session import (
    SESSION_ERRORS,
    ServeJob,
    SessionSpec,
    ShardOutcome,
    serve_shard,
)
from repro.runtime.store import atomic_write

#: The file in a fleet directory that records its shard count.
SHARDS_FILENAME = "SHARDS"


class FleetError(RuntimeError):
    """Raised for a fleet directory or run that cannot be served."""


def shard_spec(spec: SessionSpec, shard: int) -> SessionSpec:
    """Shard ``shard``'s session, derived from the single-shard spec.

    Its service lives in ``<data_dir>/shard-NN/``, each configured CSV
    gains a ``.shardNN`` suffix, and ``shard`` is set, so every row
    leads with the shard id.
    """
    suffix = f"{shard:02d}"

    def output(path: Optional[str]) -> Optional[str]:
        return None if path is None else f"{path}.shard{suffix}"

    data_dir = pathlib.Path(spec.service.data_dir) / f"shard-{suffix}"
    return dataclasses.replace(
        spec,
        service=dataclasses.replace(spec.service, data_dir=data_dir),
        shard=shard,
        scores_path=output(spec.scores_path),
        warnings_path=output(spec.warnings_path),
        incidents_path=output(spec.incidents_path),
    )


def check_shards(data_dir: Union[str, pathlib.Path], shards: int) -> bool:
    """Refuse a shard count other than the one the fleet recorded.

    A different count would move hosts between shards whose WALs and
    checkpoints hold their history, so it raises :class:`FleetError`;
    so do ``shard-NN/`` directories without a recorded count.  Returns
    True when no count is recorded yet.  Writes nothing.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    root = pathlib.Path(data_dir)
    path = root / SHARDS_FILENAME
    if path.exists():
        text = path.read_text()
        try:
            recorded = int(text)
        except ValueError:
            raise FleetError(
                f"{path}: malformed shard count {text!r}"
            ) from None
        if recorded != shards:
            raise FleetError(
                f"{path} records {recorded} shards but the fleet was "
                f"opened with --shards {shards}; pass the recorded count"
            )
        return False
    strays = sorted(p.name for p in root.glob("shard-*") if p.is_dir())
    if strays:
        raise FleetError(
            f"{root} holds {', '.join(strays)} but no {SHARDS_FILENAME} "
            "file; refusing to guess its shard count"
        )
    return True


def record_shards(data_dir: Union[str, pathlib.Path], shards: int) -> None:
    """Write the fleet's shard count at first open; refuse another later
    (see :func:`check_shards`)."""
    if check_shards(data_dir, shards):
        root = pathlib.Path(data_dir)
        root.mkdir(parents=True, exist_ok=True)
        atomic_write(root / SHARDS_FILENAME, f"{shards}\n".encode())


# -- the worker process ---------------------------------------------------


def _send(conn: "connection.Connection", frame: Dict) -> None:
    """Send one JSON frame; a peer that is gone has nobody to tell."""
    try:
        conn.send_bytes(json.dumps(frame, separators=(",", ":")).encode())
    except OSError:
        pass


def _worker_main(
    spec: SessionSpec,
    job: ServeJob,
    shards: int,
    conn: "connection.Connection",
    first_run: bool,
) -> None:
    """Worker process entry point: one shard's :func:`serve_shard`.

    On a first run it sends ``read`` once its feed is read and waits
    for ``open``, which comes after the coordinator published every
    shard's release.  It sends ``ready`` once the session is open and
    recovered and the feed is read, then waits for ``go``.  Ends with
    a ``done`` frame (the outcome and the worker's telemetry
    snapshot), or with an ``error`` frame and exit code 2 on a typed
    error, so no worker traceback reaches the operator.
    """
    registry = telemetry.MetricsRegistry()

    def await_frame(sent: str, expected: str) -> None:
        _send(conn, {"kind": sent})
        if json.loads(conn.recv_bytes())["kind"] != expected:
            raise FleetError("another shard failed to start")

    def ready() -> None:
        await_frame("ready", "go")

    def published() -> None:
        await_frame("read", "open")

    with telemetry.use(registry):
        try:
            outcome = serve_shard(
                spec, job, shards, ready, published if first_run else None
            )
        except SESSION_ERRORS as error:
            _send(conn, {"kind": "error", "error": str(error)})
            exit_code = 2
        except (EOFError, FleetError):
            exit_code = 1  # aborted before ingest: the coordinator says why
        else:
            _send(conn, {
                "kind": "done",
                "outcome": dataclasses.asdict(outcome),
                "telemetry": registry.snapshot(),
            })
            exit_code = outcome.exit_code
    conn.close()
    sys.exit(exit_code)


# -- the coordinator ------------------------------------------------------


@dataclasses.dataclass(eq=False)
class _Worker:
    """The coordinator's handle on one worker process."""

    shard: int
    process: "multiprocessing.process.BaseProcess"
    conn: "connection.Connection"

    def recv(self) -> Dict:
        """The worker's next frame, or ``{}`` once it is gone."""
        try:
            return json.loads(self.conn.recv_bytes())
        except (EOFError, OSError):
            return {}


def _await_all(workers: Sequence[_Worker], kind: str) -> None:
    """Wait for a ``kind`` frame from every worker; raise
    :class:`FleetError` naming the first one that sent anything else."""
    for worker in workers:
        frame = worker.recv()
        if frame.get("kind") != kind:
            worker.process.join()
            reason = frame.get("error") or f"exit {worker.process.exitcode}"
            raise FleetError(f"shard {worker.shard} failed to start: {reason}")


def serve_fleet(
    data_dir: Union[str, pathlib.Path],
    specs: Sequence[SessionSpec],
    job: ServeJob,
    publish: Optional[Callable[[], None]] = None,
) -> List[ShardOutcome]:
    """Serve each shard spec (see :func:`shard_spec`) in its own worker.

    Holds the fleet's owner lock from the first write on.  ``publish``
    is a first run's bootstrap: it runs once every worker has read its
    feed and before any opens its session.  No worker ingests before
    every worker is ready: a startup failure raises :class:`FleetError`
    naming the shard, and the others end without a tick or checkpoint.
    Once all are done, their telemetry merges into the current default
    registry (counters sum across shards), and a typed error in any
    shard raises :class:`FleetError`.  Returns one outcome per spec; a
    worker that died without reporting counts as crashed.
    """
    lock = OwnerLock(pathlib.Path(data_dir) / LOCK_FILENAME)
    if publish is None:
        lock.acquire()
    workers: List[_Worker] = []
    verdict = "abort"
    try:
        context = multiprocessing.get_context()
        for spec in specs:
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(spec, job, len(specs), child_conn, publish is not None),
                name=f"repro-shard-{spec.shard:02d}",
            )
            process.start()
            # Drop the parent's copy of the child end, so a dead worker
            # surfaces as EOF instead of a silent hang.
            child_conn.close()
            workers.append(_Worker(spec.shard, process, parent_conn))
        if publish is not None:
            _await_all(workers, "read")
            lock.acquire()
            publish()
            for worker in workers:
                _send(worker.conn, {"kind": "open"})
        _await_all(workers, "ready")
        verdict = "go"
        for worker in workers:
            _send(worker.conn, {"kind": verdict})
        frames = [worker.recv() for worker in workers]
    finally:
        for worker in workers:
            # Closing our end is no signal: workers forked later hold
            # copies of it.  Say it, then wait for every worker.
            if verdict == "abort":
                _send(worker.conn, {"kind": verdict})
            worker.conn.close()
        for worker in workers:
            worker.process.join()
        lock.release()
    registry = telemetry.default_registry()
    registry.merge(
        [frame["telemetry"] for frame in frames if "telemetry" in frame]
    )
    registry.gauge("fleet.shards").set(len(specs))
    errors = [
        f"shard {worker.shard}: {frame['error']}"
        for worker, frame in zip(workers, frames)
        if "error" in frame
    ]
    if errors:
        raise FleetError("; ".join(errors))
    outcomes = [
        ShardOutcome(**frame["outcome"]) if "outcome" in frame
        else ShardOutcome(exit_code=3)
        for frame in frames
    ]
    registry.counter("fleet.shard_deaths").inc(
        sum(outcome.exit_code == 3 for outcome in outcomes)
    )
    return outcomes


__all__ = [
    "SHARDS_FILENAME",
    "FleetError",
    "check_shards",
    "record_shards",
    "serve_fleet",
    "shard_spec",
]
