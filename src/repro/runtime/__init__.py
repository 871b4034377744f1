"""Durable monitoring runtime: WAL, artifact store, checkpoints, swap.

The paper's system monitors 38 vPEs continuously for 18 months — it
must survive restarts, software updates and model refreshes without
losing warning state.  This package is that service shell around the
in-memory streaming engine:

* :mod:`repro.runtime.wal` — append-only, segment-rotated,
  CRC-protected journal of ingested ticks;
* :mod:`repro.runtime.store` — versioned, content-addressed artifact
  store (weights + templates + thresholds as one atomic release,
  with rollback);
* :mod:`repro.runtime.checkpoint` — atomic snapshot/restore of the
  scorer ring buffers, the forming warning clusters and the journal
  cursor (a file this build cannot load is a ``CheckpointError``);
* :mod:`repro.runtime.service` — the supervisor tying tick loop,
  WAL, checkpoint cadence, hot model swap and graceful shutdown
  together;
* :mod:`repro.runtime.session` — one shard's serve lifecycle (service,
  RCA, crash drill, CSV sinks) and ``serve_shard``, one whole run of it,
  called in-process by ``python -m repro serve`` and inside every fleet
  worker;
* :mod:`repro.runtime.blas` — the BLAS thread count a serve process
  runs on (one per process, set by the session);
* :mod:`repro.runtime.lock` — pid-stamped owner lockfiles so two
  processes can never append to one service's WAL;
* :mod:`repro.runtime.ring` — ``shard_of``, the deterministic
  consistent-hash split of devices over a fleet's shards;
* :mod:`repro.runtime.fleet` — the shared-nothing sharded fleet: one
  worker process per shard, each serving its own devices' files
  (``python -m repro serve --shards N``);
* :mod:`repro.runtime.adapt` — the closed-loop drift adaptation
  controller: drift watch → background fine-tune → journaled hot
  swap → probation guard with automatic rollback
  (``python -m repro serve --auto-adapt``).
"""

from repro.runtime.adapt import (
    AdaptConfig,
    AdaptationController,
    poison_detector,
)
from repro.runtime.checkpoint import (
    Checkpoint,
    CheckpointError,
    read_checkpoint,
    write_checkpoint,
)
from repro.runtime.fleet import FleetError, serve_fleet, shard_spec
from repro.runtime.lock import LockHeldError, OwnerLock
from repro.runtime.ring import shard_of
from repro.runtime.service import (
    MonitorService,
    ReplayReport,
    ServiceConfig,
    ServiceError,
    TickResult,
    detector_from_release,
    stage_release,
)
from repro.runtime.session import (
    ServeJob,
    ServeSession,
    SessionSpec,
    ShardOutcome,
    serve_shard,
)
from repro.runtime.store import ArtifactStore, Release, StoreError
from repro.runtime.wal import (
    WalCorruptionError,
    WalRecord,
    WriteAheadLog,
)

__all__ = [
    "AdaptConfig",
    "AdaptationController",
    "ArtifactStore",
    "Checkpoint",
    "CheckpointError",
    "FleetError",
    "LockHeldError",
    "MonitorService",
    "OwnerLock",
    "Release",
    "ReplayReport",
    "ServeJob",
    "ServeSession",
    "ServiceConfig",
    "ServiceError",
    "SessionSpec",
    "ShardOutcome",
    "StoreError",
    "TickResult",
    "WalCorruptionError",
    "WalRecord",
    "WriteAheadLog",
    "detector_from_release",
    "poison_detector",
    "read_checkpoint",
    "serve_fleet",
    "serve_shard",
    "shard_of",
    "shard_spec",
    "stage_release",
    "write_checkpoint",
]
