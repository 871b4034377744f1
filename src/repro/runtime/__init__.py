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
  scorer ring buffers, monitor warning state and tick cursor;
* :mod:`repro.runtime.service` — the supervisor tying tick loop,
  WAL, checkpoint cadence, hot model swap and graceful shutdown
  together;
* :mod:`repro.runtime.session` — one shard's serve lifecycle (service,
  RCA, crash drill, CSV sinks), run in-process by ``python -m repro
  serve`` and inside every fleet worker;
* :mod:`repro.runtime.blas` — the BLAS thread count a serve process
  runs on (one per process, set by the session);
* :mod:`repro.runtime.lock` — pid-stamped owner lockfiles so two
  processes can never append to one service's WAL;
* :mod:`repro.runtime.ring` — the deterministic consistent-hash
  ring mapping devices to shards;
* :mod:`repro.runtime.fleet` — the shared-nothing sharded fleet: a
  coordinator routing ingest to per-shard worker processes
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
    read_checkpoint,
    write_checkpoint,
)
from repro.runtime.fleet import (
    FleetConfig,
    FleetCoordinator,
    FleetDrainReport,
    FleetError,
    ShardDrain,
    bootstrap_fleet,
    fleet_has_state,
)
from repro.runtime.lock import LockHeldError, OwnerLock
from repro.runtime.ring import HashRing
from repro.runtime.service import (
    MonitorService,
    ReplayReport,
    ServiceConfig,
    ServiceError,
    TickResult,
    detector_from_release,
    stage_release,
)
from repro.runtime.session import ServeSession, SessionSpec
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
    "FleetConfig",
    "FleetCoordinator",
    "FleetDrainReport",
    "FleetError",
    "HashRing",
    "LockHeldError",
    "MonitorService",
    "OwnerLock",
    "Release",
    "ReplayReport",
    "ServiceConfig",
    "ServeSession",
    "ServiceError",
    "SessionSpec",
    "ShardDrain",
    "StoreError",
    "TickResult",
    "WalCorruptionError",
    "WalRecord",
    "WriteAheadLog",
    "bootstrap_fleet",
    "detector_from_release",
    "fleet_has_state",
    "poison_detector",
    "read_checkpoint",
    "stage_release",
    "write_checkpoint",
]
