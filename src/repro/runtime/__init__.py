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
* :mod:`repro.runtime.blas` — the one BLAS thread a serve process runs
  on: pinned at load by ``python -m repro serve``, limited at run time
  by every open session;
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

This init re-exports nothing: import from the submodules, so that
``import repro.runtime.blas`` loads neither numpy nor the rest of the
runtime.
"""
