"""Durable-runtime benchmarks: WAL ingest overhead, checkpoint latency.

Two questions, one suite:

* what does journaling cost?  The same fleet stream is drained twice
  through an identical :class:`~repro.core.online.OnlineMonitor` —
  once bare (WAL off) and once with the service's journaling step
  bolted on before each tick (WAL on: arena-encode via
  :class:`~repro.runtime.codec.TickEncoder`, CRC, append).  Holding
  the scoring engine object identical isolates the journal cost; the
  service's remaining per-tick bookkeeping is a handful of integer
  checks.  The acceptance bound pins the overhead fraction under 5%;
* what does a snapshot cost?  ``write_checkpoint``/``read_checkpoint``
  round-trip latency and on-disk size over a monitor carrying the full
  sweep's device state.

``run(scale)`` returns a JSON-ready record; ``run.py runtime`` appends
it to ``BENCH_runtime.json`` at the repo root.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

import streaming
from repro.core.detector import LSTMAnomalyDetector
from repro.core.online import OnlineMonitor
from repro.logs.message import SyslogMessage
from repro.runtime.checkpoint import read_checkpoint, write_checkpoint
from repro.runtime.codec import TickEncoder
from repro.runtime.wal import WriteAheadLog


@dataclass(frozen=True)
class RuntimeScale:
    """One runtime-benchmark operating point."""

    name: str
    devices: int
    timed_messages: int
    repeats: int = 3
    tick_size: int = 1024
    checkpoint_repeats: int = 5


SCALES: Dict[str, RuntimeScale] = {
    # The reference point BENCH_runtime.json records: the paper's
    # 38-vPE fleet on one service.
    "default": RuntimeScale(
        name="default", devices=38, timed_messages=16384
    ),
    # CI / perf-marked pytest smoke.  The timed window must stay wide
    # enough (and the repeats deep enough) that best-of timing beats
    # scheduler jitter: the journaling overhead being pinned is a few
    # percent of a drain that only runs a few hundred milliseconds.
    "reduced": RuntimeScale(
        name="reduced",
        devices=16,
        timed_messages=8192,
        repeats=4,
        checkpoint_repeats=3,
    ),
}


def build_detector(scale: RuntimeScale) -> LSTMAnomalyDetector:
    """A fitted float64 detector on the shared streaming corpus."""
    f64, _ = streaming.build_detectors(
        streaming.SCALES[
            "reduced" if scale.name == "reduced" else "default"
        ]
    )
    return f64


def _ticks(
    messages: List[SyslogMessage], tick_size: int
) -> List[List[SyslogMessage]]:
    return [
        messages[index:index + tick_size]
        for index in range(0, len(messages), tick_size)
    ]


def _time_monitor_drain(
    detector: LSTMAnomalyDetector,
    warm: List[SyslogMessage],
    ticks: List[List[SyslogMessage]],
    repeats: int,
) -> float:
    """Best-of wall time for the WAL-off side (bare monitor)."""
    best = float("inf")
    for _ in range(repeats):
        monitor = OnlineMonitor(detector, threshold=float("inf"))
        monitor.observe_batch(warm)
        start = time.perf_counter()
        for tick in ticks:
            monitor.observe_batch(tick)
        best = min(best, time.perf_counter() - start)
    return best


def _time_journaled_drain(
    detector: LSTMAnomalyDetector,
    warm: List[SyslogMessage],
    ticks: List[List[SyslogMessage]],
    repeats: int,
) -> float:
    """Best-of wall time for the WAL-on side (journal, then score).

    Runs the exact journaling step ``MonitorService.process_tick``
    runs — one :class:`TickEncoder` arena encode, CRC, segment append
    — in front of the same ``observe_batch`` the WAL-off side times,
    so the delta between the two sides is the journal alone.
    Checkpointing is cadence-driven and benched separately.
    """
    best = float("inf")
    for _ in range(repeats):
        data_dir = tempfile.mkdtemp(prefix="bench-runtime-")
        try:
            monitor = OnlineMonitor(detector, threshold=float("inf"))
            monitor.observe_batch(warm)
            encoder = TickEncoder()
            with WriteAheadLog(data_dir) as wal:
                start = time.perf_counter()
                for sequence, tick in enumerate(ticks, start=1):
                    wal.append(sequence, encoder.encode(tick))
                    monitor.observe_batch(tick)
                best = min(best, time.perf_counter() - start)
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)
    return best


def bench_wal_overhead(
    scale: RuntimeScale, detector: LSTMAnomalyDetector
) -> Dict[str, float]:
    """WAL-on vs WAL-off drain of the same fleet stream."""
    warmup = scale.devices * (detector.windower.window + 2)
    stream = streaming.fleet_stream(
        scale.devices, warmup + scale.timed_messages
    )
    warm, timed = stream[:warmup], stream[warmup:]
    ticks = _ticks(timed, scale.tick_size)
    off_s = wal_s = float("inf")
    # Interleave the sides so slow load drift cancels out instead of
    # being billed to whichever side ran last.
    for _ in range(scale.repeats):
        off_s = min(
            off_s, _time_monitor_drain(detector, warm, ticks, 1)
        )
        wal_s = min(
            wal_s, _time_journaled_drain(detector, warm, ticks, 1)
        )
    return {
        "devices": scale.devices,
        "timed_messages": len(timed),
        "tick_size": scale.tick_size,
        "wal_off_s": off_s,
        "wal_on_s": wal_s,
        "wal_off_msgs_per_s": len(timed) / off_s,
        "wal_on_msgs_per_s": len(timed) / wal_s,
        "overhead_fraction": wal_s / off_s - 1.0,
    }


def bench_checkpoint(
    scale: RuntimeScale, detector: LSTMAnomalyDetector
) -> Dict[str, float]:
    """Snapshot write/restore latency over a fully warmed fleet."""
    warmup = scale.devices * (detector.windower.window + 2)
    stream = streaming.fleet_stream(
        scale.devices, warmup + 4 * scale.tick_size
    )
    monitor = OnlineMonitor(detector, threshold=float("inf"))
    monitor.run(stream, tick_size=scale.tick_size)
    data_dir = tempfile.mkdtemp(prefix="bench-checkpoint-")
    write_s = read_s = float("inf")
    try:
        path = f"{data_dir}/checkpoint.npz"
        size = 0
        for _ in range(scale.checkpoint_repeats):
            start = time.perf_counter()
            size = write_checkpoint(path, monitor, cursor=1)
            write_s = min(write_s, time.perf_counter() - start)
        restored = OnlineMonitor(detector, threshold=float("inf"))
        for _ in range(scale.checkpoint_repeats):
            start = time.perf_counter()
            read_checkpoint(path).restore(restored)
            read_s = min(read_s, time.perf_counter() - start)
        assert np.array_equal(
            restored.scorer.state_dict()["fill"],
            monitor.scorer.state_dict()["fill"],
        )
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    return {
        "devices": scale.devices,
        "checkpoint_bytes": size,
        "write_s": write_s,
        "restore_s": read_s,
    }


def run(scale_name: str = "default") -> Dict:
    """Run the WAL-overhead and checkpoint benches at one scale."""
    scale = SCALES[scale_name]
    detector = build_detector(scale)
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "scale": scale.name,
        "benchmarks": {
            "wal_ingest": bench_wal_overhead(scale, detector),
            "checkpoint": bench_checkpoint(scale, detector),
        },
    }
