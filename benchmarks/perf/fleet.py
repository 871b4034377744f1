"""Sharded-fleet benchmarks: aggregate throughput, kill drill.

Two questions, one suite:

* what does sharding buy?  The same round-robin fleet stream, written
  as a trace directory with one file per device, is served by fleets
  of 1, 2 and 4 shards (:func:`repro.runtime.fleet.serve_fleet`) at
  each device count.  The aggregate throughput (messages / wall seconds
  of the whole fleet run: spawning the workers, each opening its shard
  and reading its own devices' files, the drain and the final
  checkpoint; bootstrap excluded) is recorded together with its scaling
  ratio against the 1-shard fleet at the same device count.  Shards are
  OS processes, so the ratio is hardware-dependent: on an N-core host
  the expected scaling at 4 shards is ~min(4, N) x, and the record
  therefore carries ``host_cores`` so trajectory points from different
  machines stay comparable (a single-core host pins ~1x by construction
  — the perf gate in ``tests/perf/test_fleet_bench.py`` reads
  ``host_cores`` and asserts the bound the hardware can express);
* does a shard death hurt the rest?  The kill drill crashes the
  busiest shard after a few ticks (through that shard's
  ``SessionSpec.kill_after_ticks``), checks that every surviving shard
  scored its whole feed, reruns the fleet with replay and diffs the
  per-shard score CSVs against an uninterrupted run's: parity must be
  exact (``repr`` float64 rows), with zero dropped and zero
  double-scored rows.

``run(scale)`` returns a JSON-ready record; ``run.py fleet`` appends
it to ``BENCH_fleet.json`` at the repo root.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

import streaming
from repro import telemetry
from repro.core.detector import LSTMAnomalyDetector
from repro.logs.trace import write_streams
from repro.runtime.fleet import record_shards, serve_fleet, shard_spec
from repro.runtime.ring import shard_of
from repro.runtime.service import ServiceConfig, stage_release
from repro.runtime.session import ServeJob, SessionSpec, ShardOutcome
from repro.runtime.store import ArtifactStore


@dataclass(frozen=True)
class FleetScale:
    """One fleet-benchmark operating point."""

    name: str
    shard_counts: Tuple[int, ...]
    device_counts: Tuple[int, ...]
    timed_messages: int
    tick_size: int = 256
    drill_shards: int = 4
    drill_devices: int = 1024
    drill_messages: int = 8192
    drill_kill_after: int = 6
    drill_tick_size: int = 64
    drill_checkpoint_every: int = 5


SCALES: Dict[str, FleetScale] = {
    # The reference sweep BENCH_fleet.json records: up to the 10k+
    # device regime.
    "default": FleetScale(
        name="default",
        shard_counts=(1, 2, 4),
        device_counts=(1024, 4096, 10240),
        timed_messages=49152,
        drill_devices=4096,
    ),
    # CI / perf-marked pytest smoke (<60 s): one sub-4k and one 4k+
    # device point, 1-vs-4 shards.
    "reduced": FleetScale(
        name="reduced",
        shard_counts=(1, 4),
        device_counts=(512, 4096),
        timed_messages=12288,
        drill_devices=512,
        drill_messages=4096,
    ),
}


def host_cores() -> int:
    """CPU cores available to this process (scaling context)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def build_detector(scale: FleetScale) -> LSTMAnomalyDetector:
    """A fitted float64 detector on the shared streaming corpus."""
    f64, _ = streaming.build_detectors(
        streaming.SCALES[
            "reduced" if scale.name == "reduced" else "default"
        ]
    )
    return f64


def write_trace(root: pathlib.Path, devices: int, messages: int) -> pathlib.Path:
    """The synthetic fleet stream as a trace directory."""
    streams: Dict[str, List] = {}
    for message in streaming.fleet_stream(devices, messages):
        streams.setdefault(message.host, []).append(message)
    trace = root / f"trace-d{devices}-m{messages}"
    write_streams(trace, {"vpes": list(streams)}, streams)
    return trace


def make_fleet(
    root: pathlib.Path,
    shards: int,
    detector: LSTMAnomalyDetector,
    checkpoint_every: int = 16,
    scores_path: Optional[str] = None,
) -> List[SessionSpec]:
    """A fresh fleet directory's shard specs, every store bootstrapped."""
    base = SessionSpec(
        service=ServiceConfig(data_dir=root, checkpoint_every=checkpoint_every),
        scores_path=scores_path,
    )
    record_shards(root, shards)
    specs = [shard_spec(base, k) for k in range(shards)]
    for spec in specs:
        stage_release(
            ArtifactStore(spec.service.store_dir), detector, float("inf")
        )
    return specs


def serve(
    specs: List[SessionSpec], job: ServeJob
) -> Tuple[float, List[ShardOutcome]]:
    """One fleet run; returns its wall seconds and shard outcomes."""
    with telemetry.use(telemetry.MetricsRegistry()):
        start = time.perf_counter()
        outcomes = serve_fleet(specs[0].service.data_dir.parent, specs, job)
        return time.perf_counter() - start, outcomes


def bench_scaling(scale: FleetScale, root: pathlib.Path) -> Dict:
    """The shards x devices aggregate-throughput sweep."""
    detector = build_detector(scale)
    sweep: List[Dict] = []
    for devices in scale.device_counts:
        trace = write_trace(root, devices, scale.timed_messages)
        job = ServeJob(trace=str(trace), tick_size=scale.tick_size)
        base_rate: Optional[float] = None
        for shards in scale.shard_counts:
            specs = make_fleet(
                root / f"sweep-d{devices}-s{shards}", shards, detector
            )
            wall, outcomes = serve(specs, job)
            if any(outcome.exit_code for outcome in outcomes):
                raise RuntimeError(
                    f"a shard crashed during a timing run: {outcomes}"
                )
            rate = scale.timed_messages / wall
            if shards == 1:
                base_rate = rate
            sweep.append(
                {
                    "devices": devices,
                    "shards": shards,
                    "messages": scale.timed_messages,
                    "wall_s": wall,
                    "msgs_per_s": rate,
                    "scaling_vs_1shard": (
                        rate / base_rate if base_rate else 1.0
                    ),
                }
            )
    return {
        "tick_size": scale.tick_size,
        "timed_messages": scale.timed_messages,
        "host_cores": host_cores(),
        "sweep": sweep,
    }


def _read_rows(specs: List[SessionSpec]) -> List[str]:
    """All CSV rows across one fleet's per-shard score files."""
    rows: List[str] = []
    for spec in specs:
        rows.extend(pathlib.Path(spec.scores_path).read_text().splitlines())
    return rows


def bench_kill_drill(scale: FleetScale, root: pathlib.Path) -> Dict:
    """Kill the busiest shard mid-drain; prove replay parity.

    The baseline run and the drill run serve the same trace over the
    same shard count; after the drill's crash, the survivors' complete
    drains and the replay rerun, the union of per-shard CSV rows must
    match the baseline's exactly — replayed ticks re-land byte-for-
    byte (``repr`` float64) and collapse like CI's ``sort -u``.
    """
    detector = build_detector(scale)
    shards = scale.drill_shards
    trace = write_trace(root, scale.drill_devices, scale.drill_messages)
    owned = Counter(
        shard_of(message.host, shards)
        for message in streaming.fleet_stream(
            scale.drill_devices, scale.drill_messages
        )
    )
    # Kill the shard carrying the most messages so the drill always
    # crashes a loaded worker.
    victim = max(range(shards), key=lambda shard: owned[shard])
    job = ServeJob(trace=str(trace), tick_size=scale.drill_tick_size)

    baseline = make_fleet(
        root / "drill-baseline", shards, detector,
        scale.drill_checkpoint_every, str(root / "drill-baseline.csv"),
    )
    serve(baseline, job)

    drill = make_fleet(
        root / "drill-crash", shards, detector,
        scale.drill_checkpoint_every, str(root / "drill-crash.csv"),
    )
    drill[victim] = replace(
        drill[victim], kill_after_ticks=scale.drill_kill_after
    )
    _, crashed = serve(drill, job)
    survivors_stalled = any(
        len(_read_rows([spec])) != owned[spec.shard]
        for spec in drill
        if spec.shard != victim
    )
    drill[victim] = replace(drill[victim], kill_after_ticks=None)
    _, resumed = serve(drill, replace(job, replay=True))

    baseline_rows = _read_rows(baseline)
    drill_rows = _read_rows(drill)
    baseline_set: Set[str] = set(baseline_rows)
    drill_set: Set[str] = set(drill_rows)
    return {
        "devices": scale.drill_devices,
        "shards": shards,
        "messages": scale.drill_messages,
        "killed_shard": victim,
        "kill_after_ticks": scale.drill_kill_after,
        "replayed_ticks": resumed[victim].recovered["ticks"],
        "crashed_dead_shards": [
            k for k, outcome in enumerate(crashed) if outcome.exit_code
        ],
        "resumed_dead_shards": [
            k for k, outcome in enumerate(resumed) if outcome.exit_code
        ],
        "survivors_stalled": survivors_stalled,
        "score_parity": baseline_set == drill_set,
        "dropped_rows": len(baseline_set - drill_set),
        "double_scored_rows": len(drill_set - baseline_set),
        "baseline_rows": len(baseline_rows),
        "drill_rows": len(drill_rows),
        "replayed_duplicate_rows": len(drill_rows) - len(drill_set),
    }


def run(scale_name: str = "default") -> Dict:
    """Run the fleet suite at one scale; returns the run record."""
    scale = SCALES[scale_name]
    root = pathlib.Path(tempfile.mkdtemp(prefix="bench-fleet-"))
    try:
        record = {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "scale": scale.name,
            "benchmarks": {
                "fleet_scaling": bench_scaling(scale, root),
                "kill_drill": bench_kill_drill(scale, root),
            },
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return record


if __name__ == "__main__":
    import json

    print(json.dumps(run("reduced"), indent=2))
