"""Per-layer metrics from the span files of traced ``serve`` runs.

:mod:`traced` writes one ``spans-<pid>.json`` per process: the ``main``
process (the CLI, or the fleet coordinator) and one per forked shard
worker.  A span's self time is its duration minus the time its child
spans cover.  Every span name is ``<layer>.<what>``, and a layer's
self time is the sum over its spans, so the layers of the main process
add up to that process's wall time less interpreter start-up; the
``ledger.coverage`` metric checks exactly that.
"""

from __future__ import annotations

import json
import math
import pathlib
import statistics
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional

#: Per-layer metric -> unit, in the order they are reported.
UNITS = {
    "cli.read_trace_s": "s",
    "cli.sink_us_per_msg": "us/msg",
    "logs.match_us_per_msg": "us/msg",
    "logs.memo_hit_rate": "fraction",
    "stream.gather_us_per_msg": "us/msg",
    "nn.predict_us_per_window": "us/window",
    "nn.windows_per_tick": "count",
    "online.cluster_us_per_msg": "us/msg",
    "rca.observe_us_per_tick": "us/tick",
    "codec.encode_us_per_msg": "us/msg",
    "codec.decode_us_per_msg": "us/msg",
    "wal.append_us_per_tick": "us/tick",
    "wal.bytes_per_msg": "B/msg",
    "checkpoint.write_ms": "ms",
    "checkpoint.read_ms": "ms",
    "checkpoint.bytes": "B",
    "checkpoint.count": "count",
    "service.open_s": "s",
    "service.recover_s": "s",
    "service.tick_p50_ms": "ms",
    "service.tick_p98_ms": "ms",
    "service.self_us_per_tick": "us/tick",
    "fleet.partition_s": "s",
    "fleet.coordinator_wait_fraction": "fraction",
    "fleet.worker_busy_fraction": "fraction",
    "fleet.pipe_bytes_per_msg": "B/msg",
    "fleet.shard_skew": "ratio",
    "ledger.coverage": "fraction",
    "ledger.trace_overhead_fraction": "fraction",
}

#: Pooled ticks from which the 98th percentile has ten beyond it.
P98_TICKS = 500


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    n: int
    self_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Process:
    role: str
    spans: List[Span]
    absent: List[str]

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.named(name))


@dataclass
class TracedRun:
    """The span files of one traced run, with what was measured outside.

    ``wall_s`` is the main process's lifetime from spawn to exit;
    ``telemetry`` is its ``--telemetry-out`` snapshot.
    """

    processes: List[Process]
    wall_s: float
    telemetry: Dict

    @property
    def main(self) -> Process:
        return next(p for p in self.processes if p.role == "main")

    @property
    def workers(self) -> List[Process]:
        return [p for p in self.processes if p.role == "worker"]


def load(spans_dir: pathlib.Path) -> List[Process]:
    """Every process's spans, with self times filled in."""
    processes = []
    for path in sorted(pathlib.Path(spans_dir).glob("spans-*.json")):
        raw = json.loads(path.read_text())
        spans = [Span(*row) for row in raw["spans"]]
        for span in spans:
            span.self_s = span.seconds
        for span in spans:
            if span.parent >= 0:
                spans[span.parent].self_s -= span.seconds
        processes.append(Process(raw["role"], spans, raw["absent"]))
    return processes


def ticks(runs: List[TracedRun]) -> int:
    """``process_tick`` calls pooled over every process of ``runs``."""
    return sum(
        len(p.named("service.process_tick"))
        for run in runs for p in run.processes
    )


def layer_seconds(processes: List[Process]) -> Dict[str, float]:
    """Self seconds per layer (the span-name prefix), summed."""
    out: Dict[str, float] = defaultdict(float)
    for process in processes:
        for span in process.spans:
            out[span.name.split(".", 1)[0]] += span.self_s
    return dict(sorted(out.items()))


def _ratio(a: float, b: float) -> Optional[float]:
    return a / b if b else None


def _scaled(factor: float, value: Optional[float]) -> Optional[float]:
    return None if value is None else factor * value


def per_layer(runs: List[TracedRun]) -> Dict[str, float]:
    """The metrics of :data:`UNITS` that ``runs`` exercised.

    Rates pool the spans of all runs; per-run quantities (load, open,
    recover and partition times, checkpoint count) are means over runs
    of the slowest process.  A layer that did no work on the workload
    (RCA without ``--rca``, the fleet with one shard, recovery on a
    fresh directory) is left out.  ``ledger.trace_overhead_fraction``
    needs the untraced runs and is the caller's.
    """
    processes = [p for run in runs for p in run.processes]
    mains = [run.main for run in runs]
    workers = [w for run in runs for w in run.workers]

    def spans(name: str, among: List[Process] = processes) -> List[Span]:
        return [s for p in among for s in p.named(name)]

    def total(name: str, among: List[Process] = processes) -> float:
        return sum(s.seconds for s in spans(name, among))

    def self_total(name: str) -> float:
        return sum(s.self_s for s in spans(name))

    def per_run(name: str) -> Optional[float]:
        if not spans(name):
            return None
        return statistics.mean(
            max(p.total(name) for p in run.processes) for run in runs
        )

    def us_per(name: str, base: float) -> Optional[float]:
        return _scaled(1e6, _ratio(total(name), base)) if spans(name) else None

    scored = spans("stream.observe_batch")
    msgs = sum(s.n for s in scored)
    tick_spans = spans("service.process_tick")
    windows = sum(s.n for s in spans("nn.predict"))
    appends = spans("wal.append")
    writes = spans("checkpoint.write")
    reads = spans("checkpoint.read")
    tick_ms = sorted(s.seconds * 1e3 for s in tick_spans)
    hits = misses = 0
    for run in runs:
        counters = run.telemetry.get("counters", {})
        hits += counters.get("match.memo_hits", 0)
        misses += counters.get("match.memo_misses", 0)

    out: Dict[str, Optional[float]] = {
        "cli.read_trace_s": per_run("cli.read_trace"),
        "cli.sink_us_per_msg": _scaled(1e6, _ratio(
            total("cli.sink") + total("fleet.sink"), msgs
        )),
        "logs.match_us_per_msg": us_per("logs.match_ids", msgs),
        "logs.memo_hit_rate": _ratio(hits, hits + misses),
        "stream.gather_us_per_msg": _scaled(1e6, _ratio(
            self_total("stream.observe_batch"), msgs
        )),
        "nn.predict_us_per_window": us_per("nn.predict", windows),
        "nn.windows_per_tick": _ratio(windows, len(scored)),
        "online.cluster_us_per_msg": _scaled(1e6, _ratio(
            self_total("online.observe_batch"), msgs
        )),
        "rca.observe_us_per_tick": _scaled(1e6, _ratio(
            total("rca.observe_tick") + total("rca.drain_closed"),
            len(spans("rca.observe_tick")),
        )),
        "codec.encode_us_per_msg": us_per("codec.encode", msgs),
        "codec.decode_us_per_msg": us_per("codec.decode", msgs),
        "wal.append_us_per_tick": us_per("wal.append", len(appends)),
        "wal.bytes_per_msg": _ratio(sum(s.n for s in appends), msgs),
        "checkpoint.write_ms": _scaled(1e3, _ratio(
            total("checkpoint.write"), len(writes)
        )),
        "checkpoint.read_ms": _scaled(1e3, _ratio(
            total("checkpoint.read"), len(reads)
        )),
        "checkpoint.bytes": _ratio(sum(s.n for s in writes), len(writes)),
        "checkpoint.count": _ratio(len(writes), len(runs)),
        "service.open_s": per_run("service.open"),
        "service.recover_s": per_run("service.recover"),
        "service.tick_p50_ms": (
            statistics.median(tick_ms) if tick_ms else None
        ),
        # Nearest rank: from P98_TICKS pooled ticks on, ten lie beyond.
        "service.tick_p98_ms": (
            tick_ms[math.ceil(0.98 * len(tick_ms)) - 1]
            if len(tick_ms) >= P98_TICKS else None
        ),
        "service.self_us_per_tick": _scaled(1e6, _ratio(
            self_total("service.process_tick"), len(tick_spans)
        )),
        "ledger.coverage": _ratio(
            sum(s.self_s for m in mains for s in m.spans),
            sum(run.wall_s for run in runs),
        ),
    }
    if workers:
        out.update(_fleet(runs, mains, workers, msgs))
    return {k: v for k, v in out.items() if v is not None}


def _fleet(
    runs: List[TracedRun], mains: List[Process], workers: List[Process],
    msgs: int,
) -> Dict[str, Optional[float]]:
    """The ``fleet.*`` metrics: coordinator and shard-worker balance."""
    drain = sum(m.total("fleet.drain") for m in mains)
    waited = 0.0
    for main in mains:
        drains = {
            i for i, s in enumerate(main.spans) if s.name == "fleet.drain"
        }
        # connection.wait is patched process-wide; keep the coordinator's
        # waits inside a drain.
        waited += sum(
            s.seconds for s in main.named("fleet.wait") if s.parent in drains
        )
    busy = sum(
        w.total(name) for w in workers
        for name in ("service.process_tick", "codec.decode", "fleet.sink")
    )
    skews = []
    for run in runs:
        shard_msgs = [
            sum(s.n for s in w.named("service.process_tick"))
            for w in run.workers
        ]
        if shard_msgs and sum(shard_msgs):
            skews.append(max(shard_msgs) / statistics.mean(shard_msgs))
    return {
        "fleet.partition_s": statistics.mean(
            m.total("fleet.partition") for m in mains
        ),
        "fleet.coordinator_wait_fraction": _ratio(waited, drain),
        "fleet.worker_busy_fraction": _ratio(
            busy, len(workers) / len(runs) * drain
        ),
        "fleet.pipe_bytes_per_msg": _ratio(
            sum(s.n for m in mains for s in m.named("codec.encode")), msgs
        ),
        "fleet.shard_skew": statistics.mean(skews) if skews else None,
    }


def absent(runs: List[TracedRun]) -> List[str]:
    """Targets some traced process could not wrap."""
    return sorted(
        {name for run in runs for p in run.processes for name in p.absent}
    )
