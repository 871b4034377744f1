"""Command-line interface: the operator workflow end to end.

Subcommands::

    python -m repro simulate --out trace/ --vpes 4 --months 2
    python -m repro mine     --trace trace/ --out templates.json
    python -m repro train    --trace trace/ --templates templates.json \
                             --out model/
    python -m repro detect   --trace trace/ --model model/ \
                             --out anomalies.csv
    python -m repro report   --trace trace/ --anomalies anomalies.csv
    python -m repro serve    --data-dir service/ --trace trace/ \
                             --model model/ --threshold 6.0

Data formats are deliberately simple and inspectable:

* ``trace/<vpe>.jsonl`` — one JSON object per syslog message;
* ``trace/tickets.csv`` — ``vpe,root_cause,report_time,repair_time``;
* ``trace/meta.json`` — trace bounds and simulation parameters;
* ``templates.json`` — the serialized template store;
* ``model/weights.npz`` + ``model/config.json`` — the LSTM detector;
* ``anomalies.csv`` — ``vpe,time,score`` rows above the threshold.
"""

from __future__ import annotations

import argparse
import csv
import json
import pathlib
import sys
import zipfile
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.core.detector import LSTMAnomalyDetector
from repro.devtools.cli import add_check_parser
from repro.core.online import OnlineMonitor
from repro.logs.message import MessageBatch, SyslogMessage
from repro.logs.persistence import store_from_json, store_to_json
from repro.logs.templates import TemplateStore
from repro.logs.trace import (
    TraceError,
    merge_streams,
    read_streams,
    write_streams,
)
from repro.rca import DEFAULT_CLUSTER_GAP
from repro.runtime.adapt import AdaptConfig
from repro.runtime.fleet import (
    FleetError,
    check_shards,
    record_shards,
    serve_fleet,
    shard_spec,
)
from repro.runtime.service import ServiceConfig, stage_release
from repro.runtime.session import (
    SESSION_ERRORS,
    ServeJob,
    ServeSession,
    SessionSpec,
    ShardOutcome,
    serve_shard,
)
from repro.runtime.store import ArtifactStore, StoreError
from repro.tickets.ticket import RootCause, TroubleTicket
from repro.timeutil import DAY, MONTH, WEEK
from repro.topology import FleetTopology, TopologyConfig

if TYPE_CHECKING:
    from repro.synthesis import FleetDataset

# Only what ``serve`` runs is imported above.  The offline subcommands
# import the rest (synthesis, evaluation, mapping, adaptation, the
# checker) when they run, so a serve process and the fleet workers it
# forks never load them.


class InputError(Exception):
    """Operator input refused before any work: a number out of range,
    a model that is not there.  ``main`` prints it in one line and
    exits 2."""


# -- trace I/O ------------------------------------------------------------


def write_trace(dataset: FleetDataset, out_dir: pathlib.Path) -> None:
    """Persist a FleetDataset as jsonl streams + tickets.csv + meta."""
    from repro.synthesis import write_incidents

    meta = {
        "start": dataset.start,
        "end": dataset.end,
        "vpes": dataset.vpe_names,
        "updates": [
            {
                "time": update.time,
                "affected": sorted(update.affected_vpes),
            }
            for update in dataset.updates
        ],
    }
    write_streams(out_dir, meta, dataset.messages)
    with open(out_dir / "tickets.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["vpe", "root_cause", "report_time", "repair_time"]
        )
        for ticket in dataset.tickets:
            writer.writerow(
                [
                    ticket.vpe,
                    ticket.root_cause.value,
                    f"{ticket.report_time:.3f}",
                    f"{ticket.repair_time:.3f}",
                ]
            )
    if dataset.topology is not None:
        dataset.topology.save(out_dir / "topology.json")
    if dataset.incidents:
        write_incidents(dataset.incidents, out_dir / "incidents.csv")


def read_trace(
    trace_dir: pathlib.Path,
    owns: Optional[Callable[[str], bool]] = None,
    with_tickets: bool = True,
) -> Tuple[dict, Dict[str, MessageBatch], List[TroubleTicket]]:
    """Load a trace directory written by :func:`write_trace`; with
    ``owns``, only the message streams of the vPEs it accepts.  Without
    ``with_tickets`` no ``tickets.csv`` is read (a collector's directory
    holds none) and the ticket list is empty."""
    meta, messages = read_streams(trace_dir, owns)
    tickets = _read_tickets(trace_dir / "tickets.csv") if with_tickets else []
    return meta, messages, tickets


def _read_tickets(path: pathlib.Path) -> List[TroubleTicket]:
    """``tickets.csv``; a missing file or a bad row is a
    :class:`TraceError` naming the file (and the row's line)."""
    tickets: List[TroubleTicket] = []
    try:
        with open(path) as handle:
            reader = csv.DictReader(handle)
            for row in reader:
                kwargs = {}
                if row["root_cause"] == RootCause.DUPLICATE.value:
                    # originals are not tracked in the csv; synthesize one
                    kwargs["original_ticket_id"] = -1
                tickets.append(
                    TroubleTicket(
                        vpe=row["vpe"],
                        root_cause=RootCause(row["root_cause"]),
                        report_time=float(row["report_time"]),
                        repair_time=float(row["repair_time"]),
                        **kwargs,
                    )
                )
    except OSError as error:
        raise TraceError(f"{path}: cannot read ({error.strerror})") from None
    except KeyError as error:
        raise TraceError(
            f"{path}:{reader.line_num}: row has no {error.args[0]!r} field"
        ) from None
    except (TypeError, ValueError, csv.Error) as error:
        raise TraceError(
            f"{path}:{reader.line_num}: bad ticket ({error})"
        ) from None
    return tickets


def _serve_feed(
    trace_dir: str, owns: Optional[Callable[[str], bool]] = None
) -> MessageBatch:
    """A serving shard's feed, loaded like every other command's trace
    through :func:`read_trace` (the layer ``benchmarks/e2e`` times as
    ``cli.read_trace``), without tickets."""
    _, messages, _ = read_trace(
        pathlib.Path(trace_dir), owns, with_tickets=False
    )
    return merge_streams(messages)


def _normal_messages(
    messages: Sequence[SyslogMessage],
    tickets: Sequence[TroubleTicket],
    vpe: str,
    margin: float = 3 * DAY,
) -> List[SyslogMessage]:
    """The 3-day ticket scrub, over CLI-loaded data."""
    intervals = sorted(
        (t.report_time - margin, t.repair_time)
        for t in tickets
        if t.vpe == vpe
    )
    out = []
    for message in messages:
        if any(lo <= message.timestamp <= hi for lo, hi in intervals):
            continue
        out.append(message)
    return out


# -- subcommands ------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    """Generate a synthetic fleet trace and write it to ``--out``."""
    from repro.synthesis import (
        FleetSimulator,
        SimulationConfig,
        correlated_outage_config,
        update_soak_config,
    )

    if args.scenario == "correlated-outage":
        if not args.topology:
            print(
                "--scenario correlated-outage requires --topology",
                file=sys.stderr,
            )
            return 2
        config = correlated_outage_config(
            n_vpes=args.vpes,
            n_months=args.months,
            seed=args.seed,
            base_rate_per_hour=args.rate,
            n_outages=args.outages,
        )
    elif args.scenario == "update-soak":
        config = update_soak_config(
            n_vpes=args.vpes,
            n_months=args.months,
            seed=args.seed,
            base_rate_per_hour=args.rate,
            update_month=(
                args.update_month
                if args.update_month is not None
                else max(1, args.months // 2)
            ),
        )
    else:
        config = SimulationConfig(
            n_vpes=args.vpes,
            n_months=args.months,
            seed=args.seed,
            base_rate_per_hour=args.rate,
            update_month=args.update_month,
            n_fleet_events=args.fleet_events,
            topology=TopologyConfig() if args.topology else None,
        )
    dataset = FleetSimulator(config).run()
    out_dir = pathlib.Path(args.out)
    write_trace(dataset, out_dir)
    extras = ""
    if dataset.topology is not None:
        extras = (
            f", topology over {len(dataset.topology)} devices"
            f", {len(dataset.incidents)} labeled outages"
        )
    print(
        f"wrote {dataset.n_messages:,} messages, "
        f"{len(dataset.tickets)} tickets to {out_dir}/{extras}"
    )
    return 0


def cmd_mine(args: argparse.Namespace) -> int:
    """Mine templates from a trace's ticket-scrubbed normal periods."""
    trace_dir = pathlib.Path(args.trace)
    _, messages, tickets = read_trace(trace_dir)
    training: List[SyslogMessage] = []
    for vpe, stream in messages.items():
        training.extend(_normal_messages(stream, tickets, vpe))
    training.sort(key=lambda m: m.timestamp)
    store = TemplateStore().fit(training[: args.max_messages])
    pathlib.Path(args.out).write_text(store_to_json(store))
    print(
        f"mined {store.vocabulary_size - 1} templates from "
        f"{min(len(training), args.max_messages):,} normal messages"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    """Train the LSTM detector on a trace's first ``--train-days``."""
    trace_dir = pathlib.Path(args.trace)
    meta, messages, tickets = read_trace(trace_dir)
    store = store_from_json(
        pathlib.Path(args.templates).read_text()
    )
    train_end = meta["start"] + args.train_days * DAY
    training_streams: List[List[SyslogMessage]] = []
    for vpe, stream in messages.items():
        training_streams.append([
            m
            for m in _normal_messages(stream, tickets, vpe)
            if m.timestamp < train_end
        ])
    detector = LSTMAnomalyDetector(
        store,
        vocabulary_capacity=args.capacity,
        window=args.window,
        hidden=(args.hidden, args.hidden),
        epochs=args.epochs,
        max_train_samples=args.max_samples,
        seed=args.seed,
    )
    detector.fit_streams(training_streams)
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    detector.model.save(str(out_dir / "weights.npz"))
    (out_dir / "config.json").write_text(
        json.dumps(
            {
                "capacity": args.capacity,
                "window": args.window,
                "hidden": args.hidden,
                "templates": args.templates,
            }
        )
    )
    total = sum(len(stream) for stream in training_streams)
    print(
        f"trained on {total:,} normal messages; model in "
        f"{out_dir}/"
    )
    return 0


def _load_detector(model_dir: pathlib.Path) -> LSTMAnomalyDetector:
    """The ``train`` output in ``model_dir``; a model that cannot be
    read or loaded is an :class:`InputError` naming the file."""
    path = model_dir / "config.json"
    try:
        config = json.loads(path.read_text())
        capacity, window = config["capacity"], config["window"]
        hidden = config["hidden"]
        path = pathlib.Path(config["templates"])
        store = store_from_json(path.read_text())
        detector = LSTMAnomalyDetector(
            store,
            vocabulary_capacity=capacity,
            window=window,
            hidden=(hidden, hidden),
        )
        path = model_dir / "weights.npz"
        detector.restore_weights(str(path))
    except OSError as error:
        raise InputError(
            f"{error.filename}: cannot read the model ({error.strerror})"
        ) from None
    except (ValueError, KeyError, zipfile.BadZipFile) as error:
        raise InputError(
            f"{path}: cannot load the model "
            f"({type(error).__name__}: {error})"
        ) from None
    return detector


def cmd_detect(args: argparse.Namespace) -> int:
    """Score a trace; write above-threshold anomalies as CSV."""
    trace_dir = pathlib.Path(args.trace)
    meta, messages, _ = read_trace(trace_dir, with_tickets=False)
    detector = _load_detector(pathlib.Path(args.model))
    scored = {
        vpe: detector.score(
            [m for m in stream if m.timestamp >= args.start]
            if args.start
            else stream
        )
        for vpe, stream in messages.items()
    }
    if args.threshold is None:
        pooled = np.concatenate(
            [s.scores for s in scored.values() if len(s)]
        )
        threshold = float(np.quantile(pooled, args.quantile))
    else:
        threshold = args.threshold
    rows = 0
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["vpe", "time", "score"])
        for vpe, stream in scored.items():
            mask = stream.scores > threshold
            for t, s in zip(stream.times[mask],
                            stream.scores[mask]):
                writer.writerow([vpe, f"{t:.3f}", f"{s:.4f}"])
                rows += 1
    print(
        f"wrote {rows} anomalies (threshold {threshold:.3f}) to "
        f"{args.out}"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Map detected anomalies to tickets; print the metrics table."""
    from repro.core.mapping import map_anomalies, warning_clusters
    from repro.evaluation.reporting import format_table

    trace_dir = pathlib.Path(args.trace)
    meta, _, tickets = read_trace(trace_dir)
    per_vpe: Dict[str, List[float]] = {}
    with open(args.anomalies) as handle:
        for row in csv.DictReader(handle):
            per_vpe.setdefault(row["vpe"], []).append(
                float(row["time"])
            )
    detections = {
        vpe: warning_clusters(np.asarray(sorted(times)))
        for vpe, times in per_vpe.items()
    }
    mapping = map_anomalies(
        detections, tickets, predictive_period=args.window_days * DAY
    )
    counts = mapping.counts
    span = meta["end"] - meta["start"]
    table = format_table(
        ["metric", "value"],
        [
            ["warning signatures", len(mapping.records)],
            ["precision", f"{counts.precision:.2f}"],
            ["recall", f"{counts.recall:.2f}"],
            ["F-measure", f"{counts.f_measure:.2f}"],
            [
                "false alarms / day",
                f"{mapping.false_alarms_per_day(span):.2f}",
            ],
        ],
        title="detection report",
    )
    print(table)
    return 0


# -- serve ----------------------------------------------------------------


#: Typed errors ``serve`` reports in one line with exit code 2: bad
#: on-disk state or trace, a held lock, an unreadable topology, a fleet
#: directory opened with another shard count.
_SERVE_ERRORS = (*SESSION_ERRORS, FleetError)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the durable monitoring service over a trace feed.

    Bootstraps the artifact store from ``--model``/``--threshold`` on
    first run; on later runs ``--replay`` restores the checkpoint and
    replays unacknowledged WAL ticks before resuming the feed.  With
    ``--shards N`` (N > 1) the data dir holds a fleet of N shards: one
    worker process each, serving the vPE files
    :func:`~repro.runtime.ring.shard_of` gives it through the same
    :func:`~repro.runtime.session.serve_shard` single-shard ``serve``
    runs in-process, so every other flag applies to every shard.
    Exit codes: 0 on success, 2 on operator error or bad on-disk state
    or trace, 3 when a shard crashed (``--kill-after-ticks``).
    """
    _check_serve_flags(args)
    registry = telemetry.MetricsRegistry()
    try:
        with telemetry.use(registry):
            return _run_serve(args)
    except _SERVE_ERRORS as error:
        print(str(error), file=sys.stderr)
        return 2
    finally:
        if args.telemetry_out:
            pathlib.Path(args.telemetry_out).write_text(
                registry.to_json()
            )


def _check_serve_flags(args: argparse.Namespace) -> None:
    """Refuse a number out of range before any state is written; deep
    in the run it would end in a traceback.  The ``--rca`` and
    ``--auto-adapt`` knobs count only in their mode."""
    ranges = [
        ("--tick-size", args.tick_size >= 1, ">= 1"),
        ("--checkpoint-every", args.checkpoint_every >= 1, ">= 1"),
        ("--keep-releases", args.keep_releases >= 1, ">= 1"),
        ("--shards", args.shards >= 1, ">= 1"),
    ]
    if args.rca:
        ranges.append(("--rca-gap", args.rca_gap > 0, "> 0"))
    if args.auto_adapt:
        ranges += [
            ("--drift-threshold", 0 < args.drift_threshold < 1, "in (0, 1)"),
            ("--drift-checks", args.drift_checks >= 1, ">= 1"),
            ("--adapt-replay-ticks", args.adapt_replay_ticks >= 1, ">= 1"),
            ("--probation-ticks", args.probation_ticks >= 1, ">= 1"),
            ("--rollback-ratio", args.rollback_ratio > 0, "> 0"),
            ("--adapt-epochs", args.adapt_epochs >= 1, ">= 1"),
            ("--adapt-cooldown-ticks", args.adapt_cooldown_ticks >= 0, ">= 0"),
        ]
    for flag, ok, rule in ranges:
        if not ok:
            value = getattr(args, flag[2:].replace("-", "_"))
            raise InputError(f"{flag} must be {rule}, got {value}")


def _stores_to_bootstrap(
    args: argparse.Namespace, configs: Sequence[ServiceConfig]
) -> Tuple[List[ArtifactStore], Optional[LSTMAnomalyDetector]]:
    """The stores with no release, and the ``--model`` to publish there.

    Everything that can refuse a first run (missing flags, a model
    that is not there) happens here, before any file is written, so a
    refused run leaves the data dir as it found it.
    """
    stores = [
        ArtifactStore(config.store_dir, keep_releases=config.keep_releases)
        for config in configs
    ]
    empty = [store for store in stores if store.current_id() is None]
    if not empty:
        return [], None
    if args.model is None or args.threshold is None:
        raise InputError(
            f"{empty[0].directory} holds no release; bootstrap needs "
            "--model and --threshold"
        )
    return empty, _load_detector(pathlib.Path(args.model))


def _run_rollback(configs: Sequence[ServiceConfig]) -> int:
    """``serve --rollback``: journal a rollback swap in every store and
    checkpoint it, so a later ``--replay`` resumes under the rolled-back
    model.  Refuses before touching any store unless each one retains
    an earlier release."""
    for config in configs:
        store = ArtifactStore(
            config.store_dir, keep_releases=config.keep_releases
        )
        try:
            store.previous_id()
        except StoreError as error:
            raise StoreError(f"{store.directory}: {error}") from None
    for config in configs:
        session = ServeSession(SessionSpec(service=config))
        try:
            release_id = session.rollback()
        except BaseException:
            # The swap did not land: no checkpoint, just surrender the
            # files so the next attempt can lock them.
            session.abandon()
            raise
        session.close()
        print(f"rolled back {config.data_dir} to release {release_id}")
    return 0


def _adapt_config(args: argparse.Namespace) -> Optional[AdaptConfig]:
    """The ``--auto-adapt`` controller config for a serve run (or None)."""
    if not args.auto_adapt:
        return None
    return AdaptConfig(
        drift_threshold=args.drift_threshold,
        drift_checks=args.drift_checks,
        replay_ticks=args.adapt_replay_ticks,
        probation_ticks=args.probation_ticks,
        rollback_ratio=args.rollback_ratio,
        epochs=args.adapt_epochs,
        cooldown_ticks=args.adapt_cooldown_ticks,
        inline=args.adapt_inline,
        poison=args.adapt_poison,
    )


def _report(args: argparse.Namespace, outcome: ShardOutcome, prefix: str) -> None:
    """Print how one shard's serve ended, each line led by ``prefix``."""
    if outcome.recovered is not None:
        replay = outcome.recovered
        print(
            f"{prefix}recovered from cursor {replay['checkpoint_cursor']}; "
            f"replayed {replay['ticks']} ticks ({replay['messages']} "
            f"messages, {replay['swaps']} swaps)"
        )
    if outcome.exit_code == 3:
        crash = (
            "died without reporting" if outcome.crashed_at is None else
            f"simulated crash at journal sequence {outcome.crashed_at}"
        )
        print(f"{prefix}{crash}; rerun with --replay", file=sys.stderr)
        return
    print(
        f"{prefix}served {outcome.live_ticks} live ticks "
        f"({outcome.warnings} warnings)"
    )
    if args.rca:
        print(f"{prefix}rca: {outcome.incidents} incident(s) closed this run")
    if args.auto_adapt:
        abandoned = (
            f"; {outcome.abandoned} fine-tune(s) abandoned at shutdown "
            "(--replay relaunches it at its first live tick)"
            if outcome.abandoned else ""
        )
        print(
            f"{prefix}adaptation: {outcome.swaps} swap(s), "
            f"{outcome.rollbacks} rollback(s) this run{abandoned}"
        )


def _run_serve(args: argparse.Namespace) -> int:
    """``serve`` in either mode: one :func:`serve_shard` per shard."""
    spec = SessionSpec(
        service=ServiceConfig(
            data_dir=args.data_dir,
            checkpoint_every=args.checkpoint_every,
            keep_releases=args.keep_releases,
            quantized=args.quantized,
        ),
        scores_path=args.scores_out,
        warnings_path=args.warnings_out,
        incidents_path=args.incidents_out,
        kill_after_ticks=args.kill_after_ticks,
        rca=args.rca,
        rca_gap=args.rca_gap,
    )
    specs = [spec]
    if args.shards > 1:
        check_shards(args.data_dir, args.shards)
        specs = [shard_spec(spec, k) for k in range(args.shards)]
    configs = [shard.service for shard in specs]
    if args.rollback:
        return _run_rollback(configs)
    if args.rca and args.topology:
        topology = FleetTopology.load(args.topology)
        specs = [replace(shard, topology=topology) for shard in specs]
    empty, detector = _stores_to_bootstrap(args, configs)
    publish = None
    if empty:
        # Runs once every shard has read its feed: a trace that cannot
        # be read leaves no release and no data dir behind.
        def publish() -> None:
            if args.shards > 1:
                record_shards(args.data_dir, args.shards)
            for store in empty:
                release = stage_release(store, detector, args.threshold)
                print(
                    f"published release {release.release_id} to "
                    f"{store.directory}"
                )

    job = ServeJob(
        trace=args.trace,
        read=_serve_feed,
        tick_size=args.tick_size,
        max_ticks=args.max_ticks,
        replay=args.replay,
        adapt=_adapt_config(args),
    )
    if args.shards == 1:
        outcome = serve_shard(specs[0], job, publish=publish)
        _report(args, outcome, "")
        print(f"state in {args.data_dir}")
        return outcome.exit_code
    outcomes = serve_fleet(args.data_dir, specs, job, publish)
    for shard, outcome in zip(specs, outcomes):
        _report(args, outcome, f"shard {shard.shard:02d}: ")
    print(f"served across {args.shards} shards; fleet state in {args.data_dir}")
    return max(outcome.exit_code for outcome in outcomes)


#: Invariants asserted by ``repro telemetry --check``: the CI gate
#: fails the build when instrumentation of any layer regresses.
_TELEMETRY_CHECKS = (
    "stream.messages_scored > 0",
    "match.memo_hit_rate >= 0.5",
    "stream.n_reordered == 0",
    "every layer (mine/match, train, stream, adapt) reports metrics",
)


def _check_snapshot(snapshot: Dict) -> List[str]:
    """Validate the telemetry-smoke invariants; return failures."""
    counters = snapshot["counters"]
    gauges = snapshot["gauges"]
    failures: List[str] = []
    if counters.get("stream.messages_scored", 0) <= 0:
        failures.append(
            "stream.messages_scored: expected > 0, got "
            f"{counters.get('stream.messages_scored', 0)}"
        )
    hit_rate = gauges.get("match.memo_hit_rate", 0.0)
    if hit_rate < 0.5:
        failures.append(
            f"match.memo_hit_rate: expected >= 0.5, got {hit_rate}"
        )
    reordered = counters.get("stream.n_reordered", 0)
    if reordered != 0:
        failures.append(
            f"stream.n_reordered: expected 0, got {reordered}"
        )
    names = (
        list(counters)
        + list(gauges)
        + list(snapshot["histograms"])
    )
    for prefix in ("mine.", "match.", "train.", "stream.", "adapt."):
        if not any(name.startswith(prefix) for name in names):
            failures.append(f"no metrics published under {prefix}*")
    return failures


def _telemetry_smoke(args: argparse.Namespace) -> None:
    """One in-memory pass through every instrumented layer.

    Simulate two months for a small fleet, mine templates and train on
    month 1, stream month 2 through the online monitor, then run the
    drift check and one transfer adaptation — so the resulting
    snapshot carries mine/match, train, stream and adapt metrics.
    """
    from repro.core.adaptation import distribution_shift, transfer_adapt
    from repro.synthesis import FleetSimulator, SimulationConfig

    config = SimulationConfig(
        n_vpes=args.vpes,
        n_months=2,
        seed=args.seed,
        base_rate_per_hour=args.rate,
        update_month=1,
        n_fleet_events=0,
    )
    dataset = FleetSimulator(config).run()
    split = dataset.start + MONTH

    training_streams = [
        dataset.normal_messages(vpe, dataset.start, split)
        for vpe in dataset.messages
    ]
    store = TemplateStore()
    store.fit(
        sorted(
            (m for s in training_streams for m in s),
            key=lambda m: m.timestamp,
        )
    )
    detector = LSTMAnomalyDetector(
        store,
        vocabulary_capacity=store.vocabulary_size + 64,
        window=6,
        hidden=(8, 8),
        epochs=1,
        oversample_rounds=0,
        max_train_samples=2000,
        seed=args.seed,
    )
    detector.fit_streams(training_streams)

    month1 = dataset.aggregate_messages(end=split)
    scored = detector.score(month1)
    threshold = (
        float(np.quantile(scored.scores, 0.99))
        if len(scored)
        else float("inf")
    )

    month2 = dataset.aggregate_messages(start=split)
    month2.sort(key=lambda m: m.timestamp)
    monitor = OnlineMonitor(detector, threshold=threshold)
    monitor.run(month2, tick_size=512)

    week = [m for m in month2 if m.timestamp < split + WEEK]
    distribution_shift(
        store.transform(month1),
        store.transform(week),
        store.vocabulary_size,
    )
    if week:
        transfer_adapt(detector, week, epochs=1)


def cmd_telemetry(args: argparse.Namespace) -> int:
    """Run the end-to-end smoke and print/check its telemetry snapshot.

    With ``--merge FILE...`` no smoke runs; the named JSON snapshots
    are folded into one registry instead (counters sum, gauges take
    the last write, histograms merge bucket-wise) — the multi-run /
    multi-shard aggregation view.
    """
    registry = telemetry.MetricsRegistry()
    if args.merge:
        if args.check:
            print(
                "--check asserts the smoke-run invariants; it does "
                "not apply to --merge aggregation",
                file=sys.stderr,
            )
            return 2
        try:
            snapshots = [
                json.loads(pathlib.Path(path).read_text())
                for path in args.merge
            ]
            registry.merge(snapshots)
        except (OSError, ValueError, KeyError) as error:
            print(f"cannot merge snapshots: {error}", file=sys.stderr)
            return 2
    else:
        with telemetry.use(registry):
            _telemetry_smoke(args)
    if args.format == "prometheus":
        rendered = registry.to_prometheus()
    else:
        rendered = registry.to_json()
    if args.out:
        pathlib.Path(args.out).write_text(rendered)
        print(f"wrote telemetry snapshot to {args.out}")
    else:
        print(rendered)
    if args.check:
        failures = _check_snapshot(registry.snapshot())
        for failure in failures:
            print(f"telemetry check failed: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(
            f"telemetry checks passed ({len(_TELEMETRY_CHECKS)} "
            "invariants)"
        )
    return 0


# -- parser -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser with every subcommand registered."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Predictive analysis for NFV syslogs (IMC 2018 "
            "reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic trace")
    p.add_argument("--out", required=True)
    p.add_argument("--vpes", type=int, default=4)
    p.add_argument("--months", type=int, default=2)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--rate", type=float, default=8.0)
    p.add_argument("--update-month", type=int, default=None)
    p.add_argument("--fleet-events", type=int, default=0)
    p.add_argument(
        "--scenario",
        choices=("default", "update-soak", "correlated-outage"),
        default="default",
        help=(
            "named preset: update-soak drifts the whole fleet at "
            "--update-month (default: mid-trace); correlated-outage "
            "plans --outages upstream faults over the fleet "
            "topology (requires --topology)"
        ),
    )
    p.add_argument(
        "--topology",
        action="store_true",
        help=(
            "build a fleet topology and write it as topology.json "
            "next to meta.json"
        ),
    )
    p.add_argument(
        "--outages",
        type=int,
        default=5,
        help="correlated outages to plan (correlated-outage scenario)",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("mine", help="mine syslog templates")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-messages", type=int, default=50000)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("train", help="train the LSTM detector")
    p.add_argument("--trace", required=True)
    p.add_argument("--templates", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--train-days", type=float, default=30.0)
    p.add_argument("--capacity", type=int, default=160)
    p.add_argument("--window", type=int, default=8)
    p.add_argument("--hidden", type=int, default=24)
    p.add_argument("--epochs", type=int, default=2)
    p.add_argument("--max-samples", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="score a trace for anomalies")
    p.add_argument("--trace", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--start", type=float, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--quantile", type=float, default=0.995)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("report", help="map anomalies to tickets")
    p.add_argument("--trace", required=True)
    p.add_argument("--anomalies", required=True)
    p.add_argument("--window-days", type=float, default=1.0)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "serve", help="run the durable monitoring service"
    )
    p.add_argument("--data-dir", required=True)
    p.add_argument("--trace", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--tick-size", type=int, default=256)
    p.add_argument(
        "--quantized",
        action="store_true",
        help="score through int8-quantized inference (lossy, faster)",
    )
    p.add_argument("--checkpoint-every", type=int, default=16)
    p.add_argument("--keep-releases", type=int, default=3)
    p.add_argument(
        "--replay",
        action="store_true",
        help="restore the checkpoint and replay the WAL first",
    )
    p.add_argument(
        "--rollback",
        action="store_true",
        help=(
            "roll back to the previous release through the "
            "journaled swap path, checkpoint, and exit"
        ),
    )
    p.add_argument(
        "--auto-adapt",
        action="store_true",
        help=(
            "close the drift loop in-service: watch the template "
            "distribution, fine-tune on drift, hot-swap, and roll "
            "back if probation telemetry regresses"
        ),
    )
    p.add_argument(
        "--drift-threshold",
        type=float,
        default=0.5,
        help="cosine similarity below this counts as a drift breach",
    )
    p.add_argument(
        "--drift-checks",
        type=int,
        default=3,
        help="consecutive breaches that trigger a fine-tune",
    )
    p.add_argument(
        "--adapt-replay-ticks",
        type=int,
        default=48,
        help="recent ticks the fine-tune replays as training data",
    )
    p.add_argument(
        "--probation-ticks",
        type=int,
        default=24,
        help="post-swap guard window before a swap is accepted",
    )
    p.add_argument(
        "--rollback-ratio",
        type=float,
        default=3.0,
        help=(
            "roll back when the probation anomaly rate exceeds this "
            "multiple of the pre-drift baseline"
        ),
    )
    p.add_argument(
        "--adapt-epochs",
        type=int,
        default=2,
        help="fine-tune epochs (lower LSTM stays frozen)",
    )
    p.add_argument(
        "--adapt-cooldown-ticks",
        type=int,
        default=32,
        help="ticks after a swap/rollback before drift checks resume",
    )
    p.add_argument(
        "--adapt-inline",
        action="store_true",
        help=(
            "fine-tune synchronously at the tick boundary instead of "
            "in a background worker (deterministic; the CI crash "
            "drill uses this)"
        ),
    )
    p.add_argument(
        "--adapt-poison",
        action="store_true",
        help=(
            "deliberately corrupt every fine-tuned model before "
            "publish — the auto-rollback drill"
        ),
    )
    p.add_argument(
        "--max-ticks",
        type=int,
        default=None,
        help="stop after N live ticks (per shard with --shards)",
    )
    p.add_argument(
        "--kill-after-ticks",
        type=int,
        default=None,
        help=(
            "simulate a crash after N journaled ticks (exit 3); with "
            "--shards, every shard crashes after its own N ticks"
        ),
    )
    p.add_argument("--scores-out", default=None)
    p.add_argument("--warnings-out", default=None)
    p.add_argument("--telemetry-out", default=None)
    p.add_argument(
        "--rca",
        action="store_true",
        help=(
            "run the streaming root-cause engine at tick "
            "boundaries: cluster co-occurring anomalies into "
            "incidents and attribute them over --topology"
        ),
    )
    p.add_argument(
        "--topology",
        default=None,
        help=(
            "fleet topology JSON for --rca (simulate --topology "
            "writes topology.json next to the trace)"
        ),
    )
    p.add_argument(
        "--incidents-out",
        default=None,
        help="append closed-incident CSV rows here (needs --rca)",
    )
    p.add_argument(
        "--rca-gap",
        type=float,
        default=DEFAULT_CLUSTER_GAP,
        help="quiet stream seconds after which an incident closes",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=1,
        help=(
            "serve a fleet of N shards, one worker process each, every "
            "shard serving its own vPEs' files under --data-dir/shard-NN; "
            "the count is recorded at first run and must match later"
        ),
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "telemetry",
        help="run an end-to-end smoke and print its metrics snapshot",
    )
    p.add_argument("--vpes", type=int, default=2)
    p.add_argument("--rate", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--format", choices=("json", "prometheus"), default="json"
    )
    p.add_argument("--out", default=None)
    p.add_argument(
        "--check",
        action="store_true",
        help="assert the telemetry invariants (CI gate)",
    )
    p.add_argument(
        "--merge",
        nargs="+",
        metavar="FILE",
        default=None,
        help="skip the smoke; merge these JSON snapshots instead",
    )
    p.set_defaults(func=cmd_telemetry)

    add_check_parser(sub)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the subcommand's exit code.

    A malformed trace or refused input (:class:`InputError`) ends every
    command with its one-line reason and exit code 2.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TraceError, InputError) as error:
        print(str(error), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
